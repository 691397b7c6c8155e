"""Loss-layer tests: hand-computed values, reference oracles, gradients."""

import math

import numpy as np
import pytest

from senadapt.losses import (
    PROB_FLOOR,
    binary_domain_loss,
    ce_kernel,
    senone_aware_domain_kernel,
    senone_aware_domain_loss,
    senone_ce_loss,
)
from senadapt.models import marginal_domain_probs
from senadapt.nn import ShapeError, _activation_backward, _softmax


def naive_senone_aware_loss(disc_out, indicator, alpha):
    """Independent double-loop reference for the senone-aware domain loss."""
    N, twoK = disc_out.shape
    K = twoK // 2
    per = np.zeros(N)
    for i in range(N):
        off = K if indicator[i] == 1 else 0
        for k in range(K):
            p = max(disc_out[i, off + k], 1e-12)
            per[i] -= alpha[i, k] * math.log(p)
    return per, per.mean()


class TestSenoneCE:

    def test_uniform_posteriors(self):
        p = np.full((3, 4), 0.25)
        loss, _ = senone_ce_loss(p, np.array([0, 1, 3]), np.ones(3, bool))
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_hand_value_mixed_confidence(self):
        p = np.array([[0.5, 0.5], [0.25, 0.75]])
        loss, _ = senone_ce_loss(p, np.array([0, 0]), np.ones(2, bool))
        assert loss == pytest.approx((math.log(2) + math.log(4)) / 2, abs=1e-12)

    def test_mask_excludes_rows(self):
        p = np.array([[0.5, 0.5], [1e-30, 1.0]])
        loss, grad = senone_ce_loss(p, np.array([0, 0]), np.array([True, False]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        assert np.all(grad[1] == 0.0)

    def test_empty_mask_rejected(self):
        p = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            senone_ce_loss(p, np.array([0, 0]), np.zeros(2, bool))

    def test_label_out_of_range(self):
        p = np.full((1, 2), 0.5)
        with pytest.raises(ValueError):
            senone_ce_loss(p, np.array([2]), np.ones(1, bool))

    def test_gradient_rows(self):
        p = np.array([[0.4, 0.6], [0.1, 0.9]])
        _, grad = senone_ce_loss(p, np.array([0, 1]), np.ones(2, bool))
        assert grad[0, 0] == pytest.approx(-1.0 / (2 * 0.4))
        assert grad[0, 1] == 0.0
        assert grad[1, 1] == pytest.approx(-1.0 / (2 * 0.9))

    def test_floor_bounds_loss(self):
        p = np.array([[0.0, 1.0]])
        loss, _ = senone_ce_loss(p, np.array([0]), np.ones(1, bool))
        assert loss <= math.log(1e12) + 1e-9


class TestBinaryDomainLoss:

    def test_child_half_probability(self):
        out = np.array([[0.5, 0.5]])
        per, mean, _ = binary_domain_loss(out, np.array([1]))
        assert mean == pytest.approx(math.log(2), abs=1e-12)
        assert per[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_child_quarter_probability(self):
        out = np.array([[0.75, 0.25]])
        _, mean, _ = binary_domain_loss(out, np.array([1]))
        assert mean == pytest.approx(math.log(4), abs=1e-12)

    def test_adult_column_selected(self):
        out = np.array([[0.9, 0.1]])
        _, mean, _ = binary_domain_loss(out, np.array([0]))
        assert mean == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_mean_over_frames(self):
        out = np.array([[0.5, 0.5], [0.2, 0.8]])
        _, mean, grad = binary_domain_loss(out, np.array([0, 1]))
        assert mean == pytest.approx((math.log(2) - math.log(0.8)) / 2, abs=1e-12)
        assert grad[0, 0] == pytest.approx(-1.0 / (2 * 0.5))
        assert grad[1, 1] == pytest.approx(-1.0 / (2 * 0.8))
        assert grad[0, 1] == 0.0 and grad[1, 0] == 0.0

    def test_bad_indicator_rejected(self):
        out = np.full((1, 2), 0.5)
        with pytest.raises(ValueError):
            binary_domain_loss(out, np.array([2]))

    def test_wrong_width_rejected(self):
        with pytest.raises(ShapeError):
            binary_domain_loss(np.full((1, 3), 1 / 3), np.array([0]))


class TestSenoneAwareDomainLoss:

    def test_hand_value_two_senones(self):
        # adult frame, alpha = (0.7, 0.3), joint row picks adult block (0.4, 0.1)
        out = np.array([[0.4, 0.1, 0.3, 0.2]])
        alpha = np.array([[0.7, 0.3]])
        _, mean, _ = senone_aware_domain_loss(out, np.array([0]), alpha)
        expect = -(0.7 * math.log(0.4) + 0.3 * math.log(0.1))
        assert mean == pytest.approx(expect, abs=1e-12)

    def test_child_block_selected(self):
        out = np.array([[0.4, 0.1, 0.3, 0.2]])
        alpha = np.array([[0.5, 0.5]])
        _, mean, _ = senone_aware_domain_loss(out, np.array([1]), alpha)
        expect = -(0.5 * math.log(0.3) + 0.5 * math.log(0.2))
        assert mean == pytest.approx(expect, abs=1e-12)

    def test_k1_reduces_to_binary(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(40, 2))
        out = np.exp(logits)
        out /= out.sum(axis=1, keepdims=True)
        ind = rng.integers(0, 2, size=40)
        alpha = np.ones((40, 1))
        per_b, mean_b, grad_b = binary_domain_loss(out, ind)
        per_s, mean_s, grad_s = senone_aware_domain_loss(out, ind, alpha)
        assert np.max(np.abs(per_b - per_s)) <= 1e-12
        assert abs(mean_b - mean_s) <= 1e-12
        assert np.max(np.abs(grad_b - grad_s)) <= 1e-12

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(11)
        K, N = 7, 60
        logits = rng.normal(size=(N, 2 * K))
        out = np.exp(logits)
        out /= out.sum(axis=1, keepdims=True)
        alpha = rng.dirichlet(np.ones(K), size=N)
        ind = rng.integers(0, 2, size=N)
        per, mean, _ = senone_aware_domain_loss(out, ind, alpha)
        ref_per, ref_mean = naive_senone_aware_loss(out, ind, alpha)
        assert np.max(np.abs(per - ref_per)) <= 1e-10
        assert abs(mean - ref_mean) <= 1e-10

    def test_alpha_rows_scale_loss(self):
        # doubling an alpha row doubles that frame's loss: no renormalization
        out = np.array([[0.4, 0.1, 0.3, 0.2]])
        alpha = np.array([[0.7, 0.3]])
        _, m1, _ = senone_aware_domain_loss(out, np.array([0]), alpha)
        _, m2, _ = senone_aware_domain_loss(out, np.array([0]), 2 * alpha)
        assert m2 == pytest.approx(2 * m1, rel=1e-12)

    def test_gradient_zero_outside_true_block(self):
        out = np.array([[0.4, 0.1, 0.3, 0.2]])
        alpha = np.array([[0.7, 0.3]])
        _, _, grad = senone_aware_domain_loss(out, np.array([0]), alpha)
        assert grad[0, 0] == pytest.approx(-0.7 / 0.4)
        assert grad[0, 1] == pytest.approx(-0.3 / 0.1)
        assert grad[0, 2] == 0.0 and grad[0, 3] == 0.0

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(5)
        N, K = 6, 3
        out = rng.uniform(0.05, 0.95, size=(N, 2 * K))
        alpha = rng.dirichlet(np.ones(K), size=N)
        ind = rng.integers(0, 2, size=N)
        _, _, grad = senone_aware_domain_loss(out, ind, alpha)
        h = 1e-7
        for i in range(N):
            for j in range(2 * K):
                p = out.copy()
                p[i, j] += h
                _, up, _ = senone_aware_domain_loss(p, ind, alpha)
                p[i, j] -= 2 * h
                _, dn, _ = senone_aware_domain_loss(p, ind, alpha)
                fd = (up - dn) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, abs=1e-5)

    def test_alpha_shape_mismatch(self):
        out = np.full((2, 4), 0.25)
        with pytest.raises(ShapeError):
            senone_aware_domain_loss(out, np.array([0, 1]), np.full((2, 3), 1 / 3))

    def test_odd_width_rejected(self):
        with pytest.raises(ShapeError):
            senone_aware_domain_loss(np.full((1, 3), 1 / 3), np.array([0]),
                                     np.full((1, 1), 1.0))

    def test_loss_bounded_by_floor(self):
        out = np.zeros((1, 4))
        alpha = np.array([[0.5, 0.5]])
        _, mean, _ = senone_aware_domain_loss(out, np.array([0]), alpha)
        assert mean <= math.log(1e12) + 1e-9


# The formulations below are the losses as first written: np.mean, and (N, K)
# fancy indexing for the true-domain block. The losses now use sum() / n and
# a (N, 2, K) reshape; both must give the same bits, not just close values.


def ref_senone_ce(posteriors, labels, mask):
    n = int(mask.sum())
    rows = np.flatnonzero(mask)
    lab = labels[rows].astype(np.intp)
    p = np.maximum(posteriors[rows, lab], PROB_FLOOR)
    grad = np.zeros_like(posteriors)
    grad[rows, lab] = -1.0 / (n * p)
    return float(-np.log(p).mean()), grad


def ref_binary_domain(disc_out, indicator):
    cols = indicator.astype(np.intp)
    rows = np.arange(disc_out.shape[0])
    p = np.maximum(disc_out[rows, cols], PROB_FLOOR)
    per_frame = -np.log(p)
    grad = np.zeros_like(disc_out)
    grad[rows, cols] = -1.0 / (disc_out.shape[0] * p)
    return per_frame, float(per_frame.mean()), grad


def ref_senone_aware_domain(disc_out, indicator, alpha):
    N, K = disc_out.shape[0], disc_out.shape[1] // 2
    offsets = (indicator.astype(np.intp) * K)[:, None] + np.arange(K)[None, :]
    rows = np.arange(N)[:, None]
    p = np.maximum(disc_out[rows, offsets], PROB_FLOOR)
    per_frame = -(alpha * np.log(p)).sum(axis=1)
    grad = np.zeros_like(disc_out)
    grad[rows, offsets] = -alpha / (N * p)
    return per_frame, float(per_frame.mean()), grad


def ref_marginal(joint):
    K = joint.shape[1] // 2
    return np.stack([joint[:, :K].sum(axis=1), joint[:, K:].sum(axis=1)], axis=1)


def _exact(a, b):
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a.dtype == b.dtype and np.array_equal(a, b)


CASES = [(N, K, domains, seed)
         for seed, (N, K) in enumerate([(1, 1), (7, 1), (128, 1), (9, 2), (128, 10),
                                        (300, 10), (1000, 37), (64, 129)])
         for domains in ("mixed", "adult", "child")]


@pytest.mark.parametrize("N, K, domains, seed", CASES)
class TestBitExactAgainstFirstFormulation:

    @staticmethod
    def batch(N, K, domains, seed):
        rng = np.random.default_rng(seed)
        joint = rng.dirichlet(np.ones(2 * K), size=N)
        joint[rng.random(joint.shape) < 0.05] = 1e-14  # some rows below the floor
        ind = {"mixed": rng.integers(0, 2, N), "adult": np.zeros(N, int),
               "child": np.ones(N, int)}[domains]
        alpha = rng.dirichlet(np.ones(K), size=N)
        return rng, joint, ind, alpha

    def test_senone_ce(self, N, K, domains, seed):
        rng, joint, ind, _ = self.batch(N, K, domains, seed)
        labels = rng.integers(0, 2 * K, N)
        mask = ind == 0 if domains != "child" else np.ones(N, bool)
        got, want = senone_ce_loss(joint, labels, mask), ref_senone_ce(joint, labels, mask)
        assert all(_exact(a, b) for a, b in zip(got, want))

    def test_binary_domain(self, N, K, domains, seed):
        _, joint, ind, _ = self.batch(N, K, domains, seed)
        probs = ref_marginal(joint)
        got, want = binary_domain_loss(probs, ind), ref_binary_domain(probs, ind)
        assert all(_exact(a, b) for a, b in zip(got, want))

    def test_senone_aware_domain(self, N, K, domains, seed):
        _, joint, ind, alpha = self.batch(N, K, domains, seed)
        got = senone_aware_domain_loss(joint, ind, alpha)
        want = ref_senone_aware_domain(joint, ind, alpha)
        assert all(_exact(a, b) for a, b in zip(got, want))

    def test_marginal_domain_probs(self, N, K, domains, seed):
        _, joint, _, _ = self.batch(N, K, domains, seed)
        assert _exact(marginal_domain_probs(joint), ref_marginal(joint))


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _chained(y, prob_grad):
    """The probability gradient through the softmax Jacobian, as
    Network.backward forms it."""
    return _activation_backward("softmax", y, prob_grad, False)


def _logsumexp(z):
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1))


def _central_differences(row_losses, z, h=1e-5):
    """Central differences of row_losses(z).sum() with respect to z.
    row_losses gives each row's term and z[i, j] moves only row i's, so one
    column of steps covers every row."""
    grad = np.zeros_like(z)
    for j in range(z.shape[1]):
        up, dn = z.copy(), z.copy()
        up[:, j] += h
        dn[:, j] -= h
        grad[:, j] = (row_losses(up) - row_losses(dn)) / (2 * h)
    return grad


# a kernel's logit gradient against central differences of the unclamped
# loss (log-softmax as z - logsumexp(z)), and against the chained public
# path on rows whose targets are all at least PROB_FLOOR
FD_TOL = 1e-7
CHAINED_RTOL, CHAINED_ATOL = 1e-12, 1e-14

FUSED_CASES = [(N, K, domains) for N in (1, 2, 3, 17, 64, 128) for K in (2, 10)
               for domains in ("mixed", "adult", "child")]


@pytest.mark.parametrize("N, K, domains", FUSED_CASES)
class TestFusedKernels:
    """Each kernel's loss is the public loss's value, bit for bit, and its
    logit gradient is the gradient of the unclamped loss at every target
    probability, exactly 0 and below the floor included."""

    @staticmethod
    def batch(N, K, domains, width):
        rng = np.random.default_rng(1000 * N + K)
        z = rng.normal(scale=2.0, size=(N, width))
        r = rng.random(z.shape)
        z[r < 0.1] -= 800.0  # exp underflows: probability exactly 0
        z[(r >= 0.1) & (r < 0.2)] -= 32.0  # probability about 1e-14
        dom = {"mixed": rng.integers(0, 2, N), "adult": np.zeros(N, int),
               "child": np.ones(N, int)}[domains]
        if domains == "mixed":
            dom[0] = 0  # at least one adult row
        return rng, z, _softmax(z), dom

    @staticmethod
    def check_gradient(grad, z, y, row_losses, prob_grad, floored_rows):
        np.testing.assert_allclose(grad, _central_differences(row_losses, z), rtol=0,
                                   atol=FD_TOL)
        ok = ~floored_rows
        np.testing.assert_allclose(grad[ok], _chained(y, prob_grad)[ok],
                                   rtol=CHAINED_RTOL, atol=CHAINED_ATOL)

    def test_senone_ce(self, N, K, domains):
        rng, z, y, dom = self.batch(N, K, domains, K)
        labels = rng.integers(0, K, N)
        mask = dom == 0
        if not mask.any():
            with pytest.raises(ValueError):
                senone_ce_loss(y, labels, mask)
            return
        loss, prob_grad = senone_ce_loss(y, labels, mask)
        rows = np.flatnonzero(mask)
        got_loss, logit_grad = ce_kernel(y, rows, labels[rows])
        assert got_loss == loss

        def row_losses(zz):
            return mask * (_logsumexp(zz) - zz[np.arange(N), labels]) / len(rows)

        floored = mask & (y[np.arange(N), labels] < PROB_FLOOR)
        self.check_gradient(logit_grad, z, y, row_losses, prob_grad, floored)

    def test_binary_domain(self, N, K, domains):
        # the binary discriminator's loss: the joint kernel at K = 1,
        # alpha = 1, which is ce_kernel over every row bit for bit
        _, z, y, dom = self.batch(N, K, domains, 2)
        cols = dom.astype(np.intp)
        _, mean, prob_grad = binary_domain_loss(y, dom)
        got_mean, logit_grad = senone_aware_domain_kernel(y, cols, np.ones((N, 1)))
        assert got_mean == mean
        ce_mean, ce_grad = ce_kernel(y, np.arange(N), cols)
        assert ce_mean == mean and _same_bits(logit_grad, ce_grad)

        def row_losses(zz):
            return (_logsumexp(zz) - zz[np.arange(N), cols]) / N

        floored = y[np.arange(N), cols] < PROB_FLOOR
        self.check_gradient(logit_grad, z, y, row_losses, prob_grad, floored)

    def test_senone_aware_domain(self, N, K, domains):
        rng, z, y, dom = self.batch(N, K, domains, 2 * K)
        # rows that do not sum to 1: the gradient scales y by each row's sum
        alpha = rng.dirichlet(np.ones(K), size=N) * rng.uniform(0.5, 2.0, size=(N, 1))
        cols = dom.astype(np.intp)
        _, mean, prob_grad = senone_aware_domain_loss(y, dom, alpha)
        got_mean, logit_grad = senone_aware_domain_kernel(y, cols, alpha)
        assert got_mean == mean

        def row_losses(zz):
            block = zz.reshape(N, 2, K)[np.arange(N), cols]
            return (alpha * (_logsumexp(zz)[:, None] - block)).sum(axis=1) / N

        floored = (y.reshape(N, 2, K)[np.arange(N), cols] < PROB_FLOOR).any(axis=1)
        self.check_gradient(logit_grad, z, y, row_losses, prob_grad, floored)


@pytest.mark.parametrize("p", [1e-14, 0.0])
def test_saturated_target_gets_its_full_gradient(p):
    # below the 1e-12 floor the loss value is clamped, but the gradient is
    # still the closed form: about -1/n on the target, not about 0
    y = np.array([[p, 1.0 - p], [0.4, 0.6], [0.7, 0.3]])
    _, gz = ce_kernel(y, np.array([0, 1]), np.array([0, 1]))
    assert gz[0, 0] == pytest.approx((p - 1.0) / 2, rel=1e-15)
    assert gz[0, 1] == pytest.approx((1.0 - p) / 2, rel=1e-15)

    # a joint K = 2 row whose true (adult) block holds p, and a child row
    joint = np.array([[p, p, 0.5, 0.5 - 2 * p], [0.1, 0.2, 0.3, 0.4]])
    alpha = np.array([[0.75, 0.25], [0.5, 0.5]])
    cols = np.array([0, 1])
    _, gz = senone_aware_domain_kernel(joint, cols, alpha)
    target = np.zeros_like(joint)
    target[0, :2], target[1, 2:] = alpha[0], alpha[1]
    want = (joint * alpha.sum(axis=1, keepdims=True) - target) / 2
    np.testing.assert_allclose(gz, want, rtol=1e-15, atol=0)
    assert gz[0, 0] == pytest.approx(-0.375, rel=1e-12)


def test_masked_rows_are_positive_zero():
    # rows without a target get +0.0, as the chained path gives them
    y = np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    _, gz = ce_kernel(y, np.array([1]), np.array([0]))
    assert not np.signbit(gz[[0, 2]]).any() and not gz[[0, 2]].any()
