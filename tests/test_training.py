"""Training loop tests: pretraining, min-max gradients, schedules, logs."""

import dataclasses
import errno
import importlib.util
import math
import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import senadapt
from senadapt import evaluate, losses, models, nn, synthdata, training
from senadapt.models import (
    AdaptationNetwork,
    AssessmentNetwork,
    DomainDiscriminator,
    build_adult_am,
    marginal_domain_probs,
)
from senadapt.nn import NonFiniteError, sgd_step
from senadapt.synthdata import (
    GeneratorConfig,
    SettingError,
    TrainingView,
    generate_assessment_corpus,
    generate_corpus,
)
from senadapt.training import (
    AdversarialConfig,
    AssessConfig,
    PretrainConfig,
    TrainLog,
    TrainLogRecord,
    _minibatches,
    _stratified_batches,
    adversarial_batch_grads,
    adversarial_train,
    lambda_schedule,
    pretrain_adult_am,
    train_assessment_network,
    train_discriminator_only,
)


def small_corpus(seed=0, K=4, n=800, shift=None):
    cfg = GeneratorConfig(K=K, dim=8, n_adult=n, n_child=n, seed=seed,
                          shift_profile=shift or (0.0, 1.0, 2.0, 4.0),
                          class_separation=4.0)
    return generate_corpus(cfg)


def am_error(am, frames, labels):
    pred = am.posteriors(frames).argmax(axis=1)
    return float((pred != labels).mean())


# The reference loops' gradients with respect to a softmax layer's logits,
# written out here apart from the loss kernels.


def ce_logit_grad(y, rows, cols):
    """d(mean -log y[rows, cols])/dz: (y - one-hot) / n on the given rows."""
    onehot = np.zeros_like(y)
    onehot[rows, cols] = 1.0
    grad = np.zeros_like(y)
    grad[rows] = y[rows] - onehot[rows]
    return grad / len(rows)


def domain_logit_grad(y, dom, alpha):
    """d(mean senone-aware domain loss)/dz: (y * sum(alpha) - alpha on the
    true-domain block) / N."""
    N, K = alpha.shape
    target = np.zeros_like(y)
    target[np.arange(N)[:, None], dom.astype(np.intp)[:, None] * K + np.arange(K)] = alpha
    return (y * alpha.sum(axis=1, keepdims=True) - target) / N


class TestPretraining:

    def test_beats_nearest_mean_oracle(self):
        # on well-separated classes the trained model should match a
        # hand-built nearest-class-mean classifier to within 2 points
        corpus = small_corpus(seed=1)
        adult = corpus.subset("train", "adult")
        am = build_adult_am(8, [32], 4, rng=np.random.default_rng(1))
        pretrain_adult_am(am, corpus.training_view("train"), epochs=20,
                          lr=0.1, seed=1)
        means = np.stack([adult.frames[adult.senone_labels == k].mean(axis=0)
                          for k in range(4)])
        d = ((adult.frames[:, None, :] - means[None]) ** 2).sum(axis=2)
        oracle_acc = float((d.argmin(axis=1) == adult.senone_labels).mean())
        model_acc = 1.0 - am_error(am, adult.frames, adult.senone_labels)
        assert oracle_acc >= 0.99
        assert model_acc >= oracle_acc - 0.02

    def test_zero_epochs_rejected(self):
        # zero epochs would freeze an untrained model that later stages
        # take for a pretrained one
        corpus = small_corpus(seed=2)
        am = build_adult_am(8, [32], 4, rng=np.random.default_rng(2))
        with pytest.raises(ValueError):
            pretrain_adult_am(am, corpus.training_view("train"), epochs=0,
                              lr=0.1, seed=2)
        assert not am.frozen

    @pytest.mark.parametrize("lr", [0.0, -0.1, math.nan, math.inf])
    def test_non_positive_learning_rate_rejected(self, lr):
        # a zero rate would freeze the untrained model as if pretrained; an
        # infinite one is rejected before the first step, not met as a NaN
        corpus = small_corpus(seed=2)
        am = build_adult_am(8, [32], 4, rng=np.random.default_rng(2))
        before = am.net.store.serialize()
        with pytest.raises(ValueError, match="learning rate"):
            pretrain_adult_am(am, corpus.training_view("train"), epochs=1, lr=lr, seed=2)
        assert am.net.store.serialize() == before and not am.frozen

    @pytest.mark.parametrize("batch_size, momentum, match", [
        (0, 0.9, "batch"), (-1, 0.9, "batch"), (128, 1.0, "momentum")])
    def test_bad_batch_size_or_momentum_rejected(self, batch_size, momentum, match):
        # checked before the first step, as the rest of the run's settings
        corpus = small_corpus(seed=2)
        am = build_adult_am(8, [32], 4, rng=np.random.default_rng(2))
        before = am.net.store.serialize()
        with pytest.raises(ValueError, match=match):
            pretrain_adult_am(am, corpus.training_view("train"), epochs=1, lr=0.1, seed=2,
                              batch_size=batch_size, momentum=momentum)
        assert am.net.store.serialize() == before and not am.frozen

    def test_pretrain_twice_rejected(self):
        corpus = small_corpus(seed=3)
        am = build_adult_am(8, [16], 4, rng=np.random.default_rng(3))
        view = corpus.training_view("train")
        pretrain_adult_am(am, view, epochs=1, lr=0.1, seed=3)
        with pytest.raises(RuntimeError):
            pretrain_adult_am(am, view, epochs=1, lr=0.1, seed=3)

    def test_loss_decreases(self):
        corpus = small_corpus(seed=4)
        am = build_adult_am(8, [32], 4, rng=np.random.default_rng(4))
        log = pretrain_adult_am(am, corpus.training_view("train"), epochs=10,
                                lr=0.1, seed=4)
        assert log.records[-1].senone_ce < log.records[0].senone_ce

    def test_deterministic(self):
        corpus = small_corpus(seed=5)
        logs = []
        for _ in range(2):
            am = build_adult_am(8, [16], 4, rng=np.random.default_rng(5))
            logs.append(pretrain_adult_am(am, corpus.training_view("train"),
                                          epochs=3, lr=0.1, seed=5))
        assert logs[0].trajectory_key() == logs[1].trajectory_key()

    @staticmethod
    def reference_pretrain(am, view, epochs, lr, seed, batch_size=128, momentum=0.9):
        """pretrain_adult_am as written before its backward pass stopped
        forming the input gradient it throws away, on the written-out
        logit gradient."""
        adult = np.flatnonzero(view.adult_mask)
        x_all, y_all = view.frames[adult], view.adult_senone_labels[adult]
        rng = np.random.default_rng(seed)
        log = TrainLog()
        for epoch in range(epochs):
            ce_sum, correct, seen = 0.0, 0, 0
            for idx in _minibatches(rng, adult.size, batch_size):
                x, y = x_all[idx], y_all[idx]
                trace = am.net.forward(x)
                ce, _ = losses.senone_ce_loss(trace.output, y, np.ones(len(y), bool))
                grad = ce_logit_grad(trace.output, np.arange(len(y)), y)
                assert am.net.backward(trace, grad, from_logits=True).shape == x.shape
                sgd_step(am.net.store, lr, momentum)
                ce_sum += ce * len(y)
                correct += int((trace.output.argmax(axis=1) == y).sum())
                seen += len(y)
            log.records.append(TrainLogRecord(epoch, ce_sum / seen, ce_sum / seen, 0.0,
                                              correct / seen, 0.0))
        am.freeze()
        return log

    def test_matches_reference_loop(self):
        # momentum on: bit-identical trajectory and parameters
        view = small_corpus(seed=6).training_view("train")
        runs = []
        for train in (pretrain_adult_am, self.reference_pretrain):
            am = build_adult_am(8, [16, 12], 4, rng=np.random.default_rng(6))
            log = train(am, view, epochs=3, lr=0.1, seed=6, batch_size=64, momentum=0.9)
            runs.append((log.trajectory_key(), am.net.store.serialize()))
        assert runs[0] == runs[1]


class TestStageConfigs:
    """PretrainConfig and AssessConfig reject every setting their runs would,
    naming the field that is out of its bound."""

    def test_defaults_pass(self):
        PretrainConfig().validate()
        AssessConfig().validate()

    @pytest.mark.parametrize("cfg, name", [
        (PretrainConfig(epochs=0), "epochs"), (PretrainConfig(lr=0.0), "lr"),
        (PretrainConfig(lr=math.nan), "lr"), (PretrainConfig(lr=math.inf), "lr"),
        (PretrainConfig(momentum=1.0), "momentum"), (PretrainConfig(batch=0), "batch"),
        (AssessConfig(n=49), "n"), (AssessConfig(epochs=0), "epochs"),
        (AssessConfig(lr=0.0), "lr"), (AssessConfig(lr=math.nan), "lr"),
        (AssessConfig(lr=math.inf), "lr")],
        ids=["pretrain-epochs-0", "pretrain-lr-0", "pretrain-lr-nan", "pretrain-lr-inf",
             "pretrain-momentum-1", "pretrain-batch-0", "assess-n-49", "assess-epochs-0",
             "assess-lr-0", "assess-lr-nan", "assess-lr-inf"])
    def test_out_of_bound_setting_rejected(self, cfg, name):
        with pytest.raises(SettingError) as e:
            cfg.validate()
        assert e.value.name == name
        assert e.value.value is getattr(cfg, name)


class TestLambdaSchedule:

    def test_ramp_endpoints(self):
        assert lambda_schedule(0, 30, "ramp") == 0.0
        expect = 2.0 / (1.0 + math.exp(-10.0)) - 1.0  # ~0.9999092
        assert lambda_schedule(30, 30, "ramp") == pytest.approx(expect, abs=1e-12)
        assert lambda_schedule(30, 30, "ramp") == pytest.approx(0.999909, abs=1e-6)

    def test_ramp_monotone(self):
        vals = [lambda_schedule(e, 30, "ramp") for e in range(31)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_constant(self):
        assert lambda_schedule(0, 30, "constant") == 1.0
        assert lambda_schedule(17, 30, "constant") == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_schedule(31, 30)


class TestStratifiedBatches:

    def test_adult_floor_and_coverage(self):
        rng = np.random.default_rng(0)
        adult = np.arange(30)            # scarce adult pool
        child = np.arange(30, 1030)
        seen_child = []
        for idx in _stratified_batches(rng, adult, child, 64):
            n_a = int((idx < 30).sum())
            assert n_a >= max(1, math.ceil(len(idx) / 4))
            assert (idx[:n_a] < 30).all() and (idx[n_a:] >= 30).all()
            seen_child.extend(idx[n_a:])
        assert sorted(seen_child) == list(range(30, 1030))

    def test_balanced_pools_not_resampled(self):
        rng = np.random.default_rng(1)
        adult = np.arange(500)
        child = np.arange(500, 1000)
        seen = []
        for idx in _stratified_batches(rng, adult, child, 100):
            seen.extend(idx)
        assert sorted(seen) == list(range(1000))


class TestBatchGradients:

    def setup_method(self):
        self.corpus = small_corpus(seed=6)
        view = self.corpus.training_view("train")
        self.am = build_adult_am(8, [16], 4, rng=np.random.default_rng(6))
        pretrain_adult_am(self.am, view, epochs=5, lr=0.1, seed=6)
        self.view = view
        self.idx = np.arange(64)
        self.x = view.frames[self.idx]
        self.y = view.adult_senone_labels[self.idx]
        self.dom = view.domain_labels[self.idx]

    def make_arms(self, mode):
        rng = np.random.default_rng(7)
        adapter = AdaptationNetwork(8, [12], rng=rng)
        disc_mode = "senone_aware" if mode == "sat" else "binary"
        disc = DomainDiscriminator(8, [12], disc_mode, K=4 if mode == "sat" else None,
                                   rng=rng)
        return adapter, disc

    def test_zero_lambda_decouples_adapter(self):
        # with lam = 0 the adapter gradient is the senone-CE gradient alone
        adapter, disc = self.make_arms("bat")
        cfg = AdversarialConfig(mode="bat")
        adapter.store.zero_grads()
        disc.store.zero_grads()
        adversarial_batch_grads(adapter, self.am, disc, self.x, self.y,
                                self.dom, cfg, 0.0)
        got = {n: adapter.store.grad(n).copy() for n in adapter.store.names()}

        adapter2, _ = self.make_arms("bat")
        adapter2.store.zero_grads()
        at = adapter2.forward(self.x)
        tr = self.am.net.forward(at.output)
        _, g = losses.senone_ce_loss(tr.output, self.y, self.dom == 0)
        adapter2.backward(at, self.am.net.backward(tr, g))
        for n in got:
            assert np.max(np.abs(got[n] - adapter2.store.grad(n))) <= 1e-12

    def test_two_pass_gradient_oracle(self):
        # the combined pass equals CE-only plus (-lam) * domain-only passes
        lam = 0.7
        adapter, disc = self.make_arms("bat")
        cfg = AdversarialConfig(mode="bat")
        adapter.store.zero_grads()
        disc.store.zero_grads()
        adversarial_batch_grads(adapter, self.am, disc, self.x, self.y,
                                self.dom, cfg, lam)
        got = {n: adapter.store.grad(n).copy() for n in adapter.store.names()}

        # pass 1: CE term
        a_ce, _ = self.make_arms("bat")
        a_ce.store.zero_grads()
        at = a_ce.forward(self.x)
        tr = self.am.net.forward(at.output)
        _, g = losses.senone_ce_loss(tr.output, self.y, self.dom == 0)
        a_ce.backward(at, self.am.net.backward(tr, g))
        # pass 2: domain term through the discriminator
        a_dom, disc2 = self.make_arms("bat")
        a_dom.store.zero_grads()
        at2 = a_dom.forward(self.x)
        dt = disc2.net.forward(at2.output)
        _, _, dg = losses.binary_domain_loss(dt.output, self.dom)
        a_dom.backward(at2, disc2.net.backward(dt, dg))
        for n in got:
            combined = a_ce.store.grad(n) - lam * a_dom.store.grad(n)
            assert np.max(np.abs(got[n] - combined)) <= 1e-10

    def test_discriminator_step_descends_domain_loss(self):
        adapter, disc = self.make_arms("sat")
        cfg = AdversarialConfig(mode="sat")

        def dom_loss():
            at = adapter.forward(self.x)
            alpha = self.am.posteriors(at.output)
            out = disc.net.forward(at.output).output
            return losses.senone_aware_domain_loss(out, self.dom, alpha)[1]

        before = dom_loss()
        adapter.store.zero_grads()
        disc.store.zero_grads()
        adversarial_batch_grads(adapter, self.am, disc, self.x, self.y,
                                self.dom, cfg, 1.0)
        for n in disc.store.names():
            disc.store.value(n)[...] -= 1e-6 * disc.store.grad(n)
        assert dom_loss() < before

    def test_adapter_step_raises_domain_loss_under_large_lambda(self):
        # with lam large the adapter's descent direction is a domain-loss
        # ascent direction: the adversarial sign convention
        adapter, disc = self.make_arms("bat")
        cfg = AdversarialConfig(mode="bat")
        # give the discriminator a head start so the domain loss has slope
        train_discriminator_only(disc, self.am, self.view, epochs=2, lr=0.2, seed=0)

        def dom_loss():
            at = adapter.forward(self.x)
            out = disc.net.forward(at.output).output
            return losses.binary_domain_loss(out, self.dom)[1]

        before = dom_loss()
        adapter.store.zero_grads()
        disc.store.zero_grads()
        adversarial_batch_grads(adapter, self.am, disc, self.x, self.y,
                                self.dom, cfg, 1000.0)
        for n in adapter.store.names():
            adapter.store.value(n)[...] -= 1e-6 * adapter.store.grad(n)
        assert dom_loss() > before

    def test_frozen_am_untouched(self):
        adapter, disc = self.make_arms("sat")
        cfg = AdversarialConfig(mode="sat")
        before = self.am.net.store.serialize()
        adversarial_batch_grads(adapter, self.am, disc, self.x, self.y,
                                self.dom, cfg, 1.0)
        assert self.am.net.store.serialize() == before

    @pytest.mark.parametrize("update_scheme", ["gradient_reversal", "alternating"])
    @pytest.mark.parametrize("mode", ["bat", "sat"])
    def test_batch_shares_one_forward(self, mode, update_scheme):
        # one batch (the whole view in one batch, one epoch): one adapter
        # forward, shared by both phases under alternating, and the frozen
        # model run once for the senone CE and alpha
        adapter, disc = self.make_arms(mode)
        cfg = AdversarialConfig(mode=mode, epochs=1, update_scheme=update_scheme,
                                batch_size=len(self.view.frames))
        calls = {"adapter": 0, "am": 0}

        def counted(role, forward):
            def wrapped(*a, **k):
                calls[role] += 1
                return forward(*a, **k)
            return wrapped

        adapter.forward = counted("adapter", adapter.forward)
        self.am.net.forward = counted("am", self.am.net.forward)
        adversarial_train(adapter, self.am, disc, self.view, cfg)
        assert calls == {"adapter": 1, "am": 1}

    @pytest.mark.parametrize("mode", ["bat", "sat"])
    def test_alternating_batch(self, mode):
        # one alternating call steps the discriminator as a gradient-reversal
        # call's gradients would, then forms the adapter gradients and
        # statistics of a gradient-reversal call against the stepped one
        alt = AdversarialConfig(mode=mode, update_scheme="alternating", momentum=0.5)
        rev = dataclasses.replace(alt, update_scheme="gradient_reversal")
        args = (self.x, self.y, self.dom)
        adapter, disc = self.make_arms(mode)
        stats = adversarial_batch_grads(adapter, self.am, disc, *args, alt, 0.7)
        assert not disc.store.flat_grads.any()

        ref_adapter, ref_disc = self.make_arms(mode)
        adversarial_batch_grads(ref_adapter, self.am, ref_disc, *args, rev, 0.7)
        sgd_step(ref_disc.store, rev.lr_discriminator, rev.momentum)
        assert disc.store.flat_values.tobytes() == ref_disc.store.flat_values.tobytes()

        ref_adapter, _ = self.make_arms(mode)
        ref_stats = adversarial_batch_grads(ref_adapter, self.am, ref_disc, *args, rev,
                                            0.7)
        assert adapter.store.flat_grads.any()
        assert np.array_equal(adapter.store.flat_grads, ref_adapter.store.flat_grads)
        assert stats == ref_stats


def use_worker(monkeypatch, on: bool) -> None:
    """Make adversarial_train see a host with (on) or without a free second
    core, whatever this host is."""
    monkeypatch.setattr(training, "_second_core_free", lambda: on)


# Forced onto a host whose BLAS runs a thread pool, the worker is forked from
# a threaded process, which the selection rule never does and which Python
# 3.12+ warns of; OpenBLAS's own fork handlers keep that child sound.
FORKS_ANY_HOST = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")

REFERENCE_CASES = (
    [pytest.param(*case, False, id="-".join(case)) for case in (
        ("bat", "alternating", "ramp"), ("bat", "gradient_reversal", "ramp"),
        ("sat", "alternating", "ramp"), ("sat", "gradient_reversal", "ramp"),
        ("sat", "gradient_reversal", "constant"))]
    + [pytest.param(*case, True, id="-".join(case) + "-worker", marks=FORKS_ANY_HOST)
       for case in (("bat", "alternating", "ramp"), ("bat", "gradient_reversal", "ramp"),
                    ("sat", "alternating", "ramp"), ("sat", "gradient_reversal", "ramp"),
                    ("sat", "gradient_reversal", "constant"))])


def arena_bytes(*stores) -> list[bytes]:
    """Every store's values, gradients and velocity."""
    return [a.tobytes() for store in stores
            for a in (store.flat_values, store.flat_grads, store._velocity)]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch) -> list:
    """Count the os.fork calls from here on, in the returned list."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def make_fork_fail(monkeypatch, where: str) -> None:
    """Make the next worker's os.fork or its semaphores fail as at a
    process limit."""
    def failing(*args, **kwargs):
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    if where == "fork":
        monkeypatch.setattr(os, "fork", failing)
    else:
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Semaphore", failing)


class TestAdversarialTrain:

    def setup_method(self):
        self.corpus = small_corpus(seed=8)
        self.view = self.corpus.training_view("train")
        self.am = build_adult_am(8, [16], 4, rng=np.random.default_rng(8))
        pretrain_adult_am(self.am, self.view, epochs=8, lr=0.1, seed=8)

    def run_once(self, mode, scheme="gradient_reversal", epochs=3, seed=0):
        rng = np.random.default_rng(seed)
        adapter = AdaptationNetwork(8, [12], rng=rng)
        disc_mode = "senone_aware" if mode == "sat" else "binary"
        disc = DomainDiscriminator(8, [12], disc_mode,
                                   K=4 if mode == "sat" else None, rng=rng)
        cfg = AdversarialConfig(mode=mode, update_scheme=scheme, epochs=epochs,
                                seed=seed)
        log = adversarial_train(adapter, self.am, disc, self.view, cfg)
        return adapter, disc, log

    def test_both_modes_and_schemes_run(self):
        for mode in ("bat", "sat"):
            for scheme in ("gradient_reversal", "alternating"):
                _, _, log = self.run_once(mode, scheme)
                assert len(log.records) == 3
                for r in log.records:
                    assert math.isfinite(r.objective)
                    assert math.isfinite(r.domain_loss)

    @staticmethod
    def reference_train(adapter, am, disc, view, cfg):
        """adversarial_train as written before the discriminator phase and
        the sat alpha stopped repeating work, on the written-out logit
        gradients: each phase computes the full batch gradients, the
        discriminator phase then zeroes the adapter's, and alpha comes from a
        second acoustic-model forward."""
        adult_idx = np.flatnonzero(view.adult_mask)
        child_idx = np.flatnonzero(~view.adult_mask)

        def batch_grads(x, y, dom, lam):
            at = adapter.forward(x)
            am_trace = am.net.forward(at.output)
            ce, _ = losses.senone_ce_loss(am_trace.output, y, dom == 0)
            adult = np.flatnonzero(dom == 0)
            feat_grad = am.net.backward(am_trace, ce_logit_grad(am_trace.output, adult,
                                                                y[adult]), from_logits=True)
            dt = disc.net.forward(at.output)
            if cfg.mode == "sat":
                alpha = am.posteriors(at.output)
                _, dom_mean, _ = losses.senone_aware_domain_loss(dt.output, dom, alpha)
                dg = domain_logit_grad(dt.output, dom, alpha)
                probs = marginal_domain_probs(dt.output)
            else:
                _, dom_mean, _ = losses.binary_domain_loss(dt.output, dom)
                dg = ce_logit_grad(dt.output, np.arange(len(dom)), dom)
                probs = dt.output
            adapter.backward(at, feat_grad - lam * disc.net.backward(dt, dg, from_logits=True))
            n_a = int((dom == 0).sum())
            return (ce * n_a, dom_mean * len(x), n_a, len(x),
                    int((probs.argmax(axis=1) == dom).sum()))

        rng = np.random.default_rng(cfg.seed)
        log = TrainLog()
        for epoch in range(cfg.epochs):
            lam = cfg.reversal_coefficient * lambda_schedule(epoch, cfg.epochs,
                                                             cfg.lambda_shape)
            sums = np.zeros(5)
            for idx in _stratified_batches(rng, adult_idx, child_idx, cfg.batch_size):
                x, y, dom = (view.frames[idx], view.adult_senone_labels[idx],
                             view.domain_labels[idx])
                adapter.store.zero_grads()
                disc.store.zero_grads()
                if cfg.update_scheme == "alternating":
                    batch_grads(x, y, dom, lam)
                    adapter.store.zero_grads()
                    sgd_step(disc.store, cfg.lr_discriminator, cfg.momentum)
                    terms = batch_grads(x, y, dom, lam)
                    disc.store.zero_grads()
                    sgd_step(adapter.store, cfg.lr_adapter, cfg.momentum)
                else:
                    terms = batch_grads(x, y, dom, lam)
                    sgd_step(disc.store, cfg.lr_discriminator, cfg.momentum)
                    sgd_step(adapter.store, cfg.lr_adapter, cfg.momentum)
                sums += terms
            ce_sum, dom_sum, n_a, n_t, correct = sums
            log.records.append(TrainLogRecord(
                epoch, ce_sum / n_a - dom_sum / n_t, ce_sum / n_a, dom_sum / n_t,
                correct / n_t, 0.0))
        return log

    @pytest.mark.parametrize("mode, scheme, lambda_shape, worker", REFERENCE_CASES)
    def test_matches_reference_loop(self, monkeypatch, mode, scheme, lambda_shape, worker):
        # bit-identical trajectories and parameters, on any platform, with
        # the discriminator half in process or on the worker
        use_worker(monkeypatch, worker)
        cfg = AdversarialConfig(mode=mode, update_scheme=scheme, lambda_shape=lambda_shape,
                                epochs=3, momentum=0.5, seed=2)
        runs = []
        for train in (adversarial_train, self.reference_train):
            rng = np.random.default_rng(2)
            adapter = AdaptationNetwork(8, [12], rng=rng)
            disc = DomainDiscriminator(8, [12], "senone_aware" if mode == "sat" else "binary",
                                       K=4 if mode == "sat" else None, rng=rng)
            log = train(adapter, self.am, disc, self.view, cfg)
            runs.append((log.trajectory_key(), adapter.store.serialize(),
                         disc.store.serialize(), disc.store.flat_grads.tobytes(),
                         disc.store._velocity.tobytes()))
        assert runs[0] == runs[1]

    def test_trajectory_deterministic(self):
        a = self.run_once("sat", seed=4)[2]
        b = self.run_once("sat", seed=4)[2]
        assert a.trajectory_key() == b.trajectory_key()

    def assert_rejected_before_first_step(self, cfg, disc_mode="senone_aware", K=4,
                                          view=None, match=None):
        """adversarial_train raises ValueError and leaves both stores as built."""
        rng = np.random.default_rng(0)
        adapter = AdaptationNetwork(8, [12], rng=rng)
        disc = DomainDiscriminator(8, [12], disc_mode, K=K, rng=rng)
        before = (adapter.store.serialize(), disc.store.serialize())
        with pytest.raises(ValueError, match=match):
            adversarial_train(adapter, self.am, disc, view or self.view, cfg)
        assert (adapter.store.serialize(), disc.store.serialize()) == before

    def test_mode_mismatch_rejected(self):
        # the config's mode and the discriminator's must name one adversary,
        # in either direction
        self.assert_rejected_before_first_step(AdversarialConfig(mode="sat"), "binary", None)
        self.assert_rejected_before_first_step(AdversarialConfig(mode="bat"), "senone_aware", 4)

    def test_adversary_over_another_K_rejected(self):
        # a senone-aware discriminator over K = 3 cannot weigh the K = 4
        # model's posteriors
        self.assert_rejected_before_first_step(AdversarialConfig(mode="sat"), K=3,
                                               match="K = 3.*K = 4")

    @pytest.mark.parametrize("field", ["update_scheme", "alpha_source"])
    def test_bad_config_rejected_before_the_first_step(self, field):
        # unchecked, a bad value would silently run gradient reversal or adapted alpha
        self.assert_rejected_before_first_step(
            AdversarialConfig(mode="sat", **{field: "bogus"}), match=field.replace("_", "."))

    def test_child_only_view_rejected(self):
        # every batch needs an adult row: the senone CE mean divides by their count
        child = ~self.view.adult_mask
        view = TrainingView(self.view.frames[child], self.view.domain_labels[child],
                            self.view.adult_senone_labels[child])
        self.assert_rejected_before_first_step(AdversarialConfig(mode="sat"), view=view,
                                               match="both domains")

    def test_unfrozen_am_rejected(self):
        am = build_adult_am(8, [16], 4, rng=np.random.default_rng(8))
        rng = np.random.default_rng(0)
        adapter = AdaptationNetwork(8, [12], rng=rng)
        disc = DomainDiscriminator(8, [12], "binary", rng=rng)
        with pytest.raises(RuntimeError):
            adversarial_train(adapter, am, disc, self.view,
                              AdversarialConfig(mode="bat"))

    def test_senone_error_not_degraded_much(self):
        # the CE term keeps the adapter from destroying senone information:
        # adult error after adaptation stays within 3 points of the frozen
        # model's own error
        adapter, _, _ = self.run_once("sat", epochs=5)
        adult = self.corpus.subset("test", "adult")
        base = am_error(self.am, adult.frames, adult.senone_labels)
        adapted = am_error(self.am, adapter.apply(adult.frames), adult.senone_labels)
        assert adapted <= base + 0.03

    def test_config_validation(self):
        for bad in (AdversarialConfig(mode="dnn"),
                    AdversarialConfig(update_scheme="joint"),
                    AdversarialConfig(reversal_coefficient=-1.0),
                    AdversarialConfig(reversal_coefficient=float("nan")),
                    AdversarialConfig(reversal_coefficient=float("inf")),
                    AdversarialConfig(lr_adapter=float("inf")),
                    AdversarialConfig(batch_size=1),
                    AdversarialConfig(epochs=0),
                    AdversarialConfig(lr_adapter=0.0),
                    AdversarialConfig(lr_discriminator=float("nan")),
                    AdversarialConfig(momentum=1.0),
                    AdversarialConfig(alpha_source="mixed"),
                    AdversarialConfig(alpha_source="raw"),
                    AdversarialConfig(lambda_shape="step")):
            with pytest.raises(ValueError):
                bad.validate()


class TestDiscriminatorWorker:
    """The discriminator half of an adversarial batch, of either scheme, on
    a forked worker: which runs fork one, and every way a run can end reaps
    it."""

    def setup_method(self):
        self.view = small_corpus(seed=8).training_view("train")
        self.am = build_adult_am(8, [16], 4, rng=np.random.default_rng(8))
        pretrain_adult_am(self.am, self.view, epochs=2, lr=0.1, seed=8)

    def train(self, mode="sat", **cfg):
        rng = np.random.default_rng(0)
        adapter = AdaptationNetwork(8, [12], rng=rng)
        disc = DomainDiscriminator(8, [12], "senone_aware" if mode == "sat" else "binary",
                                   K=4 if mode == "sat" else None, rng=rng)
        return adversarial_train(adapter, self.am, disc, self.view,
                                 AdversarialConfig(mode=mode, epochs=2, **cfg))

    @FORKS_ANY_HOST
    @pytest.mark.parametrize("free, forks", [(True, 1), (False, 0)])
    @pytest.mark.parametrize("scheme", ["gradient_reversal", "alternating"])
    def test_forks_one_worker_per_run(self, monkeypatch, scheme, free, forks):
        # whatever the scheme: the host alone decides
        use_worker(monkeypatch, free)
        counted = count_forks(monkeypatch)
        log = self.train(update_scheme=scheme)
        assert len(counted) == forks
        assert log.second_process == (forks == 1)
        assert_no_child_left()

    @FORKS_ANY_HOST
    def test_worker_matches_in_process_at_the_fixture_shapes(self, monkeypatch):
        # the acceptance fixture's networks (20 -> 64 adapter and
        # discriminator, K = 10, batch 128) on 1,000 frames per domain; the
        # reference-loop test runs 8-wide networks only
        cfg = GeneratorConfig(n_adult=1400, n_child=1400, split_fractions=(5 / 7, 1 / 7, 1 / 7),
                              seed=14)
        view = generate_corpus(cfg).training_view("train")
        am = build_adult_am(20, [64, 64], 10, rng=np.random.default_rng(14))
        pretrain_adult_am(am, view, epochs=2, lr=0.1, seed=14)
        for mode in ("bat", "sat"):
            for scheme in ("gradient_reversal", "alternating"):
                runs = []
                for worker in (False, True):
                    use_worker(monkeypatch, worker)
                    rng = np.random.default_rng(14)
                    adapter = AdaptationNetwork(20, [64], rng=rng)
                    disc = DomainDiscriminator(
                        20, [64], "senone_aware" if mode == "sat" else "binary",
                        K=10 if mode == "sat" else None, rng=rng)
                    log = adversarial_train(adapter, am, disc, view, AdversarialConfig(
                        mode=mode, update_scheme=scheme, epochs=2, seed=14))
                    assert log.second_process == worker
                    runs.append((log.trajectory_key(), *arena_bytes(adapter.store, disc.store)))
                assert runs[0] == runs[1], (mode, scheme)
        assert_no_child_left()

    @FORKS_ANY_HOST
    @pytest.mark.parametrize("cpus, threads, forks", [(2, 1, 1), (1, 1, 0), (2, 2, 0)])
    def test_host_rule(self, monkeypatch, cpus, threads, forks):
        # a second CPU in the affinity mask and one OS thread: only then a worker
        listdir = os.listdir
        monkeypatch.setattr(training.sys, "platform", "linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "listdir", lambda path: [str(i) for i in range(threads)]
                            if path == "/proc/self/task" else listdir(path))
        counted = count_forks(monkeypatch)
        self.train()
        assert len(counted) == forks
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["fork", "semaphore"])
    def test_failed_fork_runs_in_process(self, monkeypatch, where):
        use_worker(monkeypatch, False)
        in_process = self.train("sat")
        use_worker(monkeypatch, True)
        make_fork_fail(monkeypatch, where)
        log = self.train("sat")
        assert not log.second_process
        assert log.trajectory_key() == in_process.trajectory_key()
        assert_no_child_left()

    def test_largest_stratified_batch_fits(self):
        # the worker's regions hold min(batch_size, frames) rows' bound: a
        # batch size at or beyond the frame count makes one batch of them all
        rng = np.random.default_rng(0)
        for _ in range(300):
            n_adult, n_child = rng.integers(1, 600, size=2)
            n = int(n_adult + n_child)
            for batch_size in (int(rng.integers(2, 200)), n, n + int(rng.integers(1, 10**8)),
                               2**62):
                largest = max(len(b) for b in _stratified_batches(
                    rng, np.arange(n_adult), np.arange(n_adult, n), batch_size))
                assert largest <= training._largest_stratified_batch(min(batch_size, n))

    @FORKS_ANY_HOST
    def test_batch_size_beyond_the_frame_count(self, monkeypatch):
        # the worker sizes its regions from the frames, not from a batch_size
        # whose row bound would overflow
        use_worker(monkeypatch, False)
        in_process = self.train("sat", batch_size=2**62)
        use_worker(monkeypatch, True)
        log = self.train("sat", batch_size=2**62)
        assert log.second_process
        assert log.trajectory_key() == in_process.trajectory_key()
        assert_no_child_left()

    @FORKS_ANY_HOST
    @pytest.mark.parametrize("mode, scheme", [
        ("bat", "gradient_reversal"), ("sat", "gradient_reversal"),
        ("bat", "alternating"), ("sat", "alternating")],
        ids=["bat", "sat", "bat-alternating", "sat-alternating"])
    def test_nan_on_the_worker_raises_in_the_caller(self, monkeypatch, mode, scheme):
        # the first discriminator step overflows its weights and the next
        # forward meets the NaN: the next batch's under gradient_reversal,
        # the same batch's second forward under alternating, which on the
        # worker comes before its reply; on the worker as in process, the
        # run raises and leaves both stores where its steps reached
        runs = []
        for worker in (False, True):
            use_worker(monkeypatch, worker)
            rng = np.random.default_rng(0)
            adapter = AdaptationNetwork(8, [12], rng=rng)
            disc = DomainDiscriminator(8, [12], "senone_aware" if mode == "sat" else "binary",
                                       K=4 if mode == "sat" else None, rng=rng)
            built = disc.store.serialize()
            with (np.errstate(over="ignore", invalid="ignore"),
                  pytest.raises(NonFiniteError) as raised):
                adversarial_train(adapter, self.am, disc, self.view,
                                  AdversarialConfig(mode=mode, update_scheme=scheme, epochs=2,
                                                    lr_discriminator=1e300))
            assert disc.store.serialize() != built
            runs.append((str(raised.value), *arena_bytes(adapter.store, disc.store)))
        assert runs[0] == runs[1]
        assert_no_child_left()

    @FORKS_ANY_HOST
    def test_error_between_the_hand_offs_reaps_the_worker(self, monkeypatch):
        # the acoustic-model forward of a sat batch runs after the features
        # are handed over and before alpha is, under either scheme
        use_worker(monkeypatch, True)
        forward = self.am.net.forward
        for scheme in ("gradient_reversal", "alternating"):
            calls = []

            def failing(*args, **kwargs):
                calls.append(1)
                if len(calls) == 3:
                    raise KeyboardInterrupt
                return forward(*args, **kwargs)

            monkeypatch.setattr(self.am.net, "forward", failing)
            with pytest.raises(KeyboardInterrupt):
                self.train("sat", update_scheme=scheme)
            assert len(calls) == 3
            assert_no_child_left()

    @FORKS_ANY_HOST
    def test_killed_worker_raises(self, monkeypatch):
        use_worker(monkeypatch, True)
        hand, calls = training._DiscWorker.hand_features, []

        def killing(worker, *args):
            calls.append(1)
            if len(calls) == 3:
                os.kill(worker.pid, signal.SIGKILL)
            return hand(worker, *args)

        monkeypatch.setattr(training._DiscWorker, "hand_features", killing)
        with pytest.raises(RuntimeError, match="worker ended"):
            self.train("bat")
        assert_no_child_left()


class TestBenchmarkTracer:
    """perfbench/tracing.py wraps training by name from outside the package:
    an alternating batch is one adversarial_batch_grads call, a reloaded
    model keeps its role, and restore() leaves every patched module and class
    as it found it."""

    @staticmethod
    def tracer():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        return tracing.Tracer()

    def test_alternating_batch_is_one_span(self):
        owners = (nn, losses, models, synthdata, training, evaluate, nn.Network,
                  models.AdultAcousticModel, models.AdaptationNetwork,
                  models.DomainDiscriminator, models.AssessmentNetwork)
        before = [dict(vars(o)) for o in owners]

        view = small_corpus(seed=11).training_view("train")
        tracer = self.tracer()
        tracer.install(senadapt)
        try:
            # built under the tracer, so that it is tagged as the acoustic model
            am = build_adult_am(8, [16], 4, rng=np.random.default_rng(11))
            pretrain_adult_am(am, view, epochs=2, lr=0.1, seed=11)
            for mode in ("bat", "sat"):
                rng = np.random.default_rng(11)
                adapter = AdaptationNetwork(8, [12], rng=rng)
                disc = DomainDiscriminator(8, [12], "senone_aware" if mode == "sat" else
                                           "binary", K=4 if mode == "sat" else None, rng=rng)
                cfg = AdversarialConfig(mode=mode, update_scheme="alternating", epochs=1)
                training.adversarial_train(adapter, am, disc, view, cfg)
        finally:
            tracer.restore()
        assert [dict(vars(o)) for o in owners] == before

        n_batches = -(-len(view.frames) // cfg.batch_size)
        for mode in ("bat", "sat"):
            assert tracer.names.count(f"training.batch_grads.{mode}.alternating") == n_batches
        metrics = tracer.metrics(startup_s=0.0, overhead_ratio=0.0)
        assert metrics["models.am_forward_per_batch_grads.bat"] == 1.0
        assert metrics["models.am_forward_per_batch_grads.sat"] == 1.0

    def test_reloaded_models_keep_their_roles(self, tmp_path):
        # the bundle loaders run the constructors, which the tracer tags
        am = build_adult_am(8, [16], 4)
        am.freeze()
        models.save_adult_am(tmp_path / "am", am)
        models.save_adapter(tmp_path / "adapter", AdaptationNetwork(8, [12]))
        models.save_discriminator(tmp_path / "disc",
                                  DomainDiscriminator(8, [12], "senone_aware", K=4))
        tracer = self.tracer()
        tracer.install(senadapt)
        try:
            nets = {"am": models.load_adult_am(tmp_path / "am").net,
                    "adapter": models.load_adapter(tmp_path / "adapter").g,
                    "disc": models.load_discriminator(tmp_path / "disc").net}
        finally:
            tracer.restore()
        for role, net in nets.items():
            assert tracer.roles.get(net) == tracer.roles.get(net.store) == role


class TestDiscriminatorOnly:

    def test_learns_separable_domains(self):
        cfg = GeneratorConfig(K=4, dim=8, n_adult=800, n_child=800, seed=9,
                              shift_profile=(4.0,) * 4, shift_coherence=1.0)
        corpus = generate_corpus(cfg)
        view = corpus.training_view("train")
        am = build_adult_am(8, [16], 4, rng=np.random.default_rng(9))
        am.freeze()
        disc = DomainDiscriminator(8, [16], "binary", rng=np.random.default_rng(9))
        log = train_discriminator_only(disc, am, view, epochs=20, lr=0.2, seed=9)
        assert log.records[-1].disc_acc >= 0.9

    def test_senone_aware_reference_rejected(self):
        # the reference is the binary adversary of the identity adapter
        view = small_corpus(seed=10).training_view("train")
        am = build_adult_am(8, [16], 4, rng=np.random.default_rng(10))
        am.freeze()
        disc = DomainDiscriminator(8, [16], "senone_aware", K=4, rng=np.random.default_rng(10))
        before = disc.store.serialize()
        with pytest.raises(ValueError, match="binary"):
            train_discriminator_only(disc, am, view, epochs=1, lr=0.2, seed=10)
        assert disc.store.serialize() == before

    @pytest.mark.parametrize("epochs, lr", [(0, 0.2), (-1, 0.2), (1, 0.0), (1, -0.2),
                                            (1, math.nan), (1, math.inf)])
    def test_no_epochs_or_non_positive_learning_rate_rejected(self, epochs, lr):
        # either would leave an untrained reference discriminator; an
        # infinite rate is rejected before the first step, not met as a NaN
        view = small_corpus(seed=10).training_view("train")
        am = build_adult_am(8, [16], 4, rng=np.random.default_rng(10))
        disc = DomainDiscriminator(8, [16], "binary", rng=np.random.default_rng(10))
        before = disc.store.serialize()
        with pytest.raises(ValueError, match="epoch" if epochs < 1 else "learning rate"):
            train_discriminator_only(disc, am, view, epochs=epochs, lr=lr, seed=10)
        assert disc.store.serialize() == before

    @staticmethod
    def reference_train(disc, am, view, epochs, lr, seed, batch_size=128, momentum=0.0):
        """train_discriminator_only as written before it checked its input
        once per run: the public losses' values and the written-out logit
        gradients on every batch, and a zero_grads per batch."""
        rng = np.random.default_rng(seed)
        log = TrainLog()
        n = len(view.frames)
        for epoch in range(epochs):
            dom_sum, correct = 0.0, 0
            for idx in _minibatches(rng, n, batch_size):
                x, dom = view.frames[idx], view.domain_labels[idx]
                trace = disc.net.forward(x)
                _, dom_mean, _ = losses.binary_domain_loss(trace.output, dom)
                dom_grad = ce_logit_grad(trace.output, np.arange(len(dom)), dom)
                disc.store.zero_grads()
                assert disc.net.backward(trace, dom_grad, from_logits=True).shape == x.shape
                sgd_step(disc.store, lr, momentum)
                dom_sum += dom_mean * len(idx)
                correct += int((trace.output.argmax(axis=1) == dom).sum())
            log.records.append(TrainLogRecord(epoch, -dom_sum / n, 0.0, dom_sum / n,
                                              correct / n, 0.0))
        return log

    @pytest.mark.parametrize("mode", ["binary"])
    def test_matches_reference_loop(self, mode):
        # the trainer's fixed batches of 128 leave a short last batch of 96
        # of the 1,120 rows: bit-identical trajectory and parameters
        view = small_corpus(seed=11).training_view("train")
        assert len(view.frames) % 128 == 96
        am = build_adult_am(8, [16], 4, rng=np.random.default_rng(11))
        pretrain_adult_am(am, view, epochs=3, lr=0.1, seed=11)
        runs = []
        for train in (train_discriminator_only, self.reference_train):
            disc = DomainDiscriminator(8, [12], mode, rng=np.random.default_rng(11))
            log = train(disc, am, view, epochs=3, lr=0.2, seed=11)
            runs.append((log.trajectory_key(), disc.store.serialize()))
        assert runs[0] == runs[1]


def _bad_view(view, what):
    """A copy of view with one NaN adult frame, one adult senone label equal
    to K = 4, or one domain label 2, placed in the last adult row so that
    a loop checking per batch would step first; or view without its rows."""
    frames, dom, labels = (view.frames.copy(), view.domain_labels.copy(),
                           view.adult_senone_labels.copy())
    if what == "no_rows":
        return TrainingView(frames[:0], dom[:0], labels[:0])
    last_adult = np.flatnonzero(dom == 0)[-1]
    if what == "nan_frame":
        frames[last_adult, 0] = np.nan
    elif what == "label_K":
        labels[last_adult] = 4
    else:
        dom[last_adult] = 2
    return TrainingView(frames, dom, labels)


BAD_INPUTS = [("nan_frame", NonFiniteError), ("label_K", ValueError), ("domain_2", ValueError),
              ("no_rows", ValueError)]


class TestInputCheckedBeforeFirstStep:
    """Every loop rejects bad input before its first step and leaves its
    parameter stores byte-unchanged."""

    def setup_method(self):
        self.view = small_corpus(seed=13).training_view("train")
        self.am = build_adult_am(8, [16], 4, rng=np.random.default_rng(13))

    @pytest.mark.parametrize("what, error", BAD_INPUTS)
    def test_pretraining(self, what, error):
        before = self.am.net.store.serialize()
        with pytest.raises(error):
            pretrain_adult_am(self.am, _bad_view(self.view, what), epochs=2, lr=0.1, seed=0)
        assert self.am.net.store.serialize() == before and not self.am.frozen

    @pytest.mark.parametrize("what, error", BAD_INPUTS)
    @pytest.mark.parametrize("mode", ["bat", "sat"])
    def test_adversarial(self, mode, what, error):
        self.am.freeze()
        rng = np.random.default_rng(0)
        adapter = AdaptationNetwork(8, [12], rng=rng)
        disc = DomainDiscriminator(8, [12], "senone_aware" if mode == "sat" else "binary",
                                   K=4 if mode == "sat" else None, rng=rng)
        before = (adapter.store.serialize(), disc.store.serialize())
        for scheme in ("gradient_reversal", "alternating"):
            with pytest.raises(error):
                adversarial_train(adapter, self.am, disc, _bad_view(self.view, what),
                                  AdversarialConfig(mode=mode, update_scheme=scheme,
                                                    epochs=2))
            assert (adapter.store.serialize(), disc.store.serialize()) == before

    @pytest.mark.parametrize("what, error", BAD_INPUTS)
    @pytest.mark.parametrize("mode", ["binary"])
    def test_discriminator_only(self, mode, what, error):
        self.am.freeze()
        disc = DomainDiscriminator(8, [12], mode)
        before = disc.store.serialize()
        with pytest.raises(error):
            train_discriminator_only(disc, self.am, _bad_view(self.view, what),
                                     epochs=2, lr=0.2, seed=0)
        assert disc.store.serialize() == before

    @pytest.mark.parametrize("what, error", [("nan_feature", NonFiniteError),
                                             ("pron_0", ValueError), ("flu_6", ValueError),
                                             ("no_rows", ValueError), ("short_pron", ValueError),
                                             ("long_flu", ValueError)])
    def test_assessment(self, monkeypatch, what, error):
        # checked before the worker is forked, too
        use_worker(monkeypatch, True)
        forks = count_forks(monkeypatch)
        feats, pron, flu = generate_assessment_corpus(300, seed=13)
        if what == "nan_feature":
            feats[-1, 0] = np.nan
        elif what == "pron_0":
            pron[-1] = 0
        elif what == "flu_6":
            flu[-1] = 6
        elif what == "short_pron":
            pron = pron[:-1]
        elif what == "long_flu":
            flu = np.append(flu, 3)
        else:
            feats, pron, flu = feats[:0], pron[:0], flu[:0]
        net = AssessmentNetwork(input_dim=30, trunk_dims=(16,))
        stores = (net.trunk.store, net.head_pron.store, net.head_flu.store)
        before = [store.serialize() for store in stores]
        with pytest.raises(error):
            train_assessment_network(net, feats, pron, flu, epochs=2, lr=0.05, seed=0)
        assert [store.serialize() for store in stores] == before
        assert not forks


class TestAssessmentTraining:

    def test_fits_easy_levels(self):
        feats, pron, flu = generate_assessment_corpus(600, seed=11)
        net = AssessmentNetwork(input_dim=30, trunk_dims=(32,), rng=np.random.default_rng(11))
        train_assessment_network(net, feats, pron, flu, epochs=40, lr=0.05,
                                 seed=11)
        p, f = net.predict_levels(feats)
        assert (p == pron).mean() >= 0.8
        assert (f == flu).mean() >= 0.6

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_no_epochs_rejected(self, epochs):
        # zero epochs would leave an untrained network for eval to report on
        feats, pron, flu = generate_assessment_corpus(60, seed=11)
        net = AssessmentNetwork(input_dim=30, trunk_dims=(8,))
        with pytest.raises(ValueError):
            train_assessment_network(net, feats, pron, flu, epochs=epochs, lr=0.05, seed=11)

    @pytest.mark.parametrize("lr", [0.0, -0.05, math.nan, math.inf])
    def test_non_positive_learning_rate_rejected(self, lr):
        feats, pron, flu = generate_assessment_corpus(60, seed=11)
        net = AssessmentNetwork(input_dim=30, trunk_dims=(8,))
        stores = (net.trunk.store, net.head_pron.store, net.head_flu.store)
        before = [store.serialize() for store in stores]
        with pytest.raises(ValueError, match="learning rate"):
            train_assessment_network(net, feats, pron, flu, epochs=1, lr=lr, seed=11)
        assert [store.serialize() for store in stores] == before

    @staticmethod
    def reference_train(net, features, pron, flu, epochs, lr, seed, batch_size=64,
                        momentum=0.9):
        """train_assessment_network as written before its trunk backward
        stopped forming the input gradient it throws away, on the
        written-out logit gradients."""
        rng = np.random.default_rng(seed)
        n = len(features)
        stores = (net.trunk.store, net.head_pron.store, net.head_flu.store)
        log = TrainLog()
        for epoch in range(epochs):
            ce_sum, correct = 0.0, 0
            for idx in _minibatches(rng, n, batch_size):
                yp, yf = pron[idx] - 1, flu[idx] - 1
                traces = net.forward(features[idx])
                _, p, f = traces
                rows = np.arange(len(idx))
                ce_p, _ = losses.senone_ce_loss(p.output, yp, np.ones(len(idx), bool))
                ce_f, _ = losses.senone_ce_loss(f.output, yf, np.ones(len(idx), bool))
                g_p, g_f = ce_logit_grad(p.output, rows, yp), ce_logit_grad(f.output, rows, yf)
                for store in stores:
                    store.zero_grads()
                net.backward(traces, g_p, g_f)
                for store in stores:
                    sgd_step(store, lr, momentum)
                ce_sum += (ce_p + ce_f) * len(idx)
                correct += int((p.output.argmax(axis=1) == yp).sum())
            log.records.append(TrainLogRecord(epoch, ce_sum / (2 * n), ce_sum / (2 * n),
                                              0.0, correct / n, 0.0))
        return log

    @FORKS_ANY_HOST
    def test_matches_reference_loop(self, monkeypatch):
        # bit-identical trajectories, values, gradients and velocities, for
        # trunks of 1, 2 and 3 layers, with the parameter half in process and
        # on the worker; 300 rows end each epoch in a batch of 44
        feats, pron, flu = generate_assessment_corpus(300, seed=12)
        for trunk_dims in ((16,), (16, 16), (16, 12, 16)):
            for worker in (False, True):
                use_worker(monkeypatch, worker)
                runs, logs = [], []
                for train in (train_assessment_network, self.reference_train):
                    net = AssessmentNetwork(input_dim=30, trunk_dims=trunk_dims,
                                            rng=np.random.default_rng(12))
                    logs.append(train(net, feats, pron, flu, epochs=4, lr=0.05, seed=12))
                    runs.append((logs[-1].trajectory_key(), *self.arenas(net)))
                assert runs[0] == runs[1], (trunk_dims, worker)
                assert logs[0].second_process == worker
        assert_no_child_left()

    @staticmethod
    def arenas(net) -> list[bytes]:
        """Every store's values, gradients and velocity."""
        return arena_bytes(net.trunk.store, net.head_pron.store, net.head_flu.store)

    @staticmethod
    def train_small(trunk_dims=(16, 16), lr=0.05):
        feats, pron, flu = generate_assessment_corpus(300, seed=12)
        net = AssessmentNetwork(input_dim=30, trunk_dims=trunk_dims, rng=np.random.default_rng(12))
        return net, train_assessment_network(net, feats, pron, flu, epochs=2, lr=lr, seed=12)

    @FORKS_ANY_HOST
    def test_caller_reads_each_layer_before_the_worker_steps_it(self, monkeypatch):
        # the caller waits 2 ms before each read of the heads' or a trunk
        # layer's weights in its input-gradient chain: a layer handed to the
        # worker before that read would be read stepped
        backward, chain = nn.Network.backward, nn.Network.preactivation_grads

        def slow_backward(net, *args, **kwargs):
            time.sleep(0.002)
            return backward(net, *args, **kwargs)

        def slow_chain(net, *args, **kwargs):
            for item in chain(net, *args, **kwargs):
                yield item
                time.sleep(0.002)

        monkeypatch.setattr(nn.Network, "backward", slow_backward)
        monkeypatch.setattr(nn.Network, "preactivation_grads", slow_chain)
        runs = []
        for worker in (False, True):
            use_worker(monkeypatch, worker)
            net, log = self.train_small(trunk_dims=(16, 16, 16))
            assert log.second_process == worker
            runs.append((log.trajectory_key(), *self.arenas(net)))
        assert runs[0] == runs[1]
        assert_no_child_left()

    @FORKS_ANY_HOST
    def test_each_layer_goes_over_before_the_chain_reads_it(self, monkeypatch):
        # per batch of a 3-layer trunk: the heads' gradients before the
        # chain forms gz2, gz2 before it forms gz1 from W2, gz1 before it
        # forms gz0 from W1, and one empty hand-off, which releases layer 1,
        # once gz0 exists. Each layer's input goes over with its gradient: on
        # either path the caller's trunk activations are arrays of its own,
        # never the worker's regions
        hand, chain = training._Worker._hand, nn.Network.preactivation_grads
        forward, enter = AssessmentNetwork.forward, training._AssessWorker.__enter__
        events, checked, workers = [], [], []

        def recorded_hand(worker, rows=None, **arrays):
            events.append(("hand", rows, *sorted(arrays)))
            return hand(worker, rows, **arrays)

        def recorded_chain(net, *args, **kwargs):
            for i, gz in chain(net, *args, **kwargs):
                if len(net.layers) == 3:
                    events.append(("formed", i))
                yield i, gz

        def recorded_enter(worker):
            workers.append(worker)
            return enter(worker)

        def checked_forward(net, *args, **kwargs):
            traces = forward(net, *args, **kwargs)
            regions = (workers[-1]._a or {}).values()
            assert not any(np.shares_memory(a, r)
                           for a in traces[0].activations for r in regions)
            checked.append(1)
            return traces

        monkeypatch.setattr(training._Worker, "_hand", recorded_hand)
        monkeypatch.setattr(nn.Network, "preactivation_grads", recorded_chain)
        monkeypatch.setattr(training._AssessWorker, "__enter__", recorded_enter)
        monkeypatch.setattr(AssessmentNetwork, "forward", checked_forward)
        runs = []
        for worker in (False, True):
            use_worker(monkeypatch, worker)
            events.clear()
            checked.clear()
            net, log = self.train_small(trunk_dims=(16, 16, 16))
            assert log.second_process == worker
            # 300 rows: four batches of 64 and one of 44 per epoch, two epochs
            assert len(checked) == 10
            runs.append((log.trajectory_key(), *self.arenas(net)))
        batch = [("formed", 2), ("hand", None, "act2", "gz2"), ("formed", 1),
                 ("hand", None, "act1", "gz1"), ("formed", 0), ("hand", None)]
        assert events == [event for n in [64, 64, 64, 64, 44] * 2
                          for event in [("hand", n, "act3", "g_flu", "g_pron"), *batch]] + [
                              ("hand", 0)]
        assert runs[0] == runs[1]
        assert_no_child_left()

    @FORKS_ANY_HOST
    def test_worker_matches_in_process_at_the_eval_shapes(self, monkeypatch):
        # eval's network (30 -> 128 x 3 trunk) on 1,200 rows: each epoch ends
        # in a batch of 48; the reference-loop test runs 16-wide trunks only
        feats, pron, flu = generate_assessment_corpus(1200, seed=13)
        runs = []
        for worker in (False, True):
            use_worker(monkeypatch, worker)
            net = AssessmentNetwork(input_dim=30, rng=np.random.default_rng(13))
            log = train_assessment_network(net, feats, pron, flu, epochs=3, lr=0.05, seed=13)
            assert log.second_process == worker
            runs.append((log.trajectory_key(), *self.arenas(net)))
        assert runs[0] == runs[1]
        assert_no_child_left()

    # the parameter half on a forked worker: which runs fork one, and every
    # way a run can end reaps it

    @FORKS_ANY_HOST
    @pytest.mark.parametrize("free, forks", [(True, 1), (False, 0)])
    def test_forks_one_worker_per_run(self, monkeypatch, free, forks):
        use_worker(monkeypatch, free)
        counted = count_forks(monkeypatch)
        _, log = self.train_small()
        assert len(counted) == forks
        assert log.second_process == (forks == 1)
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["fork", "semaphore"])
    def test_failed_fork_runs_in_process(self, monkeypatch, where):
        use_worker(monkeypatch, False)
        ref_net, ref_log = self.train_small()
        use_worker(monkeypatch, True)
        make_fork_fail(monkeypatch, where)
        net, log = self.train_small()
        assert not log.second_process
        assert log.trajectory_key() == ref_log.trajectory_key()
        assert self.arenas(net) == self.arenas(ref_net)
        assert_no_child_left()

    @FORKS_ANY_HOST
    @pytest.mark.parametrize("worker", [False, True])
    def test_overflow_raises_non_finite(self, monkeypatch, worker):
        # the first steps overflow the weights; the caller's next forward
        # meets the NaN on either path
        use_worker(monkeypatch, worker)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            self.train_small(lr=1e300)
        assert_no_child_left()

    @FORKS_ANY_HOST
    def test_killed_worker_raises(self, monkeypatch):
        use_worker(monkeypatch, True)
        step, calls = training._AssessWorker.backward_step, []

        def killing(worker, *args):
            calls.append(1)
            if len(calls) == 3:
                os.kill(worker.pid, signal.SIGKILL)
            return step(worker, *args)

        monkeypatch.setattr(training._AssessWorker, "backward_step", killing)
        with pytest.raises(RuntimeError, match="worker ended"):
            self.train_small()
        assert_no_child_left()

    @FORKS_ANY_HOST
    def test_interrupt_between_the_hand_offs_reaps_the_worker(self, monkeypatch):
        # the third batch's trunk chain stops as gz_0 is formed: layers 2 and
        # 1 are handed over, and the worker waits for the hand-off that
        # releases layer 1
        use_worker(monkeypatch, True)
        chain, trunk_chains = nn.Network.preactivation_grads, []
        hand, handed = training._Worker._hand, []

        def recorded_hand(worker, rows=None, **arrays):
            handed.append(sorted(arrays))
            return hand(worker, rows, **arrays)

        def interrupted(net, *args, **kwargs):
            trunk = len(net.layers) == 3
            if trunk:
                trunk_chains.append(1)
            for i, gz in chain(net, *args, **kwargs):
                if trunk and len(trunk_chains) == 3 and i == 0:
                    raise KeyboardInterrupt
                yield i, gz

        monkeypatch.setattr(nn.Network, "preactivation_grads", interrupted)
        monkeypatch.setattr(training._Worker, "_hand", recorded_hand)
        with pytest.raises(KeyboardInterrupt):
            self.train_small(trunk_dims=(16, 16, 16))
        assert len(trunk_chains) == 3
        assert handed[-2:] == [["act2", "gz2"], ["act1", "gz1"]]
        assert_no_child_left()


class TestTrainLog:

    def test_round_trip(self, tmp_path):
        log = TrainLog(records=[
            TrainLogRecord(0, 1.25, 2.0, 0.75, 0.5, 0.01),
            TrainLogRecord(1, 1.0, 1.5, 0.5, 0.6, 0.02),
        ])
        path = tmp_path / "t.log"
        log.write(path)
        back = TrainLog.read(path)
        assert back.trajectory_key() == log.trajectory_key()
        assert [r.seconds for r in back.records] == [0.01, 0.02]
        # each column parses back to its field's type
        assert back.records == log.records
        types = [type(v) for v in dataclasses.astuple(back.records[0])]
        assert types == [int] + [float] * 5

    def test_header_names_the_columns(self, tmp_path):
        path = tmp_path / "t.log"
        TrainLog(records=[TrainLogRecord(0, 1.0, 1.0, 0.0, 0.5, 0.1)]).write(path)
        assert path.read_text().splitlines() == [
            "# epoch\tobjective\tsenone_ce\tdomain_loss\tdisc_acc\tseconds",
            "0\t1.0\t1.0\t0.0\t0.5\t0.1"]

    def test_row_of_another_width_rejected(self, tmp_path):
        # a row of the former eight-column log, which ended in two integer
        # alpha columns, fails to read instead of parsing into the wrong fields
        path = tmp_path / "t.log"
        path.write_text("0\t1.0\t1.0\t0.0\t0.5\t0.1\t3\t7\n")
        with pytest.raises(ValueError):
            TrainLog.read(path)

    def test_trajectory_key_ignores_wall_time(self):
        a = TrainLog(records=[TrainLogRecord(0, 1.0, 1.0, 0.0, 0.5, 0.123)])
        b = TrainLog(records=[TrainLogRecord(0, 1.0, 1.0, 0.0, 0.5, 9.876)])
        assert a.trajectory_key() == b.trajectory_key()

    def test_float_precision_preserved(self, tmp_path):
        val = 1.0 / 3.0 + 1e-16
        log = TrainLog(records=[TrainLogRecord(0, val, val, val, val, 0.0)])
        path = tmp_path / "t.log"
        log.write(path)
        assert TrainLog.read(path).records[0].objective == val
