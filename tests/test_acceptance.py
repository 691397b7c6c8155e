"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete.

The shared ten-seed experiment (criteria 6 and 7) trains, per seed, a
frozen senone model plus both adversarial arms on the default synthetic
corpus and an identity-adapter reference discriminator.
"""

import math
import time

import numpy as np
import pytest

from senadapt import losses
from senadapt.cli import main as cli_main
from senadapt.evaluate import (
    absolute_reduction,
    assessment_metrics,
    child_senone_error,
    domain_confusion,
    relative_reduction,
)
from senadapt.models import (
    AdaptationNetwork,
    AssessmentNetwork,
    DomainDiscriminator,
    build_adult_am,
)
from senadapt.nn import LayerSpec, Network, finite_diff_gradient
from senadapt.synthdata import (
    GeneratorConfig,
    generate_assessment_corpus,
    generate_corpus,
)
from senadapt.training import (
    AdversarialConfig,
    adversarial_batch_grads,
    adversarial_train,
    pretrain_adult_am,
    train_assessment_network,
    train_discriminator_only,
)


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def rel_err(analytic, approx):
    denom = np.maximum(np.abs(analytic) + np.abs(approx), 1e-6)
    return float(np.max(np.abs(analytic - approx) / denom))


def analytic_param_grads(net, x, out_grad_fn):
    net.store.zero_grads()
    trace = net.forward(x)
    net.backward(trace, out_grad_fn(trace.output))
    return {n: net.store.grad(n).copy() for n in net.store.names()}


class TestCriterion1Gradients:

    def test_gradient_oracle(self):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d_in, K = 4, 3
            x = rng.normal(size=(5, d_in))
            # every layer type on the path: rectifier, sigmoid, identity,
            # softmax output
            hidden = [LayerSpec(d_in, 6, "rectifier"), LayerSpec(6, 6, "sigmoid"),
                      LayerSpec(6, 5, "identity")]

            # senone cross-entropy on a K-way softmax
            net = Network(hidden + [LayerSpec(5, K, "softmax")],
                          rng=np.random.default_rng(seed))
            y = rng.integers(0, K, size=5)
            mask = np.ones(5, bool)
            mask[0] = False  # exercise the adult-frame mask
            loss_fn = lambda out: losses.senone_ce_loss(out, y, mask)[0]
            grad_fn = lambda out: losses.senone_ce_loss(out, y, mask)[1]
            got = analytic_param_grads(net, x, grad_fn)
            want = finite_diff_gradient(net, x, loss_fn, h=1e-5)
            worst = max(worst, max(rel_err(got[n], want[n]) for n in got))

            # binary domain loss on a 2-way softmax
            net = Network(hidden + [LayerSpec(5, 2, "softmax")],
                          rng=np.random.default_rng(seed + 100))
            dom = rng.integers(0, 2, size=5)
            loss_fn = lambda out: losses.binary_domain_loss(out, dom)[1]
            grad_fn = lambda out: losses.binary_domain_loss(out, dom)[2]
            got = analytic_param_grads(net, x, grad_fn)
            want = finite_diff_gradient(net, x, loss_fn, h=1e-5)
            worst = max(worst, max(rel_err(got[n], want[n]) for n in got))

            # senone-weighted domain loss on a joint 2K-way softmax
            net = Network(hidden + [LayerSpec(5, 2 * K, "softmax")],
                          rng=np.random.default_rng(seed + 200))
            alpha = rng.dirichlet(np.ones(K), size=5)
            loss_fn = lambda out: losses.senone_aware_domain_loss(out, dom, alpha)[1]
            grad_fn = lambda out: losses.senone_aware_domain_loss(out, dom, alpha)[2]
            got = analytic_param_grads(net, x, grad_fn)
            want = finite_diff_gradient(net, x, loss_fn, h=1e-5)
            worst = max(worst, max(rel_err(got[n], want[n]) for n in got))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-4 and elapsed <= 30.0
        verdict(1, ok, f"gradient oracle: max rel err {worst:.2e} "
                       f"(limit 1e-4), {elapsed:.1f}s (limit 30s)")


class TestCriterion2LossOracle:

    @staticmethod
    def naive_terms(posteriors, labels, mask, disc2, disc2k, dom, alpha):
        n = int(mask.sum())
        ce = 0.0
        for i in range(len(labels)):
            if mask[i]:
                ce += -math.log(max(posteriors[i, labels[i]], 1e-12))
        ce /= n
        b = 0.0
        for i in range(len(dom)):
            b += -math.log(max(disc2[i, dom[i]], 1e-12))
        b /= len(dom)
        K = disc2k.shape[1] // 2
        s = 0.0
        for i in range(len(dom)):
            off = K if dom[i] == 1 else 0
            for k in range(K):
                s += -alpha[i, k] * math.log(max(disc2k[i, off + k], 1e-12))
        s /= len(dom)
        return ce, b, s

    def test_loss_oracle(self):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            N = int(rng.integers(2, 9))
            K = int(rng.integers(2, 6))
            post = rng.dirichlet(np.ones(K), size=N)
            labels = rng.integers(0, K, size=N)
            mask = np.zeros(N, bool)
            mask[rng.integers(0, N)] = True
            mask |= rng.random(N) < 0.5
            disc2 = rng.dirichlet(np.ones(2), size=N)
            disc2k = rng.dirichlet(np.ones(2 * K), size=N)
            dom = rng.integers(0, 2, size=N)
            alpha = rng.dirichlet(np.ones(K), size=N)
            ce, _ = losses.senone_ce_loss(post, labels, mask)
            _, b, _ = losses.binary_domain_loss(disc2, dom)
            _, s, _ = losses.senone_aware_domain_loss(disc2k, dom, alpha)
            rce, rb, rs = self.naive_terms(post, labels, mask, disc2, disc2k,
                                           dom, alpha)
            worst = max(worst, abs(ce - rce), abs(b - rb), abs(s - rs))
        # K = 1 joint loss collapses to the binary loss
        rng = np.random.default_rng(99)
        out = rng.dirichlet(np.ones(2), size=16)
        dom = rng.integers(0, 2, size=16)
        _, mb, gb = losses.binary_domain_loss(out, dom)
        _, ms, gs = losses.senone_aware_domain_loss(out, dom, np.ones((16, 1)))
        k1_gap = max(abs(mb - ms), float(np.max(np.abs(gb - gs))))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-10 and k1_gap <= 1e-12 and elapsed <= 5.0
        verdict(2, ok, f"loss oracle: naive-reference gap {worst:.2e} "
                       f"(limit 1e-10), K=1 reduction gap {k1_gap:.2e} "
                       f"(limit 1e-12), {elapsed:.1f}s (limit 5s)")


class TestCriterion3SignContract:

    def test_sign_contract(self):
        t0 = time.perf_counter()
        corpus = generate_corpus(GeneratorConfig(K=4, dim=8, n_adult=2000,
                                                 n_child=2000, seed=0,
                                                 shift_profile=(0.0, 1.0, 2.0, 4.0)))
        view = corpus.training_view("train")
        am = build_adult_am(8, [16], 4, rng=np.random.default_rng(0))
        pretrain_adult_am(am, view, epochs=5, lr=0.1, seed=0)
        lam = 0.8
        ok_disc = ok_adpt = 0
        batches = 0
        rng = np.random.default_rng(1)
        for mode in ("bat", "sat"):
            adapter = AdaptationNetwork(8, [10], rng=np.random.default_rng(2))
            disc = DomainDiscriminator(8, [10],
                                       "senone_aware" if mode == "sat" else "binary",
                                       K=4 if mode == "sat" else None,
                                       rng=np.random.default_rng(2))
            cfg = AdversarialConfig(mode=mode)
            for _ in range(25):
                idx = rng.choice(len(view.frames), size=64, replace=False)
                x = view.frames[idx]
                y = view.adult_senone_labels[idx]
                dom = view.domain_labels[idx]
                if (dom == 0).sum() == 0:
                    continue
                adapter.store.zero_grads()
                disc.store.zero_grads()
                adversarial_batch_grads(adapter, am, disc, x, y, dom, cfg, lam)
                g_disc = {n: disc.store.grad(n).copy() for n in disc.store.names()}
                g_adpt = {n: adapter.store.grad(n).copy()
                          for n in adapter.store.names()}

                # independent gradients from a hand-composed second pass
                adapter.store.zero_grads()
                disc.store.zero_grads()
                at = adapter.forward(x)
                dt = disc.net.forward(at.output)
                if mode == "sat":
                    alpha = am.posteriors(at.output)
                    _, _, dg = losses.senone_aware_domain_loss(dt.output, dom, alpha)
                else:
                    _, _, dg = losses.binary_domain_loss(dt.output, dom)
                feat_dom = disc.net.backward(dt, dg)
                i_disc = {n: disc.store.grad(n).copy() for n in disc.store.names()}
                tr = am.net.forward(at.output)
                _, cg = losses.senone_ce_loss(tr.output, y, dom == 0)
                adapter.backward(at, am.net.backward(tr, cg) - lam * feat_dom)
                i_adpt = {n: adapter.store.grad(n).copy()
                          for n in adapter.store.names()}

                # applied update is -lr * grad (momentum 0); descent means a
                # negative inner product with the independent loss gradient
                dot_d = sum(float((-cfg.lr_discriminator * g_disc[n] * i_disc[n]).sum())
                            for n in g_disc)
                dot_a = sum(float((-cfg.lr_adapter * g_adpt[n] * i_adpt[n]).sum())
                            for n in g_adpt)
                ok_disc += dot_d < 0
                ok_adpt += dot_a < 0
                batches += 1
        elapsed = time.perf_counter() - t0
        ok = batches >= 50 and ok_disc == batches and ok_adpt == batches \
            and elapsed <= 10.0
        verdict(3, ok, f"sign contract: discriminator descent {ok_disc}/{batches}, "
                       f"adapter descent {ok_adpt}/{batches}, "
                       f"{elapsed:.1f}s (limit 10s)")


class TestCriterion4FrozenModel:

    def test_frozen_model_bytes(self):
        corpus = generate_corpus(GeneratorConfig(K=4, dim=8, n_adult=800,
                                                 n_child=800, seed=3,
                                                 shift_profile=(0.0, 1.0, 2.0, 4.0)))
        view = corpus.training_view("train")
        am = build_adult_am(8, [16], 4, rng=np.random.default_rng(3))
        pretrain_adult_am(am, view, epochs=5, lr=0.1, seed=3)
        before = am.net.store.serialize()
        for mode in ("bat", "sat"):
            rng = np.random.default_rng(4)
            adapter = AdaptationNetwork(8, [10], rng=rng)
            disc = DomainDiscriminator(8, [10],
                                       "senone_aware" if mode == "sat" else "binary",
                                       K=4 if mode == "sat" else None, rng=rng)
            adversarial_train(adapter, am, disc, view,
                              AdversarialConfig(mode=mode, epochs=3, seed=4))
        ok = am.net.store.serialize() == before
        verdict(4, ok, "frozen acoustic model byte-identical across both "
                       "adversarial runs")


class TestCriterion5PublishedArithmetic:

    def test_published_arithmetic(self):
        r1 = relative_reduction(67.19, 62.02)
        r2 = absolute_reduction(74.43, 62.02)
        r3 = relative_reduction(1.90, 1.42)
        ok = (round(r1, 1) == 7.7
              and round(r2, 2) == 12.41
              and round(r3, 1) == 25.3 and abs(r3 - 25.2) <= 0.1)
        verdict(5, ok, f"published-number arithmetic: {r1:.4f}%~7.7%, "
                       f"{r2:.4f}~12.41, {r3:.4f}%~25.2%")


@pytest.fixture(scope="module")
def ten_seed_experiment():
    """Shared experiment for criteria 6 and 7: ten seeds on the default
    corpus (10 senones, 20 dims, 5,000 training frames per domain)."""
    t0 = time.perf_counter()
    results = []
    for s in range(10):
        cfg = GeneratorConfig(n_adult=7000, n_child=7000,
                              split_fractions=(5 / 7, 1 / 7, 1 / 7), seed=s)
        corpus = generate_corpus(cfg)
        view = corpus.training_view("train")
        assert (view.domain_labels == 0).sum() == 5000
        assert (view.domain_labels == 1).sum() == 5000
        am = build_adult_am(20, [64, 64], 10, rng=np.random.default_rng(s))
        pretrain_adult_am(am, view, epochs=30, lr=0.1, seed=s)

        errs = {"dnn": child_senone_error(am, corpus)}
        adapters = {}
        for mode in ("bat", "sat"):
            rng = np.random.default_rng(s)
            adapter = AdaptationNetwork(20, [64], rng=rng)
            disc = DomainDiscriminator(
                20, [64], "senone_aware" if mode == "sat" else "binary",
                K=10 if mode == "sat" else None, rng=rng)
            adversarial_train(adapter, am, disc, view,
                              AdversarialConfig(mode=mode, epochs=30, seed=s))
            errs[mode] = child_senone_error(am, corpus, adapter)
            adapters[mode] = adapter

        # reference discriminator: adapter frozen at identity
        ref = DomainDiscriminator(20, [64], "binary",
                                  rng=np.random.default_rng(s + 1))
        train_discriminator_only(ref, am, view, epochs=40, lr=0.2, seed=s)
        test = corpus.subset("test")
        base_acc, _ = domain_confusion(ref, None, test)
        drops = {mode: 100.0 * (base_acc - domain_confusion(ref, adapters[mode],
                                                            test)[0])
                 for mode in ("bat", "sat")}
        results.append({"errs": errs, "drops": drops})
    return results, time.perf_counter() - t0


class TestCriterion6Ordering:

    def test_error_ordering(self, ten_seed_experiment):
        results, elapsed = ten_seed_experiment
        ordered = sum(r["errs"]["dnn"] > r["errs"]["bat"] > r["errs"]["sat"]
                      for r in results)
        mean_bat = np.mean([r["errs"]["bat"] for r in results])
        mean_sat = np.mean([r["errs"]["sat"] for r in results])
        rel = relative_reduction(mean_bat, mean_sat)
        ok = ordered >= 8 and rel >= 5.0 and elapsed <= 300.0
        verdict(6, ok, f"error ordering: baseline > binary > senone-aware in "
                       f"{ordered}/10 seeds (need 8), mean relative gain "
                       f"{rel:.1f}% (need 5%), {elapsed:.1f}s (limit 300s)")


class TestCriterion7DomainConfusion:

    def test_domain_confusion_drop(self, ten_seed_experiment):
        results, _ = ten_seed_experiment
        hits = {mode: sum(r["drops"][mode] >= 15.0 for r in results)
                for mode in ("bat", "sat")}
        mins = {mode: min(r["drops"][mode] for r in results)
                for mode in ("bat", "sat")}
        ok = hits["bat"] >= 8 and hits["sat"] >= 8
        verdict(7, ok, f"domain confusion: >=15-point accuracy drop in "
                       f"{hits['bat']}/10 (binary, min {mins['bat']:.1f}) and "
                       f"{hits['sat']}/10 (senone-aware, min {mins['sat']:.1f}) "
                       f"seeds (need 8)")


class TestCriterion8Assessment:

    def test_assessment_heads(self):
        t0 = time.perf_counter()
        feats, pron, flu = generate_assessment_corpus(1500, seed=0)
        n_train = 1200
        net = AssessmentNetwork(input_dim=30, rng=np.random.default_rng(0))
        epochs = 150
        train_assessment_network(net, feats[:n_train], pron[:n_train],
                                 flu[:n_train], epochs=epochs, lr=0.05, seed=0)
        m = assessment_metrics(net, feats[n_train:], pron[n_train:], flu[n_train:])
        elapsed = time.perf_counter() - t0
        ok = (epochs <= 200 and m["pron.accuracy"] >= 60.0
              and m["flu.accuracy"] >= 60.0
              and m["pron.mse"] < 2.0 and m["flu.mse"] < 2.0
              and elapsed <= 60.0)
        verdict(8, ok, f"assessment heads: accuracy {m['pron.accuracy']:.1f}%/"
                       f"{m['flu.accuracy']:.1f}% (need 60%), MSE "
                       f"{m['pron.mse']:.2f}/{m['flu.mse']:.2f} (need <2.0), "
                       f"{epochs} epochs, {elapsed:.1f}s (limit 60s)")


class TestCriterion9Determinism:

    def test_pipeline_byte_identical(self, tmp_path):
        cfg_text = ("K = 4\ndim = 8\nn_adult = 400\nn_child = 400\n"
                    "shift_profile = 0,1,2,4\nassess_n = 200\n"
                    "am_hidden = 16\nadapter_hidden = 12\ndisc_hidden = 12\n"
                    "pretrain_epochs = 5\nepochs = 3\nassess_epochs = 10\n")
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(cfg_text)
        reports = []
        for run in ("a", "b"):
            out = str(tmp_path / run)
            for argv in (("gen",), ("pretrain",), ("adapt", "--mode", "bat"),
                         ("adapt", "--mode", "sat"), ("eval",)):
                code = cli_main(list(argv) + ["--config", str(cfg_path),
                                              "--out", out, "--seed", "7"])
                assert code == 0
            reports.append((tmp_path / run / "report.tsv").read_bytes())
        ok = reports[0] == reports[1]
        verdict(9, ok, "seed-7 pipeline run twice produced byte-identical reports")
