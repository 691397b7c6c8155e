"""Pretraining of the adult acoustic model and adversarial min-max training.

The min-max objective is realized two ways, selectable per config:

* gradient_reversal: one pass per batch. The discriminator receives the
  gradient descending the mean domain loss; the adapter receives the
  gradient of [senone CE mean - lambda * domain loss mean], i.e. the domain
  gradient flows into the adapter negated and scaled by lambda.
* alternating: a discriminator descent step on the domain loss, then an
  adapter descent step on [CE - lambda * domain loss] against the updated
  discriminator. Both phases share one adapter forward, one acoustic-model
  forward and one alpha per batch (a BatchForward): the adapter does not
  move between them. The discriminator phase forms only the discriminator's
  gradients: no senone CE, no alpha checksum or domain accuracy, and no
  acoustic-model or adapter backward pass. The adapter phase forms no
  discriminator weight gradients, only the input gradient the adapter needs.

Both leave the frozen acoustic model's parameters untouched; it only relays
input gradients from the senone loss to the adapter.

Every loop checks its whole input once, before its first step (finite
frames or features, domains in {0, 1}, senone labels in [0, K) on adult
rows, assessment levels in range), and then runs the losses' unchecked
kernels and skips Network.forward's input check. Gradients are zeroed once
per run: every sgd_step leaves its store's gradients at zero.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .models import (AdaptationNetwork, AdapterTrace, AdultAcousticModel,
                     DomainDiscriminator, marginal_domain_probs)
from .nn import ForwardTrace, NonFiniteError, sgd_step
from .synthdata import TrainingView


@dataclass
class AdversarialConfig:
    mode: str = "sat"                       # "bat" | "sat"
    reversal_coefficient: float = 1.0       # lambda
    update_scheme: str = "gradient_reversal"  # | "alternating"
    lr_adapter: float = 0.05
    lr_discriminator: float = 0.2
    momentum: float = 0.0
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0
    alpha_source: str = "adapted"           # | "raw"
    lambda_shape: str = "ramp"              # | "constant"

    def validate(self) -> None:
        if self.mode not in ("bat", "sat"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.update_scheme not in ("gradient_reversal", "alternating"):
            raise ValueError(f"unknown update scheme {self.update_scheme!r}")
        if self.alpha_source not in ("adapted", "raw"):
            raise ValueError(f"unknown alpha_source {self.alpha_source!r}")
        if self.lambda_shape not in ("ramp", "constant"):
            raise ValueError(f"unknown lambda shape {self.lambda_shape!r}")
        if not (0 <= self.reversal_coefficient < math.inf):
            raise ValueError("reversal coefficient must be finite and nonnegative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (0 < self.lr_adapter < math.inf and 0 < self.lr_discriminator < math.inf):
            raise ValueError("learning rates must be finite and positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")


@dataclass
class TrainLogRecord:
    epoch: int
    objective: float
    senone_ce: float
    domain_loss: float
    disc_acc: float
    seconds: float
    alpha_evals: int = 0
    alpha_checksum: int = 0

    def to_line(self) -> str:
        return "\t".join([str(self.epoch), repr(self.objective),
                          repr(self.senone_ce), repr(self.domain_loss),
                          repr(self.disc_acc), repr(self.seconds),
                          str(self.alpha_evals), str(self.alpha_checksum)])

    @classmethod
    def from_line(cls, line: str) -> "TrainLogRecord":
        p = line.rstrip("\n").split("\t")
        return cls(int(p[0]), float(p[1]), float(p[2]), float(p[3]),
                   float(p[4]), float(p[5]), int(p[6]), int(p[7]))


@dataclass
class TrainLog:
    records: list[TrainLogRecord] = field(default_factory=list)

    def to_lines(self) -> list[str]:
        return [r.to_line() for r in self.records]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# epoch\tobjective\tsenone_ce\tdomain_loss\tdisc_acc"
                     "\tseconds\talpha_evals\talpha_checksum\n")
            for line in self.to_lines():
                fh.write(line + "\n")

    @classmethod
    def read(cls, path) -> "TrainLog":
        log = cls()
        with open(path) as fh:
            for line in fh:
                if line.startswith("#") or not line.strip():
                    continue
                log.records.append(TrainLogRecord.from_line(line))
        return log

    def trajectory_key(self) -> tuple:
        """Everything except wall time; this is what determinism guarantees."""
        return tuple((r.epoch, r.objective, r.senone_ce, r.domain_loss,
                      r.disc_acc, r.alpha_evals, r.alpha_checksum)
                     for r in self.records)


def lambda_schedule(epoch: int, total: int, shape: str = "ramp") -> float:
    """Reversal-coefficient multiplier: constant 1, or a 0-to-1 sigmoid ramp."""
    if not (0 <= epoch <= total):
        raise ValueError("epoch out of range")
    if shape == "constant":
        return 1.0
    if shape == "ramp":
        return 2.0 / (1.0 + np.exp(-10.0 * epoch / total)) - 1.0
    raise ValueError(f"unknown schedule shape {shape!r}")


def _alpha_checksum(alpha: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(alpha, dtype="<f8").tobytes())


def _minibatches(rng: np.random.Generator, n: int, batch_size: int):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _check_labels(senone_labels: np.ndarray, domain: np.ndarray, K: int) -> None:
    if not ((domain == 0) | (domain == 1)).all():
        raise ValueError("domain labels must be 0 (adult) or 1 (child)")
    adult = senone_labels[domain == 0]
    if ((adult < 0) | (adult >= K)).any():
        raise ValueError("senone label out of range")


def _check_view(view: TrainingView, K: int) -> None:
    """A training run's whole input, checked once before its first step:
    finite frames, domains in {0, 1} and senone labels in [0, K) on adult
    rows. The run then skips these checks on every batch."""
    if not np.isfinite(view.frames).all():
        raise NonFiniteError("non-finite values in the training frames")
    _check_labels(view.adult_senone_labels, view.domain_labels, K)


def pretrain_adult_am(am: AdultAcousticModel, view: TrainingView, epochs: int,
                      lr: float, seed: int, batch_size: int = 128,
                      momentum: float = 0.9) -> TrainLog:
    """Supervised senone training on adult frames, then freeze the model."""
    if am.frozen:
        raise RuntimeError("acoustic model is already pretrained and frozen")
    if epochs < 1:
        raise ValueError("pretraining needs at least one epoch")
    if not lr > 0:
        raise ValueError(f"pretraining learning rate must be positive, got {lr}")
    _check_view(view, am.K)
    adult = np.flatnonzero(view.adult_mask)
    if adult.size == 0:
        raise ValueError("pretraining corpus has no adult frames")
    x_all = view.frames[adult]
    y_all = view.adult_senone_labels[adult]
    rng = np.random.default_rng(seed)
    log = TrainLog()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        ce_sum, correct, seen = 0.0, 0, 0
        for idx in _minibatches(rng, adult.size, batch_size):
            x, y = x_all[idx], y_all[idx]
            trace = am.net.forward(x, train_mode=True, rng=rng, check_input=False)
            ce, grad = losses.senone_ce_kernel(trace.output, np.arange(len(y)), y)
            am.net.backward(trace, grad, input_grad=False, from_logits=True)
            sgd_step(am.net.store, lr, momentum)
            ce_sum += ce * len(y)
            correct += int((trace.output.argmax(axis=1) == y).sum())
            seen += len(y)
        log.records.append(TrainLogRecord(
            epoch=epoch, objective=ce_sum / seen, senone_ce=ce_sum / seen,
            domain_loss=0.0, disc_acc=correct / seen,
            seconds=time.perf_counter() - t0))
    am.freeze()
    return log


def _stratified_batches(rng: np.random.Generator, adult_idx: np.ndarray,
                        child_idx: np.ndarray, batch_size: int):
    """Batches covering every frame once per epoch, each with >= 25% adult
    frames (adult frames are re-drawn with replacement when the pool's own
    share of a batch would fall below a quarter)."""
    adult = rng.permutation(adult_idx)
    child = rng.permutation(child_idx)
    n = adult.size + child.size
    n_batches = -(-n // batch_size)
    a_bounds = np.linspace(0, adult.size, n_batches + 1).astype(int)
    c_bounds = np.linspace(0, child.size, n_batches + 1).astype(int)
    for b in range(n_batches):
        a = adult[a_bounds[b] : a_bounds[b + 1]]
        c = child[c_bounds[b] : c_bounds[b + 1]]
        # n_a >= ceil(n_c / 3) makes the adult share of the final batch >= 1/4
        need = max(1, -(-c.size // 3))
        if a.size < need:
            extra = rng.choice(adult_idx, size=need - a.size, replace=True)
            a = np.concatenate([a, extra])
        yield np.concatenate([a, c]), a.size


@dataclass
class _BatchStats:
    terms: losses.BatchLossTerms
    disc_correct: int
    alpha_evals: int
    alpha_checksum: int


@dataclass
class BatchTargets:
    """One batch's targets as integer indices: the adult rows, their senone
    labels and every row's domain column (0 adult, 1 child)."""
    adult_rows: np.ndarray
    senone_labels: np.ndarray
    domain_cols: np.ndarray

    @classmethod
    def checked(cls, senone_labels: np.ndarray, domain: np.ndarray,
                K: int) -> "BatchTargets":
        """The targets of a batch no training run has checked."""
        senone_labels, domain = np.asarray(senone_labels), np.asarray(domain)
        _check_labels(senone_labels, domain, K)
        rows = np.flatnonzero(domain == 0)
        if rows.size == 0:
            raise ValueError("batch has no adult frames; the objective divides by n")
        return cls(rows, senone_labels[rows].astype(np.intp), domain.astype(np.intp))


@dataclass
class BatchForward:
    """One batch's targets, adapter pass, acoustic-model pass and sat alpha,
    each filled in by adversarial_batch_grads where first needed. The
    alternating scheme hands one to both of its phases: the adapter is not
    stepped between them and its layers draw no dropout masks, so the
    adapter phase reuses what the discriminator phase computed, bit for bit
    the values it would recompute. Targets handed in with it mark the batch
    as checked by the training run: its frames skip the input check."""
    targets: BatchTargets | None = None
    adapter: AdapterTrace | None = None
    am: ForwardTrace | None = None
    alpha: np.ndarray | None = None


def adversarial_batch_grads(adapter: AdaptationNetwork, am: AdultAcousticModel,
                            disc: DomainDiscriminator, x: np.ndarray,
                            senone_labels: np.ndarray, domain: np.ndarray,
                            cfg: AdversarialConfig, lam: float,
                            rng: np.random.Generator, *,
                            disc_only: bool = False, adapter_only: bool = False,
                            shared: BatchForward | None = None) -> _BatchStats | None:
    """Accumulate one batch's gradients into the adapter and discriminator
    stores per the gradient-reversal sign convention, without stepping.

    Adapter gradients are those of [CE mean - lam * domain loss mean];
    discriminator gradients descend the domain loss mean. The caller steps
    the stores. The alternating scheme runs two phases over one `shared`
    forward: disc_only accumulates only the discriminator's gradients (the
    adapter store is not touched) and returns None; adapter_only accumulates
    only the adapter's (the discriminator store is not touched). The
    gradients a phase forms are the bits a full call forms.
    """
    if disc_only and adapter_only:
        raise ValueError("disc_only and adapter_only exclude each other")
    fwd = BatchForward() if shared is None else shared
    check = fwd.targets is None
    if check:
        fwd.targets = BatchTargets.checked(senone_labels, domain, am.K)
    t = fwd.targets
    if not am.frozen:
        raise RuntimeError("adversarial training requires a frozen acoustic model")

    if fwd.adapter is None:
        fwd.adapter = adapter.forward(x, train_mode=True, rng=rng, check_input=check)
    alpha_from_adapted = cfg.mode == "sat" and cfg.alpha_source == "adapted"
    if fwd.am is None and (not disc_only or alpha_from_adapted):
        fwd.am = am.net.forward(fwd.adapter.output, train_mode=False, check_input=False)
    if cfg.mode == "sat" and fwd.alpha is None:
        # constants: computed once per batch, no grad
        fwd.alpha = (fwd.am.output if alpha_from_adapted else
                     am.net.forward(x, train_mode=False, check_input=check).output)
    disc_trace = disc.net.forward(fwd.adapter.output, train_mode=False, check_input=False)
    if cfg.mode == "sat":
        _, dom_mean, dom_grad = losses.senone_aware_domain_kernel(
            disc_trace.output, t.domain_cols, fwd.alpha)
    else:
        dom_mean, dom_grad = losses.binary_domain_kernel(disc_trace.output, t.domain_cols)
    feat_grad_dom = disc.net.backward(disc_trace, dom_grad, input_grad=not disc_only,
                                      param_grads=not adapter_only,
                                      from_logits=cfg.mode == "bat")
    if disc_only:
        return None
    ce, ce_grad = losses.senone_ce_kernel(fwd.am.output, t.adult_rows, t.senone_labels)
    feat_grad = am.net.backward(fwd.am, ce_grad, from_logits=True)
    adapter.backward(fwd.adapter, feat_grad - lam * feat_grad_dom, input_grad=False)

    n_adult = len(t.adult_rows)
    terms = losses.multitask_objective(ce * n_adult, n_adult,
                                       dom_mean * len(x), len(x))
    alpha_evals, alpha_crc, dom_probs = 0, 0, disc_trace.output
    if cfg.mode == "sat":
        alpha_evals, alpha_crc = len(fwd.alpha), _alpha_checksum(fwd.alpha)
        dom_probs = marginal_domain_probs(disc_trace.output)
    disc_correct = int((dom_probs.argmax(axis=1) == domain).sum())
    return _BatchStats(terms=terms, disc_correct=disc_correct,
                       alpha_evals=alpha_evals, alpha_checksum=alpha_crc)


def adversarial_train(adapter: AdaptationNetwork, am: AdultAcousticModel,
                      disc: DomainDiscriminator, view: TrainingView,
                      cfg: AdversarialConfig) -> TrainLog:
    """Min-max training of adapter (argmin E) against discriminator (argmax E)."""
    cfg.validate()
    if not am.frozen:
        raise RuntimeError("adversarial training requires a frozen acoustic model")
    expected_mode = "senone_aware" if cfg.mode == "sat" else "binary"
    if disc.mode != expected_mode:
        raise ValueError(f"discriminator mode {disc.mode!r} does not match "
                         f"config mode {cfg.mode!r}")
    _check_view(view, am.K)
    adult_idx = np.flatnonzero(view.adult_mask)
    child_idx = np.flatnonzero(~view.adult_mask)
    if adult_idx.size == 0 or child_idx.size == 0:
        raise ValueError("adversarial training needs frames from both domains")

    rng = np.random.default_rng(cfg.seed)
    # every sgd_step leaves its store's gradients at zero
    adapter.store.zero_grads()
    disc.store.zero_grads()
    log = TrainLog()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lam = cfg.reversal_coefficient * lambda_schedule(epoch, cfg.epochs,
                                                         cfg.lambda_shape)
        ce_sum, dom_sum, n_a, n_t = 0.0, 0.0, 0, 0
        disc_correct, alpha_evals, alpha_crc = 0, 0, 0
        for idx, n_adult in _stratified_batches(rng, adult_idx, child_idx, cfg.batch_size):
            x = view.frames[idx]
            y = view.adult_senone_labels[idx]
            dom = view.domain_labels[idx]
            # the batch's adult frames come first
            fwd = BatchForward(targets=BatchTargets(
                np.arange(n_adult), y[:n_adult], dom.astype(np.intp)))
            if cfg.update_scheme == "alternating":
                adversarial_batch_grads(adapter, am, disc, x, y, dom, cfg, lam, rng,
                                        disc_only=True, shared=fwd)
                sgd_step(disc.store, cfg.lr_discriminator, cfg.momentum)
                # adapter phase against the updated discriminator
                stats = adversarial_batch_grads(adapter, am, disc, x, y, dom, cfg, lam,
                                                rng, adapter_only=True, shared=fwd)
                sgd_step(adapter.store, cfg.lr_adapter, cfg.momentum)
            else:
                stats = adversarial_batch_grads(adapter, am, disc, x, y, dom,
                                                cfg, lam, rng, shared=fwd)
                sgd_step(disc.store, cfg.lr_discriminator, cfg.momentum)
                sgd_step(adapter.store, cfg.lr_adapter, cfg.momentum)
            ce_sum += stats.terms.senone_ce_sum
            dom_sum += stats.terms.domain_loss_sum
            n_a += stats.terms.n_adult
            n_t += stats.terms.n_total
            disc_correct += stats.disc_correct
            alpha_evals += stats.alpha_evals
            alpha_crc = zlib.crc32(stats.alpha_checksum.to_bytes(4, "little"),
                                   alpha_crc) if cfg.mode == "sat" else 0
        log.records.append(TrainLogRecord(
            epoch=epoch,
            objective=ce_sum / n_a - dom_sum / n_t,
            senone_ce=ce_sum / n_a,
            domain_loss=dom_sum / n_t,
            disc_acc=disc_correct / n_t,
            seconds=time.perf_counter() - t0,
            alpha_evals=alpha_evals,
            alpha_checksum=alpha_crc))
    return log


def train_discriminator_only(disc: DomainDiscriminator, am: AdultAcousticModel,
                             view: TrainingView, epochs: int, lr: float,
                             seed: int, batch_size: int = 128,
                             momentum: float = 0.0) -> TrainLog:
    """Train a discriminator on un-adapted features (adapter fixed at
    identity); the reference point for domain-confusion measurements."""
    _check_view(view, am.K)
    rng = np.random.default_rng(seed)
    log = TrainLog()
    n = len(view.frames)
    # every sgd_step leaves the store's gradients at zero
    disc.store.zero_grads()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        dom_sum, correct = 0.0, 0
        for idx in _minibatches(rng, n, batch_size):
            x = view.frames[idx]
            dom = view.domain_labels[idx]
            cols = dom.astype(np.intp)
            trace = disc.net.forward(x, train_mode=False, check_input=False)
            if disc.mode == "senone_aware":
                alpha = am.net.forward(x, train_mode=False, check_input=False).output
                _, dom_mean, dom_grad = losses.senone_aware_domain_kernel(
                    trace.output, cols, alpha)
                disc.net.backward(trace, dom_grad, input_grad=False)
                probs = marginal_domain_probs(trace.output)
            else:
                dom_mean, dom_grad = losses.binary_domain_kernel(trace.output, cols)
                disc.net.backward(trace, dom_grad, input_grad=False, from_logits=True)
                probs = trace.output
            sgd_step(disc.store, lr, momentum)
            dom_sum += dom_mean * len(idx)
            correct += int((probs.argmax(axis=1) == dom).sum())
        log.records.append(TrainLogRecord(
            epoch=epoch, objective=-dom_sum / n, senone_ce=0.0,
            domain_loss=dom_sum / n, disc_acc=correct / n,
            seconds=time.perf_counter() - t0))
    return log


def train_assessment_network(net, features: np.ndarray, pron: np.ndarray,
                             flu: np.ndarray, epochs: int, lr: float,
                             seed: int, batch_size: int = 64,
                             momentum: float = 0.9) -> TrainLog:
    """Joint training of the two-head assessment network; both heads use
    softmax cross-entropy against their 1..5 level labels."""
    if epochs < 1:
        raise ValueError("assessment training needs at least one epoch")
    if not lr > 0:
        raise ValueError(f"assessment learning rate must be positive, got {lr}")
    if not np.isfinite(features).all():
        raise NonFiniteError("non-finite values in the assessment features")
    for levels in (pron, flu):
        if ((levels < 1) | (levels > net.levels)).any():
            raise ValueError(f"assessment levels must be in 1..{net.levels}")
    rng = np.random.default_rng(seed)
    n = len(features)
    stores = (net.trunk.store, net.head_pron.store, net.head_flu.store)
    # every sgd_step leaves its store's gradients at zero
    for store in stores:
        store.zero_grads()
    log = TrainLog()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        ce_sum, correct = 0.0, 0
        for idx in _minibatches(rng, n, batch_size):
            x = features[idx]
            yp, yf = pron[idx] - 1, flu[idx] - 1
            rows = np.arange(len(idx))
            traces = net.forward(x, train_mode=True, rng=rng, check_input=False)
            _, p, f = traces
            ce_p, g_p = losses.senone_ce_kernel(p.output, rows, yp)
            ce_f, g_f = losses.senone_ce_kernel(f.output, rows, yf)
            net.backward(traces, g_p, g_f, input_grad=False, from_logits=True)
            for store in stores:
                sgd_step(store, lr, momentum)
            ce_sum += (ce_p + ce_f) * len(idx)
            correct += int((p.output.argmax(axis=1) == yp).sum())
        log.records.append(TrainLogRecord(
            epoch=epoch, objective=ce_sum / (2 * n), senone_ce=ce_sum / (2 * n),
            domain_loss=0.0, disc_acc=correct / n,
            seconds=time.perf_counter() - t0))
    return log
