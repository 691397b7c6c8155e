"""Pretraining of the adult acoustic model and adversarial min-max training.

Every trainer runs one SGD driver, _sgd_epochs: it zeroes the trainer's
stores once per run (every sgd_step leaves its store's gradients at zero),
runs the trainer's step over each epoch's minibatches and turns the epoch's
running sums into its TrainLogRecord. A trainer checks its settings, its
discriminator's pairing and its whole input before its first step (finite
frames or features, domains in {0, 1}, senone labels in [0, K) on adult rows,
assessment levels in range); its step then runs the losses' unchecked kernels
and skips Network.forward's input check. The discriminator-only and assessment
runs use fixed batch sizes and momenta.

The min-max objective is realized two ways, selectable per config; one call
of adversarial_batch_grads runs one whole batch of either:

* gradient_reversal: one pass. The discriminator receives the gradient
  descending the mean domain loss; the adapter receives the gradient of
  [senone CE mean - lambda * domain loss mean], i.e. the domain gradient
  flows into the adapter negated and scaled by lambda. The caller steps both.
* alternating: a discriminator descent step on the domain loss, taken inside
  the batch, then the adapter gradient of [CE - lambda * domain loss] against
  the stepped discriminator; the caller steps the adapter. The adapter does
  not move in between, so the batch runs one adapter forward, one
  acoustic-model forward and one alpha for both halves, and the second
  discriminator pass forms only its input gradient.

Both leave the frozen acoustic model's parameters untouched; it only relays
input gradients from the senone loss to the adapter. The senone-aware domain
loss weighs each frame by alpha: the frozen model's posteriors on the adapted
features, from the senone CE's forward, as CDAN (Long et al., 2018) conditions
its adversary on the classifier's predictions for the features being aligned.

adversarial_batch_grads derives a batch's targets from its labels: the adult
rows, their senone labels and the domain column of every row. It checks
nothing, as the loss kernels it calls check nothing: adversarial_train checks
the config, the models, the labels and the frames once per run, and its
batches each hold an adult frame.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import losses
from .models import (DISC_MODES, AdaptationNetwork, AdultAcousticModel, DomainDiscriminator,
                     marginal_domain_probs)
from .nn import NonFiniteError, sgd_step
from .synthdata import ASSESS_LEVELS, TrainingView


def _check_sgd(what: str, epochs: int, lr: float, momentum: float = 0.0,
               batch_size: int = 1) -> None:
    """The settings every SGD run needs, checked before its first step."""
    if epochs < 1:
        raise ValueError(f"{what}: epochs must be at least 1, got {epochs}")
    if not 0 < lr < math.inf:
        raise ValueError(f"{what}: learning rate must be finite and positive, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"{what}: momentum must be in [0, 1), got {momentum}")
    if batch_size < 1:
        raise ValueError(f"{what}: batch size must be at least 1, got {batch_size}")


def is_adversary(disc: DomainDiscriminator, mode: str | None, K: int) -> bool:
    """Whether disc is mode's adversary (either mode's, for None) over K senones."""
    return disc.K in (None, K) and (mode is None or disc.mode == DISC_MODES[mode])


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
    alpha_source: str = "adapted"           # only value; goes with ROADMAP item 3
    lambda_shape: str = "ramp"              # | "constant"

    def validate(self) -> None:
        if self.mode not in DISC_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.update_scheme not in ("gradient_reversal", "alternating"):
            raise ValueError(f"unknown update scheme {self.update_scheme!r}")
        if self.alpha_source != "adapted":
            raise ValueError(f"alpha_source must be 'adapted', got {self.alpha_source!r}")
        if self.lambda_shape not in ("ramp", "constant"):
            raise ValueError(f"unknown lambda shape {self.lambda_shape!r}")
        if not (0 <= self.reversal_coefficient < math.inf):
            raise ValueError("reversal coefficient must be finite and nonnegative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        _check_sgd("adapter", self.epochs, self.lr_adapter, self.momentum)
        _check_sgd("discriminator", self.epochs, self.lr_discriminator, self.momentum)


@dataclass
class TrainLogRecord:
    epoch: int
    objective: float
    senone_ce: float
    domain_loss: float
    disc_acc: float
    seconds: float

    def to_line(self) -> str:
        return "\t".join(map(repr, astuple(self)))

    @classmethod
    def from_line(cls, line: str) -> "TrainLogRecord":
        p = line.rstrip("\n").split("\t")
        return cls(*(int(v) if f.type == "int" else float(v)
                     for f, v in zip(fields(cls), p, strict=True)))


@dataclass
class TrainLog:
    records: list[TrainLogRecord] = field(default_factory=list)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# " + "\t".join(f.name for f in fields(TrainLogRecord)) + "\n")
            for r in self.records:
                fh.write(r.to_line() + "\n")

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
        names = [f.name for f in fields(TrainLogRecord) if f.name != "seconds"]
        return tuple(tuple(getattr(r, n) for n in names) for r in self.records)


def lambda_schedule(epoch: int, total: int, shape: str = "ramp") -> float:
    """Reversal-coefficient multiplier: constant 1, or a 0-to-1 sigmoid ramp."""
    if not (0 <= epoch <= total):
        raise ValueError("epoch out of range")
    if shape == "constant":
        return 1.0
    if shape == "ramp":
        return 2.0 / (1.0 + np.exp(-10.0 * epoch / total)) - 1.0
    raise ValueError(f"unknown schedule shape {shape!r}")


def _minibatches(rng: np.random.Generator, n: int, batch_size: int):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _check_view(view: TrainingView, K: int) -> None:
    """A training run's whole input, checked once before its first step:
    finite frames, domains in {0, 1} and senone labels in [0, K) on adult
    rows. The run then skips these checks on every batch."""
    if not np.isfinite(view.frames).all():
        raise NonFiniteError("non-finite values in the training frames")
    if not ((view.domain_labels == 0) | (view.domain_labels == 1)).all():
        raise ValueError("domain labels must be 0 (adult) or 1 (child)")
    adult = view.adult_senone_labels[view.adult_mask]
    if ((adult < 0) | (adult >= K)).any():
        raise ValueError("senone label out of range")


@dataclass
class _BatchStats:
    """One batch's share of its epoch's TrainLogRecord: senone CE summed over
    n_ce labelled rows, and domain loss summed and correct predictions counted
    over all n rows."""
    ce_sum: float
    n_ce: int
    dom_sum: float
    n: int
    correct: int


def _sgd_epochs(epochs: int, stores, batches, step) -> TrainLog:
    """The one training loop. Each epoch sums the _BatchStats that
    step(epoch, batch) returns for every batch batches() yields, and logs
    them with the epoch's wall time."""
    for store in stores:
        # every sgd_step leaves its store's gradients at zero
        store.zero_grads()
    log = TrainLog()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        ce = dom = 0.0
        n_ce = n = correct = 0
        for batch in batches():
            s = step(epoch, batch)
            ce += s.ce_sum
            n_ce += s.n_ce
            dom += s.dom_sum
            n += s.n
            correct += s.correct
        ce_mean = ce / n_ce if n_ce else 0.0
        # without senone rows the objective is -(domain loss), a zero loss giving -0.0
        log.records.append(TrainLogRecord(
            epoch, ce_mean - dom / n if n_ce else -dom / n, ce_mean, dom / n,
            correct / n, time.perf_counter() - t0))
    return log


def pretrain_adult_am(am: AdultAcousticModel, view: TrainingView, epochs: int,
                      lr: float, seed: int, batch_size: int = 128,
                      momentum: float = 0.9) -> TrainLog:
    """Supervised senone training on adult frames, then freeze the model."""
    if am.frozen:
        raise RuntimeError("acoustic model is already pretrained and frozen")
    _check_sgd("pretraining", epochs, lr, momentum, batch_size)
    _check_view(view, am.K)
    adult = np.flatnonzero(view.adult_mask)
    if adult.size == 0:
        raise ValueError("pretraining corpus has no adult frames")
    x_all = view.frames[adult]
    y_all = view.adult_senone_labels[adult]
    rng = np.random.default_rng(seed)

    def step(epoch, idx):
        x, y = x_all[idx], y_all[idx]
        trace = am.net.forward(x, check_input=False)
        ce, grad = losses.ce_kernel(trace.output, np.arange(len(y)), y)
        am.net.backward(trace, grad, input_grad=False, from_logits=True)
        sgd_step(am.net.store, lr, momentum)
        return _BatchStats(ce * len(y), len(y), 0.0, len(y),
                           int((trace.output.argmax(axis=1) == y).sum()))

    log = _sgd_epochs(epochs, [am.net.store],
                      lambda: _minibatches(rng, adult.size, batch_size), step)
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
        # adult frames first: row order changes the bits of the gradient sums
        yield np.concatenate([a, c])


def adversarial_batch_grads(adapter: AdaptationNetwork, am: AdultAcousticModel,
                            disc: DomainDiscriminator, x: np.ndarray,
                            senone_labels: np.ndarray, domain: np.ndarray,
                            cfg: AdversarialConfig, lam: float) -> _BatchStats:
    """Unchecked run of one batch of cfg.update_scheme, leaving the adapter's
    step to the caller. The batch holds an adult row (the CE mean divides by
    their count); adversarial_train checks the rest once per run.

    Adapter gradients are those of [CE mean - lam * domain loss mean];
    discriminator gradients descend the domain loss mean. Under
    gradient_reversal both stores accumulate their gradients and neither is
    stepped. Under alternating the discriminator takes its sgd_step here,
    and the adapter gradients are formed against the stepped discriminator.
    """
    adult_rows = np.flatnonzero(domain == 0)
    domain_cols = domain.astype(np.intp)

    at = adapter.forward(x, check_input=False)
    am_trace = am.net.forward(at.output, check_input=False)
    # the senone CE's posteriors weigh the senone-aware domain loss: constants, no grad
    alpha = am_trace.output if disc.mode == "senone_aware" else None
    if cfg.update_scheme == "alternating":
        disc.loss_backward(at.output, domain_cols, alpha, input_grad=False)
        sgd_step(disc.store, cfg.lr_discriminator, cfg.momentum)
        disc_out, dom_mean, feat_grad_dom = disc.loss_backward(
            at.output, domain_cols, alpha, param_grads=False)
    else:
        disc_out, dom_mean, feat_grad_dom = disc.loss_backward(
            at.output, domain_cols, alpha)
    ce, ce_grad = losses.ce_kernel(am_trace.output, adult_rows, senone_labels[adult_rows])
    feat_grad = am.net.backward(am_trace, ce_grad, from_logits=True)
    adapter.backward(at, feat_grad - lam * feat_grad_dom)

    n_adult = len(adult_rows)
    return _BatchStats(ce * n_adult, n_adult, dom_mean * len(x), len(x),
                       int((marginal_domain_probs(disc_out).argmax(axis=1) == domain).sum()))


def adversarial_train(adapter: AdaptationNetwork, am: AdultAcousticModel,
                      disc: DomainDiscriminator, view: TrainingView,
                      cfg: AdversarialConfig) -> TrainLog:
    """Min-max training of adapter (argmin E) against discriminator (argmax E)."""
    cfg.validate()
    if not am.frozen:
        raise RuntimeError("adversarial training requires a frozen acoustic model")
    if not is_adversary(disc, cfg.mode, am.K):
        raise ValueError(f"a {disc.mode} discriminator over K = {disc.K} is not the "
                         f"{cfg.mode} adversary over the acoustic model's K = {am.K}")
    _check_view(view, am.K)
    adult_idx = np.flatnonzero(view.adult_mask)
    child_idx = np.flatnonzero(~view.adult_mask)
    if adult_idx.size == 0 or child_idx.size == 0:
        raise ValueError("adversarial training needs frames from both domains")
    rng = np.random.default_rng(cfg.seed)
    lams = [cfg.reversal_coefficient * lambda_schedule(epoch, cfg.epochs, cfg.lambda_shape)
            for epoch in range(cfg.epochs)]

    def step(epoch, idx):
        stats = adversarial_batch_grads(adapter, am, disc, view.frames[idx],
                                        view.adult_senone_labels[idx],
                                        view.domain_labels[idx], cfg, lams[epoch])
        if cfg.update_scheme == "gradient_reversal":
            sgd_step(disc.store, cfg.lr_discriminator, cfg.momentum)
        sgd_step(adapter.store, cfg.lr_adapter, cfg.momentum)
        return stats

    return _sgd_epochs(cfg.epochs, [adapter.store, disc.store],
                       lambda: _stratified_batches(rng, adult_idx, child_idx,
                                                   cfg.batch_size), step)


def train_discriminator_only(disc: DomainDiscriminator, am: AdultAcousticModel,
                             view: TrainingView, epochs: int, lr: float,
                             seed: int) -> TrainLog:
    """Train a discriminator on un-adapted features (adapter fixed at identity)
    in batches of 128, without momentum: the domain-confusion reference."""
    _check_sgd("discriminator training", epochs, lr)
    if not is_adversary(disc, None, am.K):
        raise ValueError(f"a discriminator over K = {disc.K}, an acoustic model over K = {am.K}")
    _check_view(view, am.K)
    if len(view.frames) == 0:
        raise ValueError("discriminator training corpus has no frames")
    rng = np.random.default_rng(seed)

    def step(epoch, idx):
        x = view.frames[idx]
        dom = view.domain_labels[idx]
        alpha = (am.net.forward(x, check_input=False).output
                 if disc.mode == "senone_aware" else None)
        out, dom_mean, _ = disc.loss_backward(x, dom.astype(np.intp), alpha, input_grad=False)
        sgd_step(disc.store, lr)
        return _BatchStats(0.0, 0, dom_mean * len(idx), len(idx),
                           int((marginal_domain_probs(out).argmax(axis=1) == dom).sum()))

    return _sgd_epochs(epochs, [disc.store],
                       lambda: _minibatches(rng, len(view.frames), 128), step)


def train_assessment_network(net, features: np.ndarray, pron: np.ndarray,
                             flu: np.ndarray, epochs: int, lr: float,
                             seed: int) -> TrainLog:
    """Joint training of the two-head assessment network in batches of 64 at
    momentum 0.9; both heads use softmax CE against their 1..5 level labels."""
    _check_sgd("assessment training", epochs, lr)
    if len(features) == 0:
        raise ValueError("assessment training corpus has no rows")
    if not np.isfinite(features).all():
        raise NonFiniteError("non-finite values in the assessment features")
    for levels in (pron, flu):
        if ((levels < 1) | (levels > ASSESS_LEVELS)).any():
            raise ValueError(f"assessment levels must be in 1..{ASSESS_LEVELS}")
    rng = np.random.default_rng(seed)
    stores = (net.trunk.store, net.head_pron.store, net.head_flu.store)

    def step(epoch, idx):
        x = features[idx]
        yp, yf = pron[idx] - 1, flu[idx] - 1
        rows = np.arange(len(idx))
        traces = net.forward(x, check_input=False)
        _, p, f = traces
        ce_p, g_p = losses.ce_kernel(p.output, rows, yp)
        ce_f, g_f = losses.ce_kernel(f.output, rows, yf)
        net.backward(traces, g_p, g_f)
        for store in stores:
            sgd_step(store, lr, 0.9)
        # the CE of both heads: each row counts twice
        return _BatchStats((ce_p + ce_f) * len(idx), 2 * len(idx), 0.0, len(idx),
                           int((p.output.argmax(axis=1) == yp).sum()))

    return _sgd_epochs(epochs, stores,
                       lambda: _minibatches(rng, len(features), 64), step)
