"""Pretraining of the adult acoustic model and adversarial min-max training.

Every trainer runs one SGD driver, _sgd_epochs: it zeroes the trainer's
stores once per run (every sgd_step leaves its store's gradients at zero),
runs the trainer's step over each epoch's minibatches and turns the epoch's
running sums into its TrainLogRecord. A trainer checks its settings, its
discriminator's pairing and its whole input before its first step (finite
frames or features, domains in {0, 1}, senone labels in [0, K) on adult rows,
assessment levels in range, one level of each kind per feature row); its
step then runs the losses' unchecked kernels and skips Network.forward's
input check. The discriminator-only run trains the binary reference; it and
the assessment run use fixed batch sizes and momenta.

The min-max objective is realized two ways, selectable per AdversarialConfig;
one call of adversarial_batch_grads runs one whole batch of either:

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

Where the work runs. The discriminator's half of a batch of either scheme
(_discriminator_half) reads only the adapter's output, alpha and the
domains, and in an assessment step a layer's parameter gradient waits only
for its input and pre-activation gradient, which no later layer reads. So
neither half waits for the other within a batch, and when the host has a
core to spare each run forks one worker that does the discriminator half
(_DiscWorker) or the assessment parameter half (_AssessWorker).
Each ParameterStore's arenas and each hand-off region are nn.shared_zeros
arrays, so a worker steps the caller's own parameters. One ordering rule
keeps the caller from reading a weight the worker has stepped: a layer goes
to the worker when its gradient exists, and the worker steps it at the
caller's next hand-off, which comes after the caller's input-gradient chain
has read the layer's weights; the caller waits for the worker's reply
before its next forward. The caller never reads the discriminator during a
run. The bits are the same on both paths: each layer's gradient is the same
expression on the same float64 bytes, each span takes the same element-wise
sgd_step arithmetic as its whole store, and the hand-offs copy bytes only.

The hand-offs poll fork-context semaphores with acquire(False), never a
blocking wait: a process woken from a blocking wait on every hand-off lost
more than the second core gave (ROADMAP, "Measured"). The host decides, not
a setting (_second_core_free): a worker runs on Linux when the process's
affinity mask holds at least two CPUs and the process has one OS thread.
Beside a second thread, most often a BLAS thread pool, a worker ran slower
than the run in process (ROADMAP, "Measured"), and forking only a
single-threaded process is what keeps the fork safe.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import losses
from .models import (DISC_MODES, AdaptationNetwork, AdultAcousticModel, DomainDiscriminator,
                     marginal_domain_probs)
from .nn import NonFiniteError, sgd_step, shared_zeros
from .synthdata import ASSESS_LEVELS, MIN_ASSESS_N, TrainingView, check_settings


def _check_sgd(what: str, epochs: int, lr: float, momentum: float = 0.0, batch: int = 1,
               lr_name: str = "lr") -> None:
    """The settings every SGD run needs, checked before its first step."""
    check_settings(what, ("epochs", epochs, ">= 1", epochs >= 1),
                   (lr_name, lr, "> 0", lr > 0, "learning rate"),
                   (lr_name, lr, "finite", lr < math.inf, "learning rate"),
                   ("momentum", momentum, "in [0, 1)", 0 <= momentum < 1),
                   ("batch", batch, ">= 1", batch >= 1, "batch size"))


@dataclass
class PretrainConfig:
    """The supervised run that pretrains the adult acoustic model."""
    epochs: int = 30
    lr: float = 0.1
    batch: int = 128
    momentum: float = 0.9

    def validate(self) -> None:
        _check_sgd("pretraining", self.epochs, self.lr, self.momentum, self.batch)


@dataclass
class AssessConfig:
    """The assessment run: n rows of its corpus, and the run that trains on them."""
    n: int = 1500
    epochs: int = 150
    lr: float = 0.05

    def validate(self) -> None:
        check_settings("assessment corpus",
                       ("n", self.n, f">= {MIN_ASSESS_N}", self.n >= MIN_ASSESS_N))
        _check_sgd("assessment training", self.epochs, self.lr)


def is_adversary(disc: DomainDiscriminator, mode: str, K: int) -> bool:
    """Whether disc is the adversary of mode ("bat" or "sat") over K senones."""
    return disc.K in (None, K) and disc.mode == DISC_MODES[mode]


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
    alpha_source: str = "adapted"           # only value; goes with ROADMAP item 6
    lambda_shape: str = "ramp"              # | "constant"

    def validate(self) -> None:
        check_settings(
            "adversarial training",
            ("mode", self.mode, f"one of {', '.join(DISC_MODES)}", self.mode in DISC_MODES),
            ("update_scheme", self.update_scheme, "gradient_reversal or alternating",
             self.update_scheme in ("gradient_reversal", "alternating")),
            ("alpha_source", self.alpha_source, "adapted", self.alpha_source == "adapted"),
            ("lambda_shape", self.lambda_shape, "ramp or constant",
             self.lambda_shape in ("ramp", "constant")),
            ("reversal_coefficient", self.reversal_coefficient, "in [0, inf)",
             0 <= self.reversal_coefficient < math.inf),
            ("batch_size", self.batch_size, ">= 2", self.batch_size >= 2))
        _check_sgd("adapter", self.epochs, self.lr_adapter, self.momentum, lr_name="lr_adapter")
        _check_sgd("discriminator", self.epochs, self.lr_discriminator, self.momentum,
                   lr_name="lr_discriminator")


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
    # whether a forked worker ran part of the run (the discriminator half, or
    # the assessment parameter half); not written to the file
    second_process: bool = False

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


def _domain_half(disc: DomainDiscriminator, trace, domain: np.ndarray,
                 alpha: np.ndarray | None, **backward) -> tuple[float, np.ndarray | None, int]:
    """The discriminator's half of a batch after its forward trace: the
    senone-aware domain loss against alpha, or against alpha = 1, the binary
    loss, when alpha is None, and its backward (keywords go to
    Network.backward). The forward is the caller's, so that it can run
    before alpha is known. Returns the mean domain loss, the feature
    gradient and the count of correct domain calls. The in-process batch,
    the worker and the reference discriminator's run all call it."""
    alpha = np.ones((len(domain), 1)) if alpha is None else alpha
    dom_mean, grad = losses.senone_aware_domain_kernel(trace.output, domain.astype(np.intp),
                                                       alpha)
    feat_grad = disc.net.backward(trace, grad, from_logits=True, **backward)
    correct = int((marginal_domain_probs(trace.output).argmax(axis=1) == domain).sum())
    return dom_mean, feat_grad, correct


def _discriminator_half(disc: DomainDiscriminator, feats: np.ndarray, trace, domain: np.ndarray,
                        alpha: np.ndarray | None, cfg: AdversarialConfig) -> tuple:
    """_domain_half for one batch of cfg.update_scheme after the forward
    trace of feats, in process or on the worker. Under alternating the
    discriminator steps here, and a second forward of feats forms the
    feature gradient against the stepped discriminator."""
    if cfg.update_scheme == "alternating":
        _domain_half(disc, trace, domain, alpha, input_grad=False)
        sgd_step(disc.store, cfg.lr_discriminator, cfg.momentum)
        return _domain_half(disc, disc.net.forward(feats, check_input=False), domain, alpha,
                            param_grads=False)
    return _domain_half(disc, trace, domain, alpha)


def adversarial_batch_grads(adapter: AdaptationNetwork, am: AdultAcousticModel,
                            disc: DomainDiscriminator, x: np.ndarray,
                            senone_labels: np.ndarray, domain: np.ndarray,
                            cfg: AdversarialConfig, lam: float, *,
                            worker: _DiscWorker | None = None) -> _BatchStats:
    """Unchecked run of one batch of cfg.update_scheme, leaving the adapter's
    step to the caller. The batch holds an adult row (the CE mean divides by
    their count); adversarial_train checks the rest once per run.

    Adapter gradients are those of [CE mean - lam * domain loss mean];
    discriminator gradients descend the domain loss mean. Under
    gradient_reversal both stores accumulate their gradients and neither is
    stepped. Under alternating the discriminator takes its sgd_step here,
    and the adapter gradients are formed against the stepped discriminator.
    With a worker the worker runs the discriminator's half of either scheme
    and takes its sgd_step, on the parameters of disc.
    """
    adult_rows = np.flatnonzero(domain == 0)

    at = adapter.forward(x, check_input=False)
    if worker is not None:
        worker.hand_features(at.output, domain)
    am_trace = am.net.forward(at.output, check_input=False)
    # the senone CE's posteriors weigh the senone-aware domain loss: constants, no grad
    alpha = am_trace.output if disc.mode == "senone_aware" else None
    if worker is not None:
        worker.hand_alpha(alpha)
    else:
        dom_mean, feat_grad_dom, correct = _discriminator_half(
            disc, at.output, disc.net.forward(at.output, check_input=False), domain, alpha, cfg)
    ce, ce_grad = losses.ce_kernel(am_trace.output, adult_rows, senone_labels[adult_rows])
    feat_grad = am.net.backward(am_trace, ce_grad, from_logits=True)
    if worker is not None:
        dom_mean, feat_grad_dom, correct = worker.result()
    adapter.backward(at, feat_grad - lam * feat_grad_dom)

    n_adult = len(adult_rows)
    return _BatchStats(ce * n_adult, n_adult, dom_mean * len(x), len(x), correct)


def _second_core_free() -> bool:
    """Whether a run may fork a worker: on Linux, with at least two CPUs in
    this process's affinity mask and one OS thread in this process. This is
    the one place that observes the host."""
    if sys.platform != "linux":
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _largest_stratified_batch(batch_size: int) -> int:
    """An upper bound on the rows of a _stratified_batches batch. A batch
    with its own adult share holds at most batch_size + 1 rows (each pool's
    bounds round down), and a batch whose adult frames are re-drawn holds
    c + ceil(c / 3) rows for c <= batch_size child rows."""
    return batch_size + -(-batch_size // 3)


# polls of a semaphore between two yields of the CPU (about 10 us), and
# yields between two checks that the other process lives (about 1 ms)
_POLLS_PER_YIELD = 100
_YIELDS_PER_CHECK = 100
# room for a worker's pickled exception
_ERROR_BYTES = 1 << 16


def _take(sem, alive) -> bool:
    """Take sem by polling acquire(False), never a blocking wait. Each round
    of polls ends in a yield of the CPU, which returns at once when no other
    process waits for it, and runs the other process of the pair when the
    scheduler has put both on one CPU. Gives up, returning False, once
    alive() is false and sem still cannot be taken."""
    while True:
        for _ in range(_YIELDS_PER_CHECK):
            for _ in range(_POLLS_PER_YIELD):
                if sem.acquire(False):
                    return True
            os.sched_yield()
        if not alive():
            return sem.acquire(False)


class _Worker:
    """A forked process that steps parts of the caller's own parameter
    stores (their arenas are shared) and does their part of each batch
    (see the module docstring). A subclass gives its name for messages, its
    shared regions (_regions), the caller's hand-offs and the worker's side
    of a batch (_batch).

    Entering forks it when the host has a core to spare
    (_second_core_free); forked says whether it did. When a region's map,
    a semaphore or the fork fails with OSError (a process limit, no shared
    memory) the run goes on in process. Hand-offs go through regions, each
    an nn.shared_zeros array filled rows-first, and two semaphores: msg
    carries the caller's hand-offs (_hand), in a fixed order per batch, and
    reply the worker's answers (_answer). A batch's first hand-off sets its
    row count and makes its reply pending, which wait() takes; a count of 0
    is the finish order. A normal exit waits for the worker's last step and
    its answer to the finish order; every exit kills and reaps the worker,
    so the stores stay where its steps reached. A worker error is relayed
    and raised as its own type; a dead worker raises RuntimeError; a worker
    whose parent died exits.
    """

    forked = False
    pid: int | None = None
    _a = None  # the regions, by name, while forked
    _pending = False  # a handed-over batch whose reply is not yet taken

    def _regions(self) -> dict:
        raise NotImplementedError

    def _batch(self, n: int) -> None:
        raise NotImplementedError

    def __enter__(self) -> "_Worker":
        if not _second_core_free():
            return self
        # imported here: multiprocessing adds about 10 ms to every CLI start
        import multiprocessing

        regions = {"rows": (np.int64, (1,)), "error_len": (np.int64, (1,)), **self._regions(),
                   "error": (np.uint8, (_ERROR_BYTES,))}
        try:
            # each region on pages of its own: the two processes write different cache lines
            self._a = {name: shared_zeros(*region) for name, region in regions.items()}
            ctx = multiprocessing.get_context("fork")
            self._msg, self._reply = ctx.Semaphore(0), ctx.Semaphore(0)
            parent = os.getpid()
            pid = os.fork()
        except OSError:
            self._close()
            return self
        except BaseException:
            self._close()
            raise
        if pid == 0:
            self._serve(parent)
        self.pid, self.forked = pid, True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None and self.forked:
                self.wait()
                self._hand(0)
                self.wait()
        finally:
            self._close()

    def _put(self, sem, arrays: dict) -> None:
        """Copy each array into the first rows of its region; release sem."""
        for name, x in arrays.items():
            self._a[name][: len(x)] = x
        sem.release()

    # -- the caller's side -------------------------------------------------

    def _hand(self, rows: int | None = None, **arrays) -> None:
        """Hand arrays over through msg (_put). Passing rows starts a batch
        of that many rows (0 finishes the run), whose reply is then pending."""
        if rows is not None:
            arrays["rows"] = [rows]
            self._pending = True
        self._put(self._msg, arrays)

    def wait(self) -> None:
        """Take the worker's reply to the batch last handed over, if it is
        still pending. Raises the worker's error, or RuntimeError when the
        worker ended without a reply."""
        if not self._pending:
            return
        if not _take(self._reply, self._worker_alive):
            raise RuntimeError(f"the {self.name} worker ended without a reply "
                               f"(wait status {self._status})")
        n = int(self._a["error_len"][0])
        if n:
            raise pickle.loads(self._a["error"][:n].tobytes())
        self._pending = False

    def _worker_alive(self) -> bool:
        pid, self._status = os.waitpid(self.pid, os.WNOHANG)
        if pid:
            self.pid = None  # reaped
        return not pid

    def _close(self) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self._a = None  # each region goes with its last view

    # -- the worker's side, in the forked child ----------------------------

    def _receive(self) -> bool:
        """Take the caller's next hand-off; False once the parent has died."""
        return _take(self._msg, lambda: os.getppid() == self._parent)

    def _answer(self, **arrays) -> None:
        """Answer the caller with arrays through reply (_put)."""
        self._put(self._reply, arrays)

    def _serve(self, parent: int) -> None:
        """Run batches until the finish order; never returns."""
        code = 0
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            self._parent = parent
            while self._receive():
                n = int(self._a["rows"][0])
                if n == 0:
                    self._answer()
                    break
                self._batch(n)
        except BaseException as e:  # every failure is relayed, then the worker exits
            code = 1
            try:
                blob = pickle.dumps(e)
                pickle.loads(blob)  # the caller raises what it can rebuild
            except Exception:
                blob = b""
            if not 0 < len(blob) <= _ERROR_BYTES:
                blob = pickle.dumps(RuntimeError(f"{self.name} worker: {e!r}"[:1000]))
            self._answer(error=np.frombuffer(blob, np.uint8), error_len=[len(blob)])
        finally:
            os._exit(code)


class _DiscWorker(_Worker):
    """Runs the discriminator half of each batch of one adversarial run
    over n_frames frames, and steps disc, which the caller does not read
    during the run. Per batch the caller hands over the features and the
    domain columns, then for sat alpha; the worker replies with the feature
    gradient, the mean domain loss and the count of correct domain calls.
    It steps the discriminator after its reply under gradient_reversal, and
    under alternating before its second forward, which reads the features."""

    name = "discriminator"

    def __init__(self, disc: DomainDiscriminator, cfg: AdversarialConfig, n_frames: int):
        self.disc, self.cfg, self.n_frames = disc, cfg, n_frames

    def _regions(self) -> dict:
        # a batch_size beyond the frame count makes one batch of every frame
        rows = _largest_stratified_batch(min(self.cfg.batch_size, self.n_frames))
        dim = self.disc.net.in_dim
        return {"reply": (np.float64, (2,)), "feats": (np.float64, (rows, dim)),
                "domain": (np.int64, (rows,)), "alpha": (np.float64, (rows, self.disc.K or 0)),
                "grad": (np.float64, (rows, dim))}

    def hand_features(self, feats: np.ndarray, domain: np.ndarray) -> None:
        self._hand(len(feats), feats=feats, domain=domain)

    def hand_alpha(self, alpha: np.ndarray | None) -> None:
        if alpha is not None:
            self._hand(alpha=alpha)

    def result(self) -> tuple[float, np.ndarray, int]:
        """The mean domain loss, the feature gradient and the count of
        correct domain calls of the batch last handed over."""
        self.wait()
        dom_mean, correct = self._a["reply"]
        return float(dom_mean), self._a["grad"][: self._a["rows"][0]].copy(), int(correct)

    def _batch(self, n: int) -> None:
        a, disc, cfg = self._a, self.disc, self.cfg
        feats = a["feats"][:n]
        trace = disc.net.forward(feats, check_input=False)
        alpha = None
        if disc.mode == "senone_aware":
            if not self._receive():
                return
            alpha = a["alpha"][:n]
        dom_mean, feat_grad, correct = _discriminator_half(disc, feats, trace, a["domain"][:n],
                                                           alpha, cfg)
        self._answer(grad=feat_grad, reply=(dom_mean, correct))
        if cfg.update_scheme == "gradient_reversal":
            sgd_step(disc.store, cfg.lr_discriminator, cfg.momentum)


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
    worker = _DiscWorker(disc, cfg, len(view.frames))

    def step(epoch, idx):
        stats = adversarial_batch_grads(adapter, am, disc, view.frames[idx],
                                        view.adult_senone_labels[idx],
                                        view.domain_labels[idx], cfg, lams[epoch],
                                        worker=worker if worker.forked else None)
        if not worker.forked and cfg.update_scheme == "gradient_reversal":
            sgd_step(disc.store, cfg.lr_discriminator, cfg.momentum)
        sgd_step(adapter.store, cfg.lr_adapter, cfg.momentum)
        return stats

    with worker:
        log = _sgd_epochs(cfg.epochs, [adapter.store, disc.store],
                          lambda: _stratified_batches(rng, adult_idx, child_idx,
                                                      cfg.batch_size), step)
    log.second_process = worker.forked
    return log


def train_discriminator_only(disc: DomainDiscriminator, am: AdultAcousticModel,
                             view: TrainingView, epochs: int, lr: float,
                             seed: int) -> TrainLog:
    """Train the binary domain-confusion reference, the bat adversary of an identity
    adapter, on un-adapted features in batches of 128, without momentum."""
    _check_sgd("discriminator training", epochs, lr)
    if not is_adversary(disc, "bat", am.K):
        raise ValueError(f"the reference discriminator is binary, not {disc.mode}")
    _check_view(view, am.K)
    if len(view.frames) == 0:
        raise ValueError("discriminator training corpus has no frames")
    rng = np.random.default_rng(seed)

    def step(epoch, idx):
        trace = disc.net.forward(view.frames[idx], check_input=False)
        dom_mean, _, correct = _domain_half(disc, trace, view.domain_labels[idx], None,
                                            input_grad=False)
        sgd_step(disc.store, lr)
        return _BatchStats(0.0, 0, dom_mean * len(idx), len(idx), correct)

    return _sgd_epochs(epochs, [disc.store],
                       lambda: _minibatches(rng, len(view.frames), 128), step)


# the assessment run's fixed batch size and momentum
_ASSESS_BATCH = 64
_ASSESS_MOMENTUM = 0.9


class _AssessWorker(_Worker):
    """Forms and steps the parameter gradients of the heads and trunk layers
    1 and up of an AssessmentNetwork through one train_assessment_network
    run. Per batch the caller hands over the heads' input and logit
    gradients, then each trunk layer's input act_i with its pre-activation
    gradient gz_i, i >= 1, from the top down, and once gz_0 exists nothing.
    The worker forms each layer's parameter gradient at once but steps the
    layer only at the next hand-off, which comes after the caller has read
    its weights (the heads' in their input gradients, W_i in forming
    gz_(i-1)). Its reply follows its last step; the caller waits for it
    before its next forward, which reads the stepped weights."""

    name = "assessment"

    def __init__(self, net, lr: float):
        self.net, self.lr = net, lr
        self._spans = [net.trunk.layer_span(i) for i in range(len(net.trunk.layers))]

    def _regions(self) -> dict:
        # act{i} is trunk layer i's input; act{top + 1} is the heads' input
        net, trunk, rows = self.net, self.net.trunk, _ASSESS_BATCH
        regions = {"g_pron": (np.float64, (rows, net.head_pron.out_dim)),
                   "g_flu": (np.float64, (rows, net.head_flu.out_dim)),
                   f"act{len(trunk.layers)}": (np.float64, (rows, trunk.out_dim))}
        for i, spec in enumerate(trunk.layers[1:], 1):
            regions[f"act{i}"] = (np.float64, (rows, spec.in_dim))
            regions[f"gz{i}"] = (np.float64, (rows, spec.out_dim))
        return regions

    def backward_step(self, traces, grad_pron: np.ndarray, grad_flu: np.ndarray) -> None:
        """The caller's half of AssessmentNetwork.backward and the stores'
        sgd_steps: the heads' input gradients, the trunk's input-gradient
        chain, and trunk layer 0's parameter gradient and step, with the
        hand-offs between them."""
        net = self.net
        t, p, f = traces
        self._hand(len(grad_pron), g_pron=grad_pron, g_flu=grad_flu,
                   **{f"act{len(self._spans)}": t.output})
        gt = (net.head_pron.backward(p, grad_pron, from_logits=True, param_grads=False)
              + net.head_flu.backward(f, grad_flu, from_logits=True, param_grads=False))
        for i, gz in net.trunk.preactivation_grads(t, gt):
            if i == 0:
                break
            self._hand(**{f"act{i}": t.activations[i], f"gz{i}": gz})
        self._hand()  # gz_0 exists: the chain has read every weight above layer 0
        net.trunk.accumulate_layer_grads(0, t.activations[0], gz)
        sgd_step(net.trunk.store, self.lr, _ASSESS_MOMENTUM, span=self._spans[0])

    def _batch(self, n: int) -> None:
        net, a, trunk = self.net, self._a, self.net.trunk
        depth = len(self._spans)
        for head, g in ((net.head_pron, a["g_pron"]), (net.head_flu, a["g_flu"])):
            head.accumulate_layer_grads(0, a[f"act{depth}"][:n], g[:n])
        # the hand-off of gz_i (of nothing for i = 0) releases the layer above
        # trunk layer i: layer i + 1, or the heads above the top
        for i in range(depth - 1, -1, -1):
            if not self._receive():
                return
            if i + 1 < depth:
                sgd_step(trunk.store, self.lr, _ASSESS_MOMENTUM, span=self._spans[i + 1])
            else:
                for head in (net.head_pron, net.head_flu):
                    sgd_step(head.store, self.lr, _ASSESS_MOMENTUM)
            if i > 0:
                trunk.accumulate_layer_grads(i, a[f"act{i}"][:n], a[f"gz{i}"][:n])
        self._answer()


def train_assessment_network(net, features: np.ndarray, pron: np.ndarray,
                             flu: np.ndarray, epochs: int, lr: float,
                             seed: int) -> TrainLog:
    """Joint training of the two-head assessment network in batches of 64 at
    momentum 0.9; both heads use softmax CE against their 1..5 level labels.
    With a core to spare, an _AssessWorker forms and steps the parameters of
    the heads and of trunk layers 1 and up."""
    _check_sgd("assessment training", epochs, lr)
    if not len(features) == len(pron) == len(flu):
        raise ValueError(f"assessment training: {len(features)} feature rows, {len(pron)} "
                         f"pronunciation and {len(flu)} fluency levels")
    if len(features) == 0:
        raise ValueError("assessment training corpus has no rows")
    if not np.isfinite(features).all():
        raise NonFiniteError("non-finite values in the assessment features")
    for levels in (pron, flu):
        if ((levels < 1) | (levels > ASSESS_LEVELS)).any():
            raise ValueError(f"assessment levels must be in 1..{ASSESS_LEVELS}")
    rng = np.random.default_rng(seed)
    stores = (net.trunk.store, net.head_pron.store, net.head_flu.store)
    worker = _AssessWorker(net, lr)

    def step(epoch, idx):
        x = features[idx]
        yp, yf = pron[idx] - 1, flu[idx] - 1
        rows = np.arange(len(idx))
        worker.wait()
        traces = net.forward(x, check_input=False)
        _, p, f = traces
        ce_p, g_p = losses.ce_kernel(p.output, rows, yp)
        ce_f, g_f = losses.ce_kernel(f.output, rows, yf)
        if worker.forked:
            worker.backward_step(traces, g_p, g_f)
        else:
            net.backward(traces, g_p, g_f)
            for store in stores:
                sgd_step(store, lr, _ASSESS_MOMENTUM)
        # the CE of both heads: each row counts twice
        return _BatchStats((ce_p + ce_f) * len(idx), 2 * len(idx), 0.0, len(idx),
                           int((p.output.argmax(axis=1) == yp).sum()))

    with worker:
        log = _sgd_epochs(epochs, stores,
                          lambda: _minibatches(rng, len(features), _ASSESS_BATCH), step)
    log.second_process = worker.forked
    return log
