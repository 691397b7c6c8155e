"""Builders and composition for the three adversarial sub-networks plus the
two-head assessment network.

The ensemble mirrors the training architecture: a frozen adult acoustic
model (senone softmax), a residual child-to-adult adaptation network that
feeds the acoustic model's input layer, and a domain discriminator attached
to the adapter output. At inference the discriminator is simply not called;
nothing else changes.

Each kind's constructor defines its layers from its numbers (dim, hidden
widths, K or mode) and takes a loaded store in place of fresh weights: a
bundle records only those numbers, and loading runs the constructor.

The adapter is residual: output = x + g(x), with g's final layer
zero-initialized so the adapter is exactly the identity at step 0 (g's
hidden layers keep Glorot-uniform init so gradients flow from the first step).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nn import (FormatError, ForwardTrace, LayerSpec, Network, ParameterStore,
                 ShapeError, pack_container, unpack_container)
from .synthdata import ASSESS_LEVELS


def _stack(in_dim: int, hidden: list[int], out_dim: int, top: str) -> list[LayerSpec]:
    """Rectifier layers of the hidden widths, then one top layer to out_dim."""
    dims = [in_dim, *hidden]
    return ([LayerSpec(a, b, "rectifier") for a, b in zip(dims, dims[1:])]
            + [LayerSpec(dims[-1], out_dim, top)])


# ---------------------------------------------------------------------------
# model wrappers


class AdultAcousticModel:
    """Feedforward senone classifier; frozen after pretraining."""

    def __init__(self, net: Network):
        self.net = net
        self.K = net.out_dim

    @property
    def frozen(self) -> bool:
        return self.net.store.frozen

    def freeze(self) -> None:
        self.net.store.frozen = True

    def posteriors(self, x: np.ndarray) -> np.ndarray:
        return self.net.forward(x).output


def build_adult_am(input_dim: int, hidden_dims: list[int], K: int,
                   rng: np.random.Generator | None = None,
                   store: ParameterStore | None = None) -> AdultAcousticModel:
    if K < 2:
        raise ValueError("senone inventory K must be at least 2")
    return AdultAcousticModel(Network(_stack(input_dim, hidden_dims, K, "softmax"),
                                      store=store, rng=rng))


@dataclass
class AdapterTrace:
    inner: ForwardTrace
    output: np.ndarray


class AdaptationNetwork:
    """Residual feature-space transform: output = x + g(x), dim-preserving."""

    def __init__(self, dim: int, hidden_dims: list[int],
                 rng: np.random.Generator | None = None,
                 store: ParameterStore | None = None):
        self.g = Network(_stack(dim, hidden_dims, dim, "identity"), store=store, rng=rng)
        if store is None:
            # zero the final layer so the adapter starts as the exact identity
            for name in self.g.store.names()[-2:]:
                self.g.store.value(name)[...] = 0.0

    @property
    def store(self) -> ParameterStore:
        return self.g.store

    def forward(self, x: np.ndarray, *, check_input: bool = True) -> AdapterTrace:
        inner = self.g.forward(x, check_input=check_input)
        return AdapterTrace(inner=inner, output=inner.activations[0] + inner.output)

    def backward(self, trace: AdapterTrace, upstream: np.ndarray) -> None:
        """Accumulate g's parameter gradients for dLoss/dOutput = upstream."""
        self.g.backward(trace.inner, upstream, input_grad=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).output


# config mode -> its adversary's discriminator mode
DISC_MODES = {"bat": "binary", "sat": "senone_aware"}


class DomainDiscriminator:
    """Adversary over adapted features: a joint 2K-way (domain, senone)
    softmax on the senone-aware domain loss. Binary mode is its K = 1 case,
    a 2-way (adult, child) softmax with alpha = 1; its bundle records no K.
    marginal_domain_probs reads (adult, child) rows off either output."""

    def __init__(self, input_dim: int, hidden_dims: list[int], mode: str,
                 K: int | None = None, rng: np.random.Generator | None = None,
                 store: ParameterStore | None = None):
        if mode not in DISC_MODES.values():
            raise ValueError(f"unknown discriminator mode {mode!r}")
        if mode == "senone_aware":
            if K is None or K < 1:
                raise ValueError("senone_aware mode needs the senone count K")
            out = 2 * K
        else:
            out = 2
            K = None
        self.net = Network(_stack(input_dim, hidden_dims, out, "softmax"), store=store,
                           rng=rng)
        self.mode = mode
        self.K = K

    @property
    def store(self) -> ParameterStore:
        return self.net.store


class AssessmentNetwork:
    """Shared rectifier trunk with two 5-way softmax heads
    (pronunciation level, fluency level)."""

    def __init__(self, input_dim: int = 30, trunk_dims: tuple = (128, 128, 128),
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        width = trunk_dims[-1]
        self.trunk = Network(_stack(input_dim, trunk_dims[:-1], width, "rectifier"), rng=rng)
        self.head_pron = Network(_stack(width, [], ASSESS_LEVELS, "softmax"), rng=rng)
        self.head_flu = Network(_stack(width, [], ASSESS_LEVELS, "softmax"), rng=rng)

    def forward(self, x: np.ndarray, *, check_input: bool = True):
        t = self.trunk.forward(x, check_input=check_input)
        # the trunk's output is checked: the heads skip their input check
        p = self.head_pron.forward(t.output, check_input=False)
        f = self.head_flu.forward(t.output, check_input=False)
        return t, p, f

    def backward(self, traces, grad_pron: np.ndarray, grad_flu: np.ndarray) -> None:
        """Accumulate every parameter gradient. grad_pron and grad_flu are the
        loss gradients with respect to each head's softmax logits, as
        losses.ce_kernel returns them."""
        t, p, f = traces
        gt = (self.head_pron.backward(p, grad_pron, from_logits=True)
              + self.head_flu.backward(f, grad_flu, from_logits=True))
        self.trunk.backward(t, gt, input_grad=False)

    def predict_levels(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Argmax level per head, on the 1..ASSESS_LEVELS scale."""
        _, p, f = self.forward(x)
        return p.output.argmax(axis=1) + 1, f.output.argmax(axis=1) + 1


# ---------------------------------------------------------------------------
# composition


def marginal_domain_probs(joint: np.ndarray) -> np.ndarray:
    """Collapse a 2K-column joint (domain, senone) matrix to 2 domain columns."""
    joint = np.asarray(joint, dtype=np.float64)
    if joint.shape[1] % 2 != 0:
        raise ShapeError("joint posterior matrix must have 2K columns")
    return joint.reshape(len(joint), 2, joint.shape[1] // 2).sum(axis=2)


# ---------------------------------------------------------------------------
# model bundle files: the constructor's numbers as a text manifest, plus the
# parameter matrices, in one container


def save_bundle(path, store: ParameterStore, manifest: dict) -> None:
    arrays = {name: store.value(name) for name in store.names()}
    Path(path).write_bytes(pack_container("bundle", manifest, arrays))


def load_bundle(path) -> tuple[ParameterStore, dict]:
    manifest, arrays = unpack_container(Path(path).read_bytes(), "bundle")
    try:
        store = ParameterStore(arrays)
    except ShapeError as e:
        raise FormatError(str(e)) from e
    if not np.isfinite(store.flat_values).all():
        raise FormatError("bundle parameters hold NaN or Inf")
    store.frozen = manifest.get("frozen", "false") == "true"
    return store, manifest


def _save_model(path, kind: str, net: Network, **numbers) -> None:
    save_bundle(path, net.store, {"kind": kind, "dim": net.in_dim,
                                  "hidden": ",".join(map(str, net.hidden)), **numbers,
                                  "frozen": "true" if net.store.frozen else "false"})


@contextmanager
def _model_bundle(path, kind: str):
    """Yield (dim, hidden, manifest, store) of a bundle of this kind, for the
    kind's constructor. Numbers the constructor rejects, and matrices that
    do not fit the layers it builds, raise FormatError."""
    store, m = load_bundle(path)
    if m.get("kind") != kind:
        raise FormatError(f"bundle kind {m.get('kind')!r}, expected {kind}")
    try:
        yield int(m["dim"]), [int(w) for w in m["hidden"].split(",") if w], m, store
    except (KeyError, ValueError) as e:
        raise FormatError(f"{kind} bundle does not fit its manifest: {e!r}") from e


def save_adult_am(path, am: AdultAcousticModel) -> None:
    _save_model(path, "adult_am", am.net, K=am.K)


def load_adult_am(path) -> AdultAcousticModel:
    with _model_bundle(path, "adult_am") as (dim, hidden, m, store):
        return build_adult_am(dim, hidden, int(m["K"]), store=store)


def save_adapter(path, adapter: AdaptationNetwork) -> None:
    _save_model(path, "adapter", adapter.g)


def load_adapter(path) -> AdaptationNetwork:
    with _model_bundle(path, "adapter") as (dim, hidden, _, store):
        return AdaptationNetwork(dim, hidden, store=store)


def save_discriminator(path, disc: DomainDiscriminator) -> None:
    _save_model(path, "discriminator", disc.net, mode=disc.mode,
                **({} if disc.K is None else {"K": disc.K}))


def load_discriminator(path) -> DomainDiscriminator:
    with _model_bundle(path, "discriminator") as (dim, hidden, m, store):
        return DomainDiscriminator(dim, hidden, m["mode"], K=int(m["K"]) if m.get("K") else None,
                                   store=store)
