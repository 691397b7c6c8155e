"""Builders and composition for the three adversarial sub-networks plus the
two-head assessment network.

The ensemble mirrors the training architecture: a frozen adult acoustic
model (senone softmax), a residual child-to-adult adaptation network that
feeds the acoustic model's input layer, and a domain discriminator attached
to the adapter output. At inference the discriminator is simply not called;
nothing else changes.

The adapter is residual: output = x + g(x), with g's final layer
zero-initialized so the adapter is exactly the identity at step 0 (g's
hidden layers get normal init so gradients flow from the first step).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import losses
from .nn import (FormatError, ForwardTrace, LayerSpec, Network, ParameterStore,
                 ShapeError, pack_container, unpack_container)


# ---------------------------------------------------------------------------
# model wrappers


class AdultAcousticModel:
    """Feedforward senone classifier; frozen after pretraining."""

    def __init__(self, net: Network, K: int):
        if net.out_dim != K:
            raise ShapeError("acoustic model output dim must equal senone count")
        self.net = net
        self.K = K

    @property
    def frozen(self) -> bool:
        return self.net.store.frozen

    def freeze(self) -> None:
        self.net.store.frozen = True

    def posteriors(self, x: np.ndarray) -> np.ndarray:
        return self.net.forward(x, train_mode=False).output


def build_adult_am(input_dim: int, hidden_dims: list[int], K: int,
                   rng: np.random.Generator | None = None,
                   dropout_rate: float = 0.0) -> AdultAcousticModel:
    if K < 2:
        raise ValueError("senone inventory K must be at least 2")
    dims = [input_dim] + list(hidden_dims)
    layers = [LayerSpec(a, b, "rectifier", dropout_rate) for a, b in zip(dims, dims[1:])]
    layers.append(LayerSpec(dims[-1], K, "softmax"))
    return AdultAcousticModel(Network(layers, rng=rng or np.random.default_rng(0)), K)


@dataclass
class AdapterTrace:
    inner: ForwardTrace
    output: np.ndarray


class AdaptationNetwork:
    """Residual feature-space transform: output = x + g(x), dim-preserving."""

    def __init__(self, dim: int, hidden_dims: list[int],
                 rng: np.random.Generator | None = None):
        dims = [dim] + list(hidden_dims)
        layers = [LayerSpec(a, b, "rectifier") for a, b in zip(dims, dims[1:])]
        layers.append(LayerSpec(dims[-1], dim, "identity"))
        self.g = Network(layers, rng=rng or np.random.default_rng(0))
        # zero the final layer so the adapter starts as the exact identity
        last = len(layers) - 1
        self.g.store.value(self.g._pname(last, "W"))[...] = 0.0
        self.g.store.value(self.g._pname(last, "b"))[...] = 0.0
        self.dim = dim

    @property
    def store(self) -> ParameterStore:
        return self.g.store

    def forward(self, x: np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None, *,
                check_input: bool = True) -> AdapterTrace:
        inner = self.g.forward(x, train_mode=train_mode, rng=rng, check_input=check_input)
        return AdapterTrace(inner=inner, output=np.asarray(x, dtype=np.float64) + inner.output)

    def backward(self, trace: AdapterTrace, upstream: np.ndarray, *,
                 input_grad: bool = True) -> np.ndarray | None:
        g = self.g.backward(trace.inner, upstream, input_grad=input_grad)
        return None if g is None else upstream + g

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, train_mode=False).output


class DomainDiscriminator:
    """Adversary over adapted features: 2-way domain softmax in binary mode,
    joint 2K-way (domain, senone) softmax in senone_aware mode."""

    MODES = ("binary", "senone_aware")

    def __init__(self, input_dim: int, hidden_dims: list[int], mode: str,
                 K: int | None = None, rng: np.random.Generator | None = None):
        if mode not in self.MODES:
            raise ValueError(f"unknown discriminator mode {mode!r}")
        if mode == "senone_aware":
            if K is None or K < 1:
                raise ValueError("senone_aware mode needs the senone count K")
            out = 2 * K
        else:
            out = 2
            K = None
        dims = [input_dim] + list(hidden_dims)
        layers = [LayerSpec(a, b, "rectifier") for a, b in zip(dims, dims[1:])]
        layers.append(LayerSpec(dims[-1], out, "softmax"))
        self.net = Network(layers, rng=rng or np.random.default_rng(0))
        self.mode = mode
        self.K = K

    @property
    def store(self) -> ParameterStore:
        return self.net.store

    def loss_backward(self, feats: np.ndarray, domain_cols: np.ndarray,
                      alpha: np.ndarray | None, **backward):
        """One forward, domain loss and backward (keywords go to
        Network.backward), with the loss self.mode names: senone-aware against
        alpha, or binary, each row's cross-entropy against its domain column.
        Returns the output, the mean domain loss and the input gradient."""
        trace = self.net.forward(feats, train_mode=False, check_input=False)
        if self.mode == "senone_aware":
            _, dom_mean, grad = losses.senone_aware_domain_kernel(trace.output, domain_cols,
                                                                  alpha)
        else:
            dom_mean, grad = losses.ce_kernel(trace.output, np.arange(len(feats)), domain_cols)
        feat_grad = self.net.backward(trace, grad, from_logits=self.mode == "binary",
                                      **backward)
        return trace.output, dom_mean, feat_grad

    def domain_probs(self, out: np.ndarray) -> np.ndarray:
        """The (adult, child) probability rows of an output of this
        discriminator: a joint output is marginalized over senones."""
        return marginal_domain_probs(out) if self.mode == "senone_aware" else out


class AssessmentNetwork:
    """Shared rectifier trunk with two 5-way softmax heads
    (pronunciation level, fluency level)."""

    def __init__(self, input_dim: int = 30, trunk_dims: tuple = (128, 128, 128),
                 levels: int = 5, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        dims = [input_dim] + list(trunk_dims)
        self.trunk = Network(
            [LayerSpec(a, b, "rectifier") for a, b in zip(dims, dims[1:])], rng=rng)
        self.head_pron = Network([LayerSpec(dims[-1], levels, "softmax")], rng=rng)
        self.head_flu = Network([LayerSpec(dims[-1], levels, "softmax")], rng=rng)
        self.levels = levels

    def forward(self, x: np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None, *, check_input: bool = True):
        t = self.trunk.forward(x, train_mode=train_mode, rng=rng, check_input=check_input)
        # the trunk's output is checked: the heads skip their input check
        p = self.head_pron.forward(t.output, train_mode=train_mode, rng=rng,
                                   check_input=False)
        f = self.head_flu.forward(t.output, train_mode=train_mode, rng=rng,
                                  check_input=False)
        return t, p, f

    def backward(self, traces, grad_pron: np.ndarray, grad_flu: np.ndarray, *,
                 input_grad: bool = True, from_logits: bool = False) -> np.ndarray | None:
        """grad_pron and grad_flu are taken as Network.backward takes them:
        softmax-output gradients, or logit gradients with from_logits=True."""
        t, p, f = traces
        gt = (self.head_pron.backward(p, grad_pron, from_logits=from_logits)
              + self.head_flu.backward(f, grad_flu, from_logits=from_logits))
        return self.trunk.backward(t, gt, input_grad=input_grad)

    def predict_levels(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Argmax level per head, on the 1..levels scale."""
        _, p, f = self.forward(x)
        return p.output.argmax(axis=1) + 1, f.output.argmax(axis=1) + 1


# ---------------------------------------------------------------------------
# composition


def discriminate(disc: DomainDiscriminator, adapted: np.ndarray) -> np.ndarray:
    """Probability rows from the discriminator (2 or 2K columns)."""
    return disc.net.forward(adapted, train_mode=False).output


def marginal_domain_probs(joint: np.ndarray) -> np.ndarray:
    """Collapse a 2K-column joint (domain, senone) matrix to 2 domain columns."""
    joint = np.asarray(joint, dtype=np.float64)
    if joint.shape[1] % 2 != 0:
        raise ShapeError("joint posterior matrix must have 2K columns")
    return joint.reshape(len(joint), 2, joint.shape[1] // 2).sum(axis=2)


# ---------------------------------------------------------------------------
# model bundle files: text manifest plus parameter matrices in one container


def _layers_to_text(net: Network) -> str:
    return ";".join(f"{s.in_dim}:{s.out_dim}:{s.activation}:{s.dropout_rate}"
                    for s in net.layers)


def _layers_from_text(text: str) -> list[LayerSpec]:
    out = []
    for part in text.split(";"):
        i, o, act, p = part.split(":")
        out.append(LayerSpec(int(i), int(o), act, float(p)))
    return out


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


def _load_network(path, kind: str, wrap):
    """Load a bundle of this kind and return wrap(network, manifest); any
    disagreement between the manifest and the stored matrices is a
    FormatError."""
    store, m = load_bundle(path)
    if m.get("kind") != kind:
        raise FormatError(f"bundle kind {m.get('kind')!r}, expected {kind}")
    try:
        return wrap(Network(_layers_from_text(m["layers"]), store=store), m)
    except (KeyError, ValueError) as e:
        raise FormatError(f"{kind} bundle does not match its manifest: {e!r}") from e


def save_adult_am(path, am: AdultAcousticModel) -> None:
    save_bundle(path, am.net.store, {
        "kind": "adult_am",
        "layers": _layers_to_text(am.net),
        "K": am.K,
        "frozen": "true" if am.frozen else "false",
    })


def load_adult_am(path) -> AdultAcousticModel:
    return _load_network(path, "adult_am", lambda net, m: AdultAcousticModel(net, int(m["K"])))


def save_adapter(path, adapter: AdaptationNetwork) -> None:
    save_bundle(path, adapter.store, {
        "kind": "adapter",
        "layers": _layers_to_text(adapter.g),
        "dim": adapter.dim,
        "frozen": "false",
    })


def _adapter_from(net: Network, m: dict) -> AdaptationNetwork:
    if not net.in_dim == net.out_dim == int(m["dim"]):
        raise ShapeError(f"a {net.in_dim}->{net.out_dim} network is no adapter of dim {m['dim']}")
    adapter = AdaptationNetwork.__new__(AdaptationNetwork)
    adapter.g = net
    adapter.dim = int(m["dim"])
    return adapter


def load_adapter(path) -> AdaptationNetwork:
    return _load_network(path, "adapter", _adapter_from)


def save_discriminator(path, disc: DomainDiscriminator) -> None:
    save_bundle(path, disc.store, {
        "kind": "discriminator",
        "layers": _layers_to_text(disc.net),
        "mode": disc.mode,
        "K": disc.K if disc.K is not None else "",
        "frozen": "false",
    })


def _discriminator_from(net: Network, m: dict) -> DomainDiscriminator:
    disc = DomainDiscriminator.__new__(DomainDiscriminator)
    disc.net, disc.mode = net, m["mode"]
    disc.K = int(m["K"]) if m.get("K") else None
    # a mode outside DomainDiscriminator.MODES fits no width
    if net.out_dim != {"binary": 2, "senone_aware": 2 * (disc.K or 0)}.get(disc.mode):
        raise ShapeError(f"{net.out_dim} output columns do not fit mode {disc.mode!r}, "
                         f"K={disc.K}")
    return disc


def load_discriminator(path) -> DomainDiscriminator:
    return _load_network(path, "discriminator", _discriminator_from)
