"""Minimal dense feedforward network engine with exact reverse-mode gradients.

Everything is float64 numpy. A network is a stack of affine layers with one
of four activations (rectifier, sigmoid, identity, softmax); softmax is only
legal as the final layer. The forward pass is a pure function of the input
and the parameters: its trace is the list of activations, input first.

Parameters live in a ParameterStore: all of a store's values sit in one
contiguous float64 arena, all its gradients in a second of the same layout
and its momentum velocity in a third, and every parameter name maps to a
view into them. The three arenas are the rows of one anonymous shared mmap,
allocated and zeroed at construction, so a process forked while the store
lives reads and steps the very parameters of its parent. The layout is
fixed at construction, from one dict of matrices, so no view can go stale.
serialize() is a snapshot of the value arena's bytes, not a file format:
a store reaches a file only inside a model bundle.
An optimizer step is a few element-wise operations on a span of the arenas,
by default the whole of them: the same arithmetic as a loop over the names,
so stepping a store layer by layer (Network.layer_span) gives the same bits
as stepping it whole. A frozen store still propagates input gradients
through its network but discards parameter gradients, which is how the
fixed adult acoustic model participates in adversarial training.

Network.forward checks its output for NaN and Inf, and its input unless the
caller passes check_input=False: the training loops do for frames they
checked once per run and for a network's (checked) output. NonFiniteError
stays the default for every other caller.

Network.backward never writes into the caller's upstream gradient; it works
in place only on arrays it allocated itself. With from_logits=True the
upstream is the gradient with respect to the top layer's pre-activation, as
every training loss kernel returns it, and that layer's activation backward
is skipped; only the public checked losses, the reference path, take the
softmax Jacobian. With input_grad=False it stops after the first layer's
parameter gradients and returns None, for callers that would discard
dLoss/dInput; the parameter gradients are the same bits either way. With
param_grads=False it forms only dLoss/dInput, the same bits as a full
backward, and leaves the store's gradients untouched, for callers that
would discard the parameter gradients. The chain itself is
Network.preactivation_grads, which forms one layer's gradient at a time,
for a caller that hands each on as soon as it exists.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from math import prod

import numpy as np

ACTIVATIONS = ("rectifier", "sigmoid", "identity", "softmax")

CONTAINER_MAGIC = b"SENADAPT"
# the only dtypes a container holds, as numpy dtype strings (byte order explicit)
CONTAINER_DTYPES = ("<f8", "<u4", "u1")


class ShapeError(ValueError):
    """Tensor shapes do not match the network contract."""


class NonFiniteError(ValueError):
    """An input or result contains NaN or Inf."""


class FrozenStoreError(RuntimeError):
    """An optimizer step touched a frozen parameter store."""


class FormatError(ValueError):
    """A serialized container is malformed."""


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "rectifier"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class ParameterStore:
    """Named 2-D float64 matrices, copied in dict order into one flat arena,
    a gradient arena and a velocity arena of the same layout, and a freeze
    flag. The arenas are the three rows of one anonymous shared mmap, zeroed
    at construction; a map the host cannot give raises MemoryError.
    value(name) and grad(name) return views into the arenas."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self._layout: dict[str, tuple[slice, tuple[int, int]]] = {}
        start = 0
        for name, a in arrays.items():
            if a.dtype != np.float64 or a.ndim != 2:
                raise ShapeError(f"parameter {name!r} is not a 2-D float64 matrix")
            self._layout[name] = (slice(start, start + a.size), a.shape)
            start += a.size
        try:
            # zero-filled; a map of no bytes is an error, so a store of none maps one
            shared = mmap.mmap(-1, max(3 * 8 * start, 1))
        except OSError as e:
            raise MemoryError(f"cannot map a store of {start} parameters: {e}") from None
        self.flat_values, self.flat_grads, self._velocity = np.frombuffer(
            shared, np.float64, 3 * start).reshape(3, start)
        for name, a in arrays.items():
            self.value(name)[...] = a
        self.frozen = False

    def names(self):
        return list(self._layout)

    def _view(self, flat: np.ndarray, name: str) -> np.ndarray:
        span, shape = self._layout[name]
        return flat[span].reshape(shape)

    def value(self, name: str) -> np.ndarray:
        return self._view(self.flat_values, name)

    def grad(self, name: str) -> np.ndarray:
        return self._view(self.flat_grads, name)

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)

    def serialize(self) -> bytes:
        """The value arena's bytes: a snapshot to compare a store with itself."""
        return self.flat_values.tobytes()


def pack_container(kind: str, manifest: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Every file the program writes: magic, header length (u32 LE), a UTF-8
    header of key=value lines ("kind=...", one "meta.<key>=<value>" per
    manifest entry, one "array.<name>=<dtype> <d0>,<d1>,..." per array),
    then each array's little-endian bytes in header order. Deterministic:
    the same inputs give the same bytes."""
    lines = [f"kind={kind}"] + [f"meta.{k}={v}" for k, v in manifest.items()]
    body = []
    for name, a in arrays.items():
        a = np.ascontiguousarray(a)
        dtype = a.dtype.str.lstrip("|")
        if dtype not in CONTAINER_DTYPES:
            raise ValueError(f"array {name!r}: dtype {dtype} cannot be stored")
        lines.append(f"array.{name}={dtype} {','.join(map(str, a.shape))}")
        body.append(a.tobytes())
    header = "\n".join(lines).encode("utf-8")
    return b"".join([CONTAINER_MAGIC, len(header).to_bytes(4, "little"), header] + body)


def unpack_container(blob: bytes, kind: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Inverse of pack_container: (manifest, arrays), both in file order.
    Raises FormatError unless blob is exactly one container of this kind
    and names each key once."""
    start = len(CONTAINER_MAGIC) + 4
    if blob[: len(CONTAINER_MAGIC)] != CONTAINER_MAGIC or len(blob) < start:
        raise FormatError("bad magic: not a senadapt container")
    end = start + int.from_bytes(blob[start - 4 : start], "little")
    if end > len(blob):
        raise FormatError("container header runs past the end of the file")
    manifest, specs, seen = {}, {}, set()
    try:
        lines = blob[start:end].decode("utf-8").split("\n")
        for line in lines[1:]:
            key, sep, value = line.partition("=")
            if not sep or not key.startswith(("meta.", "array.")):
                raise ValueError(f"bad line {line!r}")
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
            if key.startswith("meta."):
                manifest[key[5:]] = value
                continue
            dtype, _, dims = value.partition(" ")
            shape = tuple(int(d) for d in dims.split(","))
            if dtype not in CONTAINER_DTYPES or min(shape) < 0:
                raise ValueError(f"bad array spec {line!r}")
            specs[key[6:]] = (np.dtype(dtype), shape)
    except (UnicodeDecodeError, ValueError) as e:
        raise FormatError(f"malformed container header: {e}") from e
    if lines[0] != f"kind={kind}":
        raise FormatError(f"container {lines[0]!r}, expected kind={kind}")
    size = end + sum(dt.itemsize * prod(shape) for dt, shape in specs.values())
    if len(blob) != size:
        raise FormatError(f"truncated or oversized container: {len(blob)} bytes, "
                          f"header declares {size}")
    arrays, off = {}, end
    for name, (dt, shape) in specs.items():
        n = prod(shape)
        arrays[name] = np.frombuffer(blob, dt, n, off).reshape(shape).copy()
        off += dt.itemsize * n
    return manifest, arrays


@dataclass
class ForwardTrace:
    """The activations of one forward pass, [x, h0, ..., h_top]: layer i's
    input is activations[i] and its output activations[i + 1]."""
    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


def _softmax(z: np.ndarray) -> np.ndarray:
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _activation_backward(activation: str, h: np.ndarray, g: np.ndarray,
                         owned: bool) -> np.ndarray:
    """dLoss/dz from dLoss/dh for h = activation(z); writes into g only if
    owned (allocated by the caller's backward pass)."""
    if activation == "rectifier":  # h > 0 exactly where z > 0
        return np.multiply(g, h > 0, out=g if owned else None)
    if activation == "sigmoid":
        return g * h * (1.0 - h)
    if activation == "identity":
        return g
    # softmax: h * (g - rowsum(g * h)) in one temporary
    gz = g * h
    np.subtract(g, gz.sum(axis=1, keepdims=True), out=gz)
    gz *= h
    return gz


def glorot_uniform(rng: np.random.Generator, in_dim: int, out_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(in_dim, out_dim))


class Network:
    """A dense feedforward stack over a ParameterStore: the given one, whose
    matrices must match the layer specs, or a new one of Glorot-uniform
    weights drawn from rng (default seed 0) and zero biases.

    Parameter names are "layer{i}.W" and "layer{i}.b" (bias stored 1 x out).
    """

    def __init__(self, layers: list[LayerSpec], store: ParameterStore | None = None,
                 rng: np.random.Generator | None = None):
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer chain mismatch: {a.out_dim} -> {b.in_dim}")
        for spec in layers[:-1]:
            if spec.activation == "softmax":
                raise ValueError("softmax is only legal as the final layer")
        self.layers = list(layers)
        shapes = {}
        for i, spec in enumerate(self.layers):
            shapes[self._pname(i, "W")] = (spec.in_dim, spec.out_dim)
            shapes[self._pname(i, "b")] = (1, spec.out_dim)
        if store is None:
            rng = np.random.default_rng(0) if rng is None else rng
            store = ParameterStore({n: glorot_uniform(rng, *shape) if n.endswith("W")
                                    else np.zeros(shape) for n, shape in shapes.items()})
        if {n: store.value(n).shape for n in store.names()} != shapes:
            raise ShapeError("stored parameters do not match the layer specs")
        self.store = store
        # per-layer (W, b, gW, gb): the store and every optimizer update these
        # arrays in place, so the references stay live
        self._params = []
        for i in range(len(self.layers)):
            w, b = self._pname(i, "W"), self._pname(i, "b")
            self._params.append((self.store.value(w), self.store.value(b),
                                 self.store.grad(w), self.store.grad(b)))

    def _pname(self, i: int, kind: str) -> str:
        return f"layer{i}.{kind}"

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(s.out_dim for s in self.layers[:-1])

    def forward(self, x: np.ndarray, *, check_input: bool = True) -> ForwardTrace:
        """Run the stack on x. The output is always checked for NaN and Inf;
        check_input=False skips the same check on x, for callers whose x
        was already checked (a training run's frames, a network's output)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"input has {x.shape[1] if x.ndim == 2 else '?'} cols, "
                f"layer 0 expects {self.in_dim}")
        if check_input and not np.isfinite(x).all():
            raise NonFiniteError("non-finite values in network input")
        acts = [x]
        for spec, (W, b, _, _) in zip(self.layers, self._params):
            z = acts[-1] @ W
            z += b
            if spec.activation == "rectifier":
                h = np.maximum(z, 0.0, out=z)
            elif spec.activation == "sigmoid":
                h = 1.0 / (1.0 + np.exp(-z))
            elif spec.activation == "identity":
                h = z
            else:
                h = _softmax(z)
            acts.append(h)
        if not np.isfinite(acts[-1]).all():
            raise NonFiniteError("non-finite values in network output")
        return ForwardTrace(acts)

    def backward(self, trace: ForwardTrace, upstream: np.ndarray, *,
                 input_grad: bool = True, param_grads: bool = True,
                 from_logits: bool = False) -> np.ndarray | None:
        """Accumulate parameter gradients (+=) and return dLoss/dInput, or
        None with input_grad=False. upstream is never written to.

        upstream is dLoss/dOutput, or with from_logits=True dLoss/dz of the
        top layer's pre-activation z, so that layer's activation backward is
        skipped (the losses' training kernels hand that gradient over).
        With param_grads=False, or on a frozen store, no parameter gradient
        is formed and the store's gradients are left as they are.
        """
        if trace is None or len(trace.activations) != len(self.layers) + 1:
            raise RuntimeError("backward needs a forward trace of this network")
        if not (input_grad or param_grads):
            raise ValueError("backward must form the input or the parameter gradients")
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != trace.output.shape:
            raise ShapeError(
                f"upstream grad shape {upstream.shape} != output shape {trace.output.shape}")
        accumulate = param_grads and not self.store.frozen
        for i, gz in self.preactivation_grads(trace, upstream, from_logits=from_logits):
            if i < 0:
                return gz
            if accumulate:
                self.accumulate_layer_grads(i, trace.activations[i], gz)
            if i == 0 and not input_grad:
                return None

    def preactivation_grads(self, trace: ForwardTrace, upstream: np.ndarray, *,
                            from_logits: bool = False):
        """Unchecked: yield (i, dLoss/dz_i) for each layer i from the top
        down, where z_i is layer i's pre-activation, then (-1, dLoss/dInput).
        Each is formed only when the caller asks for it, so a caller that
        stops early forms no more of the chain. upstream is as for backward
        and is never written to; a yielded gradient is not written to after."""
        g = upstream
        owned = False  # whether g was allocated here and may be overwritten
        top = len(self.layers) - 1
        for i in range(top, -1, -1):
            if i == top and from_logits:
                gz = g
            else:
                gz = _activation_backward(self.layers[i].activation,
                                          trace.activations[i + 1], g, owned)
            yield i, gz
            g, owned = gz @ self._params[i][0].T, True
        yield -1, g

    def accumulate_layer_grads(self, i: int, x: np.ndarray, gz: np.ndarray) -> None:
        """Add layer i's parameter gradients for input x and pre-activation
        gradient gz (Network.preactivation_grads) to the store's gradients."""
        _, _, gW, gb = self._params[i]
        gW += x.T @ gz
        gb += gz.sum(axis=0, keepdims=True)

    def layer_span(self, i: int) -> slice:
        """Layer i's parameters in the store's arenas: its W, then its b."""
        (w, _), (b, _) = (self.store._layout[self._pname(i, kind)] for kind in "Wb")
        return slice(w.start, b.stop)


def sgd_step(store: ParameterStore, learning_rate: float, momentum: float = 0.0,
             span: slice = slice(None)) -> None:
    """theta <- theta - lr * v with v <- momentum * v + grad on the span of the
    store's arenas (by default all of them); zeros those grads after."""
    if store.frozen:
        raise FrozenStoreError("sgd_step on a frozen parameter store")
    if not (learning_rate >= 0):
        raise ValueError("learning rate must be nonnegative")
    if not (0.0 <= momentum < 1.0):
        raise ValueError("momentum must be in [0, 1)")
    v, g, theta = store._velocity[span], store.flat_grads[span], store.flat_values[span]
    v *= momentum
    v += g
    theta -= learning_rate * v
    g.fill(0.0)


def finite_diff_gradient(net: Network, x: np.ndarray, loss_fn, h: float = 1e-5) -> dict:
    """Central-difference d loss / d theta per parameter.

    loss_fn maps the network output matrix to a scalar. Returns a dict of
    parameter name -> gradient estimate matrix.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    grads = {}
    for name in net.store.names():
        theta = net.store.value(name)
        est = np.zeros_like(theta)
        it = np.nditer(theta, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = theta[idx]
            theta[idx] = orig + h
            lp = loss_fn(net.forward(x).output)
            theta[idx] = orig - h
            lm = loss_fn(net.forward(x).output)
            theta[idx] = orig
            est[idx] = (lp - lm) / (2.0 * h)
            it.iternext()
        grads[name] = est
    return grads
