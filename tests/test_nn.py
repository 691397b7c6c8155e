import errno
import math
import mmap
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from senadapt.models import load_bundle, save_bundle
from senadapt.nn import (CONTAINER_MAGIC, FormatError, FrozenStoreError, LayerSpec,
                         Network, NonFiniteError, ParameterStore, ShapeError,
                         finite_diff_gradient, pack_container, sgd_step,
                         unpack_container)


def make_net(specs, seed=0):
    return Network(specs, rng=np.random.default_rng(seed))


def zero_net(specs):
    """A network over an all-zero store."""
    arrays = {}
    for i, s in enumerate(specs):
        arrays[f"layer{i}.W"] = np.zeros((s.in_dim, s.out_dim))
        arrays[f"layer{i}.b"] = np.zeros((1, s.out_dim))
    return Network(specs, store=ParameterStore(arrays))


class TestForward:
    def test_identity_layer_passthrough(self):
        net = zero_net([LayerSpec(3, 3, "identity")])
        net.store.value("layer0.W")[...] = np.eye(3)
        x = np.array([[1.0, -2.0, 0.5], [4.0, 0.0, -1.0]])
        npt.assert_array_equal(net.forward(x).output, x)

    def test_zero_weight_softmax_is_uniform(self):
        net = zero_net([LayerSpec(3, 4, "softmax")])
        out = net.forward(np.random.default_rng(1).normal(size=(5, 3))).output
        npt.assert_allclose(out, 0.25)

    def test_hand_evaluated_2_3_2_chain(self):
        # affine -> rectifier -> affine -> softmax, evaluated with plain math
        W1 = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.5]])
        b1 = np.array([0.1, -0.2, 0.0])
        W2 = np.array([[1.0, -1.0], [0.5, 2.0], [-0.25, 0.75]])
        b2 = np.array([0.05, -0.05])
        x = np.array([[0.3, -0.7]])

        z1 = [sum(x[0][i] * W1[i][j] for i in range(2)) + b1[j] for j in range(3)]
        h1 = [max(v, 0.0) for v in z1]
        z2 = [sum(h1[i] * W2[i][j] for i in range(3)) + b2[j] for j in range(2)]
        m = max(z2)
        e = [math.exp(v - m) for v in z2]
        expected = [v / sum(e) for v in e]

        net = zero_net([LayerSpec(2, 3, "rectifier"), LayerSpec(3, 2, "softmax")])
        net.store.value("layer0.W")[...] = W1
        net.store.value("layer0.b")[...] = b1
        net.store.value("layer1.W")[...] = W2
        net.store.value("layer1.b")[...] = b2
        npt.assert_allclose(net.forward(x).output[0], expected, atol=1e-12)

    def test_softmax_rows_normalized(self):
        net = make_net([LayerSpec(6, 8, "rectifier"), LayerSpec(8, 5, "softmax")])
        out = net.forward(np.random.default_rng(2).normal(size=(40, 6))).output
        npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert ((out > 0) & (out < 1)).all()

    def test_shape_mismatch_names_layer(self):
        net = make_net([LayerSpec(4, 3, "rectifier")])
        with pytest.raises(ShapeError, match="layer 0"):
            net.forward(np.zeros((2, 5)))

    def test_non_finite_input_rejected(self):
        net = make_net([LayerSpec(2, 2, "identity")])
        with pytest.raises(NonFiniteError):
            net.forward(np.array([[1.0, np.nan]]))

    def test_unchecked_input_still_has_its_output_checked(self):
        net = make_net([LayerSpec(2, 2, "identity")])
        x = np.array([[1.0, 2.0]])
        assert np.array_equal(net.forward(x, check_input=False).output,
                              net.forward(x).output)
        with pytest.raises(NonFiniteError, match="output"):
            net.forward(np.array([[1.0, np.nan]]), check_input=False)

    def test_softmax_only_final(self):
        with pytest.raises(ValueError, match="final"):
            zero_net([LayerSpec(2, 2, "softmax"), LayerSpec(2, 2, "identity")])

    def test_determinism(self):
        a = make_net([LayerSpec(3, 4, "sigmoid"), LayerSpec(4, 2, "softmax")], seed=11)
        b = make_net([LayerSpec(3, 4, "sigmoid"), LayerSpec(4, 2, "softmax")], seed=11)
        x = np.random.default_rng(5).normal(size=(6, 3))
        assert a.forward(x).output.tobytes() == b.forward(x).output.tobytes()


class TestBackward:
    def test_identity_upstream_ones(self):
        net = zero_net([LayerSpec(3, 3, "identity")])
        net.store.value("layer0.W")[...] = np.eye(3)
        trace = net.forward(np.ones((2, 3)))
        gx = net.backward(trace, np.ones((2, 3)))
        npt.assert_array_equal(gx, np.ones((2, 3)))

    def test_zero_upstream_zero_grads(self):
        net = make_net([LayerSpec(3, 4, "sigmoid"), LayerSpec(4, 2, "softmax")])
        trace = net.forward(np.random.default_rng(0).normal(size=(5, 3)))
        net.backward(trace, np.zeros((5, 2)))
        for name in net.store.names():
            npt.assert_array_equal(net.store.grad(name), 0.0)

    def test_upstream_shape_checked(self):
        net = make_net([LayerSpec(3, 2, "identity")])
        trace = net.forward(np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            net.backward(trace, np.zeros((4, 3)))

    def test_gradients_accumulate(self):
        net = make_net([LayerSpec(2, 2, "identity")])
        x = np.ones((1, 2))
        t1 = net.forward(x)
        net.backward(t1, np.ones((1, 2)))
        once = net.store.grad("layer0.W").copy()
        t2 = net.forward(x)
        net.backward(t2, np.ones((1, 2)))
        npt.assert_allclose(net.store.grad("layer0.W"), 2 * once)

    def test_frozen_store_gets_input_grad_only(self):
        net = make_net([LayerSpec(3, 2, "identity")])
        net.store.frozen = True
        trace = net.forward(np.ones((1, 3)))
        gx = net.backward(trace, np.ones((1, 2)))
        npt.assert_allclose(gx, np.ones((1, 2)) @ net.store.value("layer0.W").T)
        npt.assert_array_equal(net.store.grad("layer0.W"), 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_layer_net_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = make_net([LayerSpec(4, 6, "rectifier"), LayerSpec(6, 5, "sigmoid"),
                        LayerSpec(5, 3, "softmax")], seed=seed)
        x = rng.normal(size=(7, 4))
        w = rng.normal(size=(7, 3))  # fixed linear readout defines the loss

        def loss_fn(out):
            return float((w * out).sum())

        trace = net.forward(x)
        net.backward(trace, w)
        fd = finite_diff_gradient(net, x, loss_fn, h=1e-5)
        for name in net.store.names():
            a, f = net.store.grad(name), fd[name]
            rel = np.abs(a - f) / np.maximum(np.abs(a) + np.abs(f), 1e-6)
            assert rel.max() <= 1e-4


class TestBackwardContract:
    """backward never writes into the caller's upstream, input_grad=False
    leaves the parameter gradients bit-for-bit unchanged, and
    param_grads=False leaves the input gradient bit-for-bit unchanged."""

    @staticmethod
    def setup(top, bias, frozen):
        # every bias set to `bias`: 0.0 as a new network has them, 0.4 as a
        # trained one might
        net = make_net([LayerSpec(4, 6, "rectifier"), LayerSpec(6, 3, top)], seed=6)
        for i in range(2):
            net.store.value(f"layer{i}.b")[...] = bias
        net.store.frozen = frozen
        rng = np.random.default_rng(7)
        trace = net.forward(rng.normal(size=(9, 4)))
        return net, trace, rng.normal(size=(9, 3))

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("bias", [0.0, 0.4])
    @pytest.mark.parametrize("top", ["rectifier", "sigmoid", "identity", "softmax"])
    def test_upstream_never_written(self, top, bias, frozen):
        net, trace, upstream = self.setup(top, bias, frozen)
        kept = upstream.copy()
        for input_grad in (True, False):
            net.backward(trace, upstream, input_grad=input_grad)
            npt.assert_array_equal(upstream, kept)

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("bias", [0.0, 0.4])
    @pytest.mark.parametrize("top", ["rectifier", "sigmoid", "identity", "softmax"])
    def test_no_input_grad_same_parameter_grads(self, top, bias, frozen):
        net, trace, upstream = self.setup(top, bias, frozen)
        grads = []
        for input_grad in (True, False):
            net.store.zero_grads()
            gx = net.backward(trace, upstream, input_grad=input_grad)
            assert (gx is None) == (not input_grad)
            grads.append([net.store.grad(n).copy() for n in net.store.names()])
        assert all(np.array_equal(a, b) for a, b in zip(*grads))
        if not frozen:
            assert any(np.any(g) for g in grads[1])

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("bias", [0.0, 0.4])
    @pytest.mark.parametrize("top", ["rectifier", "sigmoid", "identity", "softmax"])
    def test_no_param_grads_same_input_grad(self, top, bias, frozen):
        net, trace, upstream = self.setup(top, bias, frozen)
        kept = upstream.copy()
        full = net.backward(trace, upstream)
        # whatever the store holds, param_grads=False leaves it as it is
        net.store.flat_grads[...] = np.random.default_rng(8).normal(
            size=net.store.flat_grads.size)
        grads = net.store.flat_grads.copy()
        gx = net.backward(trace, upstream, param_grads=False)
        assert np.array_equal(gx, full)
        assert np.array_equal(net.store.flat_grads, grads)
        npt.assert_array_equal(upstream, kept)

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("bias", [0.0, 0.4])
    def test_from_logits_skips_the_softmax_backward(self, bias, frozen):
        # handing over dLoss/dz gives the bits of handing over dLoss/dy
        net, trace, upstream = self.setup("softmax", bias, frozen)
        y = trace.output
        gz = y * (upstream - (upstream * y).sum(axis=1, keepdims=True))
        kept = gz.copy()
        runs = []
        for grad, from_logits in ((upstream, False), (gz, True)):
            net.store.zero_grads()
            gx = net.backward(trace, grad, from_logits=from_logits)
            runs.append((gx, net.store.flat_grads.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        npt.assert_array_equal(gz, kept)

    def test_neither_gradient_rejected(self):
        net, trace, upstream = self.setup("identity", 0.0, False)
        with pytest.raises(ValueError):
            net.backward(trace, upstream, input_grad=False, param_grads=False)


class TestSgd:
    def test_zero_lr_no_change(self):
        store = ParameterStore({"w": np.array([[1.0, 2.0]])})
        store.grad("w")[...] = 5.0
        sgd_step(store, 0.0)
        npt.assert_array_equal(store.value("w"), [[1.0, 2.0]])

    def test_plain_step_subtracts_gradient(self):
        store = ParameterStore({"w": np.array([[3.0]])})
        store.grad("w")[...] = 0.25
        sgd_step(store, 1.0, momentum=0.0)
        npt.assert_allclose(store.value("w"), [[2.75]])
        npt.assert_array_equal(store.grad("w"), 0.0)  # zeroed after step

    def test_two_momentum_steps_hand_recurrence(self):
        # v1 = g, v2 = 0.9 g + g; total change -lr (g + 1.9 g)
        store = ParameterStore({"w": np.array([[1.0]])})
        g, lr = 0.5, 0.1
        for _ in range(2):
            store.grad("w")[...] = g
            sgd_step(store, lr, momentum=0.9)
        npt.assert_allclose(store.value("w"), [[1.0 - lr * (g + 1.9 * g)]])

    def test_frozen_store_rejected(self):
        store = ParameterStore({"w": np.zeros((1, 1))})
        store.frozen = True
        with pytest.raises(FrozenStoreError):
            sgd_step(store, 0.1)

    @staticmethod
    def reference_step(values, grads, velocity, lr, momentum):
        """sgd_step as a loop over the parameters, each with its own arrays."""
        for name in values:
            v = velocity.setdefault(name, np.zeros_like(values[name]))
            v *= momentum
            v += grads[name]
            values[name][...] -= lr * v
            grads[name][...] = 0.0

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_flat_step_matches_per_parameter_loop(self, momentum):
        net = make_net([LayerSpec(4, 6, "rectifier"), LayerSpec(6, 3, "softmax")], seed=9)
        store = net.store
        values = {n: store.value(n).copy() for n in store.names()}
        grads, velocity = {}, {}
        rng = np.random.default_rng(10)
        for _ in range(4):
            for n in store.names():
                grads[n] = rng.normal(size=values[n].shape)
                store.grad(n)[...] = grads[n]
            sgd_step(store, 0.3, momentum)
            self.reference_step(values, grads, velocity, 0.3, momentum)
            for n in store.names():
                assert np.array_equal(store.value(n), values[n])
                assert np.array_equal(store.grad(n), grads[n])

    @pytest.mark.parametrize("lr", [-0.1, math.nan])
    def test_bad_learning_rate_rejected(self, lr):
        store = ParameterStore({"w": np.zeros((1, 1))})
        with pytest.raises(ValueError):
            sgd_step(store, lr)


class TestFlatArena:
    def test_views_share_the_flat_buffers(self):
        store = make_net([LayerSpec(3, 4, "rectifier"), LayerSpec(4, 2, "softmax")]).store
        assert store.flat_values.size == 3 * 4 + 4 + 4 * 2 + 2
        for n in store.names():
            assert np.shares_memory(store.value(n), store.flat_values)
            assert np.shares_memory(store.grad(n), store.flat_grads)
        store.value("layer1.b")[...] = 7.0
        assert (store.flat_values[-2:] == 7.0).all()

    def test_arena_is_laid_out_from_the_dict(self):
        a, b = np.arange(6.0).reshape(2, 3), np.array([[9.0]])
        store = ParameterStore({"a": a, "b": b})
        assert store.names() == ["a", "b"]
        npt.assert_array_equal(store.flat_values, [0, 1, 2, 3, 4, 5, 9])
        npt.assert_array_equal(store.flat_grads, np.zeros(7))
        a[0, 0] = -1.0  # the store holds a copy
        assert store.value("a")[0, 0] == 0.0

    def test_arenas_are_the_rows_of_one_shared_map(self):
        # a process forked while the store lives steps the same parameters
        store = make_net([LayerSpec(3, 4, "rectifier"), LayerSpec(4, 2, "softmax")]).store
        n, arenas = store.flat_values.size, store.flat_values.base
        assert store.flat_grads.base is arenas and store._velocity.base is arenas
        assert isinstance(arenas.base.obj, mmap.mmap)
        arenas[...] = np.repeat([1.0, 2.0, 3.0], n)
        for arena, row in ((store.flat_values, 1.0), (store.flat_grads, 2.0),
                           (store._velocity, 3.0)):
            npt.assert_array_equal(arena, np.full(n, row))

    def test_velocity_zero_before_the_first_step(self):
        store = make_net([LayerSpec(3, 4, "rectifier")]).store
        npt.assert_array_equal(store._velocity, np.zeros(store.flat_values.size))
        store.flat_grads[...] = 1.0
        sgd_step(store, 0.1, momentum=0.5)
        npt.assert_array_equal(store._velocity, 1.0)
        npt.assert_array_equal(store.flat_grads, 0.0)

    def test_map_the_host_cannot_give_raises_memory_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", failing)
        with pytest.raises(MemoryError, match="12 parameters"):
            ParameterStore({"w": np.zeros((3, 4))})

    def test_store_of_no_parameters(self):
        store = ParameterStore({})
        assert store.names() == [] and store.serialize() == b""
        sgd_step(store, 0.1)

    @pytest.mark.parametrize("bad", [np.zeros((2, 2), "<u4"), np.zeros(3),
                                     np.zeros((1, 2, 2))])
    def test_non_float64_or_non_matrix_rejected(self, bad, tmp_path):
        with pytest.raises(ShapeError, match="'w'"):
            ParameterStore({"a": np.zeros((1, 1)), "w": bad})
        # in a bundle, the same matrix makes the file malformed
        path = tmp_path / "bad.bundle"
        path.write_bytes(pack_container("bundle", {}, {"w": bad}))
        with pytest.raises(FormatError):
            load_bundle(path)


class TestFiniteDiff:
    def test_quadratic_loss(self):
        net = zero_net([LayerSpec(1, 1, "identity")])
        net.store.value("layer0.W")[...] = 3.0
        fd = finite_diff_gradient(net, np.array([[1.0]]),
                                  lambda out: float(out[0, 0] ** 2), h=1e-5)
        assert abs(fd["layer0.W"][0, 0] - 6.0) <= 1e-6

    def test_constant_loss_zero(self):
        net = make_net([LayerSpec(2, 3, "sigmoid")])
        fd = finite_diff_gradient(net, np.ones((2, 2)), lambda out: 1.0)
        for g in fd.values():
            npt.assert_array_equal(g, 0.0)

    def test_softmax_ce_matches_closed_form(self):
        # d CE / d logits = p - onehot; for a 1-layer softmax dW = x^T (p - y)
        rng = np.random.default_rng(4)
        net = make_net([LayerSpec(3, 4, "softmax")], seed=4)
        x = rng.normal(size=(6, 3))
        labels = rng.integers(0, 4, size=6)

        def loss_fn(out):
            return float(-np.log(out[np.arange(6), labels]).sum())

        p = net.forward(x).output
        onehot = np.eye(4)[labels]
        dW = x.T @ (p - onehot)
        db = (p - onehot).sum(axis=0, keepdims=True)
        fd = finite_diff_gradient(net, x, loss_fn, h=1e-5)
        npt.assert_allclose(fd["layer0.W"], dW, atol=1e-6)
        npt.assert_allclose(fd["layer0.b"], db, atol=1e-6)

    def test_h_positive(self):
        net = make_net([LayerSpec(1, 1, "identity")])
        with pytest.raises(ValueError):
            finite_diff_gradient(net, np.ones((1, 1)), lambda o: 0.0, h=0.0)


class TestSerialization:
    def test_bytes_are_the_value_arena(self):
        # a snapshot for comparing a store with itself, not a file format
        rng = np.random.default_rng(8)
        arrays = {"a.W": rng.normal(size=(3, 4)), "a.b": rng.normal(size=(1, 4))}
        store = ParameterStore(arrays)
        assert store.serialize() == store.flat_values.tobytes()
        assert store.serialize() == b"".join(a.tobytes() for a in arrays.values())

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="magic"):
            unpack_container(b"XXXX" + b"\x00" * 16, "bundle")

    def test_truncation_rejected(self):
        blob = pack_container("bundle", {}, {"w": np.ones((2, 2))})
        with pytest.raises(FormatError):
            unpack_container(blob[:-5], "bundle")

    def test_container_layout(self):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "tags": np.array([1, 2], "u1")}
        blob = pack_container("demo", {"K": 4}, arrays)
        header = b"kind=demo\nmeta.K=4\narray.w=<f8 2,3\narray.tags=u1 2"
        assert blob == (CONTAINER_MAGIC + len(header).to_bytes(4, "little") + header
                        + arrays["w"].astype("<f8").tobytes() + b"\x01\x02")
        manifest, back = unpack_container(blob, "demo")
        assert manifest == {"K": "4"} and list(back) == ["w", "tags"]
        assert all(np.array_equal(back[k], arrays[k]) and back[k].dtype == arrays[k].dtype
                   for k in arrays)
        bad_dtype = blob.replace(b"u1 2", b"i1 2")
        past_end = blob[:len(CONTAINER_MAGIC)] + (1 << 20).to_bytes(4, "little") + blob[12:]
        # pack_container writes each key once, so a second line is damage,
        # not an override of the first
        repeated = [CONTAINER_MAGIC + len(h).to_bytes(4, "little") + h + blob[12 + len(header):]
                    for h in (header.replace(b"meta.K=4", b"meta.K=3\nmeta.K=4"),
                              header + b"\narray.tags=u1 2")]
        for bad, kind in ((blob[:-1], "demo"), (blob + b"\x00", "demo"),
                          (blob, "corpus"), (bad_dtype, "demo"), (past_end, "demo"),
                          *((r, "demo") for r in repeated)):
            with pytest.raises(FormatError):
                unpack_container(bad, kind)
        with pytest.raises(ValueError):
            pack_container("demo", {}, {"x": np.zeros(2, np.int64)})


class TestStoreMatchesLayers:
    def test_mismatched_store_rejected(self):
        store = make_net([LayerSpec(3, 4, "softmax")]).store
        Network([LayerSpec(3, 4, "softmax")], store=store)
        for layers in ([LayerSpec(4, 4, "softmax")],
                       [LayerSpec(3, 4), LayerSpec(4, 4, "softmax")]):
            with pytest.raises(ShapeError):
                Network(layers, store=store)


REF_SPECS = [LayerSpec(3, 4, "rectifier"), LayerSpec(4, 2, "identity")]


def _fresh_net():
    return make_net(REF_SPECS, seed=3)


def _deserialized_net():
    """A network over the store of a bundle file of _fresh_net's parameters."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.bundle"
        save_bundle(path, _fresh_net().store, {})
        return Network(REF_SPECS, store=load_bundle(path)[0])


class TestParameterReferences:
    """Network holds per-layer references to its store's arrays; every
    update is made in place, so forward must see it through them."""

    X = np.random.default_rng(4).normal(size=(5, 3))

    @staticmethod
    def rebuilt(net):
        """A new network over copies of net's current parameter values."""
        copies = {n: net.store.value(n).copy() for n in net.store.names()}
        return Network(net.layers, store=ParameterStore(copies))

    @pytest.mark.parametrize("build", [_fresh_net, _deserialized_net])
    def test_forward_sees_sgd_step(self, build):
        net = build()
        before = net.forward(self.X).output
        net.backward(net.forward(self.X), np.random.default_rng(5).normal(size=(5, 2)))
        sgd_step(net.store, 0.5)
        after = net.forward(self.X).output
        assert not np.array_equal(after, before)
        npt.assert_array_equal(after, self.rebuilt(net).forward(self.X).output)

    @pytest.mark.parametrize("build", [_fresh_net, _deserialized_net])
    def test_forward_sees_in_place_edits(self, build):
        # the adapter zeroes its last layer this way after construction
        net = build()
        net.store.value("layer1.W")[...] = 0.0
        net.store.value("layer1.b")[...] = [[1.5, -2.0]]
        npt.assert_array_equal(net.forward(self.X).output, [[1.5, -2.0]] * 5)
