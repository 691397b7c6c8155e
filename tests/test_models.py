"""Model wrapper tests: construction, composition, freezing, bundles."""

import numpy as np
import pytest

from senadapt.models import (
    AdaptationNetwork,
    AdultAcousticModel,
    AssessmentNetwork,
    DomainDiscriminator,
    build_adult_am,
    load_adapter,
    load_adult_am,
    load_bundle,
    load_discriminator,
    marginal_domain_probs,
    save_adapter,
    save_adult_am,
    save_bundle,
    save_discriminator,
)
from senadapt.nn import FormatError, LayerSpec, Network, ShapeError, pack_container


def param_count(store):
    return store.num_params()


class TestConstruction:

    def test_am_param_count_small(self):
        # 4 -> 3 -> 2: (4*3 + 3) + (3*2 + 2) = 23
        am = build_adult_am(4, [3], 2, rng=np.random.default_rng(0))
        assert am.net.store.num_params() == 23

    def test_am_rejects_single_senone(self):
        with pytest.raises(ValueError):
            build_adult_am(4, [3], 1)

    def test_full_scale_am_constructible_and_serializable(self):
        # production-shaped network: wide input, six wide hidden layers
        am = build_adult_am(1320, [2048] * 6, 512, rng=np.random.default_rng(0))
        expect = (1320 * 2048 + 2048) + 5 * (2048 * 2048 + 2048) + (2048 * 512 + 512)
        assert am.net.store.num_params() == expect
        blob = am.net.store.serialize()
        assert len(blob) > 8 * expect

    def test_adapter_dim_preserving(self):
        ad = AdaptationNetwork(12, [8], rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(5, 12))
        assert ad.apply(x).shape == (5, 12)

    def test_adapter_identity_at_init(self):
        ad = AdaptationNetwork(6, [16, 16], rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(9, 6))
        assert np.array_equal(ad.apply(x), x)

    def test_adapter_hidden_layers_not_zeroed(self):
        ad = AdaptationNetwork(6, [16], rng=np.random.default_rng(1))
        w0 = ad.store.value("layer0.W")
        assert np.any(w0 != 0.0)

    def test_binary_disc_zero_weights_uniform(self):
        disc = DomainDiscriminator(4, [3], "binary", rng=np.random.default_rng(0))
        for name in disc.store.names():
            disc.store.value(name)[...] = 0.0
        out = disc.net.forward(np.ones((2, 4))).output
        assert np.allclose(out, 0.5)

    def test_joint_disc_zero_weights_uniform(self):
        disc = DomainDiscriminator(4, [3], "senone_aware", K=3,
                                   rng=np.random.default_rng(0))
        for name in disc.store.names():
            disc.store.value(name)[...] = 0.0
        out = disc.net.forward(np.ones((2, 4))).output
        assert out.shape == (2, 6)
        assert np.allclose(out, 1.0 / 6.0)

    def test_disc_mode_validation(self):
        with pytest.raises(ValueError):
            DomainDiscriminator(4, [3], "ternary")
        with pytest.raises(ValueError):
            DomainDiscriminator(4, [3], "senone_aware")  # missing K


class TestComposition:

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.am = build_adult_am(5, [8], 3, rng=rng)
        self.am.freeze()
        self.adapter = AdaptationNetwork(5, [6], rng=rng)
        self.x = np.random.default_rng(8).normal(size=(11, 5))

    def test_posterior_rows_sum_to_one(self):
        post = self.am.posteriors(self.adapter.apply(self.x))
        assert post.shape == (11, 3)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_identity_adapter_matches_raw(self):
        adapted = self.am.posteriors(self.adapter.apply(self.x))
        assert np.array_equal(adapted, self.am.posteriors(self.x))

    def test_marginalization_sums_to_one(self):
        rng = np.random.default_rng(4)
        joint = rng.dirichlet(np.ones(8), size=20)
        dom = marginal_domain_probs(joint)
        assert dom.shape == (20, 2)
        assert np.max(np.abs(dom.sum(axis=1) - 1.0)) <= 1e-9

    def test_marginalization_rejects_odd_width(self):
        with pytest.raises(ShapeError):
            marginal_domain_probs(np.full((2, 5), 0.2))

    def test_inference_contract_bit_exact(self):
        # the same frozen pipeline, called twice, gives byte-identical output
        a = self.am.posteriors(self.adapter.apply(self.x))
        b = self.am.posteriors(self.adapter.apply(self.x))
        assert a.tobytes() == b.tobytes()


class TestFreezing:

    def test_frozen_store_byte_stable_after_backward(self):
        am = build_adult_am(5, [8], 3, rng=np.random.default_rng(7))
        am.freeze()
        before = am.net.store.serialize()
        x = np.random.default_rng(1).normal(size=(6, 5))
        tr = am.net.forward(x)
        g_in = am.net.backward(tr, np.ones((6, 3)))
        assert g_in.shape == (6, 5)
        assert am.net.store.serialize() == before

    def test_frozen_flag_survives_bundle_round_trip(self, tmp_path):
        am = build_adult_am(5, [8], 3, rng=np.random.default_rng(7))
        am.freeze()
        path = tmp_path / "am.bundle"
        save_adult_am(path, am)
        back = load_adult_am(path)
        assert back.frozen


class TestBundles:

    def test_am_round_trip(self, tmp_path):
        am = build_adult_am(6, [9, 7], 4, rng=np.random.default_rng(3))
        am.freeze()
        path = tmp_path / "am.bundle"
        save_adult_am(path, am)
        back = load_adult_am(path)
        assert back.K == 4
        x = np.random.default_rng(5).normal(size=(8, 6))
        assert np.array_equal(back.posteriors(x), am.posteriors(x))
        assert back.net.store.serialize() == am.net.store.serialize()

    def test_adapter_round_trip(self, tmp_path):
        ad = AdaptationNetwork(7, [5], rng=np.random.default_rng(3))
        # perturb away from identity so the round trip is non-trivial
        ad.store.value("layer1.W")[...] = 0.01
        path = tmp_path / "adapter.bundle"
        save_adapter(path, ad)
        back = load_adapter(path)
        x = np.random.default_rng(5).normal(size=(8, 7))
        assert np.array_equal(back.apply(x), ad.apply(x))
        assert back.dim == 7

    def test_discriminator_round_trip(self, tmp_path):
        for mode, K in (("binary", None), ("senone_aware", 4)):
            disc = DomainDiscriminator(6, [5], mode, K=K,
                                       rng=np.random.default_rng(3))
            path = tmp_path / f"disc_{mode}.bundle"
            save_discriminator(path, disc)
            back = load_discriminator(path)
            assert back.mode == mode and back.K == K
            x = np.random.default_rng(5).normal(size=(8, 6))
            assert np.array_equal(back.net.forward(x).output, disc.net.forward(x).output)

    def test_wrong_kind_rejected(self, tmp_path):
        ad = AdaptationNetwork(7, [5], rng=np.random.default_rng(3))
        path = tmp_path / "x.bundle"
        save_adapter(path, ad)
        with pytest.raises(FormatError):
            load_adult_am(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bundle"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_adapter(path)

    def test_non_float64_matrix_rejected(self, tmp_path):
        path = tmp_path / "u4.bundle"
        path.write_bytes(pack_container("bundle", {"kind": "adult_am"},
                                        {"layer0.W": np.zeros((2, 2), "<u4")}))
        with pytest.raises(FormatError, match="float64"):
            load_bundle(path)

    @pytest.mark.parametrize("mode, K", [("binary", ""), ("bogus", "4"),
                                         ("senone_aware", "3"), ("senone_aware", "")])
    def test_discriminator_mode_must_fit_its_output(self, tmp_path, mode, K):
        disc = DomainDiscriminator(6, [5], "senone_aware", K=4)  # 8 output columns
        save_discriminator(tmp_path / "d", disc)
        _, manifest = load_bundle(tmp_path / "d")
        save_bundle(tmp_path / "d", disc.store, {**manifest, "mode": mode, "K": K})
        with pytest.raises(FormatError):
            load_discriminator(tmp_path / "d")

    @pytest.mark.parametrize("out_dim, dim", [(7, 8), (8, 7)])
    def test_adapter_must_map_dim_to_dim(self, tmp_path, out_dim, dim):
        # a well-formed manifest over an 8 -> 12 -> out_dim network
        net = Network([LayerSpec(8, 12), LayerSpec(12, out_dim, "identity")])
        save_bundle(tmp_path / "a", net.store, {
            "kind": "adapter", "dim": dim, "hidden": "12", "frozen": "false"})
        with pytest.raises(FormatError, match="do not match the layer specs"):
            load_adapter(tmp_path / "a")

    @pytest.mark.parametrize("hidden", [[9, 7], []])
    def test_loaded_layers_are_the_constructors(self, tmp_path, hidden):
        # a bundle holds the constructor's numbers: loading builds the layers,
        # activations included, of the model that was saved
        for model, save, load in (
                (build_adult_am(6, hidden, 4), save_adult_am, load_adult_am),
                (AdaptationNetwork(6, hidden), save_adapter, load_adapter),
                (DomainDiscriminator(6, hidden, "binary"), save_discriminator,
                 load_discriminator),
                (DomainDiscriminator(6, hidden, "senone_aware", K=4), save_discriminator,
                 load_discriminator)):
            save(tmp_path / "m", model)
            back = load(tmp_path / "m")
            if isinstance(model, AdaptationNetwork):
                assert back.g.layers == model.g.layers
            else:
                assert back.net.layers == model.net.layers

    def test_parent_format_manifest_rejected(self, tmp_path):
        # the earlier per-layer manifest named activations no loader checked
        am = build_adult_am(6, [5], 4)
        save_bundle(tmp_path / "am", am.net.store, {
            "kind": "adult_am", "layers": "6:5:rectifier:0.0;5:4:identity:0.0", "K": 4,
            "frozen": "true"})
        with pytest.raises(FormatError):
            load_adult_am(tmp_path / "am")


class TestAssessmentNetwork:

    def test_heads_shapes_and_normalization(self):
        net = AssessmentNetwork(input_dim=10, trunk_dims=(16,), levels=5,
                                rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(7, 10))
        _, p, f = net.forward(x)
        assert p.output.shape == (7, 5) and f.output.shape == (7, 5)
        assert np.allclose(p.output.sum(axis=1), 1.0)
        assert np.allclose(f.output.sum(axis=1), 1.0)

    def test_predict_levels_on_scale(self):
        net = AssessmentNetwork(input_dim=10, trunk_dims=(16,), levels=5,
                                rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(25, 10))
        pron, flu = net.predict_levels(x)
        assert pron.min() >= 1 and pron.max() <= 5
        assert flu.min() >= 1 and flu.max() <= 5

    def test_heads_have_separate_parameters(self):
        net = AssessmentNetwork(input_dim=10, trunk_dims=(16,), levels=5,
                                rng=np.random.default_rng(2))
        wp = net.head_pron.store.value("layer0.W")
        wf = net.head_flu.store.value("layer0.W")
        assert wp is not wf
        wp[...] = 99.0
        assert not np.any(net.head_flu.store.value("layer0.W") == 99.0)

    def test_backward_returns_input_gradient(self):
        net = AssessmentNetwork(input_dim=10, trunk_dims=(16,), levels=5,
                                rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(4, 10))
        traces = net.forward(x)
        g = net.backward(traces, np.ones((4, 5)), np.ones((4, 5)))
        assert g.shape == (4, 10)
        assert np.all(np.isfinite(g))


def _stores(model):
    if isinstance(model, AdaptationNetwork):
        return [model.store]
    return [model.trunk.store, model.head_pron.store, model.head_flu.store]


@pytest.mark.parametrize("kind", ["adapter", "assessment"])
def test_wrapper_backward_without_input_grad(kind):
    # input_grad=False returns None and leaves every parameter gradient as
    # the default call forms it
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 10))
    if kind == "adapter":
        model = AdaptationNetwork(10, [8], rng=rng)
        model.store.value("layer1.W")[...] = rng.normal(size=(8, 10))
        trace = model.forward(x)
        upstreams = (rng.normal(size=(6, 10)),)
    else:
        model = AssessmentNetwork(input_dim=10, trunk_dims=(8, 8), levels=5, rng=rng)
        trace = model.forward(x)
        upstreams = (rng.normal(size=(6, 5)), rng.normal(size=(6, 5)))
    grads = []
    for input_grad in (True, False):
        for store in _stores(model):
            store.zero_grads()
        g = model.backward(trace, *upstreams, input_grad=input_grad)
        assert (g is None) == (not input_grad)
        grads.append([s.grad(n).copy() for s in _stores(model) for n in s.names()])
    assert all(np.array_equal(a, b) for a, b in zip(*grads))
