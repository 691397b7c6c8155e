"""Metric and report tests, including published-number arithmetic checks."""

from pathlib import Path

import numpy as np
import pytest

import senadapt
from senadapt import evaluate
from senadapt.evaluate import (
    MetricsReport,
    absolute_reduction,
    assessment_metrics,
    child_senone_error,
    config_fingerprint,
    domain_confusion,
    read_report,
    relative_reduction,
    senone_error_rate,
    write_report,
)
from senadapt.models import (
    AdaptationNetwork,
    AssessmentNetwork,
    DomainDiscriminator,
    build_adult_am,
)
from senadapt.synthdata import GeneratorConfig, generate_corpus


class TestErrorRate:

    def test_three_of_four(self):
        assert senone_error_rate(np.array([0, 1, 2, 3]),
                                 np.array([0, 0, 0, 3])) == 50.0
        assert senone_error_rate(np.array([1, 1, 1, 3]),
                                 np.array([0, 0, 0, 3])) == 75.0

    def test_perfect_and_total(self):
        y = np.array([2, 4, 1])
        assert senone_error_rate(y, y) == 0.0
        assert senone_error_rate(y, y + 1) == 100.0

    def test_random_predictions_near_ninety_percent(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 10, size=200000)
        pred = rng.integers(0, 10, size=200000)
        assert senone_error_rate(pred, truth) == pytest.approx(90.0, abs=1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            senone_error_rate(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            senone_error_rate(np.zeros(0), np.zeros(0))


class TestReductions:

    def test_reported_relative_gain(self):
        # the adversarial upgrade's headline gain over its binary counterpart
        assert relative_reduction(67.19, 62.02) == pytest.approx(7.7, abs=0.05)

    def test_reported_absolute_gain(self):
        # full-system error drop relative to the unadapted model
        assert absolute_reduction(74.43, 62.02) == pytest.approx(12.41, abs=1e-12)

    def test_reported_mse_gain(self):
        # fluency MSE improvement in relative terms
        assert relative_reduction(1.90, 1.42) == pytest.approx(25.2, abs=0.1)
        assert relative_reduction(1.90, 1.42) == pytest.approx(25.263, abs=0.001)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            relative_reduction(0.0, 1.0)


class TestDomainConfusion:

    def setup_method(self):
        cfg = GeneratorConfig(K=4, dim=8, n_adult=400, n_child=400, seed=1,
                              shift_profile=(2.0,) * 4)
        self.corpus = generate_corpus(cfg).subset("test")

    def test_zero_weight_binary_disc_at_chance(self):
        disc = DomainDiscriminator(8, [4], "binary", rng=np.random.default_rng(0))
        for n in disc.store.names():
            disc.store.value(n)[...] = 0.0
        acc, conf = domain_confusion(disc, None, self.corpus)
        assert acc == pytest.approx(0.5, abs=0.1)
        assert conf == pytest.approx(0.5, abs=1e-12)

    def test_joint_disc_marginalized(self):
        disc = DomainDiscriminator(8, [4], "senone_aware", K=4,
                                   rng=np.random.default_rng(0))
        acc, conf = domain_confusion(disc, None, self.corpus)
        assert 0.0 <= acc <= 1.0
        assert 0.5 <= conf <= 1.0

    def test_adapter_changes_features(self):
        disc = DomainDiscriminator(8, [4], "binary", rng=np.random.default_rng(0))
        adapter = AdaptationNetwork(8, [4], rng=np.random.default_rng(1))
        adapter.store.value("layer1.W")[...] = 0.3
        a1 = domain_confusion(disc, None, self.corpus)
        a2 = domain_confusion(disc, adapter, self.corpus)
        assert a1 != a2

    def test_single_domain_rejected(self):
        disc = DomainDiscriminator(8, [4], "binary", rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            domain_confusion(disc, None, self.corpus.subset("test", "child"))


class TestChildSenoneError:

    def test_identity_adapter_matches_no_adapter(self):
        cfg = GeneratorConfig(K=4, dim=8, n_adult=400, n_child=400, seed=2,
                              shift_profile=(0.0, 1.0, 2.0, 3.0))
        corpus = generate_corpus(cfg)
        am = build_adult_am(8, [16], 4, rng=np.random.default_rng(2))
        am.freeze()
        adapter = AdaptationNetwork(8, [4], rng=np.random.default_rng(3))
        raw = child_senone_error(am, corpus)
        via_identity = child_senone_error(am, corpus, adapter)
        assert raw == via_identity


class TestAssessmentMetrics:

    def test_constant_middle_prediction_mse(self):
        # a net that always answers level 3 against uniform 1..5 truth:
        # MSE = (4 + 1 + 0 + 1 + 4) / 5 = 2.0, accuracy 20%
        net = AssessmentNetwork(input_dim=4, trunk_dims=(4,), rng=np.random.default_rng(0))
        for store in (net.trunk.store, net.head_pron.store, net.head_flu.store):
            for n in store.names():
                store.value(n)[...] = 0.0
        net.head_pron.store.value("layer0.b")[0, 2] = 5.0
        net.head_flu.store.value("layer0.b")[0, 2] = 5.0
        levels = np.tile(np.arange(1, 6), 100)
        feats = np.zeros((500, 4))
        m = assessment_metrics(net, feats, levels, levels)
        assert m["pron.mse"] == pytest.approx(2.0, abs=1e-12)
        assert m["flu.mse"] == pytest.approx(2.0, abs=1e-12)
        assert m["pron.accuracy"] == pytest.approx(20.0, abs=1e-12)

    def test_empty_rejected(self):
        net = AssessmentNetwork(input_dim=4, trunk_dims=(4,), rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            assessment_metrics(net, np.zeros((0, 4)), np.zeros(0), np.zeros(0))


class TestReports:

    def test_round_trip(self, tmp_path):
        rep = MetricsReport(fingerprint=config_fingerprint("a=1\n", 7), seed=7)
        rep.set("err.child", 61.5)
        rep.set("acc", 1.0 / 3.0)
        path = tmp_path / "report.tsv"
        write_report(rep, path)
        back = read_report(path)
        assert back.fingerprint == rep.fingerprint
        assert back.seed == 7
        assert back.metrics == rep.metrics

    def test_metric_lines_sorted(self, tmp_path):
        rep = MetricsReport(fingerprint="abc", seed=0)
        rep.set("zeta", 1.0)
        rep.set("alpha", 2.0)
        path = tmp_path / "r.tsv"
        write_report(rep, path)
        names = [l.split("\t")[0] for l in path.read_text().splitlines()
                 if not l.startswith("#")]
        assert names == sorted(names)

    def test_non_finite_rejected(self):
        rep = MetricsReport(fingerprint="abc", seed=0)
        with pytest.raises(ValueError):
            rep.set("bad", float("nan"))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("err\t1.0\n")
        with pytest.raises(ValueError):
            read_report(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("# fingerprint\tabc\n# seed\t0\nbad line no tab\n")
        with pytest.raises(ValueError):
            read_report(path)

    def test_header_line_without_value_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("# fingerprint\n# seed\t0\nerr\t1.0\n")
        with pytest.raises(ValueError):
            read_report(path)

    @pytest.mark.parametrize("repeated", ["err\t2.0\n", "# seed\t5\n"], ids=["metric", "seed"])
    def test_repeated_line_rejected(self, tmp_path, repeated):
        # write_report writes each header and each metric once
        path = tmp_path / "r.tsv"
        path.write_text("# fingerprint\tabc\n# seed\t0\nerr\t1.0\n" + repeated)
        with pytest.raises(ValueError, match="repeated"):
            read_report(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_in_file_rejected(self, tmp_path, value):
        # reading shares write_report's rule: every value is finite
        path = tmp_path / "r.tsv"
        path.write_text(f"# fingerprint\tabc\n# seed\t0\nerr\t{value}\n")
        with pytest.raises(ValueError, match="not finite"):
            read_report(path)

    def test_fingerprint_sensitivity(self):
        a = config_fingerprint("a=1\n", 7)
        assert a != config_fingerprint("a=2\n", 7)
        assert a != config_fingerprint("a=1\n", 8)
        assert a == config_fingerprint("a=1\n", 7)
        assert len(a) == 16

    def test_fingerprint_hashes_the_package_version(self, monkeypatch):
        # one home for the version: the package, which pyproject.toml reads
        before = config_fingerprint("a=1\n", 7)
        monkeypatch.setattr(evaluate, "__version__", senadapt.__version__ + ".1")
        assert config_fingerprint("a=1\n", 7) != before
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert 'attr = "senadapt.__version__"' in pyproject
        assert "\nversion = " not in pyproject.split("[project.scripts]")[0]
