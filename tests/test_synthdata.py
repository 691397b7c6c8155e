"""Synthetic corpus generator tests: statistics, determinism, file format."""

import math

import numpy as np
import pytest

from senadapt.nn import FormatError
from senadapt.synthdata import (
    GeneratorConfig,
    generate_assessment_corpus,
    generate_corpus,
    load_corpus,
    parse_flat_config,
    save_corpus,
)


def nearest_centroid_domain_accuracy(corpus):
    """Independent check of domain separability: classify each frame by the
    nearer of the two per-domain centroids."""
    adult = corpus.frames[corpus.domain_labels == 0]
    child = corpus.frames[corpus.domain_labels == 1]
    ca, cc = adult.mean(axis=0), child.mean(axis=0)
    da = np.linalg.norm(corpus.frames - ca, axis=1)
    dc = np.linalg.norm(corpus.frames - cc, axis=1)
    pred = (dc < da).astype(np.uint8)
    return float((pred == corpus.domain_labels).mean())


class TestGeneration:

    def test_counts_and_label_ranges(self):
        cfg = GeneratorConfig(n_adult=503, n_child=497, seed=1)
        c = generate_corpus(cfg)
        assert c.frames.shape == (1000, cfg.dim)
        assert (c.domain_labels == 0).sum() == 503
        assert (c.domain_labels == 1).sum() == 497
        assert c.senone_labels.min() >= 0 and c.senone_labels.max() < cfg.K
        assert set(np.unique(c.split_tags)) <= {0, 1, 2}

    def test_balanced_senone_counts(self):
        cfg = GeneratorConfig(n_adult=1000, n_child=1000, seed=2)
        c = generate_corpus(cfg)
        for d in (0, 1):
            counts = np.bincount(c.senone_labels[c.domain_labels == d],
                                 minlength=cfg.K)
            assert counts.max() - counts.min() <= 1

    def test_zero_shift_domains_inseparable(self):
        cfg = GeneratorConfig(n_adult=3000, n_child=3000, seed=3,
                              shift_profile=(0.0,) * 10)
        acc = nearest_centroid_domain_accuracy(generate_corpus(cfg))
        assert abs(acc - 0.5) <= 0.03

    def test_large_shift_domains_separable(self):
        cfg = GeneratorConfig(n_adult=3000, n_child=3000, seed=3,
                              shift_profile=(10.0,) * 10, shift_coherence=1.0)
        acc = nearest_centroid_domain_accuracy(generate_corpus(cfg))
        assert acc >= 0.99

    def test_shift_magnitude_monotone(self):
        # child class centroids drift from adult ones in profile order
        cfg = GeneratorConfig(K=3, n_adult=6000, n_child=6000, seed=4,
                              shift_profile=(0.0, 2.0, 6.0))
        c = generate_corpus(cfg)
        drifts = []
        for k in range(3):
            a = c.frames[(c.domain_labels == 0) & (c.senone_labels == k)].mean(axis=0)
            ch = c.frames[(c.domain_labels == 1) & (c.senone_labels == k)].mean(axis=0)
            drifts.append(np.linalg.norm(ch - a))
        assert drifts[0] < drifts[1] < drifts[2]
        assert drifts[0] <= 0.5  # zero-shift class: sampling noise only
        assert drifts[2] == pytest.approx(6.0, abs=0.5)

    def test_seed_determinism(self):
        a = generate_corpus(GeneratorConfig(seed=9))
        b = generate_corpus(GeneratorConfig(seed=9))
        assert a == b
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_different_seeds_differ(self):
        a = generate_corpus(GeneratorConfig(seed=9))
        b = generate_corpus(GeneratorConfig(seed=10))
        assert a != b

    def test_split_fractions_respected(self):
        cfg = GeneratorConfig(n_adult=7000, n_child=7000,
                              split_fractions=(5 / 7, 1 / 7, 1 / 7), seed=5)
        c = generate_corpus(cfg)
        n = len(c.split_tags)
        for tag, frac in ((0, 5 / 7), (1, 1 / 7), (2, 1 / 7)):
            assert (c.split_tags == tag).mean() == pytest.approx(frac, abs=0.01)
        # splits partition the corpus
        assert ((c.split_tags == 0) | (c.split_tags == 1) | (c.split_tags == 2)).all()
        assert n == 14000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(K=1, shift_profile=(0.0,)).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(shift_profile=(1.0, 2.0)).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(shift_coherence=1.5).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(split_fractions=(0.5, 0.5, 0.5)).validate()
        with pytest.raises(ValueError):
            # no dev frames: round(0 * n) is 0 in every (domain, senone) group
            GeneratorConfig(split_fractions=(0.85, 0.0, 0.15)).validate()
        with pytest.raises(ValueError):
            # 40 frames per (domain, senone) group: train and dev round to 20 each
            GeneratorConfig(n_adult=400, n_child=400, split_fractions=(0.49, 0.49, 0.02)).validate()
        for key in ("within_class_std", "class_separation"):
            for bad in (0.0, math.nan, math.inf):
                with pytest.raises(ValueError, match=key):
                    GeneratorConfig(**{key: bad}).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(shift_profile=(math.nan,) * 10).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(dim=0).validate()


class TestTrainingView:

    def test_child_labels_hidden(self):
        c = generate_corpus(GeneratorConfig(seed=6))
        view = c.training_view("train")
        assert (view.adult_senone_labels[view.domain_labels == 1] == -1).all()
        assert (view.adult_senone_labels[view.domain_labels == 0] >= 0).all()

    def test_adult_mask_matches_domains(self):
        c = generate_corpus(GeneratorConfig(seed=6))
        view = c.training_view("train")
        assert np.array_equal(view.adult_mask, view.domain_labels == 0)

    def test_subset_filters(self):
        c = generate_corpus(GeneratorConfig(seed=6))
        sub = c.subset("test", "child")
        assert (sub.domain_labels == 1).all()
        assert (sub.split_tags == 2).all()


class TestCorpusFile:

    def test_round_trip(self, tmp_path):
        c = generate_corpus(GeneratorConfig(n_adult=300, n_child=300, seed=7))
        path = tmp_path / "c.saco"
        save_corpus(c, path)
        assert load_corpus(path) == c

    def test_exact_file_size(self, tmp_path):
        c = generate_corpus(GeneratorConfig(n_adult=300, n_child=300, seed=7))
        path = tmp_path / "c.saco"
        save_corpus(c, path)
        n, dim = c.frames.shape
        header = (f"kind=corpus\nmeta.K={c.K}\nmeta.dim={dim}\n"
                  f"array.frames=<f8 {n},{dim}\narray.senone_labels=<u4 {n}\n"
                  f"array.domain_labels=u1 {n}\narray.split_tags=u1 {n}").encode()
        # magic + header length + header + f8 frames + u4 senones + two u1 tag arrays
        assert path.stat().st_size == 8 + 4 + len(header) + 8 * n * dim + 6 * n

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.saco"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_corpus(path)

    def test_truncation_detected(self, tmp_path):
        c = generate_corpus(GeneratorConfig(n_adult=300, n_child=300, seed=7))
        path = tmp_path / "c.saco"
        save_corpus(c, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            load_corpus(path)


class TestAssessmentCorpus:

    def test_levels_in_range(self):
        _, pron, flu = generate_assessment_corpus(500, seed=1)
        assert pron.min() >= 1 and pron.max() <= 5
        assert flu.min() >= 1 and flu.max() <= 5

    def test_head_correlation(self):
        # the two level sequences share a latent score; correlation should be
        # strong but not perfect over a large sample
        _, pron, flu = generate_assessment_corpus(10000, seed=2)
        r = np.corrcoef(pron, flu)[0, 1]
        assert 0.75 <= r <= 0.95

    def test_determinism(self):
        a = generate_assessment_corpus(200, seed=3)
        b = generate_assessment_corpus(200, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_assessment_corpus(10, seed=0)

    def test_feature_shape(self):
        feats, _, _ = generate_assessment_corpus(120, seed=4)
        assert feats.shape == (120, 30)


class TestFlatConfig:

    def test_parse_basic(self):
        text = "a=1\n# comment\nb = two # trailing\n\nc=3.5\n"
        assert parse_flat_config(text) == {"a": "1", "b": "two", "c": "3.5"}

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_flat_config("just a line\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match=r"'epochs' set twice, on lines 1 and 3"):
            parse_flat_config("epochs = 3\nK = 4\nepochs = 5\n")
