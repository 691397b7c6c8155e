"""End-to-end command-line pipeline tests on a miniature configuration."""

import filecmp
import math
import shutil

import numpy as np
import pytest

from senadapt.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_NO_BUNDLE,
    EXIT_NO_CORPUS,
    EXIT_UNFROZEN,
    load_run_config,
    main,
    resolved_config_text,
)
from senadapt.evaluate import read_report
from senadapt.models import (
    AdaptationNetwork,
    DomainDiscriminator,
    build_adult_am,
    load_bundle,
    save_adapter,
    save_adult_am,
    save_bundle,
    save_discriminator,
)
from senadapt.nn import LayerSpec, Network, pack_container, unpack_container
from senadapt.synthdata import (
    SPLIT_TRAIN,
    load_assessment_corpus,
    load_corpus,
    save_assessment_corpus,
    save_corpus,
)
from senadapt.training import TrainLog

SMALL = """\
K = 4
dim = 8
n_adult = 400          # keep the pipeline fast
n_child = 400
shift_profile = 0,1,2,4
assess_n = 200
am_hidden = 16
adapter_hidden = 12
disc_hidden = 12
pretrain_epochs = 5
epochs = 3
assess_epochs = 10
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return str(path)


def run(*argv):
    return main(list(argv))


class TestConfig:

    def test_defaults_without_file(self):
        cfg = load_run_config(None, {})
        assert cfg["K"] == 10 and cfg["dim"] == 20
        assert cfg["mode"] == "sat"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("banana=1\n")
        assert run("gen", "--config", str(path), "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs=three\n")
        assert run("gen", "--config", str(path), "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_overrides_win(self, small_cfg):
        cfg = load_run_config(small_cfg, {"seed": 42, "out_dir": "x"})
        assert cfg["seed"] == 42 and cfg["out_dir"] == "x" and cfg["K"] == 4

    def test_negative_seed_flag_rejected(self, tmp_path):
        for stage in ALL_STAGES:
            assert run(stage, "--seed", "-1", "--out", str(tmp_path / "o")) == EXIT_CONFIG, stage

    def test_resolved_text_covers_every_key(self, small_cfg):
        cfg = load_run_config(small_cfg, {})
        text = resolved_config_text(cfg)
        for key in cfg:
            assert f"{key}=" in text

    def test_default_resolved_text(self):
        # the key order feeds every report's fingerprint: reordering a key,
        # or a field of GeneratorConfig or AdversarialConfig, changes it
        assert resolved_config_text(load_run_config(None, {})) == (
            "seed=0\n"
            "K=10\n"
            "dim=20\n"
            "n_adult=2000\n"
            "n_child=2000\n"
            "within_class_std=1.0\n"
            "shift_coherence=0.6\n"
            "class_separation=3.5\n"
            "shift_profile=0.0,0.0,1.0,1.0,2.0,2.0,4.0,4.0,5.0,5.0\n"
            "split_train=0.7\n"
            "split_dev=0.15\n"
            "split_test=0.15\n"
            "assess_n=1500\n"
            "am_hidden=64,64\n"
            "adapter_hidden=64\n"
            "disc_hidden=64\n"
            "pretrain_epochs=30\n"
            "pretrain_lr=0.1\n"
            "pretrain_batch=128\n"
            "pretrain_momentum=0.9\n"
            "mode=sat\n"
            "reversal_coefficient=1.0\n"
            "update_scheme=gradient_reversal\n"
            "lr_adapter=0.05\n"
            "lr_discriminator=0.2\n"
            "momentum=0.0\n"
            "epochs=30\n"
            "batch_size=128\n"
            "alpha_source=adapted\n"
            "lambda_shape=ramp\n"
            "assess_epochs=150\n"
            "assess_lr=0.05\n"
            "out_dir=run\n")


class TestPipeline:

    def test_full_flow_and_report_keys(self, small_cfg, tmp_path):
        out = str(tmp_path / "run")
        for argv in (("gen",), ("pretrain",), ("adapt", "--mode", "bat"),
                     ("adapt", "--mode", "sat"), ("eval",)):
            assert run(*argv, "--config", small_cfg, "--out", out, "--seed", "3") == 0
        report = read_report(tmp_path / "run" / "report.tsv")
        expected = {
            "senone_err.child.test.dnn", "senone_err.child.test.bat",
            "senone_err.child.test.sat", "disc_acc.test.bat",
            "disc_acc.test.sat", "disc_conf.test.bat", "disc_conf.test.sat",
            "senone_err.rel_reduction.sat_vs_bat",
            "senone_err.abs_reduction.sat_vs_dnn",
            "assess.pron.accuracy", "assess.pron.mse",
            "assess.flu.accuracy", "assess.flu.mse",
        }
        assert expected <= set(report.metrics)
        assert report.seed == 3
        # each stage left its resolved config behind
        for stem in ("gen", "pretrain", "adapt_bat", "adapt_sat", "eval"):
            assert (tmp_path / "run" / f"config.{stem}.resolved").exists()

    def test_generated_corpus_loadable_and_sized(self, small_cfg, tmp_path):
        out = tmp_path / "run"
        assert run("gen", "--config", small_cfg, "--out", str(out)) == 0
        corpus = load_corpus(out / "corpus.saco")
        assert corpus.frames.shape == (800, 8)
        feats, pron, flu = load_assessment_corpus(out / "assess.saac")
        assert feats.shape == (200, 30)
        assert pron.min() >= 1 and flu.max() <= 5

    def test_same_seed_identical_outputs(self, small_cfg, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run("gen", "--config", small_cfg, "--out", out, "--seed", "5") == 0
            assert run("pretrain", "--config", small_cfg, "--out", out, "--seed", "5") == 0
        for name in ("corpus.saco", "assess.saac", "am.bundle"):
            assert filecmp.cmp(f"{a}/{name}", f"{b}/{name}", shallow=False), name

    def test_seed_changes_corpus(self, small_cfg, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("gen", "--config", small_cfg, "--out", a, "--seed", "1") == 0
        assert run("gen", "--config", small_cfg, "--out", b, "--seed", "2") == 0
        assert not filecmp.cmp(f"{a}/corpus.saco", f"{b}/corpus.saco", shallow=False)


class TestExitCodes:

    def test_pretrain_without_corpus(self, small_cfg, tmp_path):
        assert run("pretrain", "--config", small_cfg,
                   "--out", str(tmp_path / "empty")) == EXIT_NO_CORPUS

    def test_adapt_without_am(self, small_cfg, tmp_path):
        out = str(tmp_path / "run")
        assert run("gen", "--config", small_cfg, "--out", out) == 0
        assert run("adapt", "--config", small_cfg, "--out", out) == EXIT_NO_BUNDLE

    def test_adapt_without_corpus(self, small_cfg, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        am = build_adult_am(8, [16], 4)
        am.freeze()
        save_adult_am(out / "am.bundle", am)
        assert run("adapt", "--config", small_cfg, "--out", str(out)) == EXIT_NO_CORPUS

    def test_adapt_rejects_unfrozen_am(self, small_cfg, tmp_path):
        out = str(tmp_path / "run")
        assert run("gen", "--config", small_cfg, "--out", out) == 0
        am = build_adult_am(8, [16], 4)  # never frozen
        save_adult_am(f"{out}/am.bundle", am)
        assert run("adapt", "--config", small_cfg, "--out", out) == EXIT_UNFROZEN

    def test_gen_writes_nothing_when_frames_overflow(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL + "within_class_std = 1e308\nclass_separation = 10\n")
        assert run("gen", "--config", str(bad), "--out", str(tmp_path / "run")) == EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_eval_without_corpus(self, small_cfg, tmp_path):
        assert run("eval", "--config", small_cfg,
                   "--out", str(tmp_path / "empty")) == EXIT_NO_CORPUS

    def test_diverged_stage_leaves_no_bundle(self, small_cfg, tmp_path):
        # a stage that exits 7 removes the bundles an earlier run of it wrote,
        # so eval reports no arm the logs say was never trained
        out = tmp_path / "run"
        for argv in (("gen",), ("pretrain",), ("adapt", "--mode", "bat")):
            assert run(*argv, "--config", small_cfg, "--out", str(out)) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL + "lr_adapter = 50\npretrain_lr = 50\n")
        assert run("adapt", "--mode", "bat", "--config", str(bad),
                   "--out", str(out)) == EXIT_DIVERGED
        assert not (out / "adapter_bat.bundle").exists()
        assert not (out / "disc_bat.bundle").exists()
        assert run("eval", "--config", small_cfg, "--out", str(out)) == 0
        assert not [k for k in read_report(out / "report.tsv").metrics if k.endswith(".bat")]
        assert run("pretrain", "--config", str(bad), "--out", str(out)) == EXIT_DIVERGED
        assert not (out / "am.bundle").exists()

    def test_pretrain_removes_bundles_of_the_replaced_model(self, small_cfg, tmp_path):
        # adapter and discriminator bundles were trained against the acoustic
        # model pretrain replaces; eval must not report them as its arms
        out = str(tmp_path / "run")
        for argv in (("gen",), ("pretrain",), ("adapt", "--mode", "bat"),
                     ("pretrain", "--seed", "1"), ("eval",)):
            assert run(*argv, "--config", small_cfg, "--out", out) == 0
        for stem in ("adapter_bat", "disc_bat"):
            assert not (tmp_path / "run" / f"{stem}.bundle").exists()
        assert not [k for k in read_report(tmp_path / "run" / "report.tsv").metrics
                    if k.endswith(".bat")]

    def test_out_under_a_regular_file(self, small_cfg, tmp_path):
        (tmp_path / "file").write_text("")
        for stage in ALL_STAGES:
            assert run(stage, "--config", small_cfg,
                       "--out", str(tmp_path / "file" / "run")) == EXIT_IO, stage

    def test_missing_config_file(self, tmp_path):
        assert run("gen", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")) == EXIT_CONFIG


def _truncate(name):
    def damage(out, cfg):
        path = out / name
        path.write_bytes(path.read_bytes()[:-7])
    return damage


def _am_matrices_disagree_with_manifest(out, cfg):
    _, manifest = load_bundle(out / "am.bundle")
    am = build_adult_am(8, [12], 4)  # the manifest says a 16-wide hidden layer
    am.freeze()
    save_bundle(out / "am.bundle", am.net.store, manifest)


def _regenerate_corpus(out, cfg):
    assert run("gen", "--config", cfg, "--out", str(out)) == 0


def _nan_adapter_weight(out, cfg):
    adapter = AdaptationNetwork(8, [12])
    adapter.store.flat_values[3] = np.nan
    save_adapter(out / "adapter_sat.bundle", adapter)


def _disc_mode_binary_over_joint_output(out, cfg):
    save_adapter(out / "adapter_sat.bundle", AdaptationNetwork(8, [12]))
    disc = DomainDiscriminator(8, [12], "senone_aware", K=4)  # 8 output columns
    save_discriminator(out / "disc_sat.bundle", disc)
    _, manifest = load_bundle(out / "disc_sat.bundle")
    save_bundle(out / "disc_sat.bundle", disc.store, {**manifest, "mode": "binary"})


def _adapter_output_narrower_than_input(out, cfg):
    # a well-formed manifest over an 8 -> 12 -> 7 network
    net = Network([LayerSpec(8, 12), LayerSpec(12, 7, "identity")])
    save_bundle(out / "adapter_sat.bundle", net.store, {
        "kind": "adapter", "dim": 8, "hidden": "12", "frozen": "false"})


def _parent_format_disc_with_identity_top(out, cfg):
    # the earlier per-layer manifest, whose text named each layer's activation
    save_adapter(out / "adapter_sat.bundle", AdaptationNetwork(8, [12]))
    disc = DomainDiscriminator(8, [12], "senone_aware", K=4)
    save_bundle(out / "disc_sat.bundle", disc.store, {
        "kind": "discriminator", "layers": "8:12:rectifier:0.0;12:8:identity:0.0",
        "mode": "senone_aware", "K": 4, "frozen": "false"})


def _am_weights_overflow(out, cfg):
    # finite parameters whose forward overflows, as a flipped exponent bit
    # makes them
    store, manifest = load_bundle(out / "am.bundle")
    store.value("layer0.W")[...] = 1e308
    save_bundle(out / "am.bundle", store, manifest)


def _directory_in_place_of(name):
    """A damage that leaves a directory where a stage writes name."""
    def damage(out, cfg):
        (out / name).unlink(missing_ok=True)
        (out / name).mkdir()
    return damage


def _stale_report(out, cfg):
    (out / "report.tsv").write_text("# a report of an earlier run\n")


def _am_matrix_stored_as_u4(out, cfg):
    manifest, arrays = unpack_container((out / "am.bundle").read_bytes(), "bundle")
    arrays["layer0.b"] = arrays["layer0.b"].astype("<u4")
    (out / "am.bundle").write_bytes(pack_container("bundle", manifest, arrays))


def _edit_corpus(edit):
    """A damage that rewrites corpus.saco after edit(corpus), a well-formed
    container holding bad values."""
    def damage(out, cfg):
        corpus = load_corpus(out / "corpus.saco")
        edit(corpus)
        save_corpus(corpus, out / "corpus.saco")
    return damage


def _nan_adult_training_frame(corpus):
    adult_train = (corpus.split_tags == SPLIT_TRAIN) & (corpus.domain_labels == 0)
    corpus.frames[np.flatnonzero(adult_train)[0], 2] = np.nan


def _edit_assessment_corpus(edit):
    def damage(out, cfg):
        feats, pron, flu = load_assessment_corpus(out / "assess.saac")
        edit(feats, pron, flu)
        save_assessment_corpus(out / "assess.saac", feats, pron, flu)
    return damage


def _keep_assessment_rows(n):
    def damage(out, cfg):
        feats, pron, flu = load_assessment_corpus(out / "assess.saac")
        save_assessment_corpus(out / "assess.saac", feats[:n], pron[:n], flu[:n])
    return damage


def _set(array_name, index, value):
    def edit(corpus):
        getattr(corpus, array_name)[index] = value
    return edit


ALL_STAGES = ("gen", "pretrain", "adapt", "eval")

# name -> (config lines appended to SMALL, damage to a gen+pretrain run, stages, code)
PROBES = {
    "shift_profile_length_not_K": ("shift_profile = 0,1,2\n", None, ALL_STAGES, EXIT_CONFIG),
    "unknown_update_scheme": ("update_scheme = foo\n", None, ALL_STAGES, EXIT_CONFIG),
    "non_integer_hidden_width": ("adapter_hidden = 8,x\n", None, ALL_STAGES, EXIT_CONFIG),
    "nan_learning_rate": ("lr_adapter = nan\n", None, ALL_STAGES, EXIT_CONFIG),
    "zero_adversarial_epochs": ("epochs = 0\n", None, ALL_STAGES, EXIT_CONFIG),
    "zero_pretrain_batch": ("pretrain_batch = 0\n", None, ALL_STAGES, EXIT_CONFIG),
    "negative_assessment_lr": ("assess_lr = -1\n", None, ALL_STAGES, EXIT_CONFIG),
    "zero_pretrain_lr": ("pretrain_lr = 0\n", None, ALL_STAGES, EXIT_CONFIG),
    "zero_assessment_lr": ("assess_lr = 0\n", None, ALL_STAGES, EXIT_CONFIG),
    "zero_pretrain_epochs": ("pretrain_epochs = 0\n", None, ALL_STAGES, EXIT_CONFIG),
    "zero_assessment_epochs": ("assess_epochs = 0\n", None, ALL_STAGES, EXIT_CONFIG),
    "negative_seed": ("seed = -3\n", None, ALL_STAGES, EXIT_CONFIG),
    "generated_frames_overflow": ("within_class_std = 1e308\nclass_separation = 10\n", None,
                                  ("gen",), EXIT_CONFIG),
    "assessment_corpus_too_small": ("assess_n = 10\n", None, ALL_STAGES, EXIT_CONFIG),
    "split_without_dev_frames": ("split_train = 0.85\nsplit_dev = 0\nsplit_test = 0.15\n",
                                 None, ALL_STAGES, EXIT_CONFIG),
    "truncated_am_bundle": ("", _truncate("am.bundle"), ("adapt", "eval"), EXIT_NO_BUNDLE),
    "truncated_assessment_corpus": ("", _truncate("assess.saac"), ("eval",), EXIT_NO_CORPUS),
    "dim_changed_after_pretrain": ("dim = 6\n", None, ("pretrain", "adapt", "eval"),
                                   EXIT_CONFIG),
    "truncated_corpus": ("", _truncate("corpus.saco"), ("pretrain", "adapt", "eval"),
                         EXIT_NO_CORPUS),
    "bundle_matrices_disagree_with_manifest": ("", _am_matrices_disagree_with_manifest,
                                               ("adapt", "eval"), EXIT_NO_BUNDLE),
    "dim_changed_and_corpus_regenerated": ("dim = 6\n", _regenerate_corpus,
                                           ("adapt", "eval"), EXIT_CONFIG),
    # well-formed files holding bad values
    "nan_adapter_weight": ("", _nan_adapter_weight, ("eval",), EXIT_NO_BUNDLE),
    "am_matrix_stored_as_u4": ("", _am_matrix_stored_as_u4, ("adapt", "eval"), EXIT_NO_BUNDLE),
    "am_weights_overflow": ("", _am_weights_overflow, ("adapt", "eval"), EXIT_NO_BUNDLE),
    # well-formed bundles holding models their wrappers cannot run
    "disc_mode_binary_over_joint_output": ("", _disc_mode_binary_over_joint_output,
                                           ("eval",), EXIT_NO_BUNDLE),
    "adapter_output_narrower_than_input": ("", _adapter_output_narrower_than_input,
                                           ("eval",), EXIT_NO_BUNDLE),
    "parent_format_disc_with_identity_top": ("", _parent_format_disc_with_identity_top,
                                             ("eval",), EXIT_NO_BUNDLE),
    "nan_adult_training_frame": ("", _edit_corpus(_nan_adult_training_frame),
                                 ("pretrain", "adapt", "eval"), EXIT_NO_CORPUS),
    "senone_label_99": ("", _edit_corpus(_set("senone_labels", 5, 99)),
                        ("pretrain", "adapt", "eval"), EXIT_NO_CORPUS),
    "every_split_tag_2": ("", _edit_corpus(_set("split_tags", slice(None), 2)),
                          ("pretrain", "adapt", "eval"), EXIT_NO_CORPUS),
    "domain_label_7": ("", _edit_corpus(_set("domain_labels", 5, 7)),
                       ("pretrain", "adapt", "eval"), EXIT_NO_CORPUS),
    "nan_assessment_feature": ("", _edit_assessment_corpus(
        lambda feats, pron, flu: feats.__setitem__((0, 0), np.nan)), ("eval",), EXIT_NO_CORPUS),
    "assessment_level_6": ("", _edit_assessment_corpus(
        lambda feats, pron, flu: flu.__setitem__(0, 6)), ("eval",), EXIT_NO_CORPUS),
    "empty_assessment_corpus": ("", _keep_assessment_rows(0), ("eval",), EXIT_NO_CORPUS),
    "assessment_corpus_of_one_row": ("", _keep_assessment_rows(1), ("eval",),
                                     EXIT_NO_CORPUS),
    # training that saturates or overflows
    "saturating_pretrain_lr": ("pretrain_lr = 50\n", None, ("pretrain",), EXIT_DIVERGED),
    "saturating_adapter_lr": ("lr_adapter = 50\n", None, ("adapt",), EXIT_DIVERGED),
    "overflowing_pretrain_lr": ("pretrain_lr = 1e300\n", None, ("pretrain",), EXIT_DIVERGED),
    "overflowing_assessment_lr": ("assess_lr = 1e100\n", _stale_report, ("eval",),
                                  EXIT_DIVERGED),
    # outputs that cannot be written
    "directory_in_place_of_pretrain_log": ("", _directory_in_place_of("pretrain.log"),
                                           ("pretrain",), EXIT_IO),
    "directory_in_place_of_adapt_log": ("", _directory_in_place_of("adapt_sat.log"),
                                        ("adapt",), EXIT_IO),
    "directory_in_place_of_report": ("", _directory_in_place_of("report.tsv"), ("eval",),
                                     EXIT_IO),
}


@pytest.fixture(scope="module")
def pretrained_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("pretrained")
    (base / "small.cfg").write_text(SMALL)
    for stage in ("gen", "pretrain"):
        assert run(stage, "--config", str(base / "small.cfg"), "--out", str(base / "run")) == 0
    return base / "run"


@pytest.mark.parametrize("extra, damage, stages, code", PROBES.values(), ids=list(PROBES))
def test_bad_input_ends_in_documented_code(pretrained_run, tmp_path, extra, damage,
                                           stages, code):
    """Bad config values, missing, malformed or mismatched files and
    unwritable outputs end in the exit code cli.py documents for them, never
    in an exception; an eval that fails leaves no report."""
    out = tmp_path / "run"
    shutil.copytree(pretrained_run, out)
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(SMALL + extra)
    if damage is not None:
        damage(out, str(cfg))
    for stage in stages:
        assert run(stage, "--config", str(cfg), "--out", str(out)) == code, stage
    assert not (out / "report.tsv").is_file()


# every file kind eval reads; a seeded byte-mutation fuzz of each
FUZZ_FILES = ("corpus.saco", "assess.saac", "am.bundle", "adapter_sat.bundle",
              "disc_sat.bundle")
DOCUMENTED_EXITS = {0, EXIT_CONFIG, EXIT_IO, EXIT_NO_CORPUS, EXIT_UNFROZEN,
                    EXIT_NO_BUNDLE, EXIT_DIVERGED}


def _mutations(blob, rng, n=50):
    """n mutations of one container: truncations at random offsets, and
    single-bit flips in its header (magic, length and text) and payload."""
    payload = 12 + int.from_bytes(blob[8:12], "little")
    for i in range(n):
        if i % 3 == 0:
            cut = int(rng.integers(len(blob)))
            yield f"truncated to {cut} bytes", blob[:cut]
            continue
        lo, hi = (0, payload) if i % 3 == 1 else (payload, len(blob))
        off, bit = int(rng.integers(lo, hi)), int(rng.integers(8))
        flipped = bytearray(blob)
        flipped[off] ^= 1 << bit
        yield f"bit {bit} of byte {off} flipped", bytes(flipped)


@pytest.fixture(scope="module")
def adapted_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("adapted")
    (base / "small.cfg").write_text(SMALL)
    for argv in (("gen",), ("pretrain",), ("adapt", "--mode", "sat")):
        assert run(*argv, "--config", str(base / "small.cfg"), "--out", str(base / "run")) == 0
    return base


def _fuzz(cfg, path, seed, *stage):
    """Run the stage once on each mutation of the file at path; returns the
    mutations that ended in an exception or an undocumented exit code."""
    blob = path.read_bytes()
    failures = []
    try:
        for what, mutated in _mutations(blob, np.random.default_rng(seed)):
            path.write_bytes(mutated)
            try:
                code = run(*stage, "--config", cfg, "--out", str(path.parent))
            except Exception as e:
                failures.append(f"{what}: {e!r}")
            else:
                if code not in DOCUMENTED_EXITS:
                    failures.append(f"{what}: exit {code}")
    finally:
        path.write_bytes(blob)
    return failures


@pytest.mark.parametrize("seed, name", enumerate(FUZZ_FILES), ids=FUZZ_FILES)
def test_mutated_file_ends_in_documented_code(adapted_run, seed, name):
    """eval reads all five file kinds: a truncated or bit-flipped file ends
    in exit 0 or a code cli.py documents, never in an exception."""
    assert not _fuzz(str(adapted_run / "small.cfg"), adapted_run / "run" / name, seed, "eval")


# the files the training stages read, each with its own fuzz seed
TRAINING_FUZZ = {"pretrain-corpus.saco": (("pretrain",), "corpus.saco"),
                 "adapt_sat-corpus.saco": (("adapt", "--mode", "sat"), "corpus.saco"),
                 "adapt_sat-am.bundle": (("adapt", "--mode", "sat"), "am.bundle")}


@pytest.mark.parametrize("seed, stage, name",
                         [(len(FUZZ_FILES) + i, *case)
                          for i, case in enumerate(TRAINING_FUZZ.values())],
                         ids=list(TRAINING_FUZZ))
def test_mutated_training_input_ends_in_documented_code(adapted_run, tmp_path, seed,
                                                        stage, name):
    """pretrain and adapt on a truncated or bit-flipped input end in exit 0
    or a code cli.py documents, never in an exception. They run on a copy
    of the fixture run: both stages remove bundles before they train."""
    shutil.copytree(adapted_run, tmp_path / "copy")
    assert not _fuzz(str(tmp_path / "copy" / "small.cfg"), tmp_path / "copy" / "run" / name,
                     seed, *stage)
