"""End-to-end command-line pipeline tests on a miniature configuration."""

import errno
import filecmp
import math
import mmap
import shutil
from pathlib import Path

import numpy as np
import pytest

from senadapt import evaluate, training
from senadapt.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_NO_BUNDLE,
    EXIT_NO_CORPUS,
    EXIT_UNFROZEN,
    CONFIG_SCHEMA,
    PIPELINE,
    ConfigError,
    load_run_config,
    main,
    resolved_config_text,
)
from senadapt.evaluate import read_report
from senadapt.models import (
    AdaptationNetwork,
    AssessmentNetwork,
    DomainDiscriminator,
    build_adult_am,
    load_bundle,
    save_adapter,
    save_adult_am,
    save_bundle,
    save_discriminator,
)
from senadapt.nn import CONTAINER_MAGIC, LayerSpec, Network, pack_container, unpack_container
from senadapt.synthdata import (
    SPLIT_TRAIN,
    GeneratorConfig,
    generate_assessment_corpus,
    generate_corpus,
    load_corpus,
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


def small_with(extra: str) -> str:
    """SMALL with the keys set in extra replaced by extra's lines."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in SMALL.splitlines(keepends=True)
            if line.partition("=")[0].strip() not in keys]
    return "".join(kept) + extra


# every key at a value other than its default; disc_hidden is empty, which
# is no hidden layer
EVERY_KEY = """\
seed = 5
K = 3
dim = 4
n_adult = 90
n_child = 60
within_class_std = 0.5
shift_coherence = 0.25
class_separation = 2.5
shift_profile = 0.5,1,3
split_train = 0.6
split_dev = 0.2
split_test = 0.2
assess_n = 60
am_hidden = 8,4
adapter_hidden = 6
disc_hidden =
pretrain_epochs = 2
pretrain_lr = 0.2
pretrain_batch = 32
pretrain_momentum = 0.5
mode = bat
reversal_coefficient = 0.5
lr_adapter = 0.01
lr_discriminator = 0.1
momentum = 0.3
epochs = 2
batch_size = 16
lambda_shape = constant
assess_epochs = 3
assess_lr = 0.02
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
        assert cfg.gen.K == 10 and cfg.gen.dim == 20
        assert cfg.adv.mode == "sat"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("banana=1\n")
        assert run("gen", "--config", str(path), "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs=three\n")
        assert run("gen", "--config", str(path), "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text(SMALL + "epochs = 5\n")
        for stage in ALL_STAGES:
            assert run(stage, "--config", str(path),
                       "--out", str(tmp_path / "o")) == EXIT_CONFIG, stage
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, bound", [
        ("seed", "-3", ">= 0"), ("pretrain_epochs", "0", ">= 1"),
        ("pretrain_batch", "0", ">= 1"), ("assess_epochs", "0", ">= 1"),
        ("pretrain_lr", "0.0", "> 0"), ("assess_lr", "-1.0", "> 0"),
        ("pretrain_momentum", "1.0", "in [0, 1)"), ("assess_n", "10", ">= 50")])
    def test_out_of_bound_value_names_its_key(self, tmp_path, key, value, bound):
        path = tmp_path / "bad.cfg"
        path.write_text(small_with(f"{key} = {value}\n"))
        with pytest.raises(ConfigError) as e:
            load_run_config(str(path), {})
        assert str(e.value) == f"{key} must be {bound}, got {value}"

    def test_overrides_win(self, small_cfg):
        cfg = load_run_config(small_cfg, {"seed": 42, "mode": "bat"})
        assert cfg.seed == 42 and cfg.adv.mode == "bat" and cfg.gen.K == 4
        # the one seed is the generator's and the adversarial run's
        assert cfg.gen.seed == cfg.adv.seed == 42

    def test_negative_seed_flag_rejected(self, tmp_path):
        for stage in ALL_STAGES:
            assert run(stage, "--seed", "-1", "--out", str(tmp_path / "o")) == EXIT_CONFIG, stage

    def test_resolved_text_covers_every_key(self, small_cfg):
        cfg = load_run_config(small_cfg, {})
        text = resolved_config_text(cfg)
        assert [line.partition("=")[0] for line in text.splitlines()] == list(CONFIG_SCHEMA)

    def test_every_key_config_sets_every_key(self, tmp_path):
        path = tmp_path / "every.cfg"
        path.write_text(EVERY_KEY)
        cfg = load_run_config(str(path), {})
        assert cfg.disc_hidden == ()
        defaults = resolved_config_text(load_run_config(None, {})).splitlines()
        lines = resolved_config_text(cfg).splitlines()
        assert [a for a, b in zip(defaults, lines) if a == b] == []

    @pytest.mark.parametrize("text", [None, SMALL, EVERY_KEY],
                             ids=["defaults", "small", "every_key"])
    def test_resolved_text_parses_to_itself(self, tmp_path, text):
        path = None
        if text is not None:
            path = tmp_path / "given.cfg"
            path.write_text(text)
        resolved = resolved_config_text(load_run_config(path and str(path), {}))
        again = tmp_path / "resolved.cfg"
        again.write_text(resolved)
        assert resolved_config_text(load_run_config(str(again), {})) == resolved

    @pytest.mark.parametrize("text", [SMALL, EVERY_KEY], ids=["small", "every_key"])
    def test_gen_from_its_resolved_config_writes_the_same_bytes(self, tmp_path, text):
        given, a, b = tmp_path / "given.cfg", tmp_path / "a", tmp_path / "b"
        given.write_text(text)
        assert run("gen", "--config", str(given), "--out", str(a), "--seed", "3") == 0
        assert run("gen", "--config", str(a / "config.gen.resolved"), "--out", str(b)) == 0
        for name in ("corpus.saco", "config.gen.resolved"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_default_resolved_text(self):
        # the key order feeds every report's fingerprint: reordering a key
        # of CONFIG_SCHEMA, or changing a default, changes it
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
            "lr_adapter=0.05\n"
            "lr_discriminator=0.2\n"
            "momentum=0.0\n"
            "epochs=30\n"
            "batch_size=128\n"
            "lambda_shape=ramp\n"
            "assess_epochs=150\n"
            "assess_lr=0.05\n")


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

    # forced onto a host whose BLAS runs a thread pool, the workers fork a
    # threaded process, which Python 3.12+ warns of
    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")
    def test_both_worker_paths_write_the_same_bytes(self, small_cfg, tmp_path, monkeypatch,
                                                    capsys):
        # the workers change where the arithmetic runs, not what it computes
        outs = {}
        for free, where in ((True, "on a second process"), (False, "in process")):
            monkeypatch.setattr(training, "_second_core_free", lambda: free)
            outs[free] = out = tmp_path / where.replace(" ", "_")
            for argv in (("gen",), ("pretrain",), ("adapt", "--mode", "bat"),
                         ("adapt", "--mode", "sat"), ("eval",)):
                assert run(*argv, "--config", small_cfg, "--out", str(out)) == 0, argv
            lines = capsys.readouterr().out.splitlines()
            assert lines[-2].endswith(f"discriminator half ran {where}")
            assert lines[-1].endswith(f"assessment parameter half ran {where}")
        names = ["corpus.saco", "report.tsv"] + [
            p.name for p in sorted(outs[True].iterdir())
            if p.suffix == ".bundle" or p.name.startswith("config.")]
        assert len(names) == 2 + 5 + 5
        for name in names:
            assert filecmp.cmp(outs[True] / name, outs[False] / name, shallow=False), name
        for log in ("pretrain.log", "adapt_bat.log", "adapt_sat.log", "assess.log"):
            assert (TrainLog.read(outs[True] / log).trajectory_key()
                    == TrainLog.read(outs[False] / log).trajectory_key()), log

    def test_generated_corpus_loadable_and_sized(self, small_cfg, tmp_path):
        out = tmp_path / "run"
        assert run("gen", "--config", small_cfg, "--out", str(out)) == 0
        corpus = load_corpus(out / "corpus.saco")
        assert corpus.frames.shape == (800, 8)
        assert sorted(p.name for p in out.iterdir()) == ["config.gen.resolved", "corpus.saco"]

    def test_same_seed_identical_outputs(self, small_cfg, tmp_path):
        # the resolved configs too: where a run lives is no part of its config
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run("gen", "--config", small_cfg, "--out", out, "--seed", "5") == 0
            assert run("pretrain", "--config", small_cfg, "--out", out, "--seed", "5") == 0
        for name in ("corpus.saco", "am.bundle", "config.gen.resolved",
                     "config.pretrain.resolved"):
            assert filecmp.cmp(f"{a}/{name}", f"{b}/{name}", shallow=False), name

    def test_assessment_rows_follow_the_eval_config(self, small_cfg, tmp_path):
        # eval draws the assessment corpus from its own assess_n and seed
        out = str(tmp_path / "run")
        for stage in ("gen", "pretrain", "eval"):
            assert run(stage, "--config", small_cfg, "--out", out, "--seed", "3") == 0
        cfg = load_run_config(small_cfg, {"seed": 3})
        feats, pron, flu = generate_assessment_corpus(cfg.assess.n, 3)
        n_train = int(0.8 * len(feats))
        net = AssessmentNetwork(rng=np.random.default_rng(3))
        training.train_assessment_network(net, feats[:n_train], pron[:n_train], flu[:n_train],
                                          epochs=cfg.assess.epochs, lr=cfg.assess.lr,
                                          seed=3)
        expected = evaluate.assessment_metrics(net, feats[n_train:], pron[n_train:],
                                               flu[n_train:])
        metrics = read_report(tmp_path / "run" / "report.tsv").metrics
        assert {k: v for k, v in metrics.items() if k.startswith("assess.")} == {
            f"assess.{name}": val for name, val in expected.items()}

    def test_zero_bat_error_reports_no_relative_reduction(self, tmp_path):
        # unshifted, well-separated senones: the bat arm makes no child error,
        # and a relative reduction over a zero baseline is undefined
        cfg = tmp_path / "easy.cfg"
        cfg.write_text(small_with("shift_profile = 0,0,0,0\nclass_separation = 12\n"))
        out = tmp_path / "run"
        for argv in (("gen",), ("pretrain",), ("adapt", "--mode", "bat"),
                     ("adapt", "--mode", "sat"), ("eval",)):
            assert run(*argv, "--config", str(cfg), "--out", str(out), "--seed", "0") == 0, argv
        metrics = read_report(out / "report.tsv").metrics
        assert metrics["senone_err.child.test.bat"] == 0.0
        assert "senone_err.abs_reduction.sat_vs_dnn" in metrics
        assert "senone_err.rel_reduction.sat_vs_bat" not in metrics

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

    def test_saturated_assessment_writes_its_config_and_no_report(self, small_cfg, tmp_path,
                                                                  capsys):
        out = tmp_path / "run"
        for stage in ("gen", "pretrain"):
            assert run(stage, "--config", small_cfg, "--out", str(out)) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text(small_with("assess_lr = 0.15\n"))
        assert run("eval", "--config", str(bad), "--out", str(out)) == EXIT_DIVERGED
        assert not (out / "report.tsv").exists()
        assert (out / "config.eval.resolved").read_text() == resolved_config_text(
            load_run_config(str(bad), {}))
        # the log of the run that saturated stays, as pretrain's and adapt's do
        assert TrainLog.read(out / "assess.log").records[-1].senone_ce >= math.log(5)
        err = capsys.readouterr().err
        assert "assessment training diverged or saturated" in err and "bundle" not in err

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

    def test_gen_removes_models_of_the_replaced_corpus(self, small_cfg, tmp_path):
        # every model was trained on the corpus gen replaces; eval must not
        # report them under the new corpus's seed
        out = tmp_path / "run"
        for argv in (("gen",), ("pretrain",), ("adapt", "--mode", "bat"),
                     ("adapt", "--mode", "sat"), ("gen", "--seed", "2")):
            assert run(*argv, "--config", small_cfg, "--out", str(out)) == 0
        assert not list(out.glob("*.bundle"))
        assert run("eval", "--config", small_cfg, "--out", str(out),
                   "--seed", "2") == EXIT_NO_BUNDLE

    def test_out_under_a_regular_file(self, small_cfg, tmp_path):
        (tmp_path / "file").write_text("")
        for stage in ALL_STAGES:
            assert run(stage, "--config", small_cfg,
                       "--out", str(tmp_path / "file" / "run")) == EXIT_IO, stage

    def test_missing_config_file(self, tmp_path):
        assert run("gen", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")) == EXIT_CONFIG


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("full")
    (base / "small.cfg").write_text(SMALL)
    for argv in (("gen",), ("pretrain",), ("adapt", "--mode", "bat"),
                 ("adapt", "--mode", "sat"), ("eval",)):
        assert run(*argv, "--config", str(base / "small.cfg"), "--out", str(base / "run")) == 0
    return base / "run"


def test_pipeline_lists_every_file_a_stage_writes(full_run):
    """A file a stage starts writing cannot escape the removal rule, nor a
    dropped one linger in PIPELINE."""
    listed = {name for stages in PIPELINE for files in stages.values() for name in files}
    assert {p.name for p in full_run.iterdir()} == listed


BY_GEN = {"corpus.saco", "config.gen.resolved"}
BY_PRETRAIN = {"am.bundle", "pretrain.log", "config.pretrain.resolved"}


def _by_adapt(mode):
    return {f"adapter_{mode}.bundle", f"disc_{mode}.bundle", f"adapt_{mode}.log",
            f"config.adapt_{mode}.resolved"}


@pytest.mark.parametrize("argv, earlier, rewritten", [
    (("gen", "--seed", "1"), set(), BY_GEN),
    (("pretrain", "--seed", "1"), BY_GEN, BY_PRETRAIN),
    (("adapt", "--mode", "bat"), BY_GEN | BY_PRETRAIN | _by_adapt("sat"), _by_adapt("bat")),
], ids=["gen", "pretrain", "adapt_bat"])
def test_rerun_stage_removes_what_later_stages_wrote(full_run, tmp_path, argv, earlier,
                                                     rewritten):
    """A stage run again over a full run removes every later stage's files,
    which came from the inputs it replaces; an earlier stage's files, a
    sibling adapt arm's and a user's own stay as they were."""
    out = tmp_path / "run"
    shutil.copytree(full_run, out)
    (out / "small.cfg").write_text(SMALL)
    assert run(*argv, "--config", str(out / "small.cfg"), "--out", str(out)) == 0
    assert {p.name for p in out.iterdir()} == earlier | rewritten | {"small.cfg"}
    for name in earlier:
        assert filecmp.cmp(out / name, full_run / name, shallow=False), name
    assert (out / "small.cfg").read_text() == SMALL


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


def _dim_6_corpus(out, cfg):
    corpus = generate_corpus(GeneratorConfig(K=4, dim=6, n_adult=400, n_child=400,
                                             shift_profile=(0, 1, 2, 4)))
    save_corpus(corpus, out / "corpus.saco")


def _save_sat_disc(out, mode="senone_aware", K=4, hidden=(12,)):
    """Save a well-formed discriminator as the sat arm's."""
    save_discriminator(out / "disc_sat.bundle", DomainDiscriminator(8, list(hidden), mode, K=K))


def _nan_adapter_weight(out, cfg):
    adapter = AdaptationNetwork(8, [12])
    adapter.store.flat_values[3] = np.nan
    save_adapter(out / "adapter_sat.bundle", adapter)
    _save_sat_disc(out)


def _adapter_without_its_discriminator(out, cfg):
    save_adapter(out / "adapter_sat.bundle", AdaptationNetwork(8, [12]))


def _discriminator_without_its_adapter(out, cfg):
    _save_sat_disc(out)


def _sat_arm_with_discriminator(mode, K, hidden=(12,), adapter_hidden=(12,)):
    """A damage that saves a well-formed sat arm whose discriminator is mode
    over K, of these hidden widths."""
    def damage(out, cfg):
        save_adapter(out / "adapter_sat.bundle", AdaptationNetwork(8, list(adapter_hidden)))
        _save_sat_disc(out, mode, K, hidden)
    return damage


def _am_of_other_hidden_widths(out, cfg):
    # a frozen, trained acoustic model that pretrain made under another am_hidden
    other = Path(cfg).with_name("am_hidden_8.cfg")
    other.write_text(small_with("am_hidden = 8\n"))
    assert run("pretrain", "--config", str(other), "--out", str(out)) == 0


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
    _save_sat_disc(out)


def _parent_format_disc_with_identity_top(out, cfg):
    # the earlier per-layer manifest, whose text named each layer's activation
    save_adapter(out / "adapter_sat.bundle", AdaptationNetwork(8, [12]))
    disc = DomainDiscriminator(8, [12], "senone_aware", K=4)
    save_bundle(out / "disc_sat.bundle", disc.store, {
        "kind": "discriminator", "layers": "8:12:rectifier:0.0;12:8:identity:0.0",
        "mode": "senone_aware", "K": 4, "frozen": "false"})


def _unfrozen_am_bundle(out, cfg):
    store, manifest = load_bundle(out / "am.bundle")
    save_bundle(out / "am.bundle", store, {**manifest, "frozen": "false"})


def _am_frozen_twice(out, cfg):
    # "false", then the "true" that pack_container wrote: a reader keeping
    # the last line would read a frozen model
    path = out / "am.bundle"
    blob = path.read_bytes()
    end = 12 + int.from_bytes(blob[8:12], "little")
    header = blob[12:end].replace(b"meta.frozen=true", b"meta.frozen=false\nmeta.frozen=true")
    path.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header + blob[end:])


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


def _set(array_name, index, value):
    def edit(corpus):
        getattr(corpus, array_name)[index] = value
    return edit


ALL_STAGES = ("gen", "pretrain", "adapt", "eval")

# name -> (config lines that replace or extend SMALL's, damage to a gen+pretrain run,
#          stages, code)
PROBES = {
    "shift_profile_length_not_K": ("shift_profile = 0,1,2\n", None, ALL_STAGES, EXIT_CONFIG),
    "unknown_update_scheme": ("update_scheme = foo\n", None, ALL_STAGES, EXIT_CONFIG),
    "raw_alpha_source": ("alpha_source = raw\n", None, ALL_STAGES, EXIT_CONFIG),
    # library-only fields and the directory --out names are no config keys
    "alternating_update_scheme": ("update_scheme = alternating\n", None, ALL_STAGES,
                                  EXIT_CONFIG),
    "adapted_alpha_source": ("alpha_source = adapted\n", None, ALL_STAGES, EXIT_CONFIG),
    "out_dir_in_config": ("out_dir = elsewhere\n", None, ALL_STAGES, EXIT_CONFIG),
    "non_integer_hidden_width": ("adapter_hidden = 8,x\n", None, ALL_STAGES, EXIT_CONFIG),
    # an empty item would give one network two spellings, and two fingerprints
    "empty_item_in_hidden_widths": ("am_hidden = 16,,16\n", None, ALL_STAGES, EXIT_CONFIG),
    "trailing_comma_in_hidden_widths": ("disc_hidden = 12,\n", None, ALL_STAGES,
                                        EXIT_CONFIG),
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
    # sizes no host can allocate: each exceeds a 48-bit user address space,
    # so the allocation fails at once and touches no memory
    "unallocatable_dim": ("dim = 70368744177664\n", None, ("gen",), EXIT_CONFIG),
    "unallocatable_am_hidden": ("am_hidden = 70368744177664\n", None, ("pretrain",),
                                EXIT_CONFIG),
    "unallocatable_adapter_hidden": ("adapter_hidden = 70368744177664\n", None, ("adapt",),
                                     EXIT_CONFIG),
    "unallocatable_assess_n": ("assess_n = 70368744177664\n", None, ("eval",), EXIT_CONFIG),
    "am_hidden_past_the_array_size_limit": ("am_hidden = 2305843009213693952\n", None,
                                            ("pretrain",), EXIT_CONFIG),
    # 2**70 frames: a count past int64, rejected before anything is allocated
    "frame_count_past_int64": ("n_adult = 1180591620717411303424\n", None, ALL_STAGES,
                               EXIT_CONFIG),
    "split_without_dev_frames": ("split_train = 0.85\nsplit_dev = 0\nsplit_test = 0.15\n",
                                 None, ALL_STAGES, EXIT_CONFIG),
    "truncated_am_bundle": ("", _truncate("am.bundle"), ("adapt", "eval"), EXIT_NO_BUNDLE),
    "dim_changed_after_pretrain": ("dim = 6\n", None, ("pretrain", "adapt", "eval"),
                                   EXIT_CONFIG),
    "truncated_corpus": ("", _truncate("corpus.saco"), ("pretrain", "adapt", "eval"),
                         EXIT_NO_CORPUS),
    "bundle_matrices_disagree_with_manifest": ("", _am_matrices_disagree_with_manifest,
                                               ("adapt", "eval"), EXIT_NO_BUNDLE),
    "dim_changed_and_corpus_regenerated": ("dim = 6\n", _dim_6_corpus,
                                           ("adapt", "eval"), EXIT_CONFIG),
    # well-formed files holding bad values
    "nan_adapter_weight": ("", _nan_adapter_weight, ("eval",), EXIT_NO_BUNDLE),
    "am_matrix_stored_as_u4": ("", _am_matrix_stored_as_u4, ("adapt", "eval"), EXIT_NO_BUNDLE),
    "am_frozen_twice": ("", _am_frozen_twice, ("adapt", "eval"), EXIT_NO_BUNDLE),
    "am_weights_overflow": ("", _am_weights_overflow, ("adapt", "eval"), EXIT_NO_BUNDLE),
    # well-formed bundles holding models their wrappers cannot run
    "disc_mode_binary_over_joint_output": ("", _disc_mode_binary_over_joint_output,
                                           ("eval",), EXIT_NO_BUNDLE),
    "adapter_output_narrower_than_input": ("", _adapter_output_narrower_than_input,
                                           ("eval",), EXIT_NO_BUNDLE),
    "parent_format_disc_with_identity_top": ("", _parent_format_disc_with_identity_top,
                                             ("eval",), EXIT_NO_BUNDLE),
    # an adapt arm is read whole: both bundles, the discriminator its arm's adversary
    "adapter_without_its_discriminator": ("", _adapter_without_its_discriminator,
                                          ("eval",), EXIT_NO_BUNDLE),
    "discriminator_without_its_adapter": ("", _discriminator_without_its_adapter,
                                          ("eval",), EXIT_NO_BUNDLE),
    "binary_discriminator_in_the_sat_arm": ("", _sat_arm_with_discriminator("binary", None),
                                            ("eval",), EXIT_NO_BUNDLE),
    "sat_discriminator_over_another_K": ("", _sat_arm_with_discriminator("senone_aware", 3),
                                         ("eval",), EXIT_NO_BUNDLE),
    # bundles whose hidden widths are not the config's
    "am_of_other_hidden_widths": ("", _am_of_other_hidden_widths, ("adapt", "eval"),
                                  EXIT_CONFIG),
    "sat_discriminator_of_other_hidden_widths": (
        "", _sat_arm_with_discriminator("senone_aware", 4, hidden=(5,)), ("eval",), EXIT_CONFIG),
    "sat_adapter_of_other_hidden_widths": (
        "", _sat_arm_with_discriminator("senone_aware", 4, adapter_hidden=(12, 12)), ("eval",),
        EXIT_CONFIG),
    # adapt and eval read the acoustic model through one reader
    "unfrozen_am_bundle": ("", _unfrozen_am_bundle, ("adapt", "eval"), EXIT_UNFROZEN),
    "nan_adult_training_frame": ("", _edit_corpus(_nan_adult_training_frame),
                                 ("pretrain", "adapt", "eval"), EXIT_NO_CORPUS),
    "senone_label_99": ("", _edit_corpus(_set("senone_labels", 5, 99)),
                        ("pretrain", "adapt", "eval"), EXIT_NO_CORPUS),
    "every_split_tag_2": ("", _edit_corpus(_set("split_tags", slice(None), 2)),
                          ("pretrain", "adapt", "eval"), EXIT_NO_CORPUS),
    "domain_label_7": ("", _edit_corpus(_set("domain_labels", 5, 7)),
                       ("pretrain", "adapt", "eval"), EXIT_NO_CORPUS),
    # training that saturates or overflows
    "saturating_pretrain_lr": ("pretrain_lr = 50\n", None, ("pretrain",), EXIT_DIVERGED),
    "saturating_adapter_lr": ("lr_adapter = 50\n", None, ("adapt",), EXIT_DIVERGED),
    "overflowing_pretrain_lr": ("pretrain_lr = 1e300\n", None, ("pretrain",), EXIT_DIVERGED),
    # met by the discriminator, on the worker where the host gives adapt one
    "overflowing_discriminator_lr": ("lr_discriminator = 1e300\n", None, ("adapt",),
                                     EXIT_DIVERGED),
    "overflowing_assessment_lr": ("assess_lr = 1e100\n", _stale_report, ("eval",),
                                  EXIT_DIVERGED),
    # the assessment heads end no better than a uniform guess over the 5 levels
    "assessment_saturated": ("assess_lr = 0.15\n", _stale_report, ("eval",), EXIT_DIVERGED),
    # one step finishes finite, and scoring the trained heads meets the overflow
    "assessment_overflow_met_in_scoring": ("assess_n = 50\nassess_epochs = 1\n"
                                           "assess_lr = 1e300\n", None, ("eval",),
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
    cfg.write_text(small_with(extra))
    if damage is not None:
        damage(out, str(cfg))
    for stage in stages:
        assert run(stage, "--config", str(cfg), "--out", str(out)) == code, stage
    assert not (out / "report.tsv").is_file()
    if damage is None:  # the pretrained run holds no adapt arm, and a failed adapt writes none
        assert not list(out.glob("*_*.bundle"))


@pytest.mark.parametrize("stage", ["pretrain", "adapt"])
def test_store_the_host_cannot_map_is_a_config_error(pretrained_run, tmp_path, monkeypatch,
                                                     stage):
    """A parameter store the host cannot map ends in exit 2, as a size the
    host cannot allocate does: pretrain builds the acoustic model's store,
    adapt loads am.bundle into one."""
    out = tmp_path / "run"
    shutil.copytree(pretrained_run, out)
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL)

    def failing(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", failing)
    assert run(stage, "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG


# every file eval reads -> the seed of its byte-mutation fuzz
FUZZ_FILES = {"corpus.saco": 0, "am.bundle": 2, "adapter_sat.bundle": 3, "disc_sat.bundle": 4}
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


def test_fuzz_covers_every_container_file(adapted_run):
    """A file kind a stage writes cannot escape the fuzz, nor a dropped one
    linger in it."""
    written = {p.name for p in (adapted_run / "run").iterdir()
               if p.read_bytes().startswith(CONTAINER_MAGIC)}
    assert written == set(FUZZ_FILES)


@pytest.mark.parametrize("name, seed", FUZZ_FILES.items(), ids=list(FUZZ_FILES))
def test_mutated_file_ends_in_documented_code(adapted_run, name, seed):
    """eval reads all four files: a truncated or bit-flipped file ends in
    exit 0 or a code cli.py documents, never in an exception."""
    assert not _fuzz(str(adapted_run / "small.cfg"), adapted_run / "run" / name, seed, "eval")


# the files the training stages read, each with its own fuzz seed
TRAINING_FUZZ = {"pretrain-corpus.saco": (5, ("pretrain",), "corpus.saco"),
                 "adapt_sat-corpus.saco": (6, ("adapt", "--mode", "sat"), "corpus.saco"),
                 "adapt_sat-am.bundle": (7, ("adapt", "--mode", "sat"), "am.bundle")}


@pytest.mark.parametrize("seed, stage, name", TRAINING_FUZZ.values(),
                         ids=list(TRAINING_FUZZ))
def test_mutated_training_input_ends_in_documented_code(adapted_run, tmp_path, seed,
                                                        stage, name):
    """pretrain and adapt on a truncated or bit-flipped input end in exit 0
    or a code cli.py documents, never in an exception. They run on a copy
    of the fixture run: both stages remove bundles before they train."""
    shutil.copytree(adapted_run, tmp_path / "copy")
    assert not _fuzz(str(tmp_path / "copy" / "small.cfg"), tmp_path / "copy" / "run" / name,
                     seed, *stage)
