"""Batch command-line pipeline: gen -> pretrain -> adapt -> eval.

Each subcommand reads a flat key=value config file, applies --seed/--out
overrides, writes its resolved config next to its outputs, and exits with a
stable code on failure:

    2  config error (unknown key, bad value, a dim/K that disagrees
       with the corpus or the acoustic-model bundle, or generator settings
       whose frames overflow to NaN or Inf)
    3  I/O error while writing outputs, in any stage (an output path
       that is a directory, an --out under a regular file); every read
       failure has a code of its own below
    4  required corpus file missing or malformed
    5  acoustic-model bundle is not frozen
    6  required model bundle missing or malformed, holding matrices that
       do not fit the layers its kind defines for the numbers in its
       manifest (dim, hidden widths, K, mode), or holding a model that
       gives non-finite outputs on the (finite) corpus in adapt or eval
    7  training diverged or saturated: pretrain, adapt or eval's
       assessment training met a NaN or Inf, or the final epoch of pretrain
       or adapt has a mean senone CE on adult frames of at least ln K, no
       better than a uniform guess; the log of a finished run is written,
       and no output of the stage is left: each stage removes what it
       writes before it trains (pretrain am.bundle, adapt
       adapter_<mode>.bundle and disc_<mode>.bundle, eval report.tsv)

pretrain also removes every adapter and discriminator bundle before it
trains: they were trained against the acoustic model it replaces.

Files are checked for their values as well as their layout: finite floats,
senone labels below K, domains in {0, 1}, split tags in {0, 1, 2} with both
domains in every split, assessment levels in 1..5 on at least 50 rows.

The three evaluation arms (DNN baseline, BAT, SAT) share the one pretrained
acoustic-model bundle, so reported differences come from adaptation alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import evaluate, models, synthdata, training
from .models import AssessmentNetwork
from .nn import FormatError, NonFiniteError

EXIT_CONFIG, EXIT_IO, EXIT_NO_CORPUS, EXIT_UNFROZEN, EXIT_NO_BUNDLE = 2, 3, 4, 5, 6
EXIT_DIVERGED = 7


def _scalar_keys(config_cls) -> dict:
    """key -> (caster, default) for each field of a config dataclass but its
    seed (a key of its own) and its tuple fields (spelled out below)."""
    return {f.name: (type(f.default), f.default) for f in dataclasses.fields(config_cls)
            if f.name != "seed" and not isinstance(f.default, tuple)}


_GEN_KEYS = _scalar_keys(synthdata.GeneratorConfig)
_ADV_KEYS = _scalar_keys(training.AdversarialConfig)
_GEN_DEFAULTS = synthdata.GeneratorConfig()

# key -> (caster, default). The key order, the dataclasses' field order
# included, is the order of the resolved config text, which every report's
# fingerprint hashes.
CONFIG_SCHEMA = {
    "seed": (int, 0),
    **_GEN_KEYS,
    "shift_profile": (str, ",".join(str(s) for s in _GEN_DEFAULTS.shift_profile)),
    **{f"split_{name}": (float, frac)
       for name, frac in zip(("train", "dev", "test"), _GEN_DEFAULTS.split_fractions)},
    "assess_n": (int, 1500),
    "am_hidden": (str, "64,64"),
    "adapter_hidden": (str, "64"),
    "disc_hidden": (str, "64"),
    "pretrain_epochs": (int, 30),
    "pretrain_lr": (float, 0.1),
    "pretrain_batch": (int, 128),
    "pretrain_momentum": (float, 0.9),
    **_ADV_KEYS,
    "assess_epochs": (int, 150),
    "assess_lr": (float, 0.05),
    "out_dir": (str, "run"),
}


class ConfigError(ValueError):
    pass


class StageError(Exception):
    """A stage cannot run; carries the documented exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def load_run_config(path: str | None, overrides: dict) -> dict:
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        raw = synthdata.parse_flat_config(text)
    unknown = set(raw) - set(CONFIG_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for key, (cast, default) in CONFIG_SCHEMA.items():
        try:
            cfg[key] = cast(raw[key]) if key in raw else default
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {e}")
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    for key, (cast, _) in CONFIG_SCHEMA.items():
        if cast is float and not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    for key in ("am_hidden", "adapter_hidden", "disc_hidden"):
        _int_list(cfg[key])
    if not (cfg["seed"] >= 0 and cfg["pretrain_epochs"] >= 1 and cfg["pretrain_batch"] >= 1
            and cfg["assess_epochs"] >= 1
            and cfg["pretrain_lr"] > 0 and cfg["assess_lr"] > 0
            and 0 <= cfg["pretrain_momentum"] < 1
            and cfg["assess_n"] >= synthdata.MIN_ASSESS_N):
        raise ConfigError("need seed >= 0, pretrain_epochs, pretrain_batch and assess_epochs "
                          ">= 1, pretrain_lr and assess_lr > 0, pretrain_momentum in [0, 1), "
                          f"assess_n >= {synthdata.MIN_ASSESS_N}")
    _gen_config(cfg).validate()
    _adv_config(cfg).validate()
    return cfg

def resolved_config_text(cfg: dict) -> str:
    return "".join(f"{k}={cfg[k]}\n" for k in CONFIG_SCHEMA)


def fingerprint_config_text(cfg: dict) -> str:
    """Resolved config minus out_dir: where results land must not change
    what experiment they identify."""
    return "".join(f"{k}={cfg[k]}\n" for k in CONFIG_SCHEMA if k != "out_dir")


def _int_list(text: str) -> list[int]:
    widths = [int(t) for t in text.split(",") if t.strip()]
    if any(w < 1 for w in widths):
        raise ConfigError(f"layer widths must be positive, got {text!r}")
    return widths


def _gen_config(cfg: dict) -> synthdata.GeneratorConfig:
    return synthdata.GeneratorConfig(
        **{key: cfg[key] for key in _GEN_KEYS}, seed=cfg["seed"],
        shift_profile=tuple(float(s) for s in cfg["shift_profile"].split(",")),
        split_fractions=(cfg["split_train"], cfg["split_dev"], cfg["split_test"]))


def _adv_config(cfg: dict) -> training.AdversarialConfig:
    return training.AdversarialConfig(**{key: cfg[key] for key in _ADV_KEYS},
                                      seed=cfg["seed"])


def _load(path: Path, loader, what: str, code: int):
    """loader(path), or StageError(code) when the file is missing or malformed."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise StageError(code, f"{what} missing: {path}") from None
    except (OSError, FormatError) as e:
        raise StageError(code, f"{what} malformed: {path}: {e}") from None


def _check_dims(cfg: dict, corpus, am=None) -> None:
    """The config's dim and K must describe the corpus and acoustic model a stage reads."""
    found = {(corpus.dim, corpus.K)} | ({(am.net.in_dim, am.K)} if am else set())
    if found != {(cfg["dim"], cfg["K"])}:
        raise StageError(EXIT_CONFIG, f"config (dim, K) = ({cfg['dim']}, {cfg['K']}) disagrees "
                                      f"with the corpus or acoustic model: {sorted(found)}")


def _train(what: str, train, *args, **kwargs) -> training.TrainLog:
    """train(*args, **kwargs), with a NaN or Inf met in training as exit 7."""
    try:
        return train(*args, **kwargs)
    except NonFiniteError as e:
        raise StageError(EXIT_DIVERGED, f"{what} diverged: {e}; no output written") from None


@contextmanager
def _finite_outputs():
    """A NaN or Inf from a loaded model on the (finite) corpus is exit 6."""
    try:
        yield
    except NonFiniteError as e:
        raise StageError(EXIT_NO_BUNDLE, f"a model bundle gives non-finite outputs: {e}") from None


def _check_converged(what: str, log: training.TrainLog, K: int) -> None:
    """Exit 7 unless the final epoch's mean senone CE beats a uniform guess."""
    ce = log.records[-1].senone_ce
    if not ce < math.log(K):
        raise StageError(EXIT_DIVERGED, f"{what} diverged or saturated: final-epoch senone "
                                        f"CE {ce:.4g} >= ln K = {math.log(K):.4g}; "
                                        "no bundle written")


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved(cfg: dict, out: Path, stem: str) -> None:
    (out / f"config.{stem}.resolved").write_text(resolved_config_text(cfg))


def cmd_gen(cfg: dict) -> int:
    try:
        corpus = synthdata.generate_corpus(_gen_config(cfg))
    except ValueError as e:
        raise StageError(EXIT_CONFIG, f"{e}; nothing written") from None
    feats, pron, flu = synthdata.generate_assessment_corpus(cfg["assess_n"], cfg["seed"])
    out = _outdir(cfg)
    synthdata.save_corpus(corpus, out / "corpus.saco")
    synthdata.save_assessment_corpus(out / "assess.saac", feats, pron, flu)
    _write_resolved(cfg, out, "gen")
    print(f"wrote {out / 'corpus.saco'} ({corpus.frames.shape[0]} frames) "
          f"and {out / 'assess.saac'}")
    return 0


def cmd_pretrain(cfg: dict) -> int:
    out = _outdir(cfg)
    corpus = _load(out / "corpus.saco", synthdata.load_corpus, "corpus", EXIT_NO_CORPUS)
    _check_dims(cfg, corpus)
    rng = np.random.default_rng(cfg["seed"])
    am = models.build_adult_am(cfg["dim"], _int_list(cfg["am_hidden"]), cfg["K"], rng=rng)
    for name in ("am", "adapter_bat", "disc_bat", "adapter_sat", "disc_sat"):
        (out / f"{name}.bundle").unlink(missing_ok=True)
    log = _train("pretraining", training.pretrain_adult_am,
                 am, corpus.training_view("train"), epochs=cfg["pretrain_epochs"],
                 lr=cfg["pretrain_lr"], seed=cfg["seed"], batch_size=cfg["pretrain_batch"],
                 momentum=cfg["pretrain_momentum"])
    log.write(out / "pretrain.log")
    _write_resolved(cfg, out, "pretrain")
    _check_converged("pretraining", log, cfg["K"])
    models.save_adult_am(out / "am.bundle", am)
    dev = corpus.subset("dev", "adult")
    acc = float((am.posteriors(dev.frames).argmax(axis=1) == dev.senone_labels).mean())
    print(f"pretrained AM frozen; adult dev senone accuracy {acc:.3f}")
    return 0


def cmd_adapt(cfg: dict) -> int:
    out = _outdir(cfg)
    am = _load(out / "am.bundle", models.load_adult_am, "acoustic-model bundle",
               EXIT_NO_BUNDLE)
    corpus = _load(out / "corpus.saco", synthdata.load_corpus, "corpus", EXIT_NO_CORPUS)
    if not am.frozen:
        raise StageError(EXIT_UNFROZEN, "acoustic-model bundle is not frozen")
    _check_dims(cfg, corpus, am)
    view = corpus.training_view("train")
    with _finite_outputs():
        am.posteriors(view.frames)
    acfg = _adv_config(cfg)
    rng = np.random.default_rng(cfg["seed"])
    adapter = models.AdaptationNetwork(cfg["dim"], _int_list(cfg["adapter_hidden"]), rng=rng)
    disc = models.DomainDiscriminator(cfg["dim"], _int_list(cfg["disc_hidden"]),
                                      mode=training.DISC_MODES[acfg.mode], K=cfg["K"], rng=rng)
    for stem in ("adapter", "disc"):
        (out / f"{stem}_{acfg.mode}.bundle").unlink(missing_ok=True)
    log = _train(f"adaptation ({acfg.mode})", training.adversarial_train,
                 adapter, am, disc, view, acfg)
    log.write(out / f"adapt_{acfg.mode}.log")
    _write_resolved(cfg, out, f"adapt_{acfg.mode}")
    _check_converged(f"adaptation ({acfg.mode})", log, cfg["K"])
    models.save_adapter(out / f"adapter_{acfg.mode}.bundle", adapter)
    models.save_discriminator(out / f"disc_{acfg.mode}.bundle", disc)
    print(f"adversarial training ({acfg.mode}) done; "
          f"final discriminator accuracy {log.records[-1].disc_acc:.3f}")
    return 0


def _report_arms(out: Path, corpus, am, report) -> dict:
    """Report every arm's child senone error and discriminator confusion."""
    errors = {"dnn": evaluate.child_senone_error(am, corpus, None)}
    report.set("senone_err.child.test.dnn", errors["dnn"])
    test = corpus.subset("test")
    for mode in training.DISC_MODES:
        a_path = out / f"adapter_{mode}.bundle"
        d_path = out / f"disc_{mode}.bundle"
        if not a_path.exists():
            continue
        adapter = _load(a_path, models.load_adapter, "adapter bundle", EXIT_NO_BUNDLE)
        disc = (_load(d_path, models.load_discriminator, "discriminator bundle",
                      EXIT_NO_BUNDLE) if d_path.exists() else None)
        if adapter.g.in_dim != corpus.dim or disc and disc.net.in_dim != corpus.dim:
            raise StageError(EXIT_NO_BUNDLE, f"{mode} bundles do not take dim={corpus.dim}")
        errors[mode] = evaluate.child_senone_error(am, corpus, adapter)
        report.set(f"senone_err.child.test.{mode}", errors[mode])
        if disc:
            acc, conf = evaluate.domain_confusion(disc, adapter, test)
            report.set(f"disc_acc.test.{mode}", 100.0 * acc)
            report.set(f"disc_conf.test.{mode}", conf)
    return errors


def cmd_eval(cfg: dict) -> int:
    out = _outdir(cfg)
    (out / "report.tsv").unlink(missing_ok=True)
    corpus = _load(out / "corpus.saco", synthdata.load_corpus, "corpus", EXIT_NO_CORPUS)
    am = _load(out / "am.bundle", models.load_adult_am, "acoustic-model bundle",
               EXIT_NO_BUNDLE)
    _check_dims(cfg, corpus, am)
    report = evaluate.MetricsReport(
        fingerprint=evaluate.config_fingerprint(fingerprint_config_text(cfg), cfg["seed"]),
        seed=cfg["seed"])

    with _finite_outputs():
        errors = _report_arms(out, corpus, am, report)
    if "bat" in errors and "sat" in errors:
        report.set("senone_err.rel_reduction.sat_vs_bat",
                   evaluate.relative_reduction(errors["bat"], errors["sat"]))
    if "sat" in errors:
        report.set("senone_err.abs_reduction.sat_vs_dnn",
                   evaluate.absolute_reduction(errors["dnn"], errors["sat"]))

    assess_path = out / "assess.saac"
    if assess_path.exists():
        feats, pron, flu = _load(assess_path, synthdata.load_assessment_corpus,
                                 "assessment corpus", EXIT_NO_CORPUS)
        n_train = int(0.8 * len(feats))
        net = AssessmentNetwork(input_dim=feats.shape[1],
                                rng=np.random.default_rng(cfg["seed"]))
        _train("assessment training", training.train_assessment_network,
               net, feats[:n_train], pron[:n_train], flu[:n_train],
               epochs=cfg["assess_epochs"], lr=cfg["assess_lr"], seed=cfg["seed"])
        for name, val in evaluate.assessment_metrics(
                net, feats[n_train:], pron[n_train:], flu[n_train:]).items():
            report.set(f"assess.{name}", val)

    evaluate.write_report(report, out / "report.tsv")
    _write_resolved(cfg, out, "eval")
    print(f"wrote {out / 'report.tsv'} with {len(report.metrics)} metrics")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="senadapt",
        description="synthetic child-to-adult adversarial adaptation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen", "pretrain", "adapt", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        if name == "adapt":
            p.add_argument("--mode", choices=tuple(training.DISC_MODES), default=None)
    args = parser.parse_args(argv)

    overrides = {"seed": args.seed, "out_dir": args.out}
    if getattr(args, "mode", None) is not None:
        overrides["mode"] = args.mode
    try:
        cfg = load_run_config(args.config, overrides)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    handler = {"gen": cmd_gen, "pretrain": cmd_pretrain,
               "adapt": cmd_adapt, "eval": cmd_eval}[args.command]
    try:
        # overflow and NaN are reported by the stages' own finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            return handler(cfg)
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:  # every read goes through _load: this is a failed write
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
