"""Batch command-line pipeline: gen -> pretrain -> adapt -> eval.

Each subcommand reads a flat key=value config file, applies the --seed (and
adapt's --mode) override, writes its outputs and its resolved config in the
--out directory, and exits with a stable code on failure:

    2  config error (unknown key, bad value, a dim/K that disagrees
       with the corpus or the acoustic-model bundle, hidden widths of a
       bundle that disagree with the config's, generator settings
       whose frames overflow to NaN or Inf, or sizes this host cannot
       allocate)
    3  I/O error while writing outputs, in any stage (an output path
       that is a directory, an --out under a regular file); every read
       failure has a code of its own below
    4  required corpus file missing or malformed
    5  acoustic-model bundle is not frozen (adapt or eval)
    6  required model bundle missing or malformed, holding matrices that
       do not fit the layers its kind defines for the numbers in its
       manifest (dim, hidden widths, K, mode), or holding a model that
       gives non-finite outputs on the (finite) corpus in adapt or eval;
       an adapt arm found with one of its two bundles, or a discriminator
       that is not its arm's adversary for this corpus (mode, K)
    7  training diverged or saturated: a NaN or Inf met in a stage after
       it has read its inputs, in training or in scoring what it trained
       (no output of the stage is written), or a final epoch no better than
       a uniform guess: a mean CE of at least ln K on adult senones in pretrain
       or adapt, or of ln 5 on the levels in eval's assessment training (the
       resolved config and any log are written, no other output of the stage
       is left); a NaN or Inf of a loaded model is exit 6

Before it trains or writes, each stage removes the files PIPELINE lists for
it and for every later stage, but not a sibling adapt arm's: they were made
from the inputs it replaces. Each input has one reader, called in pipeline
order: adapt and eval share the acoustic model's, and eval reads each adapt
arm it finds whole. eval generates its assessment corpus from its own
assess_n and seed.

The config keys are RunConfig's settings (CONFIG_SCHEMA): seed, the fields of
GeneratorConfig (split_fractions as split_train, split_dev and split_test),
PretrainConfig (pretrain_*), AdversarialConfig (but update_scheme and
alpha_source), AssessConfig (assess_*) and the three hidden-width lists. Each
dataclass's validate() checks its fields; a bad one is exit 2, named by key.

Files are checked for their values as well as their layout: finite floats,
senone labels below K, domains in {0, 1}, split tags in {0, 1, 2} with both
domains in every split.

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

# The files each stage writes, in pipeline order. The stages of one step,
# the two adapt arms, are siblings: neither reads the other's files.
PIPELINE = (
    {"gen": ("corpus.saco", "config.gen.resolved")},
    {"pretrain": ("am.bundle", "pretrain.log", "config.pretrain.resolved")},
    {f"adapt_{mode}": (f"adapter_{mode}.bundle", f"disc_{mode}.bundle", f"adapt_{mode}.log",
                       f"config.adapt_{mode}.resolved") for mode in training.DISC_MODES},
    {"eval": ("report.tsv", "config.eval.resolved")},
)


class ConfigError(ValueError):
    pass


class StageError(Exception):
    """A stage cannot run; carries the documented exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclasses.dataclass
class RunConfig:
    """What one seed's run of the pipeline uses; seed replaces gen's and adv's."""
    seed: int = 0
    gen: synthdata.GeneratorConfig = dataclasses.field(default_factory=synthdata.GeneratorConfig)
    pretrain: training.PretrainConfig = dataclasses.field(default_factory=training.PretrainConfig)
    adv: training.AdversarialConfig = dataclasses.field(default_factory=training.AdversarialConfig)
    am_hidden: tuple[int, ...] = (64, 64)
    adapter_hidden: tuple[int, ...] = (64,)
    disc_hidden: tuple[int, ...] = (64,)
    assess: training.AssessConfig = dataclasses.field(default_factory=training.AssessConfig)

    def __post_init__(self):
        self.gen = dataclasses.replace(self.gen, seed=self.seed)
        self.adv = dataclasses.replace(self.adv, seed=self.seed)

    def validate(self) -> None:
        """ConfigError naming the key of the first setting out of its bound."""
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key in ("am_hidden", "adapter_hidden", "disc_hidden"):
            if min(getattr(self, key), default=1) < 1:
                raise ConfigError(f"{key} must hold widths >= 1, got {_text(getattr(self, key))}")
        for section in ("gen", "pretrain", "adv", "assess"):
            try:
                getattr(self, section).validate()
            except synthdata.SettingError as e:
                if (key := _KEY_AT.get(f"{section}.{e.name}")) is None:
                    raise  # a field no key sets, as update_scheme
                raise ConfigError(f"{key} must be {e.bound}, got {_text(e.value)}") from None


# key -> its place in RunConfig, a dotted path of fields and tuple items. The
# key order is the order of the resolved config text, which every report's
# fingerprint hashes.
CONFIG_SCHEMA = {
    "seed": "seed",
    **{key: f"gen.{key}" for key in ("K", "dim", "n_adult", "n_child", "within_class_std",
                                     "shift_coherence", "class_separation", "shift_profile")},
    **{f"split_{name}": f"gen.split_fractions.{i}"
       for i, name in enumerate(("train", "dev", "test"))},
    "assess_n": "assess.n",
    **{key: key for key in ("am_hidden", "adapter_hidden", "disc_hidden")},
    **{f"pretrain_{name}": f"pretrain.{name}" for name in ("epochs", "lr", "batch", "momentum")},
    # the CLI runs gradient reversal with alpha from the adapted features:
    # update_scheme and alpha_source are no keys, for library callers only
    **{key: f"adv.{key}" for key in ("mode", "reversal_coefficient", "lr_adapter",
                                     "lr_discriminator", "momentum", "epochs", "batch_size",
                                     "lambda_shape")},
    "assess_epochs": "assess.epochs",
    "assess_lr": "assess.lr",
}
# the key that names a setting in a message; the split keys share one
_KEY_AT = {place: key for key, place in CONFIG_SCHEMA.items()} | {
    "gen.split_fractions": "split_train, split_dev and split_test"}


def _at(obj, place: str):
    """The value at place in obj, a dataclass or a tuple."""
    for name in place.split("."):
        obj = obj[int(name)] if isinstance(obj, tuple) else getattr(obj, name)
    return obj


def _replaced(obj, place: str, value):
    """A copy of obj with value at place; obj itself is left as it is."""
    name, _, rest = place.partition(".")
    value = _replaced(_at(obj, name), rest, value) if rest else value
    if isinstance(obj, tuple):
        return obj[:int(name)] + (value,) + obj[int(name) + 1:]
    return dataclasses.replace(obj, **{name: value})


def _parse(text: str, default):
    """A key's text as its default's type; a tuple's comma-separated, empty if text is."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(t) for t in text.split(",")) if text else ()
    return type(default)(text)


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """The validated RunConfig of a config file, then of overrides (key -> value or None)."""
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
    cfg = RunConfig()
    for key, text in raw.items():
        try:
            value = _parse(text, _at(cfg, CONFIG_SCHEMA[key]))
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {e}")
        cfg = _replaced(cfg, CONFIG_SCHEMA[key], value)
    for key, value in overrides.items():
        if value is not None:
            cfg = _replaced(cfg, CONFIG_SCHEMA[key], value)
    cfg.validate()
    return cfg


def resolved_config_text(cfg: RunConfig) -> str:
    return "".join(f"{key}={_text(_at(cfg, place))}\n" for key, place in CONFIG_SCHEMA.items())


def _load(path: Path, loader, what: str, code: int):
    """loader(path), or StageError(code) when the file is missing or malformed."""
    try:
        return loader(path)
    except (OSError, FormatError) as e:
        raise StageError(code, f"cannot read the {what} {path}: {e}") from None


@contextmanager
def _finite_outputs():
    """A NaN or Inf from a loaded model on the (finite) corpus is exit 6."""
    try:
        yield
    except NonFiniteError as e:
        raise StageError(EXIT_NO_BUNDLE, f"a model bundle gives non-finite outputs: {e}") from None


def _read_corpus(cfg: RunConfig, out: Path) -> synthdata.SyntheticCorpus:
    """corpus.saco, of the config's dim and K (exit 4 or 2)."""
    corpus = _load(out / "corpus.saco", synthdata.load_corpus, "corpus", EXIT_NO_CORPUS)
    if (corpus.dim, corpus.K) != (cfg.gen.dim, cfg.gen.K):
        raise StageError(EXIT_CONFIG, f"corpus (dim, K) {corpus.dim, corpus.K} is not the config's")
    return corpus


def _read_am(cfg: RunConfig, out: Path, corpus) -> models.AdultAcousticModel:
    """am.bundle: frozen (else exit 5), of the config's dim, K and widths (2), finite (6)."""
    am = _load(out / "am.bundle", models.load_adult_am, "acoustic-model bundle", EXIT_NO_BUNDLE)
    if not am.frozen:
        raise StageError(EXIT_UNFROZEN, "acoustic-model bundle is not frozen")
    if (found := (am.net.in_dim, am.K, am.net.hidden)) != (corpus.dim, corpus.K, cfg.am_hidden):
        raise StageError(EXIT_CONFIG, f"AM (dim, K, am_hidden) {found} is not the config's")
    with _finite_outputs():
        am.posteriors(corpus.frames)
    return am


def _read_arm(cfg: RunConfig, out: Path, mode: str, corpus) -> tuple | None:
    """(adapter, discriminator) of an adapt arm, or None if neither bundle is there; exit 6
    unless both load with the corpus's dim, the discriminator as the arm's adversary at K,
    and exit 2 unless their hidden widths are the config's."""
    paths = (out / f"adapter_{mode}.bundle", out / f"disc_{mode}.bundle")
    if not any(p.exists() for p in paths):
        return None
    adapter = _load(paths[0], models.load_adapter, "adapter bundle", EXIT_NO_BUNDLE)
    disc = _load(paths[1], models.load_discriminator, "discriminator bundle", EXIT_NO_BUNDLE)
    if ({adapter.g.in_dim, disc.net.in_dim} != {corpus.dim}
            or not training.is_adversary(disc, mode, corpus.K)):
        raise StageError(EXIT_NO_BUNDLE, f"not a {mode} arm for (dim, K) {corpus.dim, corpus.K}")
    if (found := (adapter.g.hidden, disc.net.hidden)) != (cfg.adapter_hidden, cfg.disc_hidden):
        raise StageError(EXIT_CONFIG, f"the {mode} arm's (adapter_hidden, disc_hidden) {found} "
                                      f"are not the config's")
    return adapter, disc


def _check_converged(cfg: RunConfig, out: Path, stem: str, what: str, log, n: int) -> None:
    """Exit 7, resolved config written, unless the final mean CE beats a uniform guess over n."""
    ce = log.records[-1].senone_ce
    if not ce < math.log(n):
        _write_resolved(cfg, out, stem)
        raise StageError(EXIT_DIVERGED, f"{what} diverged or saturated: final-epoch mean "
                                        f"CE {ce:.4g} >= ln {n} = {math.log(n):.4g}")


def _write_resolved(cfg: RunConfig, out: Path, stem: str) -> None:
    (out / f"config.{stem}.resolved").write_text(resolved_config_text(cfg))


def _clear_from(out: Path, stage: str) -> None:
    """Remove the files PIPELINE lists for stage and for every later step."""
    step = next(i for i, stages in enumerate(PIPELINE) if stage in stages)
    later = [name for stages in PIPELINE[step + 1:] for files in stages.values()
             for name in files]
    for name in (*PIPELINE[step][stage], *later):
        (out / name).unlink(missing_ok=True)


def cmd_gen(cfg: RunConfig, out: Path) -> int:
    corpus = synthdata.generate_corpus(cfg.gen)
    out.mkdir(parents=True, exist_ok=True)
    _clear_from(out, "gen")
    synthdata.save_corpus(corpus, out / "corpus.saco")
    _write_resolved(cfg, out, "gen")
    print(f"wrote {out / 'corpus.saco'} ({corpus.frames.shape[0]} frames)")
    return 0


def cmd_pretrain(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    corpus = _read_corpus(cfg, out)
    rng = np.random.default_rng(cfg.seed)
    am = models.build_adult_am(cfg.gen.dim, cfg.am_hidden, cfg.gen.K, rng=rng)
    _clear_from(out, "pretrain")
    p = cfg.pretrain
    log = training.pretrain_adult_am(am, corpus.training_view("train"), epochs=p.epochs,
                                     lr=p.lr, seed=cfg.seed, batch_size=p.batch,
                                     momentum=p.momentum)
    dev = corpus.subset("dev", "adult")
    acc = float((am.posteriors(dev.frames).argmax(axis=1) == dev.senone_labels).mean())
    log.write(out / "pretrain.log")
    _check_converged(cfg, out, "pretrain", "pretraining", log, cfg.gen.K)
    _write_resolved(cfg, out, "pretrain")
    models.save_adult_am(out / "am.bundle", am)
    print(f"pretrained AM frozen; adult dev senone accuracy {acc:.3f}")
    return 0


def _where(log: training.TrainLog) -> str:
    """Where a run's forked-worker half ran, for a stage's last line."""
    return "on a second process" if log.second_process else "in process"


def cmd_adapt(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    corpus = _read_corpus(cfg, out)
    am = _read_am(cfg, out, corpus)
    view = corpus.training_view("train")
    acfg = cfg.adv
    rng = np.random.default_rng(cfg.seed)
    adapter = models.AdaptationNetwork(cfg.gen.dim, cfg.adapter_hidden, rng=rng)
    disc = models.DomainDiscriminator(cfg.gen.dim, cfg.disc_hidden,
                                      mode=training.DISC_MODES[acfg.mode], K=cfg.gen.K, rng=rng)
    _clear_from(out, f"adapt_{acfg.mode}")
    log = training.adversarial_train(adapter, am, disc, view, acfg)
    log.write(out / f"adapt_{acfg.mode}.log")
    _check_converged(cfg, out, f"adapt_{acfg.mode}", f"adaptation ({acfg.mode})", log, cfg.gen.K)
    _write_resolved(cfg, out, f"adapt_{acfg.mode}")
    models.save_adapter(out / f"adapter_{acfg.mode}.bundle", adapter)
    models.save_discriminator(out / f"disc_{acfg.mode}.bundle", disc)
    print(f"adversarial training ({acfg.mode}) done; "
          f"final discriminator accuracy {log.records[-1].disc_acc:.3f}; "
          f"discriminator half ran {_where(log)}")
    return 0


def _report_arms(corpus, am, arms: dict, report) -> dict:
    """Report every arm's child senone error and discriminator confusion."""
    errors = {"dnn": evaluate.child_senone_error(am, corpus, None)}
    report.set("senone_err.child.test.dnn", errors["dnn"])
    for mode, (adapter, disc) in arms.items():
        errors[mode] = evaluate.child_senone_error(am, corpus, adapter)
        report.set(f"senone_err.child.test.{mode}", errors[mode])
        acc, conf = evaluate.domain_confusion(disc, adapter, corpus.subset("test"))
        report.set(f"disc_acc.test.{mode}", 100.0 * acc)
        report.set(f"disc_conf.test.{mode}", conf)
    return errors


def cmd_eval(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    _clear_from(out, "eval")
    corpus = _read_corpus(cfg, out)
    am = _read_am(cfg, out, corpus)
    arms = {m: arm for m in training.DISC_MODES if (arm := _read_arm(cfg, out, m, corpus))}
    report = evaluate.MetricsReport(
        fingerprint=evaluate.config_fingerprint(resolved_config_text(cfg), cfg.seed),
        seed=cfg.seed)

    with _finite_outputs():
        errors = _report_arms(corpus, am, arms, report)
    # a relative reduction is undefined at a zero baseline
    if "bat" in errors and "sat" in errors and errors["bat"] > 0:
        report.set("senone_err.rel_reduction.sat_vs_bat",
                   evaluate.relative_reduction(errors["bat"], errors["sat"]))
    if "sat" in errors:
        report.set("senone_err.abs_reduction.sat_vs_dnn",
                   evaluate.absolute_reduction(errors["dnn"], errors["sat"]))

    feats, pron, flu = synthdata.generate_assessment_corpus(cfg.assess.n, cfg.seed)
    n_train = int(0.8 * len(feats))
    net = AssessmentNetwork(input_dim=feats.shape[1], rng=np.random.default_rng(cfg.seed))
    log = training.train_assessment_network(net, feats[:n_train], pron[:n_train],
                                            flu[:n_train], epochs=cfg.assess.epochs,
                                            lr=cfg.assess.lr, seed=cfg.seed)
    _check_converged(cfg, out, "eval", "assessment training", log, synthdata.ASSESS_LEVELS)
    for name, val in evaluate.assessment_metrics(
            net, feats[n_train:], pron[n_train:], flu[n_train:]).items():
        report.set(f"assess.{name}", val)

    evaluate.write_report(report, out / "report.tsv")
    _write_resolved(cfg, out, "eval")
    print(f"wrote {out / 'report.tsv'} with {len(report.metrics)} metrics; "
          f"assessment parameter half ran {_where(log)}")
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
        p.add_argument("--out", default="run", help="output directory (default: run)")
        if name == "adapt":
            p.add_argument("--mode", choices=tuple(training.DISC_MODES), default=None)
    args = parser.parse_args(argv)

    overrides = {"seed": args.seed, "mode": getattr(args, "mode", None)}
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
            return handler(cfg, Path(args.out))
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except NonFiniteError as e:  # a loaded model's NaN or Inf is exit 6, in _finite_outputs
        stage = f"adapt ({cfg.adv.mode})" if args.command == "adapt" else args.command
        print(f"error: {stage} diverged: {e}; no output written", file=sys.stderr)
        return EXIT_DIVERGED
    except (MemoryError, ValueError) as e:  # a size or setting the config checks let by
        print(f"config error: {args.command}: {e}; no output written", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:  # every read goes through _load: this is a failed write
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
