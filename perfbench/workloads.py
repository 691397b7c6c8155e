"""The three benchmark workloads and their correctness checks.

Every workload is closed-loop and single-process: one repetition of its
body runs to completion before the next starts. `accept-2seed` and
`alt-1seed` run in this interpreter; `pipeline` runs the five `senadapt`
stages one at a time as child processes (in process when traced).

Unless `probe` is off (the traced run), every timed segment runs with the
host-speed probe of hostspeed.py in the process doing the work, and is
reported both in wall seconds and in seconds at the reference speed (`_ref_s`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed

# acceptance-fixture recipe (tests/test_acceptance.py, ten_seed_experiment)
ACCEPT_CORPUS = dict(n_adult=7000, n_child=7000, split_fractions=(5 / 7, 1 / 7, 1 / 7))
ARMS = ("bat", "sat")
STAGE_ARGV = (("gen", ["gen"]), ("pretrain", ["pretrain"]),
              ("adapt_bat", ["adapt", "--mode", "bat"]),
              ("adapt_sat", ["adapt", "--mode", "sat"]), ("eval", ["eval"]))
REPORT_KEYS = (
    "senone_err.child.test.dnn", "senone_err.child.test.bat",
    "senone_err.child.test.sat", "disc_acc.test.bat", "disc_acc.test.sat",
    "disc_conf.test.bat", "disc_conf.test.sat",
    "senone_err.rel_reduction.sat_vs_bat", "senone_err.abs_reduction.sat_vs_dnn",
    "assess.pron.accuracy", "assess.pron.mse", "assess.flu.accuracy", "assess.flu.mse")
STAGE_TIMEOUT_S = 170
HOSTSPEED = str(Path(hostspeed.__file__).resolve())


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Rep:
    """Outcome of one repetition of a workload body."""
    wall_s: float = 0.0
    wall_ref_s: float = 0.0     # wall_s at the reference speed
    adapt_frames: int = 0       # training frames x epochs, summed over arms
    adapt_s: float = 0.0        # seconds spent in adversarial training
    adapt_ref_s: float = 0.0    # adapt_s at the reference speed
    stage_s: dict = field(default_factory=dict)  # pipeline stage -> seconds
    errs: dict = field(default_factory=lambda: {"dnn": [], "bat": [], "sat": []})
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    trajectory: object = field(default_factory=hashlib.sha256)

    def run_ops(self, steps) -> None:
        """Run (name, fn) steps in order; a step that raises or fails a
        check counts as failed, and so does every step after it."""
        self.attempted += len(steps)
        for i, (name, fn) in enumerate(steps):
            try:
                fn()
            except (Exception, SystemExit) as e:  # any failure of the program
                self.failed += len(steps) - i
                self.problems.append(f"{name}: {type(e).__name__}: {e}")
                return

    def add_log(self, log, what: str) -> None:
        for r in log.records:
            check(all(math.isfinite(v) for v in (r.objective, r.senone_ce,
                                                 r.domain_loss, r.disc_acc)),
                  f"{what}: non-finite TrainLog record at epoch {r.epoch}")
        self.trajectory.update(repr(log.trajectory_key()).encode())

    def add_err(self, arm: str, err: float) -> None:
        check(0.0 <= err <= 100.0, f"{arm} child error {err} outside [0, 100]")
        self.errs[arm].append(err)

    @property
    def digest(self) -> str:
        return self.trajectory.hexdigest()


def null_span(_name):
    return contextlib.nullcontext()


class NoProbe:
    """Stands in for hostspeed.Probe in the traced run: scales nothing."""
    samples = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def scale(self, since: int = 0) -> float:
        return 1.0


def probed(argv: list[str], src: Path, probe_file: Path) -> tuple[float, float]:
    """Run `python argv...` under the host-speed probe; return its wall
    seconds and the factor to the reference speed."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, HOSTSPEED, str(probe_file), *argv],
                   env=child_env(src), check=True, timeout=STAGE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    return wall, hostspeed.scale(json.loads(probe_file.read_text()))


# ---------------------------------------------------------------------------
# in-process training workloads


class InProcess:
    """Pretrain, then bat and sat adversarial arms, per seed, in this process.

    accept-2seed: seeds s and s+1, gradient reversal, with the identity
    reference discriminator. alt-1seed: seed s, alternating updates, no
    reference discriminator.
    """

    def __init__(self, sa, seeds, update_scheme: str, ref_disc: bool, workdir: Path):
        self.sa = sa
        self.seeds = seeds
        self.update_scheme = update_scheme
        self.ref_disc = ref_disc
        self.workdir = workdir
        self.probe = True
        self.corpora = None

    def _generate(self):
        cfg = self.sa.synthdata.GeneratorConfig
        return [self.sa.synthdata.generate_corpus(cfg(seed=s, **ACCEPT_CORPUS))
                for s in self.seeds]

    def setup_once(self, src: Path) -> tuple[float, float]:
        """Interpreter start and package import in a fresh process, plus the
        corpus generation this workload does before its first training step.
        Returns wall seconds and seconds at the reference speed."""
        start_s, start_k = probed(["-c", "import senadapt"], src,
                                  self.workdir / "probe.json")
        with hostspeed.Probe() as probe:
            t0 = time.perf_counter()
            self.corpora = self._generate()
            gen_s = time.perf_counter() - t0
        return start_s + gen_s, start_s * start_k + gen_s * probe.scale()

    def body(self, span=null_span) -> Rep:
        """One repetition; `span` is unused, the tracer wraps the modules."""
        rep = Rep()
        with hostspeed.Probe() if self.probe else NoProbe() as probe:
            t0 = time.perf_counter()
            for s, corpus in zip(self.seeds, self.corpora):
                self._seed(rep, s, corpus, probe)
            rep.wall_s = time.perf_counter() - t0
        rep.wall_ref_s = rep.wall_s * probe.scale()
        return rep

    def traced_prelude(self) -> None:
        """Generate the corpora again, so that the traced run sees synthdata."""
        self._generate()

    def _seed(self, rep: Rep, s: int, corpus, probe) -> None:
        sa = self.sa
        models, training, evaluate = sa.models, sa.training, sa.evaluate
        view = corpus.training_view("train")
        st = {}

        def pretrain():
            am = models.build_adult_am(20, [64, 64], 10, rng=np.random.default_rng(s))
            rep.add_log(training.pretrain_adult_am(am, view, epochs=30, lr=0.1, seed=s),
                        "pretrain")
            check(am.frozen, "acoustic model not frozen after pretraining")
            rep.add_err("dnn", evaluate.child_senone_error(am, corpus))
            st["am"], st["am_bytes"] = am, am.net.store.serialize()

        def arm(mode):
            def run():
                am = st["am"]
                rng = np.random.default_rng(s)
                adapter = models.AdaptationNetwork(20, [64], rng=rng)
                disc = models.DomainDiscriminator(
                    20, [64], "senone_aware" if mode == "sat" else "binary",
                    K=10 if mode == "sat" else None, rng=rng)
                cfg = training.AdversarialConfig(mode=mode, epochs=30, seed=s,
                                                 update_scheme=self.update_scheme,
                                                 alpha_source="adapted")
                n0, t0 = len(probe.samples), time.perf_counter()
                log = training.adversarial_train(adapter, am, disc, view, cfg)
                adapt_s = time.perf_counter() - t0
                rep.adapt_s += adapt_s
                rep.adapt_ref_s += adapt_s * probe.scale(since=n0)
                rep.adapt_frames += len(view.frames) * cfg.epochs
                rep.add_log(log, f"adapt {mode}")
                check(am.net.store.serialize() == st["am_bytes"],
                      f"frozen acoustic model changed during {mode} adaptation")
                rep.add_err(mode, evaluate.child_senone_error(am, corpus, adapter))
                st[mode] = adapter
            return run

        def ref_disc():
            ref = models.DomainDiscriminator(20, [64], "binary",
                                             rng=np.random.default_rng(s + 1))
            rep.add_log(training.train_discriminator_only(
                ref, st["am"], view, epochs=40, lr=0.2, seed=s), "ref_disc")
            test = corpus.subset("test")
            for adapter in (None, st["bat"], st["sat"]):
                acc, conf = evaluate.domain_confusion(ref, adapter, test)
                check(0.0 <= acc <= 1.0 and 0.0 <= conf <= 1.0,
                      f"domain confusion out of range: acc={acc} conf={conf}")

        steps = [("pretrain", pretrain)] + [(f"adapt_{m}", arm(m)) for m in ARMS]
        if self.ref_disc:
            steps.append(("ref_disc", ref_disc))
        rep.run_ops([(f"seed {s} {name}", fn) for name, fn in steps])


# ---------------------------------------------------------------------------
# CLI pipeline workload


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Pipeline:
    """gen -> pretrain -> adapt bat -> adapt sat -> eval at the default
    config, each stage a `python -m senadapt.cli` child into a fresh
    directory. `inprocess=True` calls senadapt.cli.main instead (traced run)."""

    def __init__(self, sa, seed: int, src: Path, workdir: Path):
        self.sa = sa
        self.seed = seed
        self.src = src
        self.workdir = workdir
        self.inprocess = False
        self.probe = True
        # bound before any tracer is installed, so that the output checks
        # add no spans to the traced run
        self._load_corpus = sa.synthdata.load_corpus

    def _stage(self, argv: list[str]) -> tuple[int, str, float, float]:
        """Run one stage; return its exit code, the tail of its standard
        error, its wall seconds and the factor to the reference speed."""
        t0 = time.perf_counter()
        if self.inprocess:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.sa.cli.main(argv)
            return code, "", time.perf_counter() - t0, 1.0
        probe_file = self.workdir / "probe.json"
        probe_file.unlink(missing_ok=True)
        cmd = [HOSTSPEED, str(probe_file)] if self.probe else []
        proc = subprocess.run([sys.executable, *cmd, "-m", "senadapt.cli", *argv],
                              env=child_env(self.src), capture_output=True,
                              text=True, timeout=STAGE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        k = hostspeed.scale(json.loads(probe_file.read_text())) if self.probe else 1.0
        return proc.returncode, proc.stderr.strip()[-300:], wall, k

    def setup_once(self, src: Path) -> tuple[float, float]:
        """Interpreter start, senadapt.cli import and the gen stage. Returns
        wall seconds and seconds at the reference speed."""
        out = tempfile.mkdtemp(dir=self.workdir)
        try:
            code, err, wall, k = self._stage(["gen", "--out", out, "--seed", str(self.seed)])
            if code != 0:
                raise RuntimeError(f"gen exited {code}: {err}")
            return wall, wall * k
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def traced_prelude(self) -> None:
        pass

    def body(self, span=null_span) -> Rep:
        rep = Rep()
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            self._run(rep, out, span)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return rep

    def _run(self, rep: Rep, out: Path, span) -> None:
        training, synthdata, evaluate = self.sa.training, self.sa.synthdata, self.sa.evaluate
        stage_s, stage_ref_s, st = rep.stage_s, {}, {}

        def am_sha():
            return hashlib.sha256((out / "am.bundle").read_bytes()).digest()

        def after_gen():
            corpus = self._load_corpus(out / "corpus.saco")
            st["train_frames"] = int((corpus.split_tags == synthdata.SPLIT_TRAIN).sum())

        def after_pretrain():
            st["am_sha"] = am_sha()
            rep.add_log(training.TrainLog.read(out / "pretrain.log"), "pretrain")

        def after_adapt(mode):
            def run():
                check(am_sha() == st["am_sha"], f"am.bundle changed during adapt {mode}")
                rep.add_log(training.TrainLog.read(out / f"adapt_{mode}.log"), f"adapt {mode}")
                cfg = synthdata.parse_flat_config(
                    (out / f"config.adapt_{mode}.resolved").read_text())
                rep.adapt_frames += st["train_frames"] * int(cfg["epochs"])
                rep.adapt_s += stage_s[f"adapt_{mode}"]
                rep.adapt_ref_s += stage_ref_s[f"adapt_{mode}"]
            return run

        def after_eval():
            report = evaluate.read_report(out / "report.tsv")
            missing = [k for k in REPORT_KEYS if k not in report.metrics]
            check(not missing, f"report.tsv lacks {missing}")
            for arm in ("dnn", "bat", "sat"):
                rep.add_err(arm, report.metrics[f"senone_err.child.test.{arm}"])
            rep.trajectory.update((out / "report.tsv").read_bytes())

        def stage(name, argv, outputs_ok):
            def run():
                with span(f"cli.stage.{name}"):
                    code, err, wall, k = self._stage(argv + ["--out", str(out),
                                                             "--seed", str(self.seed)])
                stage_s[name], stage_ref_s[name] = wall, wall * k
                check(code == 0, f"exited {code}: {err}")
                outputs_ok()
            return run

        checks = {"gen": after_gen, "pretrain": after_pretrain,
                  "adapt_bat": after_adapt("bat"), "adapt_sat": after_adapt("sat"),
                  "eval": after_eval}
        rep.run_ops([(f"stage {n}", stage(n, argv, checks[n])) for n, argv in STAGE_ARGV])
        # the timed body is the five stages; output checks between them are not timed
        rep.wall_s = sum(stage_s.values())
        rep.wall_ref_s = sum(stage_ref_s.values())
