"""Benchmark runner for senadapt.

    python3 perfbench/run.py --workload accept-2seed --seed 0 --seconds 38 --trace 0

Run from the root of a checkout. The program under test is the checkout's
own `src/senadapt`; the workload inputs are generated from --seed. With
--trace 0 the last line of standard output is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of one traced repetition. The line before it records the
host and the run's diagnostics. See perfbench/README.md for the rationale.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread for this process and every child it starts. The program's
# matrices are small (batch 128 by width 64), and OpenBLAS at its default of
# one thread per core hands each product to a second thread that spins
# between products: the program then keeps both cores of a two-core host
# busy for the same wall time, and its speed depends on the other core too,
# which the host-speed probe (hostspeed.py) does not see. Set before numpy
# is first imported, which reads it once.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import tracing  # noqa: E402
from workloads import STAGE_TIMEOUT_S, InProcess, Pipeline, child_env  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("accept-2seed", "alt-1seed", "pipeline")
SETUP_REPS = 7
CALIBRATION_ITERS = 5_000_000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**31 or args.seconds < 1:
        p.error("--seed must be in [0, 2**31) and --seconds at least 1")
    return args


def import_program():
    """Import senadapt from this checkout only."""
    if not (SRC / "senadapt" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'senadapt'} not found; run from a senadapt checkout")
    sys.path.insert(0, str(SRC))
    import senadapt
    import senadapt.cli
    if Path(senadapt.__file__).resolve().parent != SRC / "senadapt":
        sys.exit(f"error: imported senadapt from {senadapt.__file__}, not {SRC}")
    return senadapt


def blas_threads():
    """OpenBLAS thread count as the library reports it, or None."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def host_info() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "loadavg": os.getloadavg()}


def calibrate() -> float:
    """A fixed pure-Python loop: a diagnostic of how fast this host ran now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x += i
    return time.perf_counter() - t0


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def remember_trajectory(key: str, digest: str) -> str | None:
    """Record the trajectory digest for (workload, seed, source) and return
    the one an earlier run of the same source and seed recorded, if any."""
    path = STATE / "trajectories.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    earlier = seen.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None if earlier == digest else earlier


def cli_startup_s() -> float:
    """Interpreter start plus `import senadapt.cli` in a fresh process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import senadapt.cli"], env=child_env(SRC),
                   check=True, timeout=STAGE_TIMEOUT_S)
    return time.perf_counter() - t0


def make_workload(sa, name: str, seed: int):
    if name == "accept-2seed":
        return InProcess(sa, (seed, seed + 1), "gradient_reversal", ref_disc=True,
                         workdir=STATE)
    if name == "alt-1seed":
        return InProcess(sa, (seed,), "alternating", ref_disc=False, workdir=STATE)
    return Pipeline(sa, seed, SRC, STATE)


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def child_errors(rep) -> dict:
    """Test-split child senone error per arm, averaged over the rep's seeds."""
    return {f"evaluate.child_err_pct.{arm}": mean(errs) for arm, errs in rep.errs.items()}


def end_to_end(reps, setup_s: float, peak_rss_mib: float) -> dict:
    """The gated metrics; times are in seconds at the reference speed."""
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "wall_s": statistics.median(r.wall_ref_s for r in reps),
        "setup_s": setup_s,
        "adapt_frames_per_s": statistics.median(
            r.adapt_frames / r.adapt_ref_s if r.adapt_ref_s else 0.0 for r in reps),
        "peak_rss_mib": peak_rss_mib,
        "ops_ok_ratio": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sa = import_program()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    STATE.mkdir(parents=True, exist_ok=True)
    host = host_info()
    calibration_s = calibrate()
    workload = make_workload(sa, args.workload, args.seed)

    setups = [workload.setup_once(SRC) for _ in range(SETUP_REPS)]
    setup_s = statistics.median(ref for _, ref in setups)

    problems = []
    diag = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "calibration_s": calibration_s,
            "setup_reps_s": [wall for wall, _ in setups],
            "setup_reps_ref_s": [ref for _, ref in setups]}
    if args.trace:
        # per-layer times are plain wall time: no probe in any repetition
        workload.probe = False
        # one untraced repetition, then the same body with the wrappers on
        reps = [workload.body()]
        if args.workload == "pipeline":
            # compare tracing against the same in-process path it traces
            workload.inprocess = True
            reps.append(workload.body())
        tracer = tracing.Tracer()
        tracer.install(sa)
        try:
            workload.traced_prelude()
            traced = workload.body(span=tracer.span)
        finally:
            tracer.restore()
        startup_s = 0.0
        if args.workload == "pipeline":
            startup_s = statistics.median(cli_startup_s() for _ in range(SETUP_REPS))
        overhead = traced.wall_s / reps[-1].wall_s if reps[-1].wall_s else 0.0
        metrics = tracer.metrics(startup_s, overhead)
        metrics.update(child_errors(traced))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        diag["traced_wall_s"] = traced.wall_s
        diag["spans"] = len(tracer.names)
        all_reps = reps + [traced]
    else:
        # repeat the body, but start no repetition that would end after
        # --seconds by the last one's time (the first always runs)
        reps, t_start, t_rep = [], time.perf_counter(), 0.0
        while not reps or time.perf_counter() - t_start + t_rep <= args.seconds:
            t0 = time.perf_counter()
            reps.append(workload.body())
            t_rep = time.perf_counter() - t0
        # largest resident set of this process or any child it waited for
        rss = {who: resource.getrusage(who).ru_maxrss / 1024.0
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
        diag["maxrss_mib"] = {"self": rss[resource.RUSAGE_SELF],
                              "children": rss[resource.RUSAGE_CHILDREN]}
        metrics = end_to_end(reps, setup_s, max(rss.values()))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        all_reps = reps

    diag["rep_wall_s"] = [r.wall_s for r in all_reps]
    diag["rep_wall_ref_s"] = [r.wall_ref_s for r in all_reps]
    diag["rep_adapt_s"] = [r.adapt_s for r in all_reps]
    if args.workload == "pipeline":
        diag["rep_stage_s"] = [r.stage_s for r in all_reps]
    diag["child_err_pct"] = child_errors(all_reps[0])
    digests = sorted({r.digest for r in all_reps})
    diag["trajectory_sha256"] = digests
    if len(digests) != 1:
        problems.append(f"trajectory differs between repetitions: {digests}")
    attempted = sum(r.attempted for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    if not failed:
        key = f"{args.workload}:{args.seed}:{src_digest()}"
        earlier = remember_trajectory(key, digests[0])
        if earlier is not None:
            problems.append(f"trajectory {digests[0]} differs from an earlier run "
                            f"of the same source and seed ({earlier})")
    if [r.errs for r in all_reps].count(all_reps[0].errs) != len(all_reps):
        problems.append("child errors differ between repetitions")
    if set(metrics) != set(units):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for r in all_reps:
        problems += r.problems
    diag["problems"] = problems
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    print(json.dumps({"host": host, "diagnostics": diag}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
