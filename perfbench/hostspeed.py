"""Host-speed probe: puts benchmark times on a steady clock.

On a shared host the speed of one core drifts by up to half within seconds
(a fixed pure-Python loop read 0.047 s in one stretch and 0.068 s in the
next), and the two cores of a two-core guest drift independently of each
other. Wall times of whole runs then spread more between runs than the
bounds of BENCHMARK.json allow, whatever the run length.

So every timed segment runs with this probe on, in the process that does the
work: every PERIOD_S a SIGALRM handler times a fixed piece of work in thread
CPU time, which the guest's scheduling of other processes does not inflate.
The piece is what the program mostly does: forward and backward passes of a
small numpy MLP at batch 128, with its own fixed arrays. The mean reading
over the segment says how slow this core was while the segment ran, and the
segment's seconds are scaled by REF_PROBE_S over that mean: they become
seconds at a fixed reference speed. Cutting the program's work by a tenth
still cuts them by a tenth, while the host's drift mostly cancels. The probe
costs about 1% of the time it runs in.

Measured on a 2-vCPU Intel Xeon guest, in two sets of 92-120 adaptation arms
of 1.5-2.5 s each: log arm time against log mean reading had slope 0.97-1.13
for this probe, so it scales by about as much as the program slows. A
pure-Python loop gave 1.35-1.58 (it undercorrects), and the same MLP probe
run after an untimed warm-up step 0.79-0.84 (it overcorrects: part of what
slows the program is losing its caches, which the probe feels only when it
too runs cold). Over windows of 25 s the quartile spread of the scaled times
was 0.058 and 0.049, against 0.103 and 0.079 unscaled.

The probe runs cold, so a program that leaves much less or much more of the
cache to it would move its readings somewhat: in place the readings are
about 15% above those of a probe run warm, which bounds that effect.

    python3 perfbench/hostspeed.py OUT.json -m senadapt.cli gen --out d
    python3 perfbench/hostspeed.py OUT.json -c "import senadapt"

runs a module or code string as `python -m` / `python -c` would, with the
probe on from the start, and writes the readings to OUT.json at exit.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys
import time

import numpy as np

PROBE_STEPS = 3
PERIOD_S = 0.1
# seconds one probe takes at the reference speed: its median reading on a
# 2-vCPU Intel Xeon guest (Python 3.11, numpy 2.4); any fixed value would
# do, this one keeps scaled seconds close to wall seconds there
REF_PROBE_S = 0.00080

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((128, 20))
_W = [_rng.standard_normal(shape) * 0.1 for shape in ((20, 64), (64, 64), (64, 10))]


def _mlp_steps(n: int) -> None:
    """n forward and backward passes of a 20-64-64-10 ReLU MLP at batch 128."""
    w1, w2, w3 = _W
    for _ in range(n):
        h1 = np.maximum(_X @ w1, 0.0)
        h2 = np.maximum(h1 @ w2, 0.0)
        g3 = h2 @ w3
        g3 -= g3.mean()
        g2 = (g3 @ w3.T) * (h2 > 0)
        g1 = (g2 @ w2.T) * (h1 > 0)
        (h2.T @ g3, h1.T @ g2, _X.T @ g1)


def probe_once() -> float:
    """Thread CPU seconds of PROBE_STEPS MLP steps."""
    t0 = time.thread_time()
    _mlp_steps(PROBE_STEPS)
    return time.thread_time() - t0


class Probe:
    """Samples probe_once() every PERIOD_S while active (main thread only)."""

    def __init__(self):
        self.samples: list[float] = []
        self._old = None

    def _tick(self, _signum, _frame):
        self.samples.append(probe_once())

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        probe_once()  # the first calls in a process run cold
        self.samples.append(probe_once())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, since: int = 0) -> float:
        """scale() of the readings from the `since`-th on (or the last one)."""
        return scale(self.samples[since:] or self.samples[-1:])


def scale(samples) -> float:
    """Factor from wall seconds to seconds at the reference speed."""
    return REF_PROBE_S * len(samples) / sum(samples)


def main(argv) -> None:
    out, flag, target, *rest = argv
    probe = Probe()
    try:
        with probe:
            if flag == "-m":
                sys.argv = [target, *rest]
                runpy.run_module(target, run_name="__main__", alter_sys=True)
            elif flag == "-c":
                sys.argv = ["-c", *rest]
                exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
            else:
                sys.exit("usage: hostspeed.py OUT.json (-m MODULE | -c CODE) [ARG ...]")
    finally:
        with open(out, "w") as fh:
            json.dump(probe.samples, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
