"""Process setup shared by the benchmark's entry points.

Importing this module pins the BLAS/OpenMP pools to one thread (before numpy
is first imported) and puts the checkout's own ``src`` first on the import
path, so the benchmark always drives the source tree it sits next to.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import os
import signal
import sys
import time
from pathlib import Path

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Host speed. The shared host this benchmark was built on changes speed by up
# to 2x, in spells from under a second to minutes, and the interpreter-bound
# steps of a run all slow alike. A timed run therefore runs a fixed reference
# kernel every TICK_S (see Pace) and reports reference seconds: the wall
# seconds of a step, less the kernel runs inside it, times REFERENCE_S over
# the kernel's mean time around the step. That is what the step would take
# on a host that runs the kernel in REFERENCE_S, about this host's usual
# speed. The kernel is the benchmark's own code, so a change to the
# program moves the step and not the reference.
REFERENCE_S = 0.003
TICK_S = 0.05


class MissingProgram(RuntimeError):
    """The checkout holds no waterscreen sources to benchmark."""


def import_program():
    """Import waterscreen from this checkout's src/ and nowhere else."""
    if not (SRC / "waterscreen" / "__init__.py").is_file():
        raise MissingProgram(f"no waterscreen sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import waterscreen.cli

    origin = Path(waterscreen.cli.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingProgram(f"waterscreen was imported from {origin}, not {SRC}")
    return waterscreen


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI invocation in-process: (exit code, captured stdout, seconds).

    stdout is captured in memory so that subcommands printing a line per
    record (qc) do not time the terminal.
    """
    from waterscreen import cli

    buffer = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.run([str(a) for a in argv])
    return code, buffer.getvalue(), time.perf_counter() - t0


_LINES = [",".join(f"{(i * j) % 97 / 7:.3f}" for j in range(37)) for i in range(100)]
_ARRAY = []


def _kernel() -> float:
    """Fixed work in the program's mix, about a third each: integer
    arithmetic and dict updates, CSV-like parsing, a numpy sort and bincount
    (the equal-time mix of these tracked the host's speed best)."""
    import numpy

    if not _ARRAY:
        _ARRAY.append(numpy.random.default_rng(0).random(20_000))
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = table.get(i & 255, 0) + acc
    rows = [[float(cell) for cell in line.split(",")] for line in _LINES]
    values = _ARRAY[0]
    order = numpy.argsort(values)
    counts = numpy.bincount((values * 255).astype(numpy.int64), minlength=256)
    return acc + rows[-1][-1] + float(values[order[0]]) + float(counts[0])


class Pace:
    """Host speed, sampled through a timed run.

    While the context is open, a SIGALRM timer runs the reference kernel
    every TICK_S, in the main thread between two bytecodes of whatever is
    running, and records when each kernel run started and ended.
    ``seconds(t0, t1)`` converts a wall interval of the run into reference
    seconds.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._previous = None
        self._open = False

    def __enter__(self) -> "Pace":
        _kernel()  # warm-up, untimed
        self._open = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        self._open = False  # a signal still pending must not re-arm the timer
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if not self._open:
            return
        t0 = time.perf_counter()
        _kernel()
        self.ticks.append((t0, time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, TICK_S)  # re-armed after the run, so runs never nest

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1]: its wall time less
        the kernel runs inside it, scaled by REFERENCE_S over the mean time of
        those runs and of the nearest run before and after it."""
        if len(self._ends) != len(self.ticks):
            self._starts = [start for start, _ in self.ticks]
            self._ends = [end for _, end in self.ticks]
        lo = bisect.bisect_right(self._ends, t0)
        hi = bisect.bisect_left(self._starts, t1)
        inside = sum(min(end, t1) - max(start, t0) for start, end in self.ticks[lo:hi])
        around = self.ticks[max(lo - 1, 0): hi + 1]
        mean = sum(end - start for start, end in around) / len(around)
        return (t1 - t0 - inside) * REFERENCE_S / mean


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
