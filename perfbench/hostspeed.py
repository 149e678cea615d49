"""Host speed, sampled while the benchmark measures, and times scaled by it.

The benchmark shares its host with other tenants, and the speed of its cores
drifts by up to about 2x for seconds to minutes at a time. Within one
process the drift is common to everything that runs, so it can be measured
and taken out. While a run measures, an interval timer interrupts the main
thread every INTERVAL_S seconds and runs fixed reference bursts, each a
sample of the host's speed at that moment, of one or both kinds:

- ``python``: a loop of small numpy gathers, reductions and dict updates,
  the mix that handover_ie's Python-level code runs (tokenizer, CRF, the
  toy encoder and its tape);
- ``blas``: one (128 x 768) by (768 x 768) matrix product on the BLAS
  threads, the work that bounds a forward pass at the paper's 12x768 shape.
  A workload that runs no such forward pass samples no ``blas`` bursts:
  their BLAS threads would load the other core while the program runs.

``scaled(t0, t1, kind)`` is the time from t0 to t1 with the bursts that ran
inside it taken out, multiplied by NOMINAL_S over the mean duration of the
``kind`` bursts during the interval, or of the nearest MIN_SAMPLES ones
(about 0.8 s of host speed) when fewer ran inside it. It reads as the time
the interval would take on a host on which that burst takes NOMINAL_S
seconds. The bursts are benchmark code and do not change with handover_ie,
so a faster program still reads faster.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter
INTERVAL_S = 0.1
NOMINAL_S = 0.002  # either burst, roughly, on a fast core of the machine in README.md
MIN_SAMPLES = 8
PYTHON_STEPS = 400

_rng = np.random.Generator(np.random.PCG64(0))
_ROWS = _rng.standard_normal((512, 9))
_PICKS = [_rng.integers(0, 512, size=6) for _ in range(64)]
_HIDDEN = _rng.standard_normal((128, 768))
_WEIGHT = _rng.standard_normal((768, 768))


def _python() -> None:
    acc = 0.0
    seen = {}
    for i in range(PYTHON_STEPS):
        row = _ROWS[_PICKS[i & 63]].sum(axis=0)
        acc += float(np.logaddexp.reduce(row))
        seen[i & 255] = acc


def _blas() -> None:
    _HIDDEN @ _WEIGHT


BURSTS = {"python": _python, "blas": _blas}


class HostSpeed:
    """Samples the host's speed on a timer; scales intervals by it."""

    def __init__(self, kinds: tuple[str, ...]):
        self.starts: list[float] = []  # handler entry, in clock() time
        self.ends: list[float] = []    # handler exit
        self.took: dict[str, list[float]] = {kind: [] for kind in kinds}

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        start = clock()
        # a collection triggered by the burst's allocations would walk the
        # program's objects and read as a slow host
        collecting = gc.isenabled()
        gc.disable()
        for kind, took in self.took.items():
            t0 = clock()
            BURSTS[kind]()
            took.append(clock() - t0)
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.ends.append(clock())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def around_child(self, samples: int = MIN_SAMPLES // 2):
        """Time a child process: bursts before and after it, none while it runs.

        A burst run while a child works would share the child's core and
        read slow, so the timer is stopped until the child has ended.
        """
        self.stop()
        for _ in range(samples):
            self.sample()
        try:
            yield
        finally:
            for _ in range(samples):
                self.sample()
            self.start()

    def scaled(self, t0: float, t1: float, kind: str = "python") -> float:
        """Seconds from t0 to t1, bursts excluded, at NOMINAL_S per `kind` burst."""
        n = len(self.starts)
        if not n:
            raise RuntimeError("no host-speed samples; measure for longer")
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        own = sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        while hi - lo < min(MIN_SAMPLES, n):
            if hi == n or (lo > 0 and t0 - self.ends[lo - 1] <= self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return (t1 - t0 - own) * NOMINAL_S / statistics.fmean(self.took[kind][lo:hi])

    def stats(self) -> dict:
        return {"samples": len(self.starts),
                **{f"{kind}_burst_s_median": statistics.median(took)
                   for kind, took in self.took.items()}}
