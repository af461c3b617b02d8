"""Host-speed calibration: a fixed kernel timed alongside the workload.

The benchmark runs on shared hosts whose speed drifts by 20-30% over tens of
seconds as other tenants come and go; a wall-clock figure from a 30 s run then
measures the host as much as wchip.  So, while a workload is timed, a SIGALRM
handler runs a fixed kernel every ``PERIOD_S`` and records how long it took.
The kernel is a sparse polynomial expansion over a dict of occupation tuples,
the kind of pure-Python work the Fock engine does, but written here and not
imported from wchip, so a change to wchip leaves it alone.  Each timed item is
scaled by ``KERNEL_REF_S`` over the median kernel time around it: the result
is the item's time on a host of the reference speed, on which the kernel
takes ``KERNEL_REF_S``.  A faster wchip moves the scaled time exactly as much
as the raw one; host drift largely cancels.

Time spent in the handler is kept out of the workload's timings: the
workloads time themselves with :func:`clock`, which stops while the kernel
runs.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
WINDOW_S = 1.0
#: Typical median kernel time of a 30 s run on the host that recorded the
#: baseline in README.md (2-vCPU Intel Xeon VM, Python 3.11).
KERNEL_REF_S = 0.0032

MODES = 10
# the rows of a fixed operator substitution over MODES modes
_ROWS = tuple(
    tuple((j, complex(math.cos(i + j), math.sin(i * j + 1)) / 3.0) for j in range(MODES))
    for i in range(MODES)
)
_spent = 0.0


def kernel() -> dict[tuple[int, ...], complex]:
    """Expand a product of four linear forms over ``MODES`` modes into a
    sparse dict of occupation tuples (715 of them), the way the Fock engine
    substitutes creation operators; 2-3 ms of pure-Python work on the
    reference host.  A working set this size tracked wchip's speed across
    host phases more closely than a smaller one."""
    poly = {(0,) * MODES: 1.0 + 0j}
    for i in (0, 3, 5, 7):
        nxt: dict[tuple[int, ...], complex] = {}
        for key, coeff in poly.items():
            for p, u in _ROWS[i]:
                nk = key[:p] + (key[p] + 1,) + key[p + 1 :]
                prev = nxt.get(nk)
                nxt[nk] = coeff * u if prev is None else prev + coeff * u
        poly = nxt
    return poly


def clock() -> float:
    """``perf_counter`` minus the time spent in calibration so far."""
    return perf_counter() - _spent


class Sampler:
    """Times :func:`kernel` every ``PERIOD_S`` of wall time while running."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        global _spent
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))
        _spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference speed over host speed for a span of perf_counter time:
        the median kernel time within ``WINDOW_S`` of the span, relative to
        ``KERNEL_REF_S``."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return KERNEL_REF_S / statistics.median(near or [s for _, s in self.samples])
