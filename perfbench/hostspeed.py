"""Host-speed correction for times measured on a shared machine.

On a virtual machine that shares its physical cores with other tenants,
the speed of one vCPU drifts by up to 40% in phases that last from a few
seconds to about a minute.  On a 2-vCPU VM a fixed CPU loop took
10.4-14.4 ms as 2-second medians, and the medians of 8-second windows
spread by 0.23 (quartile distance over median).  A run of tens of seconds
cannot average such phases out, so the median of a run moves with the
host, not with the program.

The benchmark therefore runs a fixed probe, which calls no engine code,
between segments of measured work, and scales each segment's times by
``REFERENCE_S / probe``, with the probe time taken as the mean of the
probes on either side of the segment.  A scaled time is the time the work
would have taken on a host on which the probe takes ``REFERENCE_S``.  The
probe mixes the two kinds of work the engine does, NumPy window masks
over coordinate arrays and Python objects built from their hits, so that
contention slows it about as much as it slows the engine.

The probe must measure the host, never the program: it runs with the
garbage collector off and on warm data.  A probe that finds a thread
the process did not have when the clock was made (an engine worker, a
service dispatcher) marks the clock as ``disturbed``, and the run is
invalid, since that thread would compete with the probe.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

import numpy as np

#: The probe's time on an idle 2.1 GHz Xeon vCPU, the host the benchmark
#: was tuned on.  Scaled times are seconds at this speed.
REFERENCE_S = 0.0046

_REPEATS = 3  # the probe time is the fastest of these

_RNG = np.random.default_rng(20261017)
_LO = _RNG.random((8_000, 3))
_HI = _LO + _RNG.random((8_000, 3)) * 0.02
_WINDOWS = _RNG.random((8, 3)) * 0.6


def _kernel() -> int:
    found = 0
    for q_lo in _WINDOWS:
        q_hi = q_lo + 0.4
        rows = np.flatnonzero(((_LO <= q_hi) & (q_lo <= _HI)).all(axis=1))
        objects = [(int(i), float(_LO[i, 0]), float(_HI[i, 0])) for i in rows]
        index = {oid: lo for oid, lo, _ in objects}
        found += len(index)
    return found


def probe_seconds() -> float:
    """The fastest of a few runs of the probe kernel, with the GC off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_REPEATS):
            started = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if was_enabled:
            gc.enable()


class HostClock:
    """Scales the times of consecutive work segments to the reference speed.

    Call :meth:`start` before a timed region and :meth:`scale` right
    after each of its segments: it probes the host and returns the factor
    for the times measured since the previous probe.  A disabled clock
    never probes and always returns 1 (traced runs use one, since their
    per-layer times are reported as measured).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.disturbed = False
        self.factors: list[float] = []
        self._last = 0.0
        self._threads = set(threading.enumerate())

    def _probe(self) -> float:
        if not self._threads.issuperset(threading.enumerate()):
            self.disturbed = True
        return probe_seconds()

    def start(self) -> None:
        """Probe before the first segment of a timed region."""
        if self.enabled:
            self._last = self._probe()

    def scale(self) -> float:
        """Probe now; the factor for the work timed since the last probe."""
        if not self.enabled:
            return 1.0
        now = self._probe()
        factor = 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        self.factors.append(factor)
        return factor

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0
