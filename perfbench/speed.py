"""Machine-speed probe that turns measured seconds into quiet-machine seconds.

The benchmark shares a small virtual machine with other tenants, and their
load changes how fast the same Python code runs by up to a factor of two,
over spans of a few seconds.  A timer signal interrupts the benchmark every
PROBE_PERIOD_S of wall time and runs a small, fixed piece of stdlib-only
work of the same kind as the workload's (see PROBES).  Its duration,
against the probe's quiet duration, gives the speed of the machine at that
moment.  A measured interval is then reported as the
time it would have taken at quiet speed: its own duration, less the time
spent in the probe, times the mean speed over the probe samples taken
inside it.  The probe runs in the main thread; no thread is started.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

PROBE_PERIOD_S = 0.025

_SPARSE_TERMS = {
    (i, j): Fraction((7 ** (i + 2 * j + 20)) % (1 << 61) + 1, 3 ** (j % 5))
    for i in range(5)
    for j in range(5 - i)
}
_BIG = [Fraction(pow(7, 1071 + 2 * k, 1 << 3000) | 1, pow(11, 867 + 2 * k, 1 << 3000) | 1)
        for k in range(4)]


def probe_sparse():
    """A sparse bivariate product with 61-bit Fraction coefficients: the
    interpreter-bound work of MultiPoly arithmetic over Q."""
    out = {}
    for ea, ca in _SPARSE_TERMS.items():
        for eb, cb in _SPARSE_TERMS.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            p = ca * cb
            s = out.get(e)
            out[e] = p if s is None else s + p
    return out


def probe_bigint():
    """A few Fraction operations on 3000-bit parts: the big-integer gcd and
    multiplication work of coefficients that have grown large."""
    a, b, c, d = _BIG
    return (a * b + c) * d - a


# probe name -> (work, its duration on an idle core of the reference machine,
# Intel Xeon with 2 vCPUs: about the 1st percentile over minutes of samples)
PROBES = {
    "sparse": (probe_sparse, 0.00065),
    "bigint": (probe_bigint, 0.00060),
}


class SpeedProbe:
    """Samples machine speed from SIGALRM while active (a context manager)."""

    def __init__(self, kind: str = "sparse", period: float = PROBE_PERIOD_S):
        self.work, self.quiet = PROBES[kind]
        self.period = period
        self.starts = array("d")
        self.durations = array("d")
        self._old_handler = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def _samples_in(self, t0: float, t1: float):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self.durations[lo:hi]

    def quiet_seconds(self, windows):
        """(quiet, raw) seconds of the given (start, end) windows.

        raw is their total length less the probe time inside them; quiet
        scales raw by the mean speed the probe saw inside them.  With no
        sample inside (windows shorter than the period), the speed over
        every sample so far stands in.
        """
        raw = 0.0
        speeds = []
        for t0, t1 in windows:
            inside = self._samples_in(t0, t1)
            raw += (t1 - t0) - sum(inside)
            speeds.extend(self.quiet / d for d in inside)
        if not speeds:
            speeds = [self.quiet / d for d in self.durations] or [1.0]
        return raw * sum(speeds) / len(speeds), raw

    def summary(self) -> dict:
        d = sorted(self.durations)
        if not d:
            return {"samples": 0}
        return {
            "samples": len(d),
            "median_s": d[len(d) // 2],
            "min_s": d[0],
            "mean_speed": sum(self.quiet / x for x in d) / len(d),
        }
