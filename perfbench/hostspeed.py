"""Host-speed normalization for wall times on a shared machine.

On a host whose cores are shared with other tenants, the same pure-Python
work can take 1.3-2x longer from one second to the next, and the slow
spells last long enough that longer runs do not average them out.  CPU
time does not help: it slows down with wall time.

`HostSpeed` samples the speed of the CPU the process runs on.  Every
PERIOD seconds a SIGALRM handler runs `probe`, a fixed piece of Fraction
arithmetic of the kind orbitq does, twice, and stores speed = REF_PROBE_S /
duration of the second run.  A timed region is reported in reference
seconds: its wall time, less the probe time spent inside it, times the
mean speed sampled during the region.  That is the time the region would
take on a host where the probe takes REF_PROBE_S, assuming a slow spell
slows the probe and the program alike.  REF_PROBE_S is about the fastest
probe time seen on a 2-vCPU x86-64 host with Python 3.11.7, so there
reference seconds approximate wall seconds when the host is uncontended.

The process pins itself to one CPU, so the child processes it starts run
where the probe measures, and the probe interrupts them as it does the
parent.
"""

from __future__ import annotations

import bisect
import os
import signal
import time
from fractions import Fraction

PERIOD = 0.02
REF_PROBE_S = 7e-5
TRIM = 0.1  # share of samples dropped at each end of a window


def probe() -> Fraction:
    acc = Fraction(0)
    terms: dict = {}
    for k in range(1, 16):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 3)
        terms[(k, k + 1)] = acc
    return acc


class HostSpeed:
    def __init__(self):
        self.times: list = []
        self.speeds: list = []
        self.probe_seconds = 0.0

    def _sample(self, signum, frame):
        # the first run refills caches another process may have evicted
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        probe()
        t2 = time.perf_counter()
        self.times.append(t2)
        self.speeds.append(REF_PROBE_S / (t2 - t1))
        self.probe_seconds += t2 - t0

    def start(self) -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Trimmed mean of the speeds sampled in [start - PERIOD, end + PERIOD];
        the nearest samples stand in when none fall inside."""
        lo = bisect.bisect_left(self.times, start - PERIOD)
        hi = bisect.bisect_right(self.times, end + PERIOD)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        window = sorted(self.speeds[lo:hi])
        cut = int(len(window) * TRIM)
        window = window[cut:len(window) - cut]
        return sum(window) / len(window) if window else 1.0


class Timer:
    """Times calls into the program.  `wall` is their wall time less the
    probe time inside them; `ref` is the same in reference seconds."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self.wall = 0.0
        self._spans: list = []

    def __call__(self, fn, *args):
        host = self.host
        p0 = host.probe_seconds
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            busy = t1 - t0 - (host.probe_seconds - p0)
            self.wall += busy
            self._spans.append((t0, t1, busy))

    @property
    def ref(self) -> float:
        return sum(busy * self.host.speed(t0, t1) for t0, t1, busy in self._spans)
