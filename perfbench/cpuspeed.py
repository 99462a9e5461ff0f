"""Wall time scaled to a fixed CPU speed, measured by an in-process probe.

On the shared virtual machines this benchmark runs on, each virtual
CPU's speed flips between states about 1.5x apart and stays in one for
seconds at a time, independently of the other CPU.  A 10-second run
sees one or two such periods, so wall-clock medians of the same work
spread by up to 20-40 % from run to run, more than any bound worth
having.

``SpeedProbe`` samples the speed of the CPU the process is running on:
a timer signal runs a fixed pure-Python loop every ``PERIOD_S`` seconds
and records how long it took.  ``Speed.seconds(a, b)`` then converts
the wall interval ``[a, b]`` into reference seconds: probe time inside
it is left out, and each slice between probes is scaled by
``REFERENCE_S / (local probe time)``.  A slice run at the reference
speed keeps its length; one run at half speed counts half.  The
constants are the same on every commit, so reference seconds compare
commits on one machine the way wall seconds would on a quiet one.
"""

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02        # one probe per 20 ms of wall time
PROBE_ITERS = 4000     # about 0.3 ms per probe, 1.5 % of the run
REFERENCE_S = 3.0e-4   # probe time that defines reference speed
SMOOTH = 5             # probes per running median, about 100 ms


def _probe_loop():
    s = 0
    for i in range(PROBE_ITERS):
        s += i * i
    return s


class SpeedProbe:
    """Times ``_probe_loop`` from a SIGALRM handler while started.

    Python runs the handler between bytecodes of the main thread, so a
    long call into native code delays the next probe; ``Speed`` scales
    the whole gap by the probes on either side of it.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        _probe_loop()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        return Speed(self.starts, self.durations)


class Speed:
    """Probe samples of one run, smoothed, as a map from wall to reference time."""

    def __init__(self, starts, durations):
        self.starts = list(starts)
        self.durations = list(durations)
        half = SMOOTH // 2
        self.local = [
            statistics.median(self.durations[max(0, i - half):i + half + 1])
            for i in range(len(self.durations))
        ]

    def factor(self):
        """Median probe time over reference probe time: above 1 means slower than reference."""
        return statistics.median(self.durations) / REFERENCE_S if self.durations else 1.0

    def seconds(self, a, b):
        """Reference seconds of the work done in wall interval ``[a, b]``."""
        if not self.starts:
            return b - a
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        total = 0.0
        prev = a
        for k in range(i, j):
            total += (self.starts[k] - prev) * REFERENCE_S / self.local[k]
            prev = self.starts[k] + self.durations[k]
        # The tail after the last probe inside runs at the next probe's speed.
        nxt = self.local[min(j, len(self.local) - 1)]
        total += max(0.0, b - prev) * REFERENCE_S / nxt
        return total
