"""Host-speed probe: report timings at a reference host speed.

The hosts this benchmark runs on are shared: the same build took 7.0-10.1 s
in one process, and one-second means of any fixed loop vary by +-19 %.  No
amount of repeats inside a 30 s run removes a drift that lasts minutes, so
the harness measures the host while it measures the program.  A *probe* is a
fixed, allocation-heavy pure-Python loop (~1.5 ms) that shares no code with
the program under test.  Probes run about ``PROBE_HZ`` times a second on the
measuring thread itself - from a ``SIGALRM`` interval timer while a long call
into the program is running, from :meth:`HostClock.tick` at batch boundaries
while latencies are being timed (the timer is paused there, so no probe ever
lands inside a timed batch).  A timed window is then reported as::

    (wall seconds - seconds spent probing) * mean(REFERENCE_PROBE_S / probe)

that is, the time the same work takes on a host on which the probe takes
``REFERENCE_PROBE_S``.  Probes are spaced evenly in wall time, so the mean
of the speeds they saw is the work done per wall second.

Why this probe: over twenty back-to-back builds of one graph in one process
the wall time had an interquartile range of 21.6 % of its median, and 4.6 %
at the reference speed (``approximate_apsp``: 8.3 % and 2.4 %).  An integer
arithmetic loop and a random-access read loop in its place left 9-23 %.
The mean is taken over speeds, not durations, so a probe that a garbage
collection stretched to 40 ms barely moves it.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple

#: Probes per second of wall time (6 % of the run is spent probing).
PROBE_HZ = 40.0

#: A probe pushes ``PROBE_ITEMS`` through a heap and a dict, three times.
PROBE_ITEMS = 800

#: Probe duration on the reference host.  A constant: only ratios between
#: runs matter.  It is the authoring host's typical duration, so that
#: reported seconds stay close to wall seconds there.
REFERENCE_PROBE_S = 0.0015


class HostClock:
    """The probe log of one process and the windows normalised against it."""

    def __init__(self) -> None:
        self.stamps: List[float] = []       # perf_counter at probe start
        self.durations: List[float] = []
        self._period = 1.0 / PROBE_HZ
        self._timer_on = False

    # -- probing ------------------------------------------------------------
    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        for _ in range(3):
            heap: list = []
            seen = {}
            for i in range(PROBE_ITEMS):
                heapq.heappush(heap, ((i * 7919) % 1013, i))
                seen[i] = (i, heap[0])
            while heap:
                heapq.heappop(heap)
        self.stamps.append(start)
        self.durations.append(time.perf_counter() - start)

    def tick(self, now: float) -> None:
        """Probe if a period has passed since the last one (timer paused)."""
        if not self.stamps or now - self.stamps[-1] >= self._period:
            self.probe()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self._period, self._period)
        self._timer_on = True

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._timer_on = False

    @contextmanager
    def timer_paused(self) -> Iterator[None]:
        """For code that times short intervals and calls :meth:`tick`
        between them instead."""
        was_on = self._timer_on
        if was_on:
            self.stop_timer()
        try:
            yield
        finally:
            if was_on:
                self.start_timer()

    # -- reading ------------------------------------------------------------
    def _window(self, start: float, end: float) -> Tuple[int, int]:
        return (bisect.bisect_left(self.stamps, start),
                bisect.bisect_right(self.stamps, end))

    def probing(self, start: float, end: float) -> float:
        """Seconds spent inside probes that began in ``[start, end]``."""
        low, high = self._window(start, end)
        return sum(self.durations[low:high])

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` relative to the reference host
        (from the last probe before a window too short to hold one)."""
        low, high = self._window(start, end)
        durations = (self.durations[low:high]
                     or self.durations[max(0, high - 1):high])
        if not durations:
            return 1.0
        return statistics.fmean(REFERENCE_PROBE_S / d for d in durations)

    def reference_seconds(self, start: float, end: float) -> float:
        """The window's work, in seconds on the reference host."""
        return (end - start - self.probing(start, end)) * self.speed(start, end)

    def second_speeds(self) -> List[float]:
        """Host speed in each wall-clock second that saw probes."""
        buckets: dict = {}
        for stamp, duration in zip(self.stamps, self.durations):
            buckets.setdefault(int(stamp), []).append(
                REFERENCE_PROBE_S / duration)
        return [statistics.fmean(values) for values in buckets.values()]
