"""Host speed, sampled beside timed intervals, to scale times to a reference host.

On a shared 2-core VM each core flips, every few hundred milliseconds,
between a fast and a slow state (about 1.7x apart, in CPU time as much as
in wall time), and the share of time spent slow drifts over minutes.  So a
run's timings follow its neighbours' load more than the program.  `Pace`
runs a fixed reference routine after every timed interval, for a quarter
of the interval's length, and keeps the CPU time of each repetition.  The
routine is the benchmark's own (dicts, lists, a sort, strings, small
allocations and a walk through a 512 KiB array); none of it comes from the
package, so a change to the program does not change it.

`scale(start, end)` is `REFERENCE_REP_S` over the median time of the
repetitions right before and after the interval (within a quarter of its
length, at least 2 ms), which ran in the same state as the interval.  A
measured time multiplied by it is the time the reference host would have
taken.  Scaling by a whole run's median speed instead steadies medians
but not tails: the slowest operations are the ones that ran slow, whatever
the share of slow time.
"""

from __future__ import annotations

import array
import bisect
import gc
import random
import statistics
from time import perf_counter, thread_time

# Median time of one repetition on the reference host (a 2-core x86 VM,
# Python 3.11).  It only sets the scale: scaled times read as that host's.
REFERENCE_REP_S = 0.0002
SHARE = 0.25      # repetition time per second of timed work
MARGIN_S = 0.002  # repetitions at least this close to an interval rate it
RING = 1 << 16    # entries of the array walked by each repetition


class Pace:
    def __init__(self):
        order = list(range(RING))
        random.Random(0).shuffle(order)
        self._ring = array.array("l", bytes(8 * RING))
        for here, there in zip(order, order[1:] + order[:1]):
            self._ring[here] = there
        self._at = 0
        self.stamps: list[float] = []   # start of each repetition
        self.reps: list[float] = []     # its thread CPU time

    def _rep(self) -> int:
        counts: dict[int, int] = {}
        pairs = []
        for i in range(200):
            key = (i * 7919) % 211
            counts[key] = counts.get(key, 0) + i
            pairs.append((key, i & 7))
        pairs.sort()
        text = ",".join(str(key) for key, _ in pairs[:100])
        ring, at = self._ring, self._at
        for _ in range(300):
            at = ring[at]
        self._at = at
        made = {}
        for i in range(150):
            made[(i, 3 * i)] = [i, str(i), (i,)]
        return len(text) + len(made) + sum(counts.values())

    def sample(self, seconds: float) -> None:
        """Repeat the routine for SHARE of `seconds`, at least once, with
        the collector off so that the program's heap does not slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            goal = SHARE * seconds
            spent = 0.0
            while True:
                start = perf_counter()
                cpu = thread_time()
                self._rep()
                took = thread_time() - cpu
                self.stamps.append(start)
                self.reps.append(took)
                spent += took
                if spent >= goal:
                    return
        finally:
            if enabled:
                gc.enable()

    def scale(self, start: float, end: float) -> float:
        """Reference over measured speed right around [start, end]."""
        margin = max(MARGIN_S, SHARE * (end - start))
        low = bisect.bisect_left(self.stamps, start - margin)
        high = bisect.bisect_right(self.stamps, end + margin)
        if low == high:   # none that close: the nearest one after it
            low, high = (low, low + 1) if low < len(self.reps) else (low - 1, low)
        return REFERENCE_REP_S / statistics.median(self.reps[low:high])

    def factor(self) -> float:
        """Median repetition time over the reference's: 1.2 is 20% slow."""
        return statistics.median(self.reps) / REFERENCE_REP_S
