"""A fixed reference loop that gauges how fast the machine runs right now.

The reference machine is a shared VM whose speed drifts by a third or more
within minutes, in CPU time as much as in wall time (CPU steal stays near
zero: other tenants slow the same CPU down).  During a run, run.py times
blocks of this loop between the worker's operations, and each measured
time is divided by the slowdown of the blocks around it (block time /
nominal block time).  The reported times are thus reference seconds: what
the operation would have taken with the machine running this loop at its
nominal speed.  The measured seconds are reported next to them.

The loop never calls aprings, so a change to aprings cannot move it.  It
imitates the workloads' mix: small-integer and dict work, big-integer
coefficient arithmetic and a set of tuples several megabytes large.  It
runs in run.py's process, never in the measured worker, so it does not
touch the worker's memory.  NOMINAL_S is a fixed constant, not a
measurement: changing it rescales every reported time.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

NOMINAL_S = 0.040      # one round of the loop at nominal speed, wall and CPU
MIN_ROUNDS, MAX_ROUNDS = 2, 8   # rounds per block
SHARE = 0.04           # a block lasts about this share of the time before it


def rounds_for(seconds: float) -> int:
    """Rounds of a block that follows `seconds` of measured work.  The loop
    itself varies by a fifth from one round to the next, so a long
    operation, which only the blocks before and after it can gauge, gets
    more rounds than a short one."""
    return min(MAX_ROUNDS, max(MIN_ROUNDS, round(SHARE * seconds / NOMINAL_S)))


def _ints_and_coefficients() -> int:
    acc: dict = {}
    x = 1
    for i in range(3000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        key = (x >> 54, i & 7)
        acc[key] = acc.get(key, 0) + (x & 0xFFFF) * i
    coeffs = [1]
    for r in range(1, 100):
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return len(acc) + coeffs[0]


def _tuple_set() -> int:
    seen = set()
    x = 7
    for i in range(40000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seen.add((x & 0xFFFF, x >> 16, i))
    return sum(1 for t in list(seen)[::3] if (t[0], t[1], t[2]) in seen)


class Gauge:
    """Timed blocks of the reference loop.  Block times are perf_counter
    values, which on Linux share one monotonic clock across processes."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.slowdowns: list[tuple[float, float]] = []   # (wall, cpu) per block

    def measure(self, rounds: int = MIN_ROUNDS) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(rounds):
            _ints_and_coefficients()
            _tuple_set()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.ends.append(time.perf_counter())
        self.slowdowns.append((wall / rounds / NOMINAL_S, cpu / rounds / NOMINAL_S))

    def around(self, start: float, end: float) -> tuple[float, float]:
        """Mean (wall, cpu) slowdown of the last block that ended before
        `start` and the first that ended after `end` (or of the one that exists)."""
        near = []
        before = bisect_right(self.ends, start) - 1
        after = bisect_left(self.ends, end)
        if before >= 0:
            near.append(self.slowdowns[before])
        if after < len(self.ends):
            near.append(self.slowdowns[after])
        return sum(w for w, _ in near) / len(near), sum(c for _, c in near) / len(near)
