"""The machine's current speed, measured by a fixed probe, and times scaled by it.

The benchmark runs on shared hosts whose speed swings by a factor of up to
two over seconds to minutes, which moves every wall time with it.  A
probe of fixed pure-Python work runs between requests, outside their timed
spans; a request's time is scaled by how long the probe took around it:

    scaled = wall * REFERENCE_S / probe

so that every time reads as on a machine whose probe takes `REFERENCE_S`.
The probe mixes the work the program does: an integer loop over a small
list, a scan of tuples from `itertools.product` with a dict of counts,
big-integer and list arithmetic, and building and using an `argparse`
parser with subcommands, as the CLI does for every request.  Short
requests track the last part most closely.  It never calls the program,
so a change to the program cannot move it.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import statistics
import time

#: probe seconds at the reference speed (its median on a 2-vCPU Xeon VM)
REFERENCE_S = 0.012
#: a probe runs between requests once this many seconds passed since the last
EVERY_S = 0.25
#: a request's speed is the median probe within this many seconds of it
WINDOW_S = 0.5

clock = time.perf_counter


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes now."""
    start = clock()
    acc, table = 0, [0] * 64
    for k in range(20_000):
        acc = (acc * 1103515245 + k) & 0xFFFFFFFF
        table[acc & 63] += 1
    counts: dict = {}
    for word in itertools.product(range(3), repeat=7):
        key = sum(i * x for i, x in enumerate(word)) % 7
        counts[key] = counts.get(key, 0) + 1
    big, row = 3**400, [1] * 64
    for k in range(150):
        big = (big * 12345 + k) % (10**300 + 7)
        row = [(a * 3 + b) % 1000003 for a, b in zip(row, row[1:] + row[:1])]
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="probe")
        commands = parser.add_subparsers(dest="command")
        for name in ("alpha", "beta", "gamma", "delta", "epsilon", "zeta"):
            command = commands.add_parser(name, help=f"{name} command")
            for option in ("--n", "--m", "--r", "--a", "--b", "--kind", "--method"):
                command.add_argument(option, type=int if option in ("--n", "--m") else str, help=f"{name} {option}")
        parser.parse_args(["beta", "--n", "12", "--m", "7", "--kind", "hamming"])
    return clock() - start


class Probes:
    """Probe results of one pass, as (midpoint, seconds), in time order."""

    def __init__(self) -> None:
        probe()  # warm-up: the first run in a fresh interpreter is slower
        self.mids: list[float] = []
        self.secs: list[float] = []
        self.take()

    def take(self) -> None:
        start = clock()
        secs = probe()
        self.mids.append(start + secs / 2)
        self.secs.append(secs)

    def due(self) -> bool:
        return clock() - self.mids[-1] >= EVERY_S

    def around(self, start: float, end: float) -> float:
        """Median probe seconds within WINDOW_S of [start, end], always
        including the last probe before it and the first after it."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        before = bisect.bisect_left(self.mids, start) - 1
        after = bisect.bisect_right(self.mids, end)
        lo = min(lo, max(before, 0))
        hi = max(hi, min(after + 1, len(self.mids)))
        return statistics.median(self.secs[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor that turns wall seconds in [start, end] into reference seconds."""
        return REFERENCE_S / self.around(start, end)
