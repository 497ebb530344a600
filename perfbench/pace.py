"""The pace of the machine: a fixed pure-Python kernel, timed.

The benchmark runs on shared hosts whose speed for interpreter work
switches between states some 30% apart, for seconds to minutes, so that
runs land in one state or the other. The harness times this kernel once
after every op, in the process that ran the op and outside the op's
timed region, and scales every reported time by
REFERENCE_S / (median kernel time). Times then read in seconds at a fixed
reference pace, and the host's state cancels out. The kernel does what
ehpcalc's hot paths do, building frozen dataclass instances and tuples,
hashing them into a dict and sorting; it shares no code with ehpcalc, so
a change to ehpcalc moves every scaled time by the same share as the
measured one, up to what the heap an op leaves behind does to the kernel.
"""
from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 0.0015  # about the kernel's time on the 2.1 GHz x86-64 host it was written on


@dataclass(frozen=True)
class _Cell:
    name: str
    word: tuple


def _kernel() -> float:
    start = time.perf_counter()
    counts: dict = {}
    cells = []
    for i in range(600):
        key = _Cell(f"e{i % 211}", (i % 7, i % 5, i % 3))
        counts[key] = counts.get(key, 0) + 1
        cells.append((key, str(i)))
    sorted(counts.items(), key=lambda kv: (kv[0].word, kv[0].name))
    return time.perf_counter() - start


def sample() -> float:
    """The time of the second of two kernel runs: the first one pays for
    fresh memory, which depends on what the process did before. The
    collector is off meanwhile, so the time does not depend on the size of
    the heap around the kernel."""
    gc.disable()
    try:
        _kernel()
        return _kernel()
    finally:
        gc.enable()


def factor(samples: list[float]) -> float:
    """Multiplier from measured seconds to seconds at the reference pace."""
    return REFERENCE_S / statistics.median(samples)
