"""Host-speed reference: a fixed pure-Python loop timed between ops.

On a shared host the speed of pure-Python code drifts by 10-25% over
seconds to minutes, and that drift moves every op of a run together.
Timing this loop before and after each op and scaling the op's time by
``NOMINAL_S / reference time`` reports what the op would have taken at a
fixed host speed.  The loop uses only the standard library, so no change
to limithodge can move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Reference time at nominal host speed, a fixed scale: the loop's typical
# time on a 2-core x86 box.  Scaled times read as "ms at this speed".
NOMINAL_S = 0.012
PASSES = 3


def reference() -> float:
    """Seconds taken by the fixed loop (about NOMINAL_S): the fastest of PASSES passes.

    The first pass after the process has waited (on a child, say) can take
    twice as long while the core wakes up; the fastest pass is the speed
    the next op meets.
    """
    enabled = gc.isenabled()
    gc.disable()  # a collection of the benchmark's heap is not host speed
    try:
        return min(_one_pass() for _ in range(PASSES))
    finally:
        if enabled:
            gc.enable()


def _one_pass() -> float:
    start = time.perf_counter()
    acc = 0
    for j in range(40):
        s = Fraction(0)
        for i in range(1, 40):
            s += Fraction(i, i + 1) * Fraction(j + 2, i + 3)
        table = {k: k * k for k in range(200)}
        acc += len(str(s)) + sum(table.values()) % 7
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """An op's time at nominal host speed, from the references taken around it."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)
