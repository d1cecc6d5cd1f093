"""A fixed reference kernel that measures how fast the host runs Python now.

On a shared host the speed a process gets drifts by a fifth or more over
seconds to minutes, in wall and CPU time alike: co-tenants contend for the
cores, caches and memory bandwidth.  The untraced run times this kernel just
before and just after each repetition and reports its wall-clock metrics at
a fixed reference pace, so most of the host's drift cancels out of them.

The simulator is less sensitive to that drift than the kernel: across 24
runs of the four workloads on a shared 2-vCPU Xeon host, the least-squares
slope of log raw ops/s on log kernel speed was 0.51-0.79 per workload (0.67
pooled, correlation 0.90-0.99) and that of log set-up time -0.69 to -1.32
(-0.83 pooled).  So a measurement is scaled by the kernel's speed relative
to the reference raised to :data:`ELASTICITY`, not by the plain ratio,
which would over-correct.

The kernel is standard library only and imports nothing from ``repro``, so
no change to the program moves it: a slower simulator reads as slower.  (A
calibration loop that times the code being measured would hide exactly that.)
Its work is random lookups in a table a few times larger than a core's L2
cache, each through a pseudo-random draw, which tracks the simulator's
speed more closely than a loop that stays in cache.
"""

from __future__ import annotations

import random
import time

#: Entries in the kernel's table (about 12 MiB of dict and strings).
TABLE_ENTRIES = 100_000
#: Lookups per sample (about 0.1 s).
STEPS = 100_000
#: Kernel steps per second that define the reference pace.
REFERENCE_STEPS_PER_S = 1e6
#: Relative change of the program's speed per relative change of the
#: kernel's, on a log scale (see the module docstring).
ELASTICITY = 0.7


class Pace:
    """The reference kernel and its table."""

    def __init__(self) -> None:
        self._table = {i: str(i) for i in range(TABLE_ENTRIES)}

    def steps_per_s(self) -> float:
        """Time one sample of the kernel."""
        table = self._table
        draw = random.Random(0).randrange
        total = 0
        start = time.perf_counter()
        for _ in range(STEPS):
            total += len(table[draw(TABLE_ENTRIES)])
        elapsed = time.perf_counter() - start
        if total <= 0:
            raise RuntimeError("reference kernel read nothing")
        return STEPS / elapsed


def rate_at_reference(per_s: float, steps_per_s: float) -> float:
    """A rate measured while the kernel ran ``steps_per_s``, at the
    reference pace."""
    return per_s * (REFERENCE_STEPS_PER_S / steps_per_s) ** ELASTICITY


def seconds_at_reference(seconds: float, steps_per_s: float) -> float:
    """A duration measured while the kernel ran ``steps_per_s``, at the
    reference pace."""
    return seconds * (steps_per_s / REFERENCE_STEPS_PER_S) ** ELASTICITY
