"""Speed of the host, measured with fixed kernels that belong to the benchmark.

The benchmark runs on shared virtual machines whose speed moves by up to 2x
between periods that last from seconds to minutes. CPU time grows with wall
time in those periods, so it cannot take them out. The runner therefore times
a kernel before and after each suite (and each set-up) it measures, and
scales the suite's wall time by the kernel's nominal time over the mean of the
two kernel times. A suite that takes 4 s while the kernel takes its nominal
time counts as 4 s; one that takes 6 s while the kernel takes 1.5 times its
nominal time also counts as 4 s.

The kernels use only the standard library and run with the cyclic garbage
collector off, so a change to the program cannot change their cost. They keep
almost nothing alive, so they do not raise the peak resident memory the
benchmark reports. A busy period does not slow every kind of work alike, so
each workload has its own mix of two kernels:

- growing: arithmetic on rationals whose integers grow, the kind of work the
  exact layers do;
- small: a long sum of small rationals, which is mostly interpreter overhead.

The mix of a workload is the one whose time moved in proportion to the
workload's (a slope near 1 of log workload time against log kernel time) on
the box that defined the benchmark, a 2-vCPU Intel Xeon virtual machine with
Python 3.11. There, `growing` alone moved with `exact-algebra` but moved
more than the two grid workloads; `small` alone moved with
`operator-calculus` but less than `exact-algebra`; `cz-toolbox` lies
between and follows an even mix. NOMINAL_S is each mix's median time on that
box.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Workload -> repetitions of each kernel in one sample.
MIXES = {
    "exact-algebra": {"growing": 45},
    "operator-calculus": {"small": 6},
    "cz-toolbox": {"growing": 22, "small": 3},
}
NOMINAL_S = {
    "exact-algebra": 0.18,
    "operator-calculus": 0.17,
    "cz-toolbox": 0.19,
}


def _growing(reps: int) -> int:
    total = Fraction(0)
    for _ in range(reps):
        g = Fraction(1, 3)
        for i in range(1, 400):
            g = g * Fraction(i + 7, i + 3) + Fraction(1, i * i + 1)
        total += g
    return total.numerator % 7


def _small(reps: int) -> int:
    total = Fraction(0)
    for _ in range(reps):
        for i in range(1, 1500):
            total += Fraction(i, i * i + 1)
    return total.denominator % 7


KERNELS = {"growing": _growing, "small": _small}


class HostClock:
    """The kernel mix of one workload."""

    def __init__(self, workload: str):
        self.mix = MIXES[workload]
        self.nominal = NOMINAL_S[workload]

    def sample(self) -> float:
        """Seconds one run of the mix takes now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for name, reps in self.mix.items():
                KERNELS[name](reps)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def scaled(self, wall: float, before: float, after: float) -> float:
        """Wall seconds of work bracketed by two samples, at nominal speed."""
        return wall * self.nominal / (0.5 * (before + after))
