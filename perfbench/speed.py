"""The host's speed, read from a fixed computation run between ops.

On a shared host the CPU time of the same op moves by tens of percent from
one second to the next, and more between runs made minutes apart, with the
load of other tenants.  A `Gauge` times one fixed computation that shares no
code with weddle.  The benchmark runs it before every op and divides each
op's CPU time by the gauge readings around it, so a timing metric reads
the time the op would take on a host where the gauge takes `REF_S`.

A change to weddle cannot move the gauge: it runs only this module's code,
with the cyclic garbage collector paused so that weddle's heap size does
not leak into it.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

import numpy as np

# CPU seconds one gauge takes at the reference speed, a quiet moment of the
# 2-CPU host the bounds were set on.
REF_S = 0.0065


class Gauge:
    """The fixed inputs of the computation, built once."""

    def __init__(self):
        rng = random.Random(7)
        self.rows = [[Fraction(rng.randint(-9, 9)) for _ in range(7)] for _ in range(7)]
        self.matrix = np.array([[complex(rng.random(), rng.random()) for _ in range(4)]
                                for _ in range(4)])
        self.exponents = np.array([[rng.randint(0, 2) for _ in range(4)] for _ in range(10)])
        self.rhs = np.ones(4, dtype=np.complex128)

    def __call__(self) -> float:
        """CPU seconds of Fraction elimination on a 7x7 matrix and 400 small
        complex solves and monomial evaluations: the arithmetic of weddle's
        exact layers and of its path tracker."""
        gc.disable()
        try:
            start = time.process_time()
            m = [row[:] for row in self.rows]
            for c in range(7):
                p = next(i for i in range(c, 7) if m[i][c])
                m[c], m[p] = m[p], m[c]
                for i in range(c + 1, 7):
                    f = m[i][c] / m[c][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
            x = self.rhs
            for _ in range(400):
                x = np.linalg.solve(self.matrix, self.rhs + 0.01 * x)
                np.prod(x[np.newaxis, :] ** self.exponents, axis=1)
                np.linalg.norm(x)
            return time.process_time() - start
        finally:
            gc.enable()


def around(readings: list, index: int) -> float:
    """The host's speed during op `index`: the mean of reading `index`,
    taken just before the op, and reading `index + 1`, taken just after it.
    Of the windows tried, this one tracked the host best: on a fixed 1.2-s
    trial repeated for two minutes, it left a CPU-time spread of 12%, where
    the median of three readings on each side left 15% and the raw CPU time
    14%."""
    return (readings[index] + readings[index + 1]) / 2


def at_reference(cpu_s: float, reading_s: float) -> float:
    """CPU seconds measured at a gauge reading, as seconds at REF_S."""
    return cpu_s * REF_S / reading_s
