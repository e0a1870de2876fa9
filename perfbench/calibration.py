"""Host-speed calibration for the timed runs.

The benchmark shares its host: the same code runs up to twice as fast at
some moments as at others, in spells of a fraction of a second to minutes.
Raw times of runs a few minutes apart then differ by more than any bound
worth setting. So between ops the runner times a fixed calibration loop
(stdlib only, never the library under test) and scales every op time
measured between two readings by `reference_s / mean(readings)`: the time
the op would take on a host where the loop takes `reference_s`. A change
to the library moves the scaled times as it moves the raw ones; a change
of the host's speed moves the loop as well and cancels out.

The loop resembles the workload's own work, because the host's spells do
not slow every kind of work alike. Timing 40 s of alternating ops and
loops, the log-log slope of op time on loop time was 0.66 for
`analyze pade:16,14` against the Fraction loop alone, and 0.92 against
Fractions plus big-integer gcds; for `sweep` and `compare` ops the
Fraction loop alone gave 0.94 and 0.88.
"""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction
from time import perf_counter

READ_EVERY_S = 0.05  # a reading is taken at the first op boundary after this


def _fractions() -> Fraction:
    """A harmonic sum in Fractions: small-integer gcds, as in Routh
    tables, float sweeps and the gamma interpolation."""
    total = Fraction(0)
    for k in range(1, 150):
        total += Fraction(1, k)
    return total


_RNG = random.Random(0)
_BIG = tuple(_RNG.getrandbits(1500) | 1 for _ in range(6))


def _fractions_and_integers() -> int:
    """The harmonic sum plus gcds of 1500-bit integers, the size that the
    exact gcds of high-degree approximants reach."""
    _fractions()
    return sum(math.gcd(3 * a + 1, 7 * b + 5) for a in _BIG for b in _BIG)


# name -> (loop, its time in seconds on the reference host: a 2-vCPU
# Intel Xeon VM, CPython 3, in its common state)
LOOPS = {
    "fractions": (_fractions, 5e-4),
    "fractions+integers": (_fractions_and_integers, 1e-3),
}


class HostSpeed:
    """Readings of one calibration loop, taken between ops."""

    def __init__(self, loop: str):
        self.name = loop
        self.loop, self.reference_s = LOOPS[loop]
        self.readings = array("d")
        self.last = self.read()
        self.at = perf_counter()

    def read(self) -> float:
        """The faster of two timings of the loop, so that an interrupt in
        one of them does not count."""
        best = math.inf
        for _ in range(2):
            start = perf_counter()
            self.loop()
            best = min(best, perf_counter() - start)
        self.readings.append(best)
        return best

    def due(self) -> bool:
        return perf_counter() - self.at >= READ_EVERY_S

    def factor(self) -> float:
        """A new reading; the scale for times measured since the last one."""
        new = self.read()
        factor = self.reference_s / ((self.last + new) / 2)
        self.last, self.at = new, perf_counter()
        return factor
