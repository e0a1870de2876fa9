"""Kernels on ascending integer coefficient lists, shared inside the package.

A `Polynomial`'s integer form (`Polynomial.integer_form`) is such a list
over one positive denominator; these kernels see the lists alone, so a
caller carries the denominators itself. Each takes any sequence of ints,
returns a new list and leaves trailing zeros as the arithmetic makes
them.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Sequence


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two ascending integer coefficient lists, schoolbook,
    skipping the zero entries of both; nonempty a and b give
    len(a) + len(b) - 1 entries, trailing zeros kept."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(k, y) for k, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for k, y in terms:
                out[i + k] += x * y
    return out


def square(a: Sequence[int]) -> list[int]:
    """a * a for an ascending integer list, forming each cross product
    a_i a_k (i < k) once and doubling it; nonempty a gives 2 len(a) - 1
    entries, trailing zeros kept."""
    out = [0] * (2 * len(a) - 1 if a else 0)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x += x
            for t, y in enumerate(a[i + 1 :], 2 * i + 1):  # t = i + k
                if y:
                    out[t] += x * y
    return out


def int_add(a: Sequence[int], b: Sequence[int], sign: int = 1) -> list[int]:
    """a + sign * b for ascending integer coefficient lists, trailing
    zeros kept."""
    return [x + sign * y for x, y in zip_longest(a, b, fillvalue=0)]


def derivative(a: Sequence[int]) -> list[int]:
    """d/dx of an ascending integer coefficient list: k * a_k at x^(k-1)."""
    return [k * x for k, x in enumerate(a)][1:]


def ratio_strings(nums: Sequence[int], den: int) -> list[str]:
    """str(Fraction(c, den)) of each c for a positive den, in lowest terms
    by one gcd and without the "/q" when q = 1, with no Fraction built."""
    out = []
    for c in nums:
        g = math.gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out
