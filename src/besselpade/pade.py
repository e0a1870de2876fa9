"""Pade approximants of the unit delay e^(-s).

Two independent constructions of the same canonical rational function:

* `pade_exp` from the explicit factorial sum, over the integers:
      (n+m)! P_nm(s) = sum_{k=0}^{n} C(n,k) (m+k)! s^(n-k)
  and the numerator Q_nm(s) = P_mn(-s), the denominator with the roles
  of n and m swapped, evaluated at -s:
      (n+m)! Q_nm(s) = sum_{k=0}^{m} C(m,k) (n+k)! (-s)^(m-k)
  Both integer polynomials come from one routine, and the common factor
  (n+m)! cancels in the canonical form, so `pade_exp` forms no
  `Fraction` before it; `pade_denominator` and `pade_numerator` divide
  the same integers by (n+m)!.
* `pade_via_gbp` from generalized Bessel polynomials
      numerator   (n!/(n+m)!) * B_m(-s; n-m+2, 1)
      denominator (m!/(n+m)!) * B_n( s; m-n+2, 1)

The second form shows the same symmetry: the numerator is the
denominator's Bessel factor with n and m swapped, at -s. The numerator
degree is m, so the Bessel factor in it is B_m (a published statement of
this correspondence prints the degree index as n; that form has the
wrong degree and is rejected by the explicit-sum cross-check).

The defining property: the Maclaurin expansion of Q_nm - e^(-s) P_nm first
deviates from zero at the s^(n+m+1) term.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .core import (
    Polynomial,
    TransferFunction,
    TruncatedSeries,
    exp_series,
)
from .gbp import gbp_of


class PadeIndex(Record):
    """Denominator degree n, numerator degree m."""

    def __init__(self, n: int, m: int) -> None:
        super().__init__(locals())
        if n < 0 or m < 0:
            raise ValueError("degrees must be non-negative")


def _scaled_factor(n: int, m: int, sign: int) -> list[int]:
    """(n+m)! P_nm(sign*s), ascending: C(n,k) (m+k)! sign^(n-k) at s^(n-k)."""
    coeffs = [0] * (n + 1)
    f = math.factorial(m)  # (m+k)!
    for k in range(n + 1):
        coeffs[n - k] = math.comb(n, k) * f * sign ** (n - k)
        f *= m + k + 1
    return coeffs


def pade_numerator(idx: PadeIndex) -> Polynomial:
    """Q_nm before canonical reduction: Q_nm(s) = P_mn(-s)."""
    scale = math.factorial(idx.n + idx.m)
    return Polynomial.from_integer_form(_scaled_factor(idx.m, idx.n, -1), scale)


def pade_denominator(idx: PadeIndex) -> Polynomial:
    """P_nm before canonical reduction."""
    scale = math.factorial(idx.n + idx.m)
    return Polynomial.from_integer_form(_scaled_factor(idx.n, idx.m, 1), scale)


def pade_exp(idx: PadeIndex) -> TransferFunction:
    """The (n,m) approximant from the explicit factorial sums; the common
    factor (n+m)! cancels."""
    n, m = idx.n, idx.m
    return TransferFunction(
        Polynomial.from_integer_form(_scaled_factor(m, n, -1)),
        Polynomial.from_integer_form(_scaled_factor(n, m, 1)),
    )


def pade_via_gbp(idx: PadeIndex) -> TransferFunction:
    """The same approximant assembled from generalized Bessel polynomials."""
    n, m = idx.n, idx.m
    delta = Fraction(n - m + 2)
    alpha = Fraction(m - n + 2)
    num = gbp_of(m, delta, 1).scale_substitute(-1)
    den = gbp_of(n, alpha, 1)
    num = num * Fraction(math.factorial(n), math.factorial(n + m))
    den = den * Fraction(math.factorial(m), math.factorial(n + m))
    return TransferFunction(num, den)


def pade_order_defect(idx: PadeIndex, terms: int) -> int:
    """Index of the first nonzero Maclaurin coefficient of Q - e^(-s) P.

    Contract: equals n + m + 1. `terms` must look far enough to see it.
    """
    if terms <= idx.n + idx.m + 1:
        raise ValueError("terms must exceed n + m + 1")
    q = TruncatedSeries.from_polynomial(pade_numerator(idx), terms)
    p = TruncatedSeries.from_polynomial(pade_denominator(idx), terms)
    defect = q - exp_series(-1, terms) * p
    first = defect.first_nonzero()
    if first is None:
        raise ArithmeticError("no deviation found within the requested terms")
    return first
