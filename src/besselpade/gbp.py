"""Generalized Bessel polynomials.

B_n(s; alpha, beta) = sum_{k=0}^{n} C(n,k) * (n+k+alpha-2)^(k) / beta^k * s^(n-k)

where (q)^(k) is the backward factorial q(q-1)...(q-k+1), empty product 1.
The k = 0 term supplies the monic s^n head. At alpha = beta = 2 these are
the classical Bessel filter polynomials.

`gbp` builds the terms t_k of the sum from the ratio

    t_(k+1) / t_k = (n-k)(n+k+alpha-1) / ((k+1) beta),

since C(n,k+1)/C(n,k) = (n-k)/(k+1) and (q+1)^(k+1) = (q+1) (q)^(k). That
is one exact step per coefficient, where each backward factorial alone
takes k. When n+k+alpha-1 = 0 for some k < n (alpha an integer from
2-2n to 1-n), the zero factor carries into every later term, as it does
in the backward factorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import Polynomial

RationalLike = Union[Fraction, int, str]


@dataclass(frozen=True)
class GbpParams:
    """Degree and the two real shape parameters."""

    n: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.n < 0:
            raise ValueError("degree must be non-negative")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")


def backward_factorial(q: Fraction, k: int) -> Fraction:
    """(q)^(k) = q(q-1)...(q-k+1); empty product 1 at k = 0."""
    if k < 0:
        raise ValueError("order must be non-negative")
    out = Fraction(1)
    for i in range(k):
        out *= q - i
    return out


def gbp(params: GbpParams) -> Polynomial:
    """Construct B_n(s; alpha, beta) as a monic degree-n polynomial."""
    n = params.n
    a, b = params.alpha.numerator, params.alpha.denominator
    c, d = params.beta.numerator, params.beta.denominator
    coeffs = [Fraction(1)] * (n + 1)
    for k in range(n):
        # the term ratio of the module docstring, alpha = a/b, beta = c/d
        step = Fraction((n - k) * ((n + k - 1) * b + a) * d, (k + 1) * b * c)
        coeffs[n - k - 1] = coeffs[n - k] * step
    return Polynomial(coeffs)


def gbp_of(n: int, alpha: RationalLike, beta: RationalLike) -> Polynomial:
    """Convenience wrapper building the params inline."""
    return gbp(GbpParams(n, Fraction(alpha), Fraction(beta)))


def classical_bessel(n: int) -> Polynomial:
    """The alpha = beta = 2 specialization used by all-pole filter prototypes."""
    return gbp_of(n, 2, 2)


def positivity_necessary(params: GbpParams) -> bool:
    """Necessary condition for all-positive coefficients: alpha > 1-n and beta > 0.

    For n >= 1 this is equivalent to every coefficient of gbp(params) being
    strictly positive; at n = 0 the polynomial is the constant 1 regardless.
    """
    return params.alpha > 1 - params.n and params.beta > 0
