"""Generalized Bessel polynomials.

B_n(s; alpha, beta) = sum_{k=0}^{n} C(n,k) * (n+k+alpha-2)^(k) / beta^k * s^(n-k)

where (q)^(k) is the backward factorial q(q-1)...(q-k+1), empty product 1.
The k = 0 term supplies the monic s^n head. At alpha = beta = 2 these are
the classical Bessel filter polynomials.

`gbp` builds the terms t_k of the sum from the ratio

    t_(k+1) / t_k = (n-k)(n+k+alpha-1) / ((k+1) beta),

since C(n,k+1)/C(n,k) = (n-k)/(k+1) and (q+1)^(k+1) = (q+1) (q)^(k).
With alpha = a/b and beta = c/d the ratio is U_k / D_k, U_k =
(n-k)((n+k-1)b + a)d and D_k = (k+1)bc, so over the one denominator
D_0 D_1 ... D_(n-1) the term t_k is the integer

    U_0 ... U_(k-1) * D_k ... D_(n-1),

a prefix product of the U's times a suffix product of the D's: 3n
integer multiplications for the polynomial, no `Fraction`, and one gcd
when the result is reduced. When n+k+alpha-1 = 0 for some k < n
(alpha an integer from 2-2n to 1-n), U_k = 0 and the zero carries into
every later term, as it does in the backward factorial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ._record import Record
from .core import Polynomial

RationalLike = Union[Fraction, int, str]


class GbpParams(Record):
    """Degree and the two real shape parameters, stored as `Fraction`s."""

    def __init__(self, n: int, alpha: Fraction, beta: Fraction) -> None:
        alpha, beta = Fraction(alpha), Fraction(beta)
        super().__init__(locals())
        if n < 0:
            raise ValueError("degree must be non-negative")
        if beta == 0:
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
    # U_k and D_k of the module docstring; t_k = prod(ups[:k]) * suffix[k] / suffix[0]
    ups = [(n - k) * ((n + k - 1) * b + a) * d for k in range(n)]
    downs = [(k + 1) * b * c for k in range(n)]
    suffix = [1] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] * downs[k]
    nums = [0] * (n + 1)
    prefix = 1
    for k, up in enumerate(ups):
        nums[n - k] = prefix * suffix[k]
        prefix *= up
    nums[0] = prefix
    return Polynomial.from_integer_form(nums, suffix[0])


def gbp_of(n: int, alpha: RationalLike, beta: RationalLike) -> Polynomial:
    """Convenience wrapper building the params inline."""
    return gbp(GbpParams(n, alpha, beta))


def classical_bessel(n: int) -> Polynomial:
    """The alpha = beta = 2 specialization used by all-pole filter prototypes."""
    return gbp_of(n, 2, 2)


def positivity_necessary(params: GbpParams) -> bool:
    """Necessary condition for all-positive coefficients: alpha > 1-n and beta > 0.

    For n >= 1 this is equivalent to every coefficient of gbp(params) being
    strictly positive; at n = 0 the polynomial is the constant 1 regardless.
    """
    return params.alpha > 1 - params.n and params.beta > 0
