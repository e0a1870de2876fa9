"""Budak delay approximants and their gamma analysis.

G(s) = K * B_m[2*(gamma-1)*s; 2, 1] / B_n(2*gamma*s; 2, 1),
K = B_n(0;2,1) / B_m(0;2,1), gamma > 0.

The squared magnitude comes from one weight table: |B_k(j*omega; 2, 1)|^2
has normalized u^j coefficient c(k, k-j)/c(k, k), with
c(k, i) = C(k, i) (2i)!/i! (k+i)!. The normalized u^j coefficients of
numerator and denominator match only when (gamma/(gamma-1))^(2j) = A_j,
the ratio of the B_m and B_n weights; no gamma can equate two pairs at
once, so the magnitude flatness order tops out at 2, attained at the
roots of

    q(gamma) = 2(n-m) gamma^2 - 2(2n-1) gamma + (2n-1),

i.e. gamma = [(2n-1) +- sqrt((2n-1)(2m-1))] / (2(n-m)), the exact j = 1 pair.

The group delay's dependence on gamma is computed directly. Scaling s
scales the phase slope of `response` in a fixed way: if P has slope
num(u)/den(u), then P(sigma*s) has slope sigma*num(sigma^2 u) /
den(sigma^2 u), as polynomials. So the slopes of B_n(s; 2, 1) and
B_m(s; 2, 1), taken once over the integers, give those of the scaled
polynomials over Z[gamma][u] by substituting sigma = 2*gamma and
2*(gamma-1). One canonical group delay at a rational check point
(gamma = 2 by default) confirms the result and proves its numerator and
denominator coprime over Q(gamma). The
resulting integer polynomial block drives the delay-order and order-2
certificates used at irrational gamma, where no transfer function with
rational coefficients exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, zip_longest
from typing import Optional, Sequence, Union

from .core import (
    Enclosure,
    Polynomial,
    QuadSurd,
    TransferFunction,
    EvenRationalFunction,
    _convolve,
    _int_add,
    interpolate,
    nth_root_enclosure,
    poly_gcd,
)
from .gbp import gbp_of
from .response import FlatnessReport, Quantity, _phase_slope, flatness, group_delay
from .stability import Verdict, routh_hurwitz

Gamma = Union[Fraction, int, str, QuadSurd]


@dataclass(frozen=True)
class BudakParams:
    """Numerator degree m, denominator degree n, shape parameter gamma."""

    m: int
    n: int
    gamma: Union[Fraction, QuadSurd]

    def __post_init__(self):
        if not isinstance(self.gamma, QuadSurd):
            object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.n < 1:
            raise ValueError("denominator degree must be at least 1")
        if not 0 <= self.m <= self.n:
            raise ValueError("numerator degree must satisfy 0 <= m <= n")
        g = self.gamma
        positive = g.compare_to_rational(0) > 0 if isinstance(g, QuadSurd) else g > 0
        if not positive:
            raise ValueError("gamma must be positive")

    def rational_gamma(self) -> Fraction:
        g = self.gamma
        if isinstance(g, QuadSurd):
            if not g.is_rational:
                raise ValueError("this operation requires a rational gamma")
            return g.a
        return g


def budak_params(m: int, n: int, gamma: Gamma) -> BudakParams:
    return BudakParams(m, n, gamma)


def budak_tf(params: BudakParams) -> TransferFunction:
    """The canonical transfer function for rational gamma.

    At gamma = 1 or m = 0 the numerator degenerates to a constant and the
    result is the all-pole prototype of degree n.
    """
    g = params.rational_gamma()
    m, n = params.m, params.n
    bm = gbp_of(m, 2, 1)
    bn = gbp_of(n, 2, 1)
    k_const = Fraction(bn.coeff(0), bm.coeff(0))
    num = bm.scale_substitute(2 * (g - 1)) * k_const
    den = bn.scale_substitute(2 * g)
    return TransferFunction(num, den)


def _unit_magnitude(k: int) -> list[Fraction]:
    """c(k, k-j)/c(k, k) for j = 0..k, c(k, i) = C(k, i) (2i)!/i! (k+i)!:
    the normalized u^j weights of |B_k(j*omega; 2, 1)|^2."""
    f = math.factorial
    c = [math.comb(k, i) * f(2 * i) // f(i) * f(k + i) for i in range(k + 1)]
    return [Fraction(c[k - j], c[k]) for j in range(k + 1)]


def budak_magnitude_closed(params: BudakParams) -> EvenRationalFunction:
    """Squared magnitude from the closed form, in u = omega^2: the weights
    of B_m and B_n times (2(gamma-1))^(2j) and (2 gamma)^(2j) at u^j."""
    g = params.rational_gamma()
    num = [b * (2 * (g - 1)) ** (2 * j) for j, b in enumerate(_unit_magnitude(params.m))]
    den = [a * (2 * g) ** (2 * j) for j, a in enumerate(_unit_magnitude(params.n))]
    return EvenRationalFunction(Polynomial(num), Polynomial(den))


def coefficient_ratio(n: int, m: int, j: int) -> Fraction:
    """A_j: the value (gamma/(gamma-1))^(2j) must take to equate the
    normalized u^j magnitude coefficients."""
    if not 1 <= j <= m < n:
        raise ValueError("need 1 <= j <= m < n")
    return _unit_magnitude(m)[j] / _unit_magnitude(n)[j]


@dataclass(frozen=True)
class GammaSolutions:
    """Both solutions of (gamma/(gamma-1))^(2j) = A_j.

    branch_plus is gamma = r/(r+1), branch_minus is gamma = r/(r-1) with
    r = A_j^(1/2j); enclosure widths are at most 10^-precision. For j = 1
    the pair is also carried exactly as quadratic surds.
    """

    j: int
    a_j: Fraction
    branch_plus: Enclosure
    branch_minus: Enclosure
    precision: int
    exact: Optional[tuple[QuadSurd, QuadSurd]] = None


def gamma_candidates(n: int, m: int, j: int, precision: int = 12) -> GammaSolutions:
    """Validated numeric gamma pair for matching index j.

    The enclosure of r = A_j^(1/2j) is refined, doubling its digits from
    precision + 4, until it is separated from 1 and both branch intervals
    are at most 10^-precision wide. The enclosures are nested as the
    digits grow, so both conditions, once met, stay met.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    a = coefficient_ratio(n, m, j)
    if a == 1:
        raise ArithmeticError("unit coefficient ratio: the minus branch has no finite solution")
    bound = Fraction(1, 10**precision)
    digits = precision + 4
    while True:
        r = nth_root_enclosure(a, 2 * j, digits)
        if r.lo > 1 or r.hi < 1:
            plus = Enclosure(r.lo / (r.lo + 1), r.hi / (r.hi + 1))
            # r/(r-1) is decreasing on either side of 1
            minus = Enclosure(r.hi / (r.hi - 1), r.lo / (r.lo - 1))
            if plus.width <= bound and minus.width <= bound:
                break
        digits *= 2
    exact = None
    if j == 1:
        # the roots of q(gamma) solve (gamma/(gamma-1))^2 = A_1
        roots = gamma_order2(n, m)
        exact = (roots.gamma_minus, roots.gamma_plus)
    return GammaSolutions(j, a, plus, minus, precision, exact)


@dataclass(frozen=True)
class Order2Gamma:
    """Roots of q(gamma) = 2(n-m) gamma^2 - 2(2n-1) gamma + (2n-1).

    gamma_plus takes the + sign on the radical; gamma_minus the - sign.
    They always straddle 1 (q(1) = 1 - 2m < 0 for m >= 1).
    """

    gamma_plus: QuadSurd
    gamma_minus: QuadSurd
    quadratic: Polynomial


def gamma_order2(n: int, m: int) -> Order2Gamma:
    """The two gamma values reaching magnitude flatness order 2."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    half = Fraction(2 * n - 1, 2 * (n - m))
    spread = Fraction(1, 2 * (n - m))
    d = (2 * n - 1) * (2 * m - 1)
    quadratic = Polynomial([2 * n - 1, -2 * (2 * n - 1), 2 * (n - m)])
    return Order2Gamma(
        QuadSurd(half, spread, d),
        QuadSurd(half, -spread, d),
        quadratic,
    )


def _normalized_coeff(p: Polynomial, j: int) -> Fraction:
    return p.coeff(j) / p.coeff(0)


def magnitude_gamma_mismatch(n: int, m: int, j: int) -> Polynomial:
    """Denominator-minus-numerator u^j coefficient, both normalized to
    unit constant term, as an exact polynomial in gamma.

    Recovered by interpolating the canonical squared magnitude at integer
    gamma samples; a held-out sample and a degree cap verify the
    polynomial model. j may exceed the numerator degree m, in which case
    the numerator contributes nothing and the mismatch is the bare
    denominator coefficient.
    """
    if not (1 <= j <= n and 1 <= m < n):
        raise ValueError("need 1 <= m < n and 1 <= j <= n")
    bound = 2 * max(j, m)

    def mismatch_at(g: Fraction) -> Fraction:
        mag = budak_magnitude_closed(BudakParams(m, n, g))
        return _normalized_coeff(mag.denominator, j) - _normalized_coeff(mag.numerator, j)

    points = [(Fraction(t), mismatch_at(Fraction(t))) for t in range(1, bound + 4)]
    poly = interpolate(points)
    if poly.degree > bound:
        raise ArithmeticError("mismatch interpolation exceeded its degree bound")
    held_out = Fraction(bound + 4)
    if poly(held_out) != mismatch_at(held_out):
        raise ArithmeticError("mismatch interpolation failed the held-out check")
    return poly


@dataclass(frozen=True)
class MutualExclusionReport:
    """Certified separation of the gamma candidate sets across j."""

    n: int
    m: int
    precision: int
    candidates: tuple[GammaSolutions, ...]
    pairs_checked: tuple[tuple[int, int], ...]
    all_disjoint: bool
    all_above_half: bool


def mutual_exclusion(n: int, m: int, precision: int = 9) -> MutualExclusionReport:
    """Show no gamma equates two different coefficient pairs.

    Decided exactly. gamma/(gamma-1) is one-to-one in gamma and equals
    -r on the plus branch r/(r+1) and r on the minus branch r/(r-1) of
    index j, with r = A_j^(1/2j) > 0. So a branch of j meets one of
    j' != j only when A_j^(1/2j) = A_j'^(1/2j'), i.e. A_j^j' = A_j'^j, and
    both branches of j lie above 1/2 exactly when r > 1, i.e. A_j > 1.
    The candidate enclosures, at `precision`, are for display.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    cands = tuple(gamma_candidates(n, m, j, precision) for j in range(1, m + 1))
    pairs = tuple((c.j, d.j) for c, d in combinations(cands, 2))
    disjoint = all(c.a_j**d.j != d.a_j**c.j for c, d in combinations(cands, 2))
    above = all(c.a_j > 1 for c in cands)
    return MutualExclusionReport(n, m, precision, cands, pairs, disjoint, above)


@dataclass(frozen=True)
class DelayCoefficientPolys:
    """Group-delay coefficients as integer polynomials in gamma.

    numerator_polys[i-1] is the u^i numerator coefficient, likewise for
    the denominator; both share the constant term `scale` (the block is
    scaled jointly primitive, which pins the constant). The numerator runs
    to u^(n+m-1), the denominator to u^(n+m), and the two are coprime over
    Q(gamma): the block is the canonical group delay with gamma kept
    symbolic. The first pair coincides identically whenever m >= 2,
    reflecting delay flatness of order m.
    """

    m: int
    n: int
    numerator_polys: tuple[Polynomial, ...]
    denominator_polys: tuple[Polynomial, ...]
    scale: Fraction

    def a(self, i: int) -> Polynomial:
        if not 1 <= i <= len(self.numerator_polys):
            raise IndexError(f"numerator coefficient index {i} out of range")
        return self.numerator_polys[i - 1]

    def b(self, i: int) -> Polynomial:
        if not 1 <= i <= len(self.denominator_polys):
            raise IndexError(f"denominator coefficient index {i} out of range")
        return self.denominator_polys[i - 1]


# Z[gamma][u] arithmetic for the delay block, on plain ints: a polynomial
# in gamma is a list of its coefficients, a polynomial in u a list of
# polynomials in gamma, both in ascending powers; trailing zeros are allowed.
# Polynomials in gamma multiply by `core._convolve`, the kernel of
# `Polynomial.__mul__`.


def _u_add(p: list[list[int]], q: list[list[int]], sign: int = 1) -> list[list[int]]:
    return [_int_add(a, b, sign) for a, b in zip_longest(p, q, fillvalue=[])]


def _u_mul(p: list[list[int]], q: list[list[int]]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] = _int_add(out[i + k], _convolve(a, b))
    return out


def _scaled_phase_slope(
    p: Polynomial, sigma: list[int]
) -> tuple[list[list[int]], list[list[int]]]:
    """`response._phase_slope` of p(sigma(gamma) * s) over Z[gamma][u]:
    the u^k coefficients of its integer num and den times sigma^(2k+1)
    and sigma^(2k) (see `delay_gamma_polynomials`)."""
    num, den = _phase_slope(p)
    powers = [[1]]
    for _ in range(max(2 * len(den) - 2, 2 * len(num) - 1)):
        powers.append(_convolve(powers[-1], sigma))
    return (
        [[c * x for x in powers[2 * k + 1]] for k, c in enumerate(num)],
        [[c * x for x in powers[2 * k]] for k, c in enumerate(den)],
    )


def _unit_constant_rows(p: list[list[int]], rows: int) -> list[Polynomial]:
    """The u^1 .. u^rows coefficients of p over its constant term, which
    must not depend on gamma."""
    const = p[0]
    if any(const[1:]):
        raise ArithmeticError("delay constant term depends on gamma")
    padded = p + [[]] * (rows + 1 - len(p))
    return [Polynomial([Fraction(c, const[0]) for c in row]) for row in padded[1 : rows + 1]]


def delay_gamma_polynomials(
    m: int,
    n: int,
    gamma_samples: Optional[Sequence[Fraction]] = None,
) -> DelayCoefficientPolys:
    """The gamma dependence of every delay coefficient, in one exact pass.

    The group delay is unchanged when either polynomial is multiplied by a
    constant, so K drops out. `response._phase_slope` of B_n(s; 2, 1) and
    B_m(s; 2, 1) is taken over the integers. If P_sigma(s) = P(sigma s),
    then e_sigma(u) = e(sigma^2 u) and o_sigma(u) = sigma o(sigma^2 u), so
    num_sigma(u) = sigma num(sigma^2 u) and den_sigma(u) = den(sigma^2 u)
    as polynomials; substituting sigma = 2 gamma for B_n and
    sigma = 2(gamma-1) for B_m gives both slopes over Z[gamma][u], and
    psi_D - psi_N over a common denominator gives the block.
    B_k(s; 2, 1) = 2^k B_k(s/2; 2, 2) has
    p_1/p_0 = 1/2, since b_0 = b_1 for the classical Bessel polynomial, so
    the delay numerator and denominator both have the constant term
    (B_n(0) B_m(0))^2, free of gamma (the delay at omega = 0 is
    gamma - (gamma-1) = 1). Dividing by it and rescaling the whole block to
    jointly primitive integer polynomials gives the result.

    The block is checked at rational check points: the default single
    point gamma = 2, or every entry of `gamma_samples` (distinct, never 0
    or 1, more than 2(n+m) of them). At each, the canonical group delay of
    `budak_tf` normalized to unit constant term must equal the block's
    values, zeros included, and its denominator must keep full degree
    n+m. Full degree at one point proves numerator and denominator coprime
    over Q(gamma): a common factor of positive degree in u would divide the
    denominator, whose leading coefficient in u is proportional to
    gamma^(2n) (gamma-1)^(2m) and vanishes only at 0 and 1, so the factor
    would survive at that point and lower the reduced degree. A failed
    check raises ArithmeticError naming the point.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    bound = 2 * (n + m)
    if gamma_samples is None:
        checks = [Fraction(2)]
    else:
        checks = [Fraction(g) for g in gamma_samples]
        if len(set(checks)) != len(checks):
            raise ValueError("duplicated gamma sample")
        if any(g in (0, 1) for g in checks):
            raise ValueError("gamma samples must avoid 0 and 1")
        if len(checks) <= bound:
            raise ValueError(f"need more than {bound} samples, got {len(checks)}")

    # B_k(s; 2, 1) has integer coefficients
    dn, dd = _scaled_phase_slope(gbp_of(n, 2, 1), [0, 2])
    nn, nd = _scaled_phase_slope(gbp_of(m, 2, 1), [-2, 2])
    num_polys = _unit_constant_rows(_u_add(_u_mul(dn, nd), _u_mul(nn, dd), -1), n + m - 1)
    den_polys = _unit_constant_rows(_u_mul(dd, nd), n + m)

    for g in checks:
        delay = group_delay(budak_tf(BudakParams(m, n, g)))
        if delay.denominator.degree != n + m:
            raise ArithmeticError(
                f"delay denominator at gamma = {g} has degree "
                f"{delay.denominator.degree}, not {n + m}: coprimality not shown"
            )
        for got, polys in ((delay.numerator, num_polys), (delay.denominator, den_polys)):
            if got * (1 / got.coeff(0)) != Polynomial([1, *(p(g) for p in polys)]):
                raise ArithmeticError(f"delay block disagrees with the group delay at gamma = {g}")

    all_coeffs: list[Fraction] = [Fraction(1)]  # the shared unit constant
    for poly in (*num_polys, *den_polys):
        all_coeffs.extend(poly.coefficients)
    lam = 1 / Polynomial(all_coeffs).content()
    return DelayCoefficientPolys(
        m,
        n,
        tuple(p * lam for p in num_polys),
        tuple(p * lam for p in den_polys),
        lam,
    )


def delay_flatness_order_budak(params: BudakParams) -> FlatnessReport:
    """Flatness of the group delay; order m whenever m < n, gamma not 0 or 1."""
    if params.m < 1:
        raise ValueError("need numerator degree at least 1")
    g = params.rational_gamma()
    if g == 1:
        raise ValueError("gamma = 1 degenerates to the all-pole case")
    return flatness(group_delay(budak_tf(params)), quantity=Quantity.DELAY)


@dataclass(frozen=True)
class Order2Certificate:
    """Exact facts about the approximant at the order-2 gamma surds.

    Built entirely from rational arithmetic: divisibility of mismatch
    polynomials by the defining quadratic q, coprimality for the
    non-vanishing facts, and surd-vs-rational comparisons. Irrational
    gamma never enters a transfer function.
    """

    n: int
    m: int
    gammas: Order2Gamma
    u1_divisible_by_q: bool
    u2_coprime_to_q: bool
    magnitude_order: Optional[int]
    delay_lower_orders_match: bool
    delay_mth_coprime_to_q: bool
    delay_order: Optional[int]
    denominator_verdict: Verdict
    numerator_verdict: Verdict
    minimum_phase_plus: bool
    minimum_phase_minus: bool


def order2_certificate(n: int, m: int) -> Order2Certificate:
    """Certify magnitude order 2, delay order m, stability and phase type
    at both order-2 gamma branches."""
    gammas = gamma_order2(n, m)
    q = gammas.quadratic

    u1 = magnitude_gamma_mismatch(n, m, 1)
    u2 = magnitude_gamma_mismatch(n, m, 2)
    u1_div = q.divides(u1)
    u2_coprime = poly_gcd(q, u2).degree == 0
    magnitude_order = 2 if (u1_div and u2_coprime) else None

    block = delay_gamma_polynomials(m, n)
    lower = all(block.a(k) == block.b(k) for k in range(1, m))
    mth = block.a(m) - block.b(m)
    mth_ok = (not mth.is_zero) and poly_gcd(q, mth).degree == 0
    delay_order = m if (lower and mth_ok) else None

    # positive-scale invariance: the actual denominator is B_n(2*gamma*s)
    # with gamma > 1/2 on both branches, so its verdict equals B_n's
    den_verdict = routh_hurwitz(gbp_of(n, 2, 1)).verdict
    num_verdict = routh_hurwitz(gbp_of(m, 2, 1)).verdict

    # numerator zeros are those of B_m scaled by 2(gamma-1): left
    # half-plane iff gamma > 1, mirrored right iff gamma < 1
    plus_gt_one = gammas.gamma_plus.compare_to_rational(1) > 0
    minus_gt_one = gammas.gamma_minus.compare_to_rational(1) > 0
    min_phase_plus = plus_gt_one and num_verdict == Verdict.STRICT_HURWITZ
    min_phase_minus = minus_gt_one and num_verdict == Verdict.STRICT_HURWITZ
    return Order2Certificate(
        n,
        m,
        gammas,
        u1_div,
        u2_coprime,
        magnitude_order,
        lower,
        mth_ok,
        delay_order,
        den_verdict,
        num_verdict,
        min_phase_plus,
        min_phase_minus,
    )
