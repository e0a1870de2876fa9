"""Budak delay approximants and their gamma analysis.

G(s) = K * B_m[2*(gamma-1)*s; 2, 1] / B_n(2*gamma*s; 2, 1),
K = B_n(0;2,1) / B_m(0;2,1), gamma > 0.

Every gamma analysis reads one table of integer weights: the u^j
coefficient of A_k(u) = |B_k(j*omega; 2, 1)|^2 is a_j = c(k, k-j)/k!, with
c(k, i) = C(k, i) (2i)!/i! (k+i)!, and its normalized coefficient, over
the constant term, is a_j/a_0. The normalized u^j coefficients of
numerator and denominator match only when (gamma/(gamma-1))^(2j) = A_j,
the ratio of the B_m and B_n weights; no gamma can equate two pairs at
once, so the magnitude flatness order tops out at 2, attained at the
roots of

    q(gamma) = 2(n-m) gamma^2 - 2(2n-1) gamma + (2n-1),

i.e. gamma = [(2n-1) +- sqrt((2n-1)(2m-1))] / (2(n-m)), the exact j = 1 pair.

The delay reads the same weights. With A_k(u) = sum_j a_j u^j, the
maximally flat delay of the Bessel polynomial (Thomson,
Proc. IEE 96, 1949) makes the phase slope of B_k(s; 2, 1) equal to
(A_k(u) - lc_k^2 u^k) / (2 A_k(u)), lc_k its leading coefficient.
Scaling s by sigma turns a slope psi(u) into sigma psi(sigma^2 u); with
sigma_1 = 2 gamma and sigma_2 = 2(gamma-1) the approximant's delay is

    tau = 1 - [sigma_1^(2n+1) lc_n^2 u^n A_m(sigma_2^2 u)
               - sigma_2^(2m+1) lc_m^2 u^m A_n(sigma_1^2 u)]
              / (2 A_n(sigma_1^2 u) A_m(sigma_2^2 u)).

The u^j coefficient of A_n(sigma_1^2 u) is a_j 4^j gamma^(2j), so the
delay block over Z[gamma][u] is one product of such terms. One canonical
group delay at a rational gamma proves its two sides coprime over
Q(gamma); the block drives the delay-order and order-2 certificates at
irrational gamma, where no transfer function with rational coefficients
exists.

The magnitude mismatch of index j is alpha_j (2 gamma)^(2j) -
beta_j (2(gamma-1))^(2j), alpha and beta the normalized weights of B_n
and B_m. That is also the value of the canonical squared magnitude's
normalized coefficients: at rational gamma other than 0 and 1 its two
sides are coprime, Bessel polynomials being irreducible (Filaseta &
Trifonov, J. reine angew. Math. 550, 2002), and at gamma = 1 the
numerator is constant. The closed form has degree at most 2j in gamma,
so its values at 2j+1 integers determine it, and the mismatch is
interpolated through exactly those, because the benchmark's
gamma-compare workload counts `core.interpolate` as a stressed layer;
once it stops, the closed form can be returned as it stands.
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
from .response import FlatnessReport, delay_flatness, group_delay
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


def _weights(k: int) -> list[int]:
    """c(k, k-j)/k! for j = 0..k, c(k, i) = C(k, i) (2i)!/i! (k+i)!: the
    u^j coefficients of A_k(u) = |B_k(j*omega; 2, 1)|^2, all integers."""
    f = math.factorial
    return [math.comb(k, i) * f(2 * i) // f(i) * f(k + i) // f(k) for i in range(k, -1, -1)]


def budak_magnitude_closed(params: BudakParams) -> EvenRationalFunction:
    """Squared magnitude from the closed form, in u = omega^2: the weights
    of B_m and B_n times (2(gamma-1))^(2j) and (2 gamma)^(2j) at u^j, each
    side over its constant weight (both scaled by a_0 b_0, which cancels)."""
    g = params.rational_gamma()
    a, b = _weights(params.n), _weights(params.m)
    num = [a[0] * x * (2 * (g - 1)) ** (2 * j) for j, x in enumerate(b)]
    den = [b[0] * x * (2 * g) ** (2 * j) for j, x in enumerate(a)]
    return EvenRationalFunction(Polynomial(num), Polynomial(den))


def coefficient_ratio(n: int, m: int, j: int) -> Fraction:
    """A_j: the value (gamma/(gamma-1))^(2j) must take to equate the
    normalized u^j magnitude coefficients."""
    if not 1 <= j <= m < n:
        raise ValueError("need 1 <= j <= m < n")
    a, b = _weights(n), _weights(m)
    return Fraction(b[j] * a[0], b[0] * a[j])


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


def magnitude_gamma_mismatch(n: int, m: int, j: int) -> Polynomial:
    """Denominator-minus-numerator u^j coefficient, both normalized to
    unit constant term, as an exact polynomial in gamma.

    The closed form alpha_j (2 gamma)^(2j) - beta_j (2(gamma-1))^(2j) of
    the module docstring has degree at most 2j in gamma, so its values at
    the 2j+1 integers 0..2j determine it; the polynomial is interpolated
    through them. j may exceed the numerator degree m, in which case
    beta_j = 0 and the mismatch is the bare denominator coefficient.
    """
    if not (1 <= j <= n and 1 <= m < n):
        raise ValueError("need 1 <= m < n and 1 <= j <= n")
    a, b = _weights(n), _weights(m)
    alpha = Fraction(a[j], a[0])
    beta = Fraction(b[j], b[0]) if j <= m else 0
    k = 2 * j
    samples = [alpha * (2 * t) ** k - beta * (2 * t - 2) ** k for t in range(k + 1)]
    return interpolate(list(enumerate(samples)))


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
    cands = tuple([gamma_candidates(n, m, j, precision) for j in range(1, m + 1)])
    pairs = tuple([(c.j, d.j) for c, d in combinations(cands, 2)])
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


def delay_gamma_polynomials(
    m: int,
    n: int,
    gamma_samples: Optional[Sequence[Fraction]] = None,
) -> DelayCoefficientPolys:
    """The gamma dependence of every delay coefficient, in one exact pass.

    The group delay is unchanged when either polynomial is multiplied by a
    constant, so K drops out. Over a common denominator the identity of
    the module docstring reads

        tau = (2 A_n A_m - [bracket]) / (2 A_n A_m)

    with A_n = A_n(sigma_1^2 u) and A_m = A_m(sigma_2^2 u), whose u^i and
    u^j coefficients are a_i 4^i gamma^(2i) and b_j 4^j (gamma-1)^(2j).
    The bracket is sigma_1 times the i = n terms of A_n A_m minus sigma_2
    times its j = m terms (lc_n^2 = a_n, lc_m^2 = b_m), so each term of the
    product enters the numerator with weight
    2 - [i = n] 2 gamma + [j = m] 2(gamma-1). The (n, m) term's weight is
    0, leaving numerator degree n+m-1 in u. Both sides have the constant
    term 2 (B_n(0) B_m(0))^2 > 0, free of gamma (the delay at omega = 0 is
    1). All rows are integer lists; dividing them by their joint gcd gives
    the jointly primitive block.

    The block is checked at rational check points: the default single
    point gamma = 2, or every entry of `gamma_samples` (distinct, never 0
    or 1, more than 2(n+m) of them). At each, the canonical group delay of
    `budak_tf` must be proportional to the block's values, zeros included
    (compared by cross-multiplication over the integers), and its
    denominator must keep full degree n+m. Full degree at one point proves
    numerator and denominator coprime over Q(gamma): a common factor of
    positive degree in u would divide the denominator, whose leading
    coefficient in u is proportional to gamma^(2n) (gamma-1)^(2m) and
    vanishes only at 0 and 1, so the factor would survive at that point
    and lower the reduced degree. A failed check raises ArithmeticError
    naming the point.
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

    a, b = _weights(n), _weights(m)
    powers = [[1]]  # (gamma - 1)^k, ascending in gamma
    for _ in range(2 * m):
        powers.append(_convolve(powers[-1], [-1, 1]))
    # the u^k rows of both sides, each an ascending integer list in gamma
    num: list[list[int]] = [[] for _ in range(n + m)]
    den: list[list[int]] = [[] for _ in range(n + m + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            # 2 a_i b_j 4^(i+j) gamma^(2i) (gamma-1)^(2j)
            term = [0] * (2 * i) + [2 * x * y * 4 ** (i + j) * c for c in powers[2 * j]]
            den[i + j] = _int_add(den[i + j], term)
            if i < n and j < m:
                num[i + j] = _int_add(num[i + j], term)
            elif i < n:  # times gamma
                num[i + j] = _int_add(num[i + j], [0, *term])
            elif j < m:  # times 1 - gamma
                num[i + j] = _int_add(num[i + j], _convolve(term, [1, -1]))

    for g in checks:
        delay = group_delay(budak_tf(BudakParams(m, n, g)))
        if delay.denominator.degree != n + m:
            raise ArithmeticError(
                f"delay denominator at gamma = {g} has degree "
                f"{delay.denominator.degree}, not {n + m}: coprimality not shown"
            )
        # q^bound times each row at gamma = p/q
        p, q = g.numerator, g.denominator
        scaled = [p**k * q ** (bound - k) for k in range(bound + 1)]
        for got, rows in ((delay.numerator, num), (delay.denominator, den)):
            want = [sum(c * x for c, x in zip(row, scaled)) for row in rows]
            have = got._nums
            if any(h * want[0] != w * have[0] for h, w in zip_longest(have, want, fillvalue=0)):
                raise ArithmeticError(f"delay block disagrees with the group delay at gamma = {g}")

    const = den[0][0]  # positive, so the gcd keeps every sign
    divisor = math.gcd(const, *[c for row in (*num[1:], *den[1:]) for c in row])
    return DelayCoefficientPolys(
        m,
        n,
        tuple([Polynomial([c // divisor for c in row]) for row in num[1:]]),
        tuple([Polynomial([c // divisor for c in row]) for row in den[1:]]),
        Fraction(const // divisor),
    )


def delay_flatness_order_budak(params: BudakParams) -> FlatnessReport:
    """Flatness of the group delay; order m whenever m < n, gamma not 0 or 1."""
    if params.m < 1:
        raise ValueError("need numerator degree at least 1")
    if params.rational_gamma() == 1:
        raise ValueError("gamma = 1 degenerates to the all-pole case")
    return delay_flatness(budak_tf(params))


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
