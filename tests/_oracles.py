"""Shared numerical oracles for the test suite.

These deliberately avoid the library's own symbolic pipeline: delay is a
finite difference of the numerically evaluated phase, magnitude is plain
complex evaluation. mpmath supplies the working precision. The gcd oracle
is plain Euclid over Q, without the library's modular coprimality check.
The float evaluation oracle is Horner over the Fraction coefficients.
The Budak delay-block oracles recover the block by sampling the canonical
group delay at rational gamma and interpolating, and by substituting
sigma = 2 gamma and 2(gamma-1) into the Fraction phase slopes of the
unscaled Bessel polynomials, where the library reads it off the
maximally-flat-delay identity of the weight table; the term-by-term
block oracle sums the same identity one new list per term, where the
library adds each term in place. The interpolation oracle expands
Newton's form with two new `Polynomial`s per Horner step, where the
library expands on one coefficient list. The magnitude
mismatch oracle interpolates the normalized coefficients of the
canonical squared magnitude at integer gamma, where the library samples
the closed form of the weights. The decimal-rendering oracle
brackets a surd by exact intervals, doubling their digits until both ends
round alike, where the library rounds in one step. The mutual-exclusion
oracle separates the gamma candidates by refined intervals, where the
library compares the coefficient ratios exactly. The Routh continuation
oracle resolves a zero pivot by classifying (s + a) * p for a = 1..50,
where the library rewrites the offending row in one pass. The squared
magnitude oracle forms the full product P(s) * P(-s) and keeps its even
powers, where the library splits P(j*omega) into even and odd parts. The
Pade numerator oracle is the explicit factorial sum for Q_nm, where the
library reflects the denominator with n and m swapped. The Budak
magnitude oracles are the paper's formulas as printed: the closed
double sum for |G(j*omega)|^2, the explicit factorial ratio for A_j and
the rationalized pair (A -+ sqrt(A))/(A - 1) for j = 1, where the library
reads all three from one table of normalized weights and from q(gamma).
The product oracle is the schoolbook convolution over Fraction
coefficients, the list-arithmetic oracles add, scale, normalize,
differentiate and substitute into the Fraction coefficient lists, where
the library holds integer numerators over one denominator, and the rational Routh oracle runs the one-pass array with
every row over Q, where the library clears denominators and runs both
over the integers. The leading-pairs Routh oracle runs the same integer
array but collects every row's leading pair first and then counts the
sign changes and builds the column from that list, on rows indexed out
of p's numerators after negating p, where the library slices and
negates the first two rows and forms the column and the sign changes as
each row is produced. The Fraction analysis oracles split P(j*omega) into
`Polynomial`s over Q and form the phase slope, group delay and squared
magnitude as sums of `Polynomial`s, where the library splits L*P over
the integers and works on integer lists. The exact sample point oracle
evaluates those splits at Fraction(omega) and rounds each Fraction once,
where the library runs one homogeneous Horner sum over the integers at
omega = p/q and divides two integers. The four-call sample oracle
evaluates N, D and their two Horner error gates as four `Polynomial`
calls a point and builds a `SamplePoint` for each, where the library
runs both gates in one fused loop and hands `sweep` bare pairs; the
sweep-row oracle builds the CSV rows from public `sample`. The source
oracles build the
generalized Bessel polynomial from one backward factorial per term and
the Pade denominator from the factorial sum with its Fraction
prefactors, where the library multiplies the term ratios out over the
integers and clears (n+m)!. The flatness
oracle forms the deviation polynomial num - f(0)*den and takes its
lowest nonzero power, and the Fraction-scan flatness oracle compares
num_k with f(0)*den_k as `Fraction`s, where the library scans the
stored integer numerators by cross-multiplication. The delay flatness
oracle scans the canonical group delay, and the design report oracle
builds every report's delay flatness from it, where the library scans
the delay's integer products before any reduction; its minimum phase
runs the full Routh array on every numerator of positive degree, where
the library answers a numerator with coefficients of both signs by
those signs alone. The rendering oracle
compares and prints each coefficient as a `Fraction`, where the library
writes n_k/den in lowest terms by one gcd.
"""

import cmath
import math
import sys
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

import mpmath as mp

from besselpade import (
    BudakParams,
    DelayCoefficientPolys,
    EvenRationalFunction,
    FlatBeyondHorizon,
    FlatnessReport,
    Polynomial,
    QuadSurd,
    StabilityReport,
    TransferFunction,
    Verdict,
    budak_magnitude_closed,
    budak_tf,
    gamma_candidates,
    group_delay,
    interpolate,
    routh_hurwitz,
    sample,
)
from besselpade.cli import DesignReport, _flatness_or_constant, _pole_stability
from besselpade.gbp import backward_factorial
from besselpade.response import Quantity, SamplePoint, flatness, magnitude_squared


def _polyval(poly, x):
    acc = mp.mpf(0)
    for c in reversed(poly.coefficients):
        acc = acc * x + mp.mpf(c.numerator) / mp.mpf(c.denominator)
    return acc


def transfer_value(tf, omega):
    """H(j*omega) at working precision."""
    s = mp.mpc(0, 1) * mp.mpf(omega)
    return _polyval(tf.numerator, s) / _polyval(tf.denominator, s)


def fd_group_delay(tf, omega, h=mp.mpf("1e-6"), dps=30):
    """Central difference of the negated phase of H(j*omega)."""
    with mp.workdps(dps):
        w = mp.mpf(omega)
        hi = mp.arg(transfer_value(tf, w + h))
        lo = mp.arg(transfer_value(tf, w - h))
        delta = hi - lo
        # undo branch-cut wrap of the principal argument
        if delta > mp.pi:
            delta -= 2 * mp.pi
        elif delta < -mp.pi:
            delta += 2 * mp.pi
        return float(-delta / (2 * h))


def magnitude_value(tf, omega, dps=30):
    """|H(j*omega)|^2 at working precision."""
    with mp.workdps(dps):
        return float(abs(transfer_value(tf, mp.mpf(omega))) ** 2)


def para_even(p):
    """P(s)*P(-s) as a Polynomial in u, via s^2 -> -u."""
    prod = p * p.scale_substitute(-1)
    return Polynomial(
        [prod.coeff(2 * k) * (-1) ** k for k in range(prod.degree // 2 + 1)]
    )


def explicit_pade_numerator(n, m):
    """Q_nm(s) = (n!/(n+m)!) sum_{k=0}^{m} C(m,k) ((n+k)!/n!) (-s)^(m-k),
    before canonical reduction."""
    pre = Fraction(math.factorial(n), math.factorial(n + m))
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        c = math.comb(m, k) * Fraction(math.factorial(n + k), math.factorial(n))
        # (-s)^(m-k) contributes sign (-1)^(m-k) at degree m-k
        coeffs[m - k] = pre * c * (-1) ** (m - k)
    return Polynomial(coeffs)


def double_sum_magnitude(m, n, g):
    """Budak |G(j*omega)|^2 in u = omega^2 from the closed double sum.

    With c(k, i) = C(k, i) (2i)!/i! (k+i)!, numerator term i is
    [(2n)!/(2m)!]^2 m!/n! * c(m, i) [2(g-1)]^(2(m-i)) at u^(m-i) and
    denominator term k is c(n, k) (2g)^(2(n-k)) at u^(n-k).
    """
    g = Fraction(g)
    pre = (
        Fraction(math.factorial(2 * n), math.factorial(2 * m)) ** 2
        * Fraction(math.factorial(m), math.factorial(n))
    )

    def c(k, i):
        return (
            math.comb(k, i)
            * Fraction(math.factorial(2 * i), math.factorial(i))
            * math.factorial(k + i)
        )

    num = [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        num[m - i] = pre * c(m, i) * (2 * (g - 1)) ** (2 * (m - i))
    den = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        den[n - k] = c(n, k) * (2 * g) ** (2 * (n - k))
    return EvenRationalFunction(Polynomial(num), Polynomial(den))


def factorial_coefficient_ratio(n, m, j):
    """A_j as the explicit factorial ratio

    (2n)!^2 (n-j)!^2 / (n!^2 (2(n-j))! (2n-j)!)
      * m!^2 (2(m-j))! (2m-j)! / ((2m)!^2 (m-j)!^2).
    """
    f = math.factorial
    n_part = Fraction(
        f(2 * n) ** 2 * f(n - j) ** 2,
        f(n) ** 2 * f(2 * (n - j)) * f(2 * n - j),
    )
    m_part = Fraction(
        f(m) ** 2 * f(2 * (m - j)) * f(2 * m - j),
        f(2 * m) ** 2 * f(m - j) ** 2,
    )
    return n_part * m_part


def rationalized_gamma_pair(a):
    """(A - sqrt(A))/(A - 1) and (A + sqrt(A))/(A - 1) as quadratic surds,
    the solutions of (gamma/(gamma-1))^2 = A; for A = p/q,
    sqrt(A) = sqrt(p*q)/q."""
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    scale = 1 / (q * (a - 1))
    return (
        QuadSurd(a / (a - 1), -scale, p * q),
        QuadSurd(a / (a - 1), scale, p * q),
    )


def euclid_gcd(p, q):
    """Monic gcd of two Polynomials by the Euclid loop over Q."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def fraction_horner(poly, x):
    """Horner over the Fraction coefficients as they stand.

    On a float or complex x every step mixes a Fraction into float
    arithmetic, converting that coefficient anew; the library's float
    evaluation must agree with this to the bit.
    """
    result = Fraction(0)
    for c in reversed(poly.coefficients):
        result = result * x + c
    return result


def interpolated_delay_block(m, n, gamma_samples=None):
    """The Budak delay block recovered by sampling and interpolation.

    Samples the canonical group delay at distinct rational gamma (never 0
    or 1), normalizes each sample to unit constant term, interpolates
    coefficient-wise with a stabilisation check (one redundant sample) and
    a degree bound of 2(n+m), then rescales the whole block to jointly
    primitive integer polynomials. The library computes the same block
    directly over Z[gamma]; the two must agree exactly.
    """
    bound = 2 * (n + m)
    if gamma_samples is None:
        gamma_samples = [Fraction(t) for t in range(2, bound + 5)]
    samples = [Fraction(g) for g in gamma_samples]
    if len(set(samples)) != len(samples) or any(g in (0, 1) for g in samples):
        raise ValueError("gamma samples must be distinct and avoid 0 and 1")
    if len(samples) <= bound:
        raise ValueError(f"need more than {bound} samples, got {len(samples)}")

    num_deg, den_deg = n + m - 1, n + m
    num_rows = [[] for _ in range(num_deg)]
    den_rows = [[] for _ in range(den_deg)]
    for g in samples:
        delay = group_delay(budak_tf(BudakParams(m, n, g)))
        for i in range(1, num_deg + 1):
            num_rows[i - 1].append((g, delay.numerator.coeff(i) / delay.numerator.coeff(0)))
        for i in range(1, den_deg + 1):
            den_rows[i - 1].append((g, delay.denominator.coeff(i) / delay.denominator.coeff(0)))

    def recover(points):
        poly = interpolate(points)
        # at least one sample beyond the polynomial degree must be redundant
        if poly.degree > len(points) - 2:
            raise ArithmeticError("delay coefficient interpolation did not stabilize")
        if poly.degree > bound:
            raise ArithmeticError("delay coefficient degree exceeds its bound")
        return poly

    num_polys = [recover(row) for row in num_rows]
    return _primitive_block(m, n, num_polys, [recover(row) for row in den_rows])


def _primitive_block(m, n, num_polys, den_polys):
    """The block from coefficient polynomials normalized to a unit constant
    term: lam makes lam * (the unit constant and every coefficient)
    integers with overall gcd 1."""
    values = [Fraction(1)]
    for poly in (*num_polys, *den_polys):
        values.extend(poly.coefficients)
    den_lcm = 1
    for v in values:
        den_lcm = math.lcm(den_lcm, v.denominator)
    num_gcd = 0
    for v in values:
        num_gcd = math.gcd(num_gcd, abs(v.numerator) * (den_lcm // v.denominator))
    lam = Fraction(den_lcm, num_gcd)
    return DelayCoefficientPolys(
        m,
        n,
        tuple(p * lam for p in num_polys),
        tuple(p * lam for p in den_polys),
        lam,
    )


def _u_product(p, q):
    """Product of two polynomials in u whose coefficients are Polynomials
    in gamma, as ascending lists."""
    out = [Polynomial()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] = out[i + k] + a * b
    return out


def sigma_substituted_delay_block(m, n):
    """The Budak delay block by sigma-substitution into the phase slopes.

    If P has phase slope num(u)/den(u), then P(sigma s) has slope
    sigma num(sigma^2 u) / den(sigma^2 u): the u^k coefficients gain
    sigma^(2k+1) and sigma^(2k). The Fraction slopes of B_n(s; 2, 1) and
    B_m(s; 2, 1) with sigma = 2 gamma and 2(gamma-1), as Polynomials in
    gamma, give psi_D - psi_N over Z[gamma][u] as three products; its rows
    over the gamma-free constant term, scaled jointly primitive, are the
    block.
    """
    slopes = []
    for k, sigma in ((n, Polynomial([0, 2])), (m, Polynomial([-2, 2]))):
        num, den = fraction_phase_slope(backward_factorial_gbp(k, 2, 1))
        slopes.append(
            (
                [sigma ** (2 * i + 1) * c for i, c in enumerate(num.coefficients)],
                [sigma ** (2 * i) * c for i, c in enumerate(den.coefficients)],
            )
        )
    (dn, dd), (nn, nd) = slopes
    num = [a - b for a, b in zip(_u_product(dn, nd), _u_product(nn, dd))]
    den = _u_product(dd, nd)
    const = den[0]
    if const.degree != 0 or num[0] != const:
        raise ArithmeticError("delay constant terms differ or depend on gamma")
    scale = 1 / const.coeff(0)
    rows = [p * scale for p in num[1 : n + m]]
    if any(not p.is_zero for p in num[n + m :]):
        raise ArithmeticError("delay numerator exceeds degree n+m-1")
    return _primitive_block(m, n, rows, [p * scale for p in den[1:]])


def _int_list_add(a, b):
    """a + b for ascending integer lists, a new list, trailing zeros kept."""
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _int_list_product(a, b):
    """a * b for ascending integer lists, schoolbook into a new list."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def term_by_term_delay_block(m, n):
    """The Budak delay block summed one term at a time over Z[gamma][u].

    Each term 2 a_i b_j 4^(i+j) gamma^(2i) (gamma-1)^(2j), with a and b
    the weights c(k, k-j)/k! of B_n and B_m and (gamma-1)^k built by
    repeated products, is its own list; it is added to its row as a new
    list, and enters the numerator times 1, gamma or 1 - gamma as a new
    product, where the library adds every term in place into preallocated
    rows. No check point is taken: this is the algebra alone.
    """
    f = math.factorial

    def weights(k):
        return [math.comb(k, i) * f(2 * i) * f(k + i) // (f(i) * f(k)) for i in range(k, -1, -1)]

    a, b = weights(n), weights(m)
    powers = [[1]]  # (gamma - 1)^k, ascending in gamma
    for _ in range(2 * m):
        powers.append(_int_list_product(powers[-1], [-1, 1]))
    num = [[] for _ in range(n + m)]
    den = [[] for _ in range(n + m + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            term = [0] * (2 * i) + [2 * x * y * 4 ** (i + j) * c for c in powers[2 * j]]
            den[i + j] = _int_list_add(den[i + j], term)
            if i < n and j < m:
                num[i + j] = _int_list_add(num[i + j], term)
            elif i < n:  # times gamma
                num[i + j] = _int_list_add(num[i + j], [0, *term])
            elif j < m:  # times 1 - gamma
                num[i + j] = _int_list_add(num[i + j], _int_list_product(term, [1, -1]))
    const = den[0][0]
    divisor = math.gcd(const, *[c for row in (*num[1:], *den[1:]) for c in row])
    return DelayCoefficientPolys(
        m,
        n,
        tuple([Polynomial([c // divisor for c in row]) for row in num[1:]]),
        tuple([Polynomial([c // divisor for c in row]) for row in den[1:]]),
        Fraction(const // divisor),
    )


def polynomial_horner_interpolate(points):
    """Newton's divided differences over Fraction, expanded in Horner form
    with two new `Polynomial`s a step, where the library expands on one
    coefficient list and builds one `Polynomial` at the end."""
    xs = [Fraction(x) for x, _ in points]
    coef = [Fraction(y) for _, y in points]
    n = len(xs)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = Polynomial([coef[-1]])
    for k in range(n - 2, -1, -1):
        poly = poly * Polynomial([-xs[k], 1]) + Polynomial([coef[k]])
    return poly


def sampled_magnitude_mismatch(n, m, j):
    """The Budak magnitude mismatch interpolated from canonical magnitudes.

    Each integer gamma sample is the denominator-minus-numerator u^j
    coefficient of `budak_magnitude_closed`, both over their constant
    terms; the polynomial through gamma = 1 .. 2 max(j, m) + 3 must keep
    degree at most 2 max(j, m) and pass a held-out sample.
    """
    bound = 2 * max(j, m)

    def mismatch_at(g):
        mag = budak_magnitude_closed(BudakParams(m, n, g))
        den, num = mag.denominator, mag.numerator
        return den.coeff(j) / den.coeff(0) - num.coeff(j) / num.coeff(0)

    samples = [Fraction(t) for t in range(1, bound + 4)]
    poly = interpolate([(g, mismatch_at(g)) for g in samples])
    if poly.degree > bound:
        raise ArithmeticError("mismatch interpolation exceeded its degree bound")
    if poly(Fraction(bound + 4)) != mismatch_at(Fraction(bound + 4)):
        raise ArithmeticError("mismatch interpolation failed the held-out check")
    return poly


def _decimal_exponent(v):
    """floor(log10(v)) for a Fraction v > 0."""
    p, q = v.numerator, v.denominator
    if p >= q:
        return len(str(p // q)) - 1
    e = 0
    while p < q:
        p *= 10
        e -= 1
    return e


def _format_fixed(digits, exponent, negative):
    """Fixed notation for 0.digits * 10**(exponent+1)."""
    p = len(digits)
    if exponent >= p - 1:
        body = digits + "0" * (exponent - p + 1)
    elif exponent >= 0:
        body = digits[: exponent + 1] + "." + digits[exponent + 1 :]
    else:
        body = "0." + "0" * (-exponent - 1) + digits
    return "-" + body if negative else body


def _round_sig(v, precision, half_even):
    """v rounded to `precision` significant digits, ties to even or up."""
    if v == 0:
        return _format_fixed("0" * precision, 0, False)
    negative = v < 0
    v = abs(v)
    e = _decimal_exponent(v)
    scaled = v * Fraction(10) ** (precision - 1 - e)
    n = scaled.numerator // scaled.denominator
    frac = scaled - n
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and (n % 2 == 1 or not half_even)):
        n += 1
    if n == 10**precision:
        n //= 10
        e += 1
    return _format_fixed(str(n), e, negative)


def refined_surd_to_float(x, precision):
    """Decimal rendering of a QuadSurd by interval refinement.

    A rational rounds half to even. An irrational value is enclosed in
    exact intervals whose digit count doubles until both ends, rounded to
    nearest, give the same string.
    """
    if x.is_rational:
        return _round_sig(x.a, precision, half_even=True)
    digits = precision + 8
    while True:
        enc = x.enclosure(digits)
        if enc.lo != 0 and enc.hi != 0 and (enc.lo < 0) == (enc.hi < 0):
            lo_s = _round_sig(enc.lo, precision, half_even=False)
            if lo_s == _round_sig(enc.hi, precision, half_even=False):
                return lo_s
        digits *= 2


def interval_mutual_exclusion(n, m, precision=9):
    """(all_disjoint, all_above_half) from the candidate enclosures.

    Every branch interval of index j must be disjoint from every interval
    of j' != j, and every branch must lie above 1/2; the enclosures are
    refined up to five times before a failure is reported.
    """
    half = Fraction(1, 2)
    prec = precision
    for _ in range(5):
        cands = [gamma_candidates(n, m, j, prec) for j in range(1, m + 1)]
        disjoint = all(
            a.disjoint_from(b)
            for i in range(len(cands))
            for k in range(i + 1, len(cands))
            for a in (cands[i].branch_plus, cands[i].branch_minus)
            for b in (cands[k].branch_plus, cands[k].branch_minus)
        )
        above = all(c.branch_plus.lo > half and c.branch_minus.lo > half for c in cands)
        if disjoint and above:
            break
        prec *= 2
    return disjoint, above


class _ZeroPivot(Exception):
    def __init__(self, rows_so_far: list[list[Fraction]], row_index: int):
        self.rows_so_far = rows_so_far
        self.row_index = row_index


def _continuation_rows(p: Polynomial) -> tuple[list[list[Fraction]], list[int]]:
    """All n+1 rows of the array, zero rows replaced in place.

    Raises _ZeroPivot on a zero leading entry in a nonzero row.
    """
    n = p.degree
    width = n // 2 + 1
    degenerate: list[int] = []

    def build_row(top_power: int, coeffs: Sequence[Fraction]) -> list[Fraction]:
        row = [Fraction(0)] * width
        for j in range(width):
            power = top_power - 2 * j
            if power < 0:
                break
            row[j] = coeffs[power] if power < len(coeffs) else Fraction(0)
        return row

    asc = list(p.coefficients)
    rows = [build_row(n, asc), build_row(n - 1, asc)]
    for i in range(1, n + 1):
        row = rows[i]
        if all(c == 0 for c in row):
            degenerate.append(i)
            above = rows[i - 1]
            # derivative of the auxiliary polynomial of the row above:
            # entry j sits at power (n - i) - 2j
            rows[i] = [(n - i + 1 - 2 * j) * above[j] for j in range(width)]
            row = rows[i]
        if row[0] == 0:
            raise _ZeroPivot(rows[: i + 1], i)
        if i == n:
            break
        prev, prev2 = rows[i], rows[i - 1]
        pivot = prev[0]
        nxt = [
            (pivot * prev2[j + 1] - prev2[0] * prev[j + 1]) / pivot
            if j + 1 < width
            else Fraction(0)
            for j in range(width)
        ]
        rows.append(nxt)
    return rows, degenerate


def _sign_changes(column: Sequence[Fraction]) -> int:
    changes = 0
    for a, b in zip(column, column[1:]):
        if (a > 0) != (b > 0):
            changes += 1
    return changes


def continuation_routh_hurwitz(p: Polynomial) -> StabilityReport:
    """The Routh classification with the (s + a) zero-pivot continuation.

    Raises ArithmeticError when all 50 shifted products meet a zero pivot
    again, as `s^4 - 81` and `s^5 - s` do.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("need a nonzero polynomial of degree at least 1")
    if p.leading < 0:
        p = p * Fraction(-1)
    try:
        rows, degenerate = _continuation_rows(p)
    except _ZeroPivot as zp:
        return _classify_after_pivot(p, zp)
    column = tuple(r[0] for r in rows)
    changes = _sign_changes(column)
    if changes > 0:
        verdict = Verdict.NOT_HURWITZ
    elif degenerate:
        verdict = Verdict.MARGINAL
    else:
        verdict = Verdict.STRICT_HURWITZ
    return StabilityReport(verdict, column, changes, tuple(degenerate))


def _classify_after_pivot(p: Polynomial, zp: _ZeroPivot) -> StabilityReport:
    """Resolve a zero-pivot degeneracy through the (s + a) product."""
    partial = tuple(r[0] for r in zp.rows_so_far)
    for a in range(1, 51):
        shifted = p * Polynomial([a, 1])
        try:
            rows, _ = _continuation_rows(shifted)
        except _ZeroPivot:
            continue
        changes = _sign_changes([r[0] for r in rows])
        verdict = Verdict.NOT_HURWITZ if changes > 0 else Verdict.MARGINAL
        return StabilityReport(verdict, partial, changes, (zp.row_index,))
    raise ArithmeticError("zero-pivot continuation failed for 50 shift factors")


def fraction_product(p, q):
    """p * q by the schoolbook convolution over the Fraction coefficients."""
    a, b = p.coefficients, q.coefficients
    if not a or not b:
        return Polynomial()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return Polynomial(out)


def _stripped(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fraction_sum(p, q):
    """The Fraction coefficients of p + q, added list to list."""
    a, b = p.coefficients, q.coefficients
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _stripped(out)


def fraction_scalar_product(p, c):
    """The Fraction coefficients of c * p."""
    return _stripped([x * c for x in p.coefficients])


def fraction_monic(p):
    """The Fraction coefficients of p over its leading coefficient."""
    lead = p.leading
    return [c / lead for c in p.coefficients]


def fraction_content(p):
    """gcd of the numerators of L * p over L, L the lcm of the denominators."""
    den_lcm = 1
    for c in p.coefficients:
        den_lcm = math.lcm(den_lcm, c.denominator)
    num_gcd = 0
    for c in p.coefficients:
        num_gcd = math.gcd(num_gcd, c.numerator * (den_lcm // c.denominator))
    return Fraction(num_gcd, den_lcm)


def fraction_derivative(p):
    """The Fraction coefficients of p'."""
    return [k * c for k, c in enumerate(p.coefficients)][1:]


def fraction_scale_substitute(p, c):
    """The Fraction coefficients of p(c*x), one running power of c."""
    c = Fraction(c)
    out = []
    power = Fraction(1)
    for coeff in p.coefficients:
        out.append(coeff * power)
        power *= c
    return _stripped(out)


def _rational_routh_rows(p):
    """All n+1 rows of the array over Q, every degenerate row replaced in
    place (a zero row by the derivative of the auxiliary polynomial above
    it, a row with k leading zeros by its product with 1 + (-s^2)^k).

    Returns the rows, the indices of the zero rows, and the index of the
    first zero pivot (None when there is none).
    """
    n = p.degree
    width = n // 2 + 1
    degenerate = []
    first_pivot = None
    rows = [[p.coeff(top - 2 * j) for j in range(width)] for top in (n, n - 1)]
    for i in range(1, n + 1):
        row = rows[i]
        if all(c == 0 for c in row):
            degenerate.append(i)
            above = rows[i - 1]
            rows[i] = [(n - i + 1 - 2 * j) * above[j] for j in range(width)]
            row = rows[i]
        elif row[0] == 0:
            if first_pivot is None:
                first_pivot = i
            k = next(j for j, c in enumerate(row) if c != 0)
            sign = (-1) ** k
            rows[i] = [c + sign * row[j + k] if j + k < width else c for j, c in enumerate(row)]
            row = rows[i]
        if i == n:
            break
        prev, prev2 = rows[i], rows[i - 1]
        pivot = prev[0]
        rows.append(
            [
                (pivot * prev2[j + 1] - prev2[0] * prev[j + 1]) / pivot
                if j + 1 < width
                else Fraction(0)
                for j in range(width)
            ]
        )
    return rows, degenerate, first_pivot


def rational_routh_hurwitz(p):
    """The one-pass Routh classification with every row over Q."""
    if p.is_zero or p.degree < 1:
        raise ValueError("need a nonzero polynomial of degree at least 1")
    if p.leading < 0:
        p = -p
    rows, degenerate, first_pivot = _rational_routh_rows(p)
    column = tuple(r[0] for r in rows)
    changes = _sign_changes(column)
    if first_pivot is not None:
        column = column[:first_pivot] + (Fraction(0),)
        degenerate = [first_pivot]
    if changes > 0:
        verdict = Verdict.NOT_HURWITZ
    elif degenerate:
        verdict = Verdict.MARGINAL
    else:
        verdict = Verdict.STRICT_HURWITZ
    return StabilityReport(verdict, column, changes, tuple(degenerate))


def _integer_routh_leading(p):
    """The leading entries of all n+1 rows over the integers, every
    degenerate row replaced in place: row i is T_i over d_i > 0, entry j
    of the first two rows the numerator of the coefficient of s^(top - 2j)
    over p's denominator, indexed from two row builds.

    Returns the pairs (T_i[0], d_i), the indices of the zero rows, and the
    index of the first zero pivot (None when there is none).
    """
    n = p.degree
    width = n // 2 + 1
    degenerate = []
    first_pivot = None
    nums, den = p.integer_form
    above, row = (
        [nums[top - 2 * j] if top >= 2 * j else 0 for j in range(width)] for top in (n, n - 1)
    )
    d_above = d_row = den
    leading = [(above[0], den)]
    for i in range(1, n + 1):
        if not any(row):
            degenerate.append(i)
            row = [(n - i + 1 - 2 * j) * c for j, c in enumerate(above)]
            d_row = d_above
        elif row[0] == 0:
            if first_pivot is None:
                first_pivot = i
            k = next(j for j, c in enumerate(row) if c)
            sign = (-1) ** k
            row = [c + sign * row[j + k] if j + k < width else c for j, c in enumerate(row)]
        leading.append((row[0], d_row))
        if i == n:
            break
        pivot, pivot_above = row[0], above[0]
        nxt = [pivot * above[j + 1] - pivot_above * row[j + 1] for j in range(width - 1)]
        nxt.append(0)
        d_nxt = d_above * pivot
        g = math.gcd(d_nxt, *nxt)
        if d_nxt < 0:
            g = -g
        above, d_above = row, d_row
        row, d_row = [c // g for c in nxt], d_nxt // g
    return leading, degenerate, first_pivot


def leading_pairs_routh_hurwitz(p):
    """The integer Routh classification in two passes: every row's leading
    pair first, then the sign changes and the column from that list."""
    if p.is_zero or p.degree < 1:
        raise ValueError("need a nonzero polynomial of degree at least 1")
    if p.integer_form[0][-1] < 0:
        p = -p
    leading, degenerate, first_pivot = _integer_routh_leading(p)
    changes = _sign_changes([t for t, _ in leading])
    column = tuple([Fraction(t, d) for t, d in leading])
    if first_pivot is not None:
        column = column[:first_pivot] + (Fraction(0),)
        degenerate = [first_pivot]
    if changes > 0:
        verdict = Verdict.NOT_HURWITZ
    elif degenerate:
        verdict = Verdict.MARGINAL
    else:
        verdict = Verdict.STRICT_HURWITZ
    return StabilityReport(verdict, column, changes, tuple(degenerate))


_U = Polynomial([0, 1])


def fraction_jw_split(p):
    """(e, o) over Q with P(j*omega) = e(u) + j*omega*o(u), u = omega^2."""
    return p.even_part().scale_substitute(-1), p.odd_part().scale_substitute(-1)


def _fraction_abs_squared(e, o):
    return e * e + _U * o * o


def fraction_phase_slope(p):
    """Numerator and denominator of d(arg P(j*omega))/d(omega) over Q."""
    e, o = fraction_jw_split(p)
    num = e * o + 2 * _U * (e * o.derivative() - o * e.derivative())
    return num, _fraction_abs_squared(e, o)


def fraction_group_delay(tf):
    """psi_D - psi_N from the Fraction phase slopes."""
    if tf.numerator.coeff(0) == 0 or tf.denominator.coeff(0) == 0:
        raise ValueError("phase undefined: zero at the origin")
    dn, dd = fraction_phase_slope(tf.denominator)
    nn, nd = fraction_phase_slope(tf.numerator)
    return EvenRationalFunction(dn * nd - nn * dd, dd * nd)


def _nearest_float(q):
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def fraction_sample_point(f, omega):
    """(value, pole_adjacent) of f at Fraction(omega) from the Fraction
    splits: flagged, with value inf, when |D(x)| <= 4 eps |x| |D'(x)|, and
    otherwise rounded once, an infinity of its sign beyond the double range."""
    r = Fraction(omega)
    radius = 4 * Fraction(sys.float_info.epsilon)
    if isinstance(f, EvenRationalFunction):
        u = r * r
        d = f.denominator(u)
        if abs(d) <= radius * u * abs(f.denominator.derivative()(u)):
            return math.inf, True
        return _nearest_float(f.numerator(u) / d), False

    def at(p):
        e, o = fraction_jw_split(p)
        return e(r * r), r * o(r * r)

    (nr, ni), (dr, di) = at(f.numerator), at(f.denominator)
    sr, si = at(f.denominator.derivative())
    norm = dr * dr + di * di
    if norm <= radius**2 * r * r * (sr * sr + si * si):
        return math.inf, True
    re, im = (nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm
    return complex(_nearest_float(re), _nearest_float(im)), False


def four_call_sample(f, omegas):
    """`sample` with four `Polynomial` calls a point: N(x), D(x) and their
    Horner error gates 2^27 (deg P + 1) eps sum |p_k| t^k, polynomials in
    t = |x|. A point whose N and D are finite, with finite moduli, and
    exceed their gates is the double quotient; every other point, and every
    point of a function with a coefficient beyond the double range, is
    `fraction_sample_point`."""
    transfer = isinstance(f, TransferFunction)
    num, den = f.numerator, f.denominator
    ws = [float(w) for w in omegas]

    def exact(w):
        return SamplePoint(w, *fraction_sample_point(f, w))

    try:
        float(max(abs(c) for p in (num, den) for c in p.coefficients))
    except OverflowError:
        return [exact(w) for w in ws]

    def gate(p):
        factor = 2**27 * (p.degree + 1) * Fraction(sys.float_info.epsilon)
        return Polynomial([factor * abs(c) for c in p.coefficients])

    num_gate, den_gate = gate(num), gate(den)
    out = []
    for w in ws:
        x = 1j * w if transfer else w * w
        n, d = num(x), den(x)
        t = abs(x)
        try:
            fast = den_gate(t) < abs(d) < math.inf and num_gate(t) < abs(n) < math.inf
        except OverflowError:  # finite parts, modulus beyond the double range
            fast = False
        if fast:
            out.append(SamplePoint(w, n / d))
        else:
            out.append(exact(w))
    return out


def sample_sweep_rows(tf, omega_max, points):
    """(omega, magnitude, phase, delay, pole_adjacent) rows of `sweep` from
    the `SamplePoint`s of public `sample`."""
    omegas = [omega_max * i / (points - 1) for i in range(points)]
    rows = []
    for h, delay in zip(sample(tf, omegas), sample(group_delay(tf), omegas)):
        if h.pole_adjacent:
            rows.append((h.omega, math.inf, math.inf, math.inf, True))
        else:
            rows.append((h.omega, abs(h.value), cmath.phase(h.value), delay.value, False))
    return rows


def fraction_magnitude_squared(tf):
    """|N(j*omega)|^2 / |D(j*omega)|^2 from the Fraction splits."""
    return EvenRationalFunction(
        _fraction_abs_squared(*fraction_jw_split(tf.numerator)),
        _fraction_abs_squared(*fraction_jw_split(tf.denominator)),
    )


def backward_factorial_gbp(n, alpha, beta):
    """B_n(s; alpha, beta) = sum_k C(n,k) (n+k+alpha-2)^(k) / beta^k s^(n-k),
    one backward factorial per term."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        q = n + k + alpha - 2
        coeffs[n - k] = math.comb(n, k) * backward_factorial(q, k) / beta**k
    return Polynomial(coeffs)


def factorial_sum_pade_denominator(n, m):
    """P_nm(s) = (m!/(n+m)!) sum_{k=0}^{n} C(n,k) ((m+k)!/m!) s^(n-k),
    before canonical reduction."""
    pre = Fraction(math.factorial(m), math.factorial(n + m))
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        c = math.comb(n, k) * Fraction(math.factorial(m + k), math.factorial(m))
        coeffs[n - k] = pre * c
    return Polynomial(coeffs)


def factorial_sum_pade_exp(n, m):
    """The (n,m) approximant from both factorial sums with their Fraction
    prefactors."""
    return TransferFunction(
        explicit_pade_numerator(n, m), factorial_sum_pade_denominator(n, m)
    )


def deviation_polynomial_flatness(f, max_terms=None, quantity=None):
    """`flatness` from the deviation polynomial num - f(0)*den: its lowest
    nonzero power is the order, that coefficient over den(0) the leading
    deviation."""
    if max_terms is None:
        max_terms = 2 * (max(f.numerator.degree, 0) + f.denominator.degree) + 4
    value = f.at_origin()
    deviation = f.numerator - value * f.denominator
    if deviation.is_zero:
        raise FlatBeyondHorizon(
            f"no deviation within {max_terms} terms: function is constant"
        )
    order = deviation.lowest_nonzero_power()
    if order >= max_terms:
        raise FlatBeyondHorizon(f"first deviation at u^{order} exceeds the horizon")
    leading = deviation.coeff(order) / f.denominator.coeff(0)
    return FlatnessReport(value, order, leading, quantity)


def fraction_scan_flatness(f, max_terms=None, quantity=None):
    """`flatness` by scanning num_k against f(0)*den_k as `Fraction`s, one
    coefficient at a time; the first pair that differs gives the order,
    and their difference over den(0) the leading deviation."""
    num, den = f.numerator, f.denominator
    if max_terms is None:
        max_terms = 2 * (max(num.degree, 0) + den.degree) + 4
    value = f.at_origin()
    for order in range(1, max(num.degree, den.degree) + 1):
        scaled = value * den.coeff(order)
        if num.coeff(order) != scaled:
            break
    else:
        raise FlatBeyondHorizon(
            f"no deviation within {max_terms} terms: function is constant"
        )
    if order >= max_terms:
        raise FlatBeyondHorizon(f"first deviation at u^{order} exceeds the horizon")
    leading = (num.coeff(order) - scaled) / den.coeff(0)
    return FlatnessReport(value, order, leading, quantity)


def canonical_delay_flatness(tf):
    """`delay_flatness` as the flatness of the canonical group delay."""
    return flatness(group_delay(tf), quantity=Quantity.DELAY)


def routh_minimum_phase(tf):
    """`cli.minimum_phase` from the full Routh array of every numerator of
    positive degree, with no coefficient-sign test first."""
    if tf.numerator.degree < 1:
        return True
    return routh_hurwitz(tf.numerator).verdict in (Verdict.STRICT_HURWITZ, Verdict.MARGINAL)


def canonical_design_report(tf, provenance):
    """`cli.design_report` with the delay flatness read off the canonical
    group delay, an exactly constant delay reported with order None, and
    the minimum phase read off the full Routh array."""
    return DesignReport(
        tf,
        _pole_stability(tf),
        _flatness_or_constant(group_delay(tf), Quantity.DELAY),
        _flatness_or_constant(magnitude_squared(tf), Quantity.MAGNITUDE_SQUARED),
        routh_minimum_phase(tf),
        provenance,
    )


def fraction_to_str(p, var="s"):
    """`Polynomial.to_str` from the `Fraction` coefficients, each compared
    with 0 and 1 and printed by `str`."""
    if p.is_zero:
        return "0"
    parts = []
    for power in range(p.degree, -1, -1):
        c = p.coefficients[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            x = var if power == 1 else f"{var}^{power}"
            body = x if mag == 1 else f"{mag} {x}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
