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
maximally-flat-delay identity of the weight table. The magnitude
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
coefficients, and the rational Routh oracle runs the one-pass array with
every row over Q, where the library clears denominators and runs both
over the integers. The Fraction analysis oracles split P(j*omega) into
`Polynomial`s over Q and form the phase slope, group delay and squared
magnitude as sums of `Polynomial`s, where the library splits L*P over
the integers and works on integer lists. The source oracles build the
generalized Bessel polynomial from one backward factorial per term and
the Pade denominator from the factorial sum with its Fraction
prefactors, where the library steps the term ratio and clears (n+m)!.
"""

import math
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from besselpade import (
    BudakParams,
    DelayCoefficientPolys,
    EvenRationalFunction,
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
)
from besselpade.gbp import backward_factorial


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
