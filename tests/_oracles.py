"""Shared oracles for the test suite, one per quantity, each from its definition.

- transfer_value, magnitude_value: H(j*omega) and |H|^2 by mpmath evaluation.
- fd_group_delay: central difference of the numerically evaluated phase.
- para_even: P(s)*P(-s) with s^2 -> -u.
- explicit_pade_numerator, factorial_sum_pade_*: the Pade factorial sums.
- backward_factorial_gbp: B_n(s; alpha, beta), one backward factorial a term.
- double_sum_magnitude: Budak's closed double sum for |G(j*omega)|^2.
- factorial_coefficient_ratio: A_j as the printed factorial ratio.
- rationalized_gamma_pair: the roots (A -+ sqrt(A))/(A - 1) of (g/(g-1))^2 = A.
- euclid_gcd: Euclid's loop over Q.
- fraction_horner: Horner over the Fraction coefficients.
- fraction_product, fraction_sum, fraction_scalar_product, fraction_monic,
  fraction_content, fraction_derivative, fraction_scale_substitute: the
  same operation on the Fraction coefficient lists.
- sigma_substituted_delay_block: the Budak delay block from sigma = 2 gamma
  and 2(gamma - 1) substituted into the Fraction phase slopes.
- refined_surd_to_float: a surd bracketed by exact intervals until both
  ends round alike.
- mpmath_surd_sign: the sign of a surd minus a rational, by mpmath at 120
  digits (by Fraction when the surd is rational).
- interval_mutual_exclusion: the gamma candidates separated by refined
  intervals.
- rational_routh_hurwitz: the Routh array with every row over Q.
- fraction_jw_split, fraction_phase_slope, fraction_group_delay,
  fraction_magnitude_squared: P(j*omega) split into even and odd parts over Q.
- fraction_sample_point: f at Fraction(omega), rounded once.
- four_call_sample: `sample` with the Horner error gates evaluated per point.
- sample_sweep_rows: the CSV rows of `sweep` from public `sample`.
- deviation_polynomial_flatness: the lowest power of num - f(0)*den.
- canonical_delay_flatness: the flatness of the canonical group delay.
- routh_minimum_phase: the full Routh array of the numerator.
- canonical_design_report: a design report from the oracles above.
- fraction_to_str: a polynomial printed from its Fraction coefficients.
"""

import cmath
import math
import sys
from fractions import Fraction

import mpmath as mp

from besselpade import (
    DelayCoefficientPolys,
    EvenRationalFunction,
    FlatBeyondHorizon,
    FlatnessReport,
    Polynomial,
    QuadSurd,
    StabilityReport,
    TransferFunction,
    Verdict,
    gamma_candidates,
    group_delay,
    routh_hurwitz,
    sample,
)
from besselpade.cli import DesignReport
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
    if any(not p.is_zero for p in num[n + m :]):
        raise ArithmeticError("delay numerator exceeds degree n+m-1")
    scale = 1 / const.coeff(0)
    num_rows = [p * scale for p in num[1 : n + m]]
    den_rows = [p * scale for p in den[1:]]
    # lam makes lam * (the unit constant and every coefficient) integers with gcd 1
    values = [Fraction(1)] + [c for p in (*num_rows, *den_rows) for c in p.coefficients]
    lam = 1 / fraction_content(Polynomial(values))
    return DelayCoefficientPolys(
        m, n, tuple(p * lam for p in num_rows), tuple(p * lam for p in den_rows), lam
    )


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


def mpmath_surd_sign(x, r):
    """Sign of the QuadSurd x minus the rational r.

    A rational x is decided by Fraction. Otherwise x - r is irrational and
    is evaluated by mpmath at 120 digits; the check that it lies above
    10^-90 keeps the sign out of reach of the evaluation error for values
    up to about 10^25.
    """
    r = Fraction(r)
    if x.is_rational:
        diff = x.a - r
        return (diff > 0) - (diff < 0)
    with mp.workdps(120):
        diff = (
            mp.mpf(x.a.numerator) / x.a.denominator
            + mp.mpf(x.b.numerator) / x.b.denominator * mp.sqrt(x.d)
            - mp.mpf(r.numerator) / r.denominator
        )
        assert abs(diff) > mp.mpf(10) ** -90, (x, r)
        return 1 if diff > 0 else -1


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


def _sign_changes(column):
    changes = 0
    for a, b in zip(column, column[1:]):
        if (a > 0) != (b > 0):
            changes += 1
    return changes


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
    # an even side has slope 0, and its |P|^2 would be a common factor
    if nn.is_zero:
        return EvenRationalFunction(dn, dd)
    if dn.is_zero:
        return EvenRationalFunction(-nn, nd)
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


def canonical_delay_flatness(tf):
    """`delay_flatness` as the flatness of the canonical group delay."""
    return flatness(group_delay(tf), quantity=Quantity.DELAY)


def routh_minimum_phase(tf):
    """`cli.minimum_phase` from the full Routh array of every numerator of
    positive degree, with no coefficient-sign test first."""
    if tf.numerator.degree < 1:
        return True
    return routh_hurwitz(tf.numerator).verdict in (Verdict.STRICT_HURWITZ, Verdict.MARGINAL)


def _deviation_report(f, quantity):
    """`deviation_polynomial_flatness` of f, or order None and leading
    deviation 0 when the deviation num - f(0)*den is exactly 0."""
    value = f.at_origin()
    if (f.numerator - value * f.denominator).is_zero:
        return FlatnessReport(value, None, Fraction(0), quantity)
    return deviation_polynomial_flatness(f, quantity=quantity)


def canonical_design_report(tf, provenance):
    """`cli.design_report` with both flatness reports read off the deviation
    polynomials of the canonical group delay and squared magnitude, and the
    minimum phase off the full Routh array. A constant denominator has no
    poles: StrictHurwitz, with first column (d0,)."""
    den = tf.denominator
    if den.degree == 0:
        stability = StabilityReport(Verdict.STRICT_HURWITZ, (den.coeff(0),), 0, ())
    else:
        stability = routh_hurwitz(den)
    return DesignReport(
        tf,
        stability,
        _deviation_report(group_delay(tf), Quantity.DELAY),
        _deviation_report(magnitude_squared(tf), Quantity.MAGNITUDE_SQUARED),
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
