"""Frequency-domain analysis: exact in u = omega^2, sampled on the axis.

Each polynomial is split once, over the integers, and the split is kept
on the polynomial (`Polynomial.jw_split`). With L > 0 the lcm of the
denominators of P,

    L * P(j*omega) = e(u) + j*omega*o(u),

where e_k and o_k are (-1)^k times the even and odd coefficients of the
integer polynomial L * P. The group delay comes from differentiating the
phase:

    psi_P(u) = [e*o + 2u*(e*o' - o*e')] / (e^2 + u*o^2)
             = [e*O - o*E] / (e^2 + u*o^2),

with O_k = (2k+1)*o_k and E_k = 2k*e_k, since o + 2u*o' has coefficients
(2k+1)*o_k and 2u*e' has 2k*e_k: two products, not three. The delay of
N/D is psi_D - psi_N. Numerator and denominator of psi_P are both
quadratic in (e, o), so L cancels and the delay needs no correction.
For an all-pass, |N(j*omega)| = |D(j*omega)|, the two slope
denominators are proportional, and the delay is formed over one of
them, with no gcd; the factor left out is 1 at the origin, so the
canonical delay and its flatness report are those of the full products.
The squared magnitude |L * P(j*omega)|^2 = e^2 + u*o^2 is exactly
psi_P's denominator; it is formed once per polynomial, with the split,
from two squares that form each cross product e_i*e_k once, and both
the delay and |H(j*omega)|^2, the ratio of those of N and D
times L_D^2 / L_N^2, read it. Products run on integer lists through the
kernels of `_intpoly`; each result becomes two `Polynomial`s once
(`Polynomial.from_integer_form`), when it is put in canonical form.
Both quantities are exact even rational functions; flatness orders fall
out of their Maclaurin expansions at the origin, which the delay's
products give before any reduction.

On the axis, `sample` evaluates in doubles where they are accurate and
over the Gaussian integers elsewhere; `frequency_rows` makes its pairs
sweep rows, taking the phase from the exact N*conj(D) where H's double
has lost it.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from ._intpoly import convolve, derivative, int_add
from ._record import Record
from .core import EvenRationalFunction, Polynomial, TransferFunction

# (value, pole_adjacent) of one sample point
_Pair = tuple[Union[float, complex], bool]

# consecutive points of `_sample_pairs` that share one bound from the
# Horner error gates, evaluated at their largest |x|
_GATE_BLOCK = 32


class Quantity(enum.Enum):
    DELAY = "Delay"
    MAGNITUDE_SQUARED = "MagnitudeSquared"

    def __str__(self) -> str:
        return self.value


class FlatBeyondHorizon(ArithmeticError):
    """Deviation from the origin value has no nonzero term within the horizon."""


class FlatnessReport(Record):
    """Leading behavior of a quantity near omega = 0.

    The deviation f(u) - value_at_origin begins exactly with
    leading_deviation * u**order. Order None, with leading deviation 0,
    marks an exactly constant quantity; `flatness` itself raises on one.
    """

    def __init__(
        self,
        value_at_origin: Fraction,
        order: Optional[int],
        leading_deviation: Fraction,
        quantity: Optional[Quantity] = None,
    ) -> None:
        super().__init__(locals())


def magnitude_squared(tf: TransferFunction) -> EvenRationalFunction:
    """|H(j*omega)|^2 as a reduced even rational function of u:
    |N|^2 / |D|^2 = L_D^2 |L_N N|^2 / (L_N^2 |L_D D|^2)."""
    ln, _, _, num = tf.numerator.jw_split()
    ld, _, _, den = tf.denominator.jw_split()
    return EvenRationalFunction(
        Polynomial.from_integer_form([ld * ld * c for c in num]),
        Polynomial.from_integer_form([ln * ln * c for c in den]),
    )


def _phase_slope(p: Polynomial) -> tuple[list[int], Sequence[int]]:
    """Numerator e*O - o*E and denominator e^2 + u*o^2 of
    psi_P(u) = d(arg P(j*omega))/d(omega), as integer lists; the lcm of
    the split cancels. A constant P has slope [0] over its square."""
    _, e, o, square = p.jw_split()
    odd = [(2 * k + 1) * c for k, c in enumerate(o)]
    even = [2 * k * c for k, c in enumerate(e)]
    return int_add(convolve(e, odd), convolve(o, even), -1) or [0], square


def _delay_products(tf: TransferFunction) -> tuple[list[int], Sequence[int]]:
    """The group delay psi_D - psi_N as the integer lists
    A_D*B_N - A_N*B_D over B_D*B_N, with A_P/B_P = psi_P, not reduced.
    When one slope is zero (an even P) the other slope alone is returned:
    the products would carry that side's B_P as a common factor, which
    only a gcd over Q would take out again. So would an all-pass, where
    |N(j*omega)| = |D(j*omega)| makes B_N = k*B_D with k = B_N(0)/B_D(0)
    > 0, since P(0) != 0: then the delay is kn*A_D - kd*A_N over kn*B_D,
    with kn = B_N(0) and kd = B_D(0), the products divided by B_D/kd.
    That factor is 1 at u = 0, so `delay_flatness` reads the same report
    off it, and the canonical `group_delay` is the same reduced pair."""
    if tf.denominator.coeff(0) == 0:
        raise ValueError("phase undefined: pole at the origin")
    if tf.numerator.coeff(0) == 0:
        raise ValueError("phase undefined: zero at the origin")
    dn, dd = _phase_slope(tf.denominator)
    nn, nd = _phase_slope(tf.numerator)
    if not any(nn):
        return dn, dd
    if not any(dn):
        return [-c for c in nn], nd
    kn, kd = nd[0], dd[0]
    if len(nd) == len(dd) and all(n * kd == d * kn for n, d in zip(nd, dd)):
        return int_add([kn * c for c in dn], [kd * c for c in nn], -1), [kn * c for c in dd]
    return int_add(convolve(dn, nd), convolve(nn, dd), -1), convolve(dd, nd)


def group_delay(tf: TransferFunction) -> EvenRationalFunction:
    """t_d(omega) = -d(arg H(j*omega))/d(omega), exact in u."""
    return EvenRationalFunction(*map(Polynomial.from_integer_form, _delay_products(tf)))


def flatness(
    f: EvenRationalFunction,
    max_terms: Optional[int] = None,
    quantity: Optional[Quantity] = None,
) -> FlatnessReport:
    """Order and leading coefficient of the deviation from the origin value
    (`_first_deviation`). The default horizon 2*(deg num + deg den) + 4
    always suffices for a non-constant reduced function."""
    num, den = f.numerator, f.denominator
    if max_terms is None:
        max_terms = 2 * (max(num.degree, 0) + den.degree) + 4
    (nums, num_den), (dens, den_den) = num.integer_form, den.integer_form
    report = _first_deviation(nums, dens, num_den, den_den, quantity)
    if report.order is None:
        raise FlatBeyondHorizon(
            f"no deviation within {max_terms} terms: function is constant"
        )
    if report.order >= max_terms:
        raise FlatBeyondHorizon(f"first deviation at u^{report.order} exceeds the horizon")
    return report


def _first_deviation(
    num: Sequence[int],
    den: Sequence[int],
    num_den: int = 1,
    den_den: int = 1,
    quantity: Optional[Quantity] = None,
) -> FlatnessReport:
    """Flatness of f = (num/num_den) / (den/den_den), from the integer
    lists num and den with den[0] != 0; order None for a constant f.

    Reads the exact deviation polynomial num - f(0)*den one coefficient at
    a time, without forming it: because the denominator is nonzero at the
    origin, the ratio's Maclaurin series first deviates at exactly the
    lowest k with num_k != f(0)*den_k, with coefficient
    (num_k - f(0)*den_k)/den(0). With N = num and D = den, f(0) is
    N_0 L_D / (L_N D_0) for L_N = num_den and L_D = den_den, so the scan
    is N_k D_0 != N_0 D_k, and the coefficient is
    (N_k D_0 - N_0 D_k) L_D / (L_N D_0^2).
    """
    pairs = itertools.zip_longest(num, den, fillvalue=0)
    n0, d0 = next(pairs)  # the constant terms agree by the choice of f(0)
    value = Fraction(n0 * den_den, num_den * d0)
    for order, (nk, dk) in enumerate(pairs, 1):
        if nk * d0 != n0 * dk:
            leading = Fraction((nk * d0 - n0 * dk) * den_den, num_den * d0 * d0)
            return FlatnessReport(value, order, leading, quantity)
    return FlatnessReport(value, None, Fraction(0), quantity)


def delay_flatness(tf: TransferFunction) -> FlatnessReport:
    """`flatness` of `group_delay(tf)`, read off the products it reduces.

    The delay is num/den before its canonical form, with den(0) > 0. A
    common factor g of num and den has g(0) != 0, and
    num - f(0)*den = g * (the reduced deviation), so the scan finds the
    same lowest power and, over den(0), the same coefficient. The order
    stays below the horizon of the reduced function, which exceeds both
    of its degrees. A constant delay raises what `flatness` raises on
    it: reduced, it is a constant over 1, whose horizon is 4.
    """
    report = _first_deviation(*_delay_products(tf), quantity=Quantity.DELAY)
    if report.order is None:
        raise FlatBeyondHorizon("no deviation within 4 terms: function is constant")
    return report


def magnitude_flatness(tf: TransferFunction) -> FlatnessReport:
    return flatness(magnitude_squared(tf), quantity=Quantity.MAGNITUDE_SQUARED)


class SamplePoint(Record):
    """One point of `sample`: omega, the value there, and whether it lies
    next to a pole."""

    def __init__(
        self, omega: float, value: Union[float, complex], pole_adjacent: bool = False
    ) -> None:
        super().__init__(locals())


def sample(
    f: Union[EvenRationalFunction, TransferFunction],
    omegas: Sequence[float],
) -> list[SamplePoint]:
    """Double-precision evaluation from the exact coefficients.

    Even rational functions are evaluated at u = omega^2 and yield floats;
    transfer functions yield complex H(j*omega). Every omega must be
    finite.

    The fast path is double Horner over the coefficients, converted to
    float once. Its quotient is used wherever numerator and denominator
    are each finite and exceed 2^27 times their Horner error bound
    (deg P + 1) * eps * sum |p_k| |x|^k (Higham, Accuracy and Stability of
    Numerical Algorithms, section 5.1), so that both carry about eight
    correct digits; there it is the same to the bit as Horner over the
    Fraction coefficients. The bounds are polynomials in t = |x| with
    coefficients >= 0, each the exact product rounded once to a double,
    and are evaluated by double Horner once per block of consecutive
    points, at the block's largest t. Rounding is monotone and every step
    g*t + c has t, c >= 0, so that value is at least each point's own; a
    point whose N and D exceed it (and are finite) passes its own test,
    and only a point that fails it, a NaN or inf bound included, runs its
    own bounds and is decided by them. A value that overflows has abs
    inf, above any finite bound, so only the finite condition keeps it
    off the fast path; so does a complex value whose parts are finite
    but whose modulus is beyond the double range.

    Every other point, and every point when a coefficient lies beyond the
    double range, is exact over the integers and rounded once
    (`_exact_sampler`). It is flagged pole-adjacent, with value inf, when
    the exact Newton test |D(x)| <= 4 * eps * |x| * |D'(x)| puts a pole
    within a relative distance of 4 eps: the point is then the pole,
    rounded. Since |x| * |D'(x)| <= deg D * sum |d_k| |x|^k, no point that
    passes the fast-path gate meets this test, so the flag is the Newton
    test at every point.
    """
    ws = [float(w) for w in omegas]
    return [SamplePoint(w, value, flag) for w, (value, flag) in zip(ws, _sample_pairs(f, ws))]


def _sample_pairs(
    f: Union[EvenRationalFunction, TransferFunction], ws: list[float]
) -> list[_Pair]:
    """(value, pole_adjacent) at each double w, as `sample` states it."""
    transfer = isinstance(f, TransferFunction)
    num, den = f.numerator, f.denominator
    exact_point = _exact_sampler(f)
    try:
        for nums, lcm in (num.integer_form, den.integer_form):  # raises past the double range
            max(map(abs, nums), default=0) / lcm
    except OverflowError:
        return [exact_point(w) for w in ws]
    num_gate, den_gate = _horner_gate(num), _horner_gate(den)
    pad = len(den_gate) - len(num_gate)  # leading zeros leave Horner unchanged
    gates = list(zip(reversed(num_gate + [0.0] * pad), reversed(den_gate + [0.0] * -pad)))

    def gate(t: float) -> tuple[float, float]:
        gn = gd = 0.0
        for cn, cd in gates:
            gn = gn * t + cn
            gd = gd * t + cd
        return gn, gd

    inf = math.inf
    # bound methods: calling the instances looks __call__ up at every point
    num_at, den_at = num.__call__, den.__call__
    out = []
    for start in range(0, len(ws), _GATE_BLOCK):
        block = ws[start : start + _GATE_BLOCK]
        xs = [1j * w for w in block] if transfer else [w * w for w in block]
        bn, bd = gate(max(map(abs, xs)))  # at least each point's own gate
        for w, x in zip(block, xs):
            n, d = num_at(x), den_at(x)
            try:
                an, ad = abs(n), abs(d)
            except OverflowError:  # finite parts, modulus beyond the double range
                an = ad = inf
            fast = bd < ad < inf and bn < an < inf
            if not fast:  # the point's own gate decides, as the bound could not
                gn, gd = gate(abs(x))
                fast = gd < ad < inf and gn < an < inf
            out.append((n / d, False) if fast else exact_point(w))
    return out


def frequency_rows(
    tf: TransferFunction, omegas: Sequence[float]
) -> list[tuple[float, float, float, float, bool]]:
    """(omega, magnitude, phase, delay, pole_adjacent) at each double omega,
    from the (value, pole_adjacent) pairs of `sample` for H and for the
    exact group delay. A row next to a pole of H is flagged and carries inf
    throughout; the delay alone is inf where the delay's own denominator
    flags.

    The magnitude is abs of the double H, inf where that overflows though
    both parts are finite. The phase is that of the double H but where,
    at omega != 0, H is real (Im H may have underflowed) or |H| is not
    finite (a part of H, or only its modulus, overflowed). There it
    is the argument of the exact N*conj(D) from `_times_conjugate`, if
    that is not real: its two parts are scaled by one power of two, the
    larger to at most 1000 bits, and rounded once each before `atan2`, so
    the phase keeps full relative precision however far H under- or
    overflows. The positive scales of N and D leave the argument unmoved.

    A factor s^k of N or D adds only the constant phase k*pi/2 or
    -k*pi/2, so the delay is that of N over D with the k lowest, zero,
    coefficients of either dropped. A pole at s = 0 flags the omega = 0
    row; a zero there leaves that row magnitude 0.0 and the finite delay
    of the reduced function.
    """
    (num, ln), (den, ld) = tf.numerator.integer_form, tf.denominator.integer_form
    zeros, poles = tf.numerator.lowest_nonzero_power(), tf.denominator.lowest_nonzero_power()
    reduced = tf
    if zeros or poles:
        reduced = TransferFunction(
            Polynomial.from_integer_form(num[zeros:], ln),
            Polynomial.from_integer_form(den[poles:], ld),
        )
    delay_pairs = _sample_pairs(group_delay(reduced), omegas)
    rows = []
    for w, (h, flagged), (delay, _) in zip(omegas, _sample_pairs(tf, omegas), delay_pairs):
        if flagged:
            rows.append((w, math.inf, math.inf, math.inf, True))
            continue
        try:
            mag = abs(h)
        except OverflowError:  # finite parts, modulus beyond the double range
            mag = math.inf
        phase = cmath.phase(h)
        if w and not (h.imag and mag < math.inf):
            p, q = w.as_integer_ratio()
            a, b, _ = _times_conjugate(num, den, p, q.bit_length() - 1)
            scale = 1 << (max(a.bit_length(), b.bit_length(), 1000) - 1000)
            phase = math.atan2(b / scale, a / scale) if b else phase
        rows.append((w, mag, phase, delay, False))
    return rows


def _horner_gate(p: Polynomial) -> list[float]:
    """The ascending coefficients of 2^27 * (deg p + 1) * eps * sum |p_k| t^k,
    a polynomial in t = |x|, each rounded once: a double Horner value of p
    that exceeds it has about eight correct digits. With eps = 2^-52 and
    p_k = n_k / den, the coefficient is (deg p + 1) |n_k| / (den * 2^25)."""
    nums, den = p.integer_form
    return [(p.degree + 1) * abs(c) / (den << 25) for c in nums]


def _exact_sampler(
    f: Union[EvenRationalFunction, TransferFunction]
) -> Callable[[float], _Pair]:
    """w -> (f at w, exact and rounded once, False), or (inf, True) by the
    Newton test |D(x)| <= 4 eps |x| |D'(x)|, 4 eps = 2^-50. A grid point
    omega_max*i/(points-1) is two roundings, eps in all, from its exact
    value, and u = omega^2 doubles that; 4 eps covers both.

    A double w is p/q in lowest terms with q = 2^k: a finite double is an
    integer times a power of two, so its reduced denominator is one too,
    and Horner's powers of q are shifts. With N, D and D' cleared to
    integer lists, N and D padded to one length n + 1, one homogeneous
    Horner sum over Z[j] gives q^n P(j*p/q), or q^(2n) P(p^2/q^2) for an
    even function; the Newton test then loses the powers of q, and the
    value L_D N / (L_N D) is one int / int true division with a positive
    divisor, so a zero is 0.0.
    """
    num, ln = f.numerator.integer_form
    den, ld = f.denominator.integer_form
    pad = len(den) - len(num)  # (0,) * k is empty for k <= 0
    num, den = num + (0,) * pad, den + (0,) * -pad
    slope = derivative(den)

    if isinstance(f, EvenRationalFunction):

        def even_point(w: float) -> _Pair:
            p, q = w.as_integer_ratio()
            a, k = p * p, 2 * (q.bit_length() - 1)
            d = _horner(den, a, 0, k)[0]
            if abs(d) << 50 <= a * abs(_horner(slope, a, 0, k)[0]):
                return math.inf, True
            n = ld * _horner(num, a, 0, k)[0]
            return _quotient(n if d > 0 else -n, ln * abs(d)), False

        return even_point

    def transfer_point(w: float) -> _Pair:
        p, q = w.as_integer_ratio()
        k = q.bit_length() - 1
        re, im, norm = _times_conjugate(num, den, p, k)
        sr, si = _horner(slope, 0, p, k)
        if norm << 100 <= p * p * (sr * sr + si * si):
            return math.inf, True
        return complex(_quotient(ld * re, ln * norm), _quotient(ld * im, ln * norm)), False

    return transfer_point


def _horner(c: Sequence[int], ar: int, ai: int, k: int) -> tuple[int, int]:
    """2^(k*n) * c((ar + j*ai) / 2^k) as the Gaussian integer (re, im), n = len(c) - 1."""
    re, im, shift = 0, 0, 0
    for c_k in reversed(c):
        re, im = re * ar - im * ai + (c_k << shift), re * ai + im * ar
        shift += k
    return re, im


def _times_conjugate(num: Sequence[int], den: Sequence[int], p: int, k: int) -> tuple[int, ...]:
    """re, im of N*conj(D) and |D|^2 at j*p/2^k times 2^(k(n+m)), 2^(2km);
    num, den hold n+1, m+1 ints."""
    nr, ni = _horner(num, 0, p, k)
    dr, di = _horner(den, 0, p, k)
    return nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di


def _quotient(n: int, d: int) -> float:
    """n / d for d > 0, rounded once; an infinity of n's sign beyond the range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf
