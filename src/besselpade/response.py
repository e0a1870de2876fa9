"""Frequency-domain analysis in the variable u = omega^2.

Each polynomial is split once, over the integers. With L > 0 the lcm of
the denominators of P,

    L * P(j*omega) = e(u) + j*omega*o(u),

where e_k and o_k are (-1)^k times the even and odd coefficients of the
integer polynomial L * P. The group delay comes from differentiating the
phase:

    psi_P(u) = [e*o + 2u*(e*o' - o*e')] / (e^2 + u*o^2)

with the delay of N/D equal to psi_D - psi_N. Numerator and denominator
of psi_P are both quadratic in (e, o), so L cancels and the delay needs
no correction. The squared magnitude |L * P(j*omega)|^2 = e^2 + u*o^2
is exactly psi_P's denominator, so |H(j*omega)|^2 is the ratio of those
of N and D, times L_D^2 / L_N^2. Products run on integer lists through
`core._convolve`; each result becomes two `Polynomial`s once, when it is
put in canonical form. Both quantities are exact even rational
functions; flatness orders fall out of their Maclaurin expansions at the
origin.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .core import EvenRationalFunction, Polynomial, TransferFunction, _convolve, _int_add

# (value, pole_adjacent) of one sample point
_Pair = tuple[Union[float, complex], bool]


class Quantity(enum.Enum):
    DELAY = "Delay"
    MAGNITUDE_SQUARED = "MagnitudeSquared"

    def __str__(self) -> str:
        return self.value


class FlatBeyondHorizon(ArithmeticError):
    """Deviation from the origin value has no nonzero term within the horizon."""


@dataclass(frozen=True)
class FlatnessReport:
    """Leading behavior of a quantity near omega = 0.

    The deviation f(u) - value_at_origin begins exactly with
    leading_deviation * u**order. Order None, with leading deviation 0,
    marks an exactly constant quantity; `flatness` itself raises on one.
    """

    value_at_origin: Fraction
    order: Optional[int]
    leading_deviation: Fraction
    quantity: Optional[Quantity] = None


def _jw_split(p: Polynomial) -> tuple[int, list[int], list[int]]:
    """(L, e, o) with L*P(j*omega) = e(u) + j*omega*o(u), u = omega^2: L > 0
    the lcm of P's denominators, e and o ascending integer lists."""
    e, o = list(p._nums[0::2]), list(p._nums[1::2])
    e[1::2] = [-x for x in e[1::2]]
    o[1::2] = [-x for x in o[1::2]]
    return p._den, e, o


def _derivative(c: list[int]) -> list[int]:
    return [k * x for k, x in enumerate(c)][1:]


def _abs_squared(e: list[int], o: list[int]) -> list[int]:
    """e^2 + u*o^2 = |L*P(j*omega)|^2 from the split (L, e, o) of P."""
    return _int_add(_convolve(e, e), [0, *_convolve(o, o)])


def magnitude_squared(tf: TransferFunction) -> EvenRationalFunction:
    """|H(j*omega)|^2 as a reduced even rational function of u:
    |N|^2 / |D|^2 = L_D^2 |L_N N|^2 / (L_N^2 |L_D D|^2)."""
    ln, en, on = _jw_split(tf.numerator)
    ld, ed, od = _jw_split(tf.denominator)
    return EvenRationalFunction(
        Polynomial._from_ints([ld * ld * c for c in _abs_squared(en, on)], 1),
        Polynomial._from_ints([ln * ln * c for c in _abs_squared(ed, od)], 1),
    )


def _phase_slope(p: Polynomial) -> tuple[list[int], list[int]]:
    """Numerator and denominator of psi_P(u) = d(arg P(j*omega))/d(omega),
    as integer lists; the lcm of the split cancels."""
    _, e, o = _jw_split(p)
    cross = _int_add(_convolve(e, _derivative(o)), _convolve(o, _derivative(e)), -1)
    num = _int_add(_convolve(e, o), [0, *(2 * c for c in cross)])
    return num, _abs_squared(e, o)


def group_delay(tf: TransferFunction) -> EvenRationalFunction:
    """t_d(omega) = -d(arg H(j*omega))/d(omega), exact in u."""
    if tf.denominator.coeff(0) == 0:
        raise ValueError("phase undefined: pole at the origin")
    if tf.numerator.coeff(0) == 0:
        raise ValueError("phase undefined: zero at the origin")
    dn, dd = _phase_slope(tf.denominator)
    nn, nd = _phase_slope(tf.numerator)
    return EvenRationalFunction(
        Polynomial._from_ints(_int_add(_convolve(dn, nd), _convolve(nn, dd), -1), 1),
        Polynomial._from_ints(_convolve(dd, nd), 1),
    )


def flatness(
    f: EvenRationalFunction,
    max_terms: Optional[int] = None,
    quantity: Optional[Quantity] = None,
) -> FlatnessReport:
    """Order and leading coefficient of the deviation from the origin value.

    Reads the exact deviation polynomial num - f(0)*den one coefficient at
    a time, without forming it: because the denominator is nonzero at the
    origin, the ratio's Maclaurin series first deviates at exactly the
    lowest k with num_k != f(0)*den_k, with coefficient
    (num_k - f(0)*den_k)/den(0). The default horizon
    2*(deg num + deg den) + 4 always suffices for a non-constant reduced
    function.

    With num = N/L_N and den = D/L_D over the integers, f(0) is
    N_0 L_D / (L_N D_0), so the scan is N_k D_0 != N_0 D_k on the stored
    numerators, and the coefficient is (N_k D_0 - N_0 D_k) L_D / (L_N D_0^2).
    """
    num, den = f.numerator, f.denominator
    if max_terms is None:
        max_terms = 2 * (max(num.degree, 0) + den.degree) + 4
    pairs = itertools.zip_longest(num._nums, den._nums, fillvalue=0)
    n0, d0 = next(pairs)  # the constant terms agree by the choice of f(0)
    for order, (nk, dk) in enumerate(pairs, 1):
        if nk * d0 != n0 * dk:
            break
    else:
        raise FlatBeyondHorizon(
            f"no deviation within {max_terms} terms: function is constant"
        )
    if order >= max_terms:
        raise FlatBeyondHorizon(f"first deviation at u^{order} exceeds the horizon")
    value = Fraction(n0 * den._den, num._den * d0)
    leading = Fraction((nk * d0 - n0 * dk) * den._den, num._den * d0 * d0)
    return FlatnessReport(value, order, leading, quantity)


def delay_flatness(tf: TransferFunction) -> FlatnessReport:
    return flatness(group_delay(tf), quantity=Quantity.DELAY)


def magnitude_flatness(tf: TransferFunction) -> FlatnessReport:
    return flatness(magnitude_squared(tf), quantity=Quantity.MAGNITUDE_SQUARED)


@dataclass(frozen=True)
class SamplePoint:
    omega: float
    value: Union[float, complex]
    pole_adjacent: bool = False


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
    Fraction coefficients. The two bounds run in one loop over their
    coefficients, each the exact product rounded once to a double. A
    value that overflows has abs inf, above any finite bound, so only the
    finite condition keeps it off the fast path.

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
        for p in (num, den):  # raises past the double range
            max(map(abs, p._nums), default=0) / p._den
    except OverflowError:
        return [exact_point(w) for w in ws]
    num_gate, den_gate = _horner_gate(num), _horner_gate(den)
    pad = len(den_gate) - len(num_gate)  # leading zeros leave Horner unchanged
    gates = list(zip(reversed(num_gate + [0.0] * pad), reversed(den_gate + [0.0] * -pad)))
    out = []
    for w in ws:
        x = 1j * w if transfer else w * w
        t = abs(x)
        gn = gd = 0.0
        for cn, cd in gates:
            gn = gn * t + cn
            gd = gd * t + cd
        n, d = num(x), den(x)
        if gd < abs(d) < math.inf and gn < abs(n) < math.inf:
            out.append((n / d, False))
        else:
            out.append(exact_point(w))
    return out


def _horner_gate(p: Polynomial) -> list[float]:
    """The ascending coefficients of 2^27 * (deg p + 1) * eps * sum |p_k| t^k,
    a polynomial in t = |x|, each rounded once: a double Horner value of p
    that exceeds it has about eight correct digits. With eps = 2^-52 and
    p_k = n_k / den, the coefficient is (deg p + 1) |n_k| / (den * 2^25)."""
    return [(p.degree + 1) * abs(c) / (p._den << 25) for c in p._nums]


def _exact_sampler(
    f: Union[EvenRationalFunction, TransferFunction]
) -> Callable[[float], _Pair]:
    """w -> (f at w, exact and rounded once, False), or (inf, True) by the
    Newton test |D(x)| <= 4 eps |x| |D'(x)|, 4 eps = 2^-50. A grid point
    omega_max*i/(points-1) is two roundings, eps in all, from its exact
    value, and u = omega^2 doubles that; 4 eps covers both.

    A double w is p/q. With N, D and D' cleared to integer lists, N and D
    padded to one length n + 1, one homogeneous Horner sum over Z[j] gives
    q^n P(j*p/q), or q^(2n) P(p^2/q^2) for an even function; the Newton
    test then loses the powers of q, and the value L_D N / (L_N D) is one
    int / int true division with a positive divisor, so a zero is 0.0.
    """
    ln, num = f.numerator._den, list(f.numerator._nums)
    ld, den = f.denominator._den, list(f.denominator._nums)
    pad = len(den) - len(num)  # [0] * k is empty for k <= 0
    num, den = num + [0] * pad, den + [0] * -pad
    slope = _derivative(den)

    if isinstance(f, EvenRationalFunction):

        def even_point(w: float) -> _Pair:
            p, q = w.as_integer_ratio()
            a, b = p * p, q * q
            d = _horner(den, a, 0, b)[0]
            if abs(d) << 50 <= a * abs(_horner(slope, a, 0, b)[0]):
                return math.inf, True
            n = ld * _horner(num, a, 0, b)[0]
            return _quotient(n if d > 0 else -n, ln * abs(d)), False

        return even_point

    def transfer_point(w: float) -> _Pair:
        p, q = w.as_integer_ratio()
        dr, di = _horner(den, 0, p, q)
        sr, si = _horner(slope, 0, p, q)
        norm = dr * dr + di * di
        if norm << 100 <= p * p * (sr * sr + si * si):
            return math.inf, True
        nr, ni = _horner(num, 0, p, q)
        re = _quotient(ld * (nr * dr + ni * di), ln * norm)
        im = _quotient(ld * (ni * dr - nr * di), ln * norm)
        return complex(re, im), False

    return transfer_point


def _horner(c: list[int], ar: int, ai: int, b: int) -> tuple[int, int]:
    """b^n * c((ar + j*ai)/b) as the Gaussian integer (re, im), n = len(c) - 1."""
    re, im, scale = 0, 0, 1
    for c_k in reversed(c):
        re, im = re * ar - im * ai + c_k * scale, re * ai + im * ar
        scale *= b
    return re, im


def _quotient(n: int, d: int) -> float:
    """n / d for d > 0, rounded once; an infinity of n's sign beyond the range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf
