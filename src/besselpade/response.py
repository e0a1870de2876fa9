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
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .core import EvenRationalFunction, Polynomial, TransferFunction, _convolve, _int_add


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
    lcm, c = p._cleared()
    e, o = c[0::2], c[1::2]
    e[1::2] = [-x for x in e[1::2]]
    o[1::2] = [-x for x in o[1::2]]
    return lcm, e, o


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
        Polynomial([ld * ld * c for c in _abs_squared(en, on)]),
        Polynomial([ln * ln * c for c in _abs_squared(ed, od)]),
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
    if tf.numerator.coeff(0) == 0 or tf.denominator.coeff(0) == 0:
        raise ValueError("phase undefined: zero at the origin")
    dn, dd = _phase_slope(tf.denominator)
    nn, nd = _phase_slope(tf.numerator)
    return EvenRationalFunction(
        Polynomial(_int_add(_convolve(dn, nd), _convolve(nn, dd), -1)),
        Polynomial(_convolve(dd, nd)),
    )


def flatness(
    f: EvenRationalFunction,
    max_terms: Optional[int] = None,
    quantity: Optional[Quantity] = None,
) -> FlatnessReport:
    """Order and leading coefficient of the deviation from the origin value.

    Works on the exact deviation polynomial num - f(0)*den: because the
    denominator is nonzero at the origin, the ratio's Maclaurin series
    first deviates at exactly the lowest nonzero power of that polynomial,
    with coefficient (that entry)/den(0). The default horizon
    2*(deg num + deg den) + 4 always suffices for a non-constant reduced
    function.
    """
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
    each exceed 2^27 times their Horner error bound
    (deg P + 1) * eps * sum |p_k| |x|^k (Higham, Accuracy and Stability of
    Numerical Algorithms, section 5.1), so that both carry about eight
    correct digits; there it is the same to the bit as Horner over the
    Fraction coefficients.

    Every other point, and every point when a coefficient lies beyond the
    double range, is evaluated exactly at Fraction(omega), H(j*omega)
    through the integer split L*P(j*w) = e(w^2) + j*w*o(w^2) of
    `_jw_split`, and rounded once. A point is flagged pole-adjacent, with
    value inf, when a pole lies within a relative distance of 4 eps, by
    the exact Newton test |D(x)| <= 4 * eps * |x| * |D'(x)|: the point is
    then the pole, rounded. Since |x| * |D'(x)| <= deg D * sum |d_k| |x|^k,
    no point that passes the fast-path gate meets this test, so the flag
    is the Newton test at every point.
    """
    transfer = isinstance(f, TransferFunction)
    num, den = f.numerator, f.denominator
    ws = [float(w) for w in omegas]
    exact_point = _exact_sampler(f)
    try:
        float(max(abs(c) for p in (num, den) for c in p.coefficients))
    except OverflowError:
        return [exact_point(w) for w in ws]
    num_gate, den_gate = _horner_gate(num), _horner_gate(den)
    out = []
    for w in ws:
        x = 1j * w if transfer else w * w
        n, d = num(x), den(x)
        t = abs(x)
        if abs(d) > den_gate(t) and abs(n) > num_gate(t):
            out.append(SamplePoint(w, n / d))
        else:
            out.append(exact_point(w))
    return out


def _horner_gate(p: Polynomial) -> Polynomial:
    """2^27 * (deg p + 1) * eps * sum |p_k| t^k as a polynomial in t = |x|:
    a double Horner value of p that exceeds it has about eight correct
    digits."""
    factor = 2**27 * (p.degree + 1) * Fraction(sys.float_info.epsilon)
    return Polynomial([factor * abs(c) for c in p.coefficients])


# A sweep grid point omega_max*i/(points-1) is two roundings, eps in all,
# from its exact value, and u = omega^2 doubles that; 4 eps covers both.
_POLE_RADIUS = 4 * Fraction(sys.float_info.epsilon)


def _at(c: list[int], x: Fraction) -> Fraction:
    """c(x) for an ascending integer list c: with x = a/b, the Horner sum
    sum_k c_k a^k b^(n-k) runs over Z and is divided by b^n once."""
    a, b = x.numerator, x.denominator
    acc, scale = 0, 1
    for c_k in reversed(c):
        acc = acc * a + c_k * scale
        scale *= b
    return Fraction(acc * b, scale)


def _exact_sampler(
    f: Union[EvenRationalFunction, TransferFunction]
) -> Callable[[float], SamplePoint]:
    """w -> f at Fraction(w) in exact arithmetic, rounded once, or flagged
    with value inf when a pole lies within _POLE_RADIUS (relative) of the
    point.

    Numerator and denominator are cleared to integers over L_N and L_D once,
    and the value (L_D / L_N) * N/D is rounded once. The Newton test is the
    same for L_D * D as for D. For a transfer function, L_D * D'(j*w) is
    read off the split (e, o) of L_D * D: differentiating
    D(s) = E(s^2) + s*O(s^2) at s = j*w gives
    D'(j*w) = [o + 2u*o'](u) + j*w*[-2e'](u).
    """
    if isinstance(f, EvenRationalFunction):
        ln, num = f.numerator._cleared()
        ld, den = f.denominator._cleared()
        slope = _derivative(den)
        ratio = Fraction(ld, ln)

        def even_point(w: float) -> SamplePoint:
            u = Fraction(w) ** 2
            d = _at(den, u)
            if abs(d) <= _POLE_RADIUS * u * abs(_at(slope, u)):
                return SamplePoint(w, math.inf, True)
            return SamplePoint(w, _nearest_float(ratio * _at(num, u) / d))

        return even_point

    ln, ne, no = _jw_split(f.numerator)
    ld, de, do = _jw_split(f.denominator)
    se = _int_add(do, [0, *(2 * c for c in _derivative(do))])
    so = [-2 * c for c in _derivative(de)]
    ratio = Fraction(ld, ln)

    def transfer_point(w: float) -> SamplePoint:
        r = Fraction(w)
        u = r * r
        nr, ni = _at(ne, u), r * _at(no, u)
        dr, di = _at(de, u), r * _at(do, u)
        sr, si = _at(se, u), r * _at(so, u)
        norm = dr * dr + di * di
        if norm <= _POLE_RADIUS**2 * u * (sr * sr + si * si):
            return SamplePoint(w, math.inf, True)
        scale = ratio / norm
        re = _nearest_float(scale * (nr * dr + ni * di))
        im = _nearest_float(scale * (ni * dr - nr * di))
        return SamplePoint(w, complex(re, im))

    return transfer_point


def _nearest_float(q: Fraction) -> float:
    """The double nearest q, or an infinity of its sign beyond the range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf
