"""Frequency-domain analysis in the variable u = omega^2.

Each polynomial is split once as P(j*omega) = e(u) + j*omega*o(u). The
group delay comes from differentiating the phase:

    psi_P(u) = [e*o + 2u*(e*o' - o*e')] / (e^2 + u*o^2)

with the delay of N/D equal to psi_D - psi_N. The squared magnitude
|P(j*omega)|^2 = e^2 + u*o^2 is exactly psi_P's denominator, so
|H(j*omega)|^2 is the ratio of those of N and D. Both quantities are
exact even rational functions; flatness orders fall out of their
Maclaurin expansions at the origin.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import EvenRationalFunction, Polynomial, TransferFunction


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


_U = Polynomial([0, 1])


def _jw_split(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(e, o) with P(j*omega) = e(u) + j*omega*o(u), u = omega^2."""
    return p.even_part().scale_substitute(-1), p.odd_part().scale_substitute(-1)


def _abs_squared(e: Polynomial, o: Polynomial) -> Polynomial:
    """|P(j*omega)|^2 = e^2 + u*o^2 from the split (e, o) of P."""
    return e * e + _U * o * o


def magnitude_squared(tf: TransferFunction) -> EvenRationalFunction:
    """|H(j*omega)|^2 as a reduced even rational function of u."""
    return EvenRationalFunction(
        _abs_squared(*_jw_split(tf.numerator)), _abs_squared(*_jw_split(tf.denominator))
    )


def _phase_slope(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Numerator and denominator of psi_P(u) = d(arg P(j*omega))/d(omega)."""
    e, o = _jw_split(p)
    num = e * o + 2 * _U * (e * o.derivative() - o * e.derivative())
    return num, _abs_squared(e, o)


def group_delay(tf: TransferFunction) -> EvenRationalFunction:
    """t_d(omega) = -d(arg H(j*omega))/d(omega), exact in u."""
    if tf.numerator.coeff(0) == 0 or tf.denominator.coeff(0) == 0:
        raise ValueError("phase undefined: zero at the origin")
    dn, dd = _phase_slope(tf.denominator)
    nn, nd = _phase_slope(tf.numerator)
    return EvenRationalFunction(dn * nd - nn * dd, dd * nd)


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
    through the split P(j*w) = e(w^2) + j*w*o(w^2) of `_jw_split`, and
    rounded once. A point is flagged pole-adjacent, with value inf, when a
    pole lies within a relative distance of 4 eps, by the exact Newton
    test |D(x)| <= 4 * eps * |x| * |D'(x)|: the point is then the pole,
    rounded. Since |x| * |D'(x)| <= deg D * sum |d_k| |x|^k, no point that
    passes the fast-path gate meets this test, so the flag is the Newton
    test at every point.
    """
    transfer = isinstance(f, TransferFunction)
    num, den = f.numerator, f.denominator
    ws = [float(w) for w in omegas]
    try:
        float(max(abs(c) for p in (num, den) for c in p.coefficients))
    except OverflowError:
        return [_exact_point(f, w) for w in ws]
    num_gate, den_gate = _horner_gate(num), _horner_gate(den)
    out = []
    for w in ws:
        x = 1j * w if transfer else w * w
        n, d = num(x), den(x)
        t = abs(x)
        if abs(d) > den_gate(t) and abs(n) > num_gate(t):
            out.append(SamplePoint(w, n / d))
        else:
            out.append(_exact_point(f, w))
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


def _exact_point(
    f: Union[EvenRationalFunction, TransferFunction], w: float
) -> SamplePoint:
    """f at Fraction(w) in exact arithmetic, rounded once, or flagged with
    value inf when a pole lies within _POLE_RADIUS (relative) of the point."""
    r = Fraction(w)
    u = r * r
    if isinstance(f, EvenRationalFunction):
        d = f.denominator(u)
        if abs(d) <= _POLE_RADIUS * u * abs(f.denominator.derivative()(u)):
            return SamplePoint(w, math.inf, True)
        return SamplePoint(w, _nearest_float(f.numerator(u) / d))

    def at_jr(p: Polynomial) -> tuple[Fraction, Fraction]:
        e, o = _jw_split(p)
        return e(u), r * o(u)

    nr, ni = at_jr(f.numerator)
    dr, di = at_jr(f.denominator)
    sr, si = at_jr(f.denominator.derivative())
    norm = dr * dr + di * di
    if norm <= _POLE_RADIUS**2 * u * (sr * sr + si * si):
        return SamplePoint(w, math.inf, True)
    re = _nearest_float((nr * dr + ni * di) / norm)
    im = _nearest_float((ni * dr - nr * di) / norm)
    return SamplePoint(w, complex(re, im))


def _nearest_float(q: Fraction) -> float:
    """The double nearest q, or an infinity of its sign beyond the range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf
