"""Shared numerical oracles for the test suite.

These deliberately avoid the library's own symbolic pipeline: delay is a
finite difference of the numerically evaluated phase, magnitude is plain
complex evaluation. mpmath supplies the working precision. The gcd oracle
is plain Euclid over Q, without the library's modular coprimality check.
The float evaluation oracle is Horner over the Fraction coefficients.
"""

from fractions import Fraction

import mpmath as mp


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
