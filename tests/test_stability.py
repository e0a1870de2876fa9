"""Exact stability classification tests.

The randomized cases are cross-checked against numerical root finding
(mpmath at 50 digits), keeping the library itself free of floating
point.
"""

import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from besselpade.core import Polynomial, poly_scale_substitute
from besselpade.gbp import gbp_of
from besselpade.pade import PadeIndex
from besselpade.stability import (
    Theorem1Report,
    Verdict,
    pade_stability,
    routh_hurwitz,
    theorem1_grid,
)

rng = random.Random(550171)


def verdict_of(p: Polynomial) -> Verdict:
    return routh_hurwitz(p).verdict


def oracle_verdict(p: Polynomial, axis_tol=None) -> Verdict:
    """Classify by the sign pattern of numerically computed root real parts."""
    mp.mp.dps = 50
    if axis_tol is None:
        axis_tol = mp.mpf(10) ** -30
    coeffs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in reversed(p.coefficients)]
    roots = mp.polyroots(coeffs, maxsteps=400, extraprec=400)
    res = [mp.re(r) for r in roots]
    if any(r > axis_tol for r in res):
        return Verdict.NOT_HURWITZ
    if any(abs(r) <= axis_tol for r in res):
        return Verdict.MARGINAL
    return Verdict.STRICT_HURWITZ


def test_rejects_constants_and_zero():
    with pytest.raises(ValueError):
        routh_hurwitz(Polynomial())
    with pytest.raises(ValueError):
        routh_hurwitz(Polynomial([5]))


def test_simple_fixtures():
    assert verdict_of(Polynomial([60, 36, 9, 1])) is Verdict.STRICT_HURWITZ
    assert verdict_of(Polynomial([1, 1])) is Verdict.STRICT_HURWITZ
    assert verdict_of(Polynomial([-1, 1])) is Verdict.NOT_HURWITZ
    assert verdict_of(Polynomial([0, 1])) is Verdict.MARGINAL
    assert verdict_of(Polynomial([1, 0, 1])) is Verdict.MARGINAL
    assert verdict_of(Polynomial([-1, 0, 1])) is Verdict.NOT_HURWITZ


def test_negative_leading_coefficient_normalized():
    p = Polynomial([60, 36, 9, 1])
    assert verdict_of(p * F(-1)) is Verdict.STRICT_HURWITZ
    report = routh_hurwitz(p * F(-1))
    assert all(c > 0 for c in report.routh_first_column)


def test_zero_row_replacement():
    # s^4 + s^2 + 1: zero row at index 1, two right-half-plane pairs
    report = routh_hurwitz(Polynomial([1, 0, 1, 0, 1]))
    assert report.verdict is Verdict.NOT_HURWITZ
    assert report.sign_changes == 2
    assert report.degenerate_rows == (1,)


def test_repeated_axis_pair_is_marginal():
    p = Polynomial([1, 0, 1]) ** 2
    report = routh_hurwitz(p)
    assert report.verdict is Verdict.MARGINAL
    assert report.sign_changes == 0
    assert report.degenerate_rows == (1, 3)


def test_axis_pair_with_stable_factor():
    p = Polynomial([1, 0, 1]) * Polynomial([1, 1])
    assert verdict_of(p) is Verdict.MARGINAL


def test_zero_pivot_continuation():
    # s^4 + s^3 + 2 s^2 + 2 s + 1 hits a zero pivot in a nonzero row
    report = routh_hurwitz(Polynomial([1, 2, 2, 1, 1]))
    assert report.verdict is Verdict.NOT_HURWITZ
    assert report.sign_changes == 2
    assert len(report.degenerate_rows) == 1
    # the direct column stops at the offending row
    assert report.routh_first_column[-1] == 0


def test_origin_root():
    assert verdict_of(Polynomial([0, 1, 1])) is Verdict.MARGINAL
    assert verdict_of(Polynomial([0, 0, 1, 1])) is Verdict.MARGINAL


def test_positive_scale_invariance():
    for _ in range(20):
        p = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(2, 7))])
        if p.degree < 1:
            continue
        c = F(rng.randint(1, 7), rng.randint(1, 7))
        assert verdict_of(p) is verdict_of(poly_scale_substitute(p, c))


def lhp_factor():
    # (s + a) or (s^2 + 2a s + a^2 + b^2) with a > 0
    if rng.random() < 0.4:
        return Polynomial([F(rng.randint(1, 9), rng.randint(1, 3)), 1])
    a = F(rng.randint(1, 6), rng.randint(1, 3))
    b = F(rng.randint(1, 6), rng.randint(1, 3))
    return Polynomial([a * a + b * b, 2 * a, 1])


def rhp_factor():
    # reflect a left-half-plane factor across the imaginary axis
    q = poly_scale_substitute(lhp_factor(), -1)
    return q * F(-1) if q.leading < 0 else q


def axis_factor():
    w = F(rng.randint(1, 9), rng.randint(1, 3))
    return Polynomial([w * w, 0, 1])


def test_constructed_roots_match_oracle():
    for _ in range(40):
        p = Polynomial([1])
        want_not = False
        want_axis = False
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.55:
                p = p * lhp_factor()
            elif kind < 0.8:
                p = p * rhp_factor()
                want_not = True
            else:
                p = p * axis_factor()
                want_axis = True
        if p.degree < 1:
            continue
        expected = (
            Verdict.NOT_HURWITZ
            if want_not
            else (Verdict.MARGINAL if want_axis else Verdict.STRICT_HURWITZ)
        )
        assert verdict_of(p) is expected, p


def test_random_integer_polynomials_match_oracle():
    done = 0
    while done < 30:
        coeffs = [rng.randint(-8, 8) for _ in range(rng.randint(3, 8))]
        p = Polynomial(coeffs)
        if p.degree < 2 or p.coeff(0) == 0:
            continue
        # random integer polynomials stay clear of the imaginary axis;
        # skip the rare near-axis draw instead of trusting the float sign
        mp.mp.dps = 50
        cs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in reversed(p.coefficients)]
        roots = mp.polyroots(cs, maxsteps=400, extraprec=400)
        if any(abs(mp.re(r)) < mp.mpf("1e-20") for r in roots):
            continue
        done += 1
        expected = (
            Verdict.NOT_HURWITZ
            if any(mp.re(r) > 0 for r in roots)
            else Verdict.STRICT_HURWITZ
        )
        assert verdict_of(p) is expected, p


def test_grid_guarantee_holds():
    report = theorem1_grid(8, [0, F(1, 2), 1, 2, 7], [F(1, 3), 1, 2, 5])
    assert isinstance(report, Theorem1Report)
    assert report.ok
    assert report.checked == 8 * 5 * 4


def test_report_reprs_and_the_empty_violation_default():
    assert repr(routh_hurwitz(Polynomial([60, 36, 9, 1]))) == (
        "StabilityReport(verdict=<Verdict.STRICT_HURWITZ: 'StrictHurwitz'>, "
        "routh_first_column=(Fraction(1, 1), Fraction(9, 1), Fraction(88, 3), Fraction(60, 1)), "
        "sign_changes=0, degenerate_rows=())"
    )
    empty = Theorem1Report(checked=0)
    assert empty.violations == () and empty.ok
    assert repr(empty) == "Theorem1Report(checked=0, violations=())"
    assert empty == Theorem1Report(0, ())


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        theorem1_grid(3, [-1, 0], [1])
    with pytest.raises(ValueError):
        theorem1_grid(3, [0, 1], [0])
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        theorem1_grid(-1, [1], [1])
    assert theorem1_grid(0, [1], [1]) == Theorem1Report(0, ())


def test_grid_boundary_point_is_marginal_not_violation():
    # n = 1 with alpha = 0 degenerates to the bare monomial
    report = theorem1_grid(1, [0], [1, 2])
    assert report.ok
    assert report.checked == 2


@pytest.mark.parametrize("beta", [F(1), F(2), F(3, 2)])
def test_reversed_gbp_column_is_the_thomson_continued_fraction(beta):
    # s^n B_n(1/s; 2, beta) has Routh column ratios c_{i-1}/c_i of exactly
    # 2(2i-1)/beta (Thomson, 1949): an O(n) check of the array at the
    # paper's degrees, where the forward array of B_n takes seconds
    for n in [*range(1, 41), 86, 120, 200]:
        reversed_gbp = Polynomial(reversed(gbp_of(n, 2, beta).coefficients))
        report = routh_hurwitz(reversed_gbp)
        column = report.routh_first_column
        assert report.verdict is Verdict.STRICT_HURWITZ, (n, beta)
        assert report.sign_changes == 0 and report.degenerate_rows == ()
        assert len(column) == n + 1
        ratios = [column[i - 1] / column[i] for i in range(1, n + 1)]
        assert ratios == [2 * (2 * i - 1) / beta for i in range(1, n + 1)], (n, beta)


def test_delay_approximant_stability():
    assert pade_stability(PadeIndex(3, 2)).verdict is Verdict.STRICT_HURWITZ
    rep41 = pade_stability(PadeIndex(4, 1))
    assert rep41.verdict is Verdict.STRICT_HURWITZ
    assert rep41.routh_first_column == (F(1), F(8), F(24), F(56), F(120))
    rep50 = pade_stability(PadeIndex(5, 0))
    assert rep50.verdict is Verdict.NOT_HURWITZ
    assert rep50.sign_changes == 2
    assert rep50.routh_first_column == (F(1), F(5), F(8), F(0))
    assert rep50.degenerate_rows == (3,)
    with pytest.raises(ValueError):
        pade_stability(PadeIndex(0, 0))
