"""Tests for rational exponential approximants."""

import math
from fractions import Fraction as F

import pytest

import _oracles
from besselpade.core import Polynomial, TransferFunction, poly_scale_substitute
from besselpade.pade import (
    PadeIndex,
    pade_denominator,
    pade_exp,
    pade_numerator,
    pade_order_defect,
    pade_via_gbp,
)
from besselpade.stability import Verdict, routh_hurwitz


def pe(n, m):
    return pade_exp(PadeIndex(n, m))


def test_index_validation():
    with pytest.raises(ValueError):
        PadeIndex(-1, 0)
    with pytest.raises(ValueError):
        PadeIndex(2, -1)
    assert PadeIndex(3, 2).n == 3


def test_index_message_keywords_and_repr():
    with pytest.raises(ValueError, match="^degrees must be non-negative$"):
        PadeIndex(n=2, m=-1)
    assert PadeIndex(m=2, n=3) == PadeIndex(3, 2)
    assert repr(PadeIndex(3, 2)) == "PadeIndex(n=3, m=2)"
    assert {PadeIndex(3, 2), PadeIndex(3, 2), PadeIndex(2, 3)} == {PadeIndex(2, 3), PadeIndex(3, 2)}


def test_printed_forms():
    tf = pe(3, 2)
    assert str(tf) == "(3 s^2 - 24 s + 60) / (s^3 + 9 s^2 + 36 s + 60)"
    assert str(pe(0, 0)) == "1 / 1"
    assert str(pe(1, 0)) == "1 / (s + 1)"
    assert pe(1, 1) == TransferFunction(Polynomial([2, -1]), Polynomial([2, 1]))


def test_all_pole_denominators():
    # m = 0 gives the monic truncated exponential series
    assert pe(4, 0).denominator == Polynomial([24, 24, 12, 4, 1])
    assert pe(5, 0).denominator == Polynomial([120, 120, 60, 20, 5, 1])
    assert pe(4, 1).denominator == Polynomial([120, 96, 36, 8, 1])


def test_raw_numerator_denominator_scaling():
    # unreduced pair carries the shared factorial normalization
    n, m = 3, 2
    p = pade_numerator(PadeIndex(n, m))
    q = pade_denominator(PadeIndex(n, m))
    assert q.coeff(0) == p.coeff(0)
    assert TransferFunction(p, q) == pe(n, m)


def test_raw_numerator_matches_the_explicit_sum():
    # Q_nm(s) = P_mn(-s), unreduced, against the factorial sum for Q_nm
    for n in range(0, 13):
        for m in range(0, 13):
            assert pade_numerator(PadeIndex(n, m)) == _oracles.explicit_pade_numerator(n, m), (n, m)


def test_two_routes_agree():
    for n in range(0, 11):
        for m in range(0, 11):
            assert pe(n, m) == pade_via_gbp(PadeIndex(n, m)), (n, m)


def test_diagonal_mirror_symmetry():
    # H(s) * H(-s) = 1 on the diagonal
    for n in range(0, 7):
        tf = pe(n, n)
        assert tf.numerator == poly_scale_substitute(tf.denominator, -1)


def test_dc_value_is_one():
    for n in range(0, 7):
        for m in range(0, n + 1):
            tf = pe(n, m)
            assert tf.numerator.coeff(0) == tf.denominator.coeff(0)


def test_order_defect_examples():
    assert pade_order_defect(PadeIndex(3, 2), 10) == 6
    assert pade_order_defect(PadeIndex(1, 0), 6) == 2
    assert pade_order_defect(PadeIndex(0, 0), 4) == 1
    assert pade_order_defect(PadeIndex(2, 2), 12) == 5


def test_order_defect_requires_enough_terms():
    with pytest.raises(ValueError):
        pade_order_defect(PadeIndex(3, 2), 6)
    assert pade_order_defect(PadeIndex(3, 2), 7) == 6


def test_maclaurin_match_through_defect():
    # coefficients agree with the exponential series through degree n+m
    for n in range(0, 6):
        for m in range(0, 6):
            assert pade_order_defect(PadeIndex(n, m), n + m + 4) == n + m + 1


def test_reflected_numerator_is_stable():
    # numerator zeros all lie in the right half plane for m >= 1
    for n, m in [(2, 1), (3, 2), (4, 3), (5, 5), (6, 2)]:
        num = pe(n, m).numerator
        flipped = poly_scale_substitute(num, -1)
        assert routh_hurwitz(flipped).verdict is Verdict.STRICT_HURWITZ, (n, m)


def test_float_evaluation_tracks_exp():
    # crude sanity: approximant near exp(-x) for small real x
    tf = pe(4, 4)
    for x in (0.1, 0.3, 0.5):
        approx = tf.numerator(x) / tf.denominator(x)
        assert approx == pytest.approx(math.exp(-x), abs=1e-9)
