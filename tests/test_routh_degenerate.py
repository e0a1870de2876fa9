"""Routh classification of degenerate arrays: zero rows and zero pivots.

Polynomials are built from factors with known roots, so the number of
right-half-plane roots is known exactly and `sign_changes` must equal it.
Every report must be identical to the same one-pass array run over Q.
"""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest

import _oracles
from besselpade.core import Polynomial
from besselpade.stability import StabilityReport, Verdict, routh_hurwitz


def _factor(kind, a, b):
    """(factor, right-half-plane roots, has imaginary-axis roots)."""
    return {
        "lhp": (Polynomial([a, 1]), 0, False),
        "rhp": (Polynomial([-a, 1]), 1, False),
        "axis": (Polynomial([b * b, 0, 1]), 0, True),
        "origin": (Polynomial([0, 1]), 0, True),
        "lhp2": (Polynomial([a * a + b * b, 2 * a, 1]), 0, False),
        "rhp2": (Polynomial([a * a + b * b, -2 * a, 1]), 2, False),
        "mirror": (Polynomial([-a * a, 0, 1]), 1, False),
        "axis2": (Polynomial([b * b, 0, 1]) ** 2, 0, True),
    }[kind]


KINDS = ("lhp", "rhp", "axis", "origin", "lhp2", "rhp2", "mirror", "axis2")


def known_root_polys(seed, count):
    """Seeded (polynomial, right-half-plane count, expected verdict)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = Polynomial([rng.choice([1, 2, 3, -1, -2])])
        rhp, axis = 0, False
        for _ in range(rng.randint(1, 5)):
            factor, r, ax = _factor(rng.choice(KINDS), rng.randint(1, 4), rng.randint(1, 4))
            p, rhp, axis = p * factor, rhp + r, axis or ax
        if rhp:
            verdict = Verdict.NOT_HURWITZ
        elif axis:
            verdict = Verdict.MARGINAL
        else:
            verdict = Verdict.STRICT_HURWITZ
        out.append((p, rhp, verdict))
    return out


def sparse_polys(seed, count):
    """Seeded integer polynomials with many zero coefficients."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 9)
        coeffs = [rng.choice([0, 0, 0, -1, 1, 2, -2, 3]) for _ in range(n)] + [rng.choice([1, -1, 2])]
        if any(coeffs[:-1]):
            out.append(Polynomial(coeffs))
    return out


def has_zero_pivot(p, report):
    return len(report.routh_first_column) < p.degree + 1


def test_sign_changes_count_right_half_plane_roots():
    pivots = 0
    for p, rhp, verdict in known_root_polys(20240917, 1500):
        report = routh_hurwitz(p)
        assert report.sign_changes == rhp, p
        assert report.verdict is verdict, p
        pivots += has_zero_pivot(p, report)
    assert pivots >= 40


def test_named_zero_pivot_polynomials():
    # s^4 - 81 = (s - 3)(s + 3)(s^2 + 9); s^5 - s = s(s - 1)(s + 1)(s^2 + 1)
    for coeffs, partial in (([-81, 0, 0, 0, 1], (1, 4, 0)), ([0, -1, 0, 0, 0, 1], (1, 5, 0))):
        report = routh_hurwitz(Polynomial(coeffs))
        assert report.verdict is Verdict.NOT_HURWITZ
        assert report.sign_changes == 1
        assert report.routh_first_column == tuple(F(c) for c in partial)
        assert report.degenerate_rows == (2,)


def test_reports_match_the_rational_array():
    # the integer rows against the same one-pass array run over Q
    inputs = [p for seed in (77, 79) for p, _, _ in known_root_polys(seed, 1000)]
    inputs += [p for seed in (78, 80) for p in sparse_polys(seed, 1000)]
    zero_rows = pivots = 0
    for p in inputs:
        report = routh_hurwitz(p)
        expected = _oracles.rational_routh_hurwitz(p)
        assert report == expected, p
        assert repr(report) == repr(expected), p
        pivots += has_zero_pivot(p, report)
        zero_rows += bool(report.degenerate_rows) and not has_zero_pivot(p, report)
    assert zero_rows >= 400 and pivots >= 400


def test_an_unread_report_keeps_its_value_semantics():
    # a report from routh_hurwitz forms its column on first read; until
    # then it must copy, pickle, hash, match and refuse assignment exactly
    # as a report built with the column
    inputs = [
        Polynomial([60, 36, 9, 1]),  # strict Hurwitz
        Polynomial([3, 2]),  # degree 1
        Polynomial([4, 4, 1, 1]),  # (s^2 + 4)(s + 1): a zero row
        Polynomial([1, 0, 1]) ** 2,  # a repeated axis pair
        Polynomial([1, 0, 0, 0, 1]),  # s^4 + 1: the partial column ends in 0
        Polynomial([-60, -36, -9, -1]),  # a negative leading coefficient
        Polynomial([F(2, 3), F(5, 2), F(7, 4), 1]),  # denominators above 1
    ]
    # the last rows of the array hold one or two entries, and a row is one
    # entry shorter than the row above it where n - i is odd: degeneracies
    # there, with the rows the report must name
    short_rows = [
        (Polynomial([0, 0, 1]), (1, 2)),  # s^2: zero rows 1 and 2
        (Polynomial([0, 1, 1, 2, 2, 1, 1]), (2, 5)),  # s(s + 1)(s^2 + 1)^2: zero rows 2 and 5
        (Polynomial([1, 1, 0, 0, 1, 1]), (3,)),  # s^5 + s^4 + s + 1: a zero pivot at row 3
        (Polynomial([1, 0, 0, 1]), (1,)),  # s^3 + 1: a zero pivot at row 1
        (Polynomial([4, 0, 5, 0, 1]), (1,)),  # s^4 + 5s^2 + 4, even: a zero second row
        (Polynomial([0, 4, 0, 5, 0, 1]), (1,)),  # s^5 + 5s^3 + 4s, odd: a zero second row
    ]
    for p, rows in short_rows:
        assert routh_hurwitz(p).degenerate_rows == rows, p
    inputs += [p for p, _ in short_rows]
    inputs += [p for seed in (77, 78, 79, 80) for p, _, _ in known_root_polys(seed, 50)]
    for p in inputs:
        eager = _oracles.rational_routh_hurwitz(p)  # built with its column
        for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            twin = clone(routh_hurwitz(p))
            assert twin == eager and repr(twin) == repr(eager), p
        report = routh_hurwitz(p)
        assert report.routh_first_column is report.routh_first_column
        report = routh_hurwitz(p)
        before = hash(report)
        report.routh_first_column  # the first read
        assert hash(report) == before == hash(eager), p
        match routh_hurwitz(p):
            case StabilityReport(verdict, column, changes, rows):
                assert (verdict, column, changes, rows) == (
                    eager.verdict,
                    eager.routh_first_column,
                    eager.sign_changes,
                    eager.degenerate_rows,
                ), p
            case _:
                pytest.fail(f"no match for {p}")
        for report in (routh_hurwitz(p), report):
            with pytest.raises(AttributeError, match="cannot assign to field 'routh_first_column'"):
                report.routh_first_column = eager.routh_first_column
