"""The Budak delay block against its term-by-term and interpolation
oracles, and its check points."""

from fractions import Fraction as F

import pytest

import _oracles
from besselpade import budak
from besselpade.budak import BudakParams, delay_gamma_polynomials


def test_delay_block_matches_term_by_term_oracle():
    # every pair compare and the order-2 certificate run on, up to (16, 15)
    for n in range(1, 17):
        for m in range(1, n + 1):
            block, want = delay_gamma_polynomials(m, n), _oracles.term_by_term_delay_block(m, n)
            assert block == want, (m, n)
            assert repr(block) == repr(want), (m, n)


def test_delay_block_matches_interpolation_oracle():
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert delay_gamma_polynomials(m, n) == _oracles.interpolated_delay_block(m, n), (m, n)


def _shift_gamma_at(monkeypatch, shifted):
    """Make budak_tf answer for gamma + 1 whenever gamma is in `shifted`."""
    real = budak.budak_tf

    def wrong(params):
        if params.gamma in shifted:
            params = BudakParams(params.m, params.n, params.gamma + 1)
        return real(params)

    monkeypatch.setattr(budak, "budak_tf", wrong)


def test_delay_block_fails_a_wrong_default_check_point(monkeypatch):
    _shift_gamma_at(monkeypatch, {F(2)})
    with pytest.raises(ArithmeticError):
        delay_gamma_polynomials(2, 3)


def test_delay_block_checks_every_given_sample(monkeypatch):
    samples = [F(k, 7) for k in range(15, 27)]
    _shift_gamma_at(monkeypatch, {samples[-1]})
    with pytest.raises(ArithmeticError):
        delay_gamma_polynomials(2, 3, samples)
