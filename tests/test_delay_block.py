"""The Budak delay block's check points: a block that disagrees with the
group delay of `budak_tf` at any check point raises."""

from fractions import Fraction as F

import pytest

from besselpade import budak
from besselpade.budak import BudakParams, delay_gamma_polynomials


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
