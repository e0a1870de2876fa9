"""Tests for the two-parameter polynomial family."""

import random
from fractions import Fraction as F

import pytest

from besselpade.core import Polynomial, poly_scale_substitute
from besselpade.gbp import (
    GbpParams,
    backward_factorial,
    classical_bessel,
    gbp,
    gbp_of,
    positivity_necessary,
)

rng = random.Random(77003)


def test_backward_factorial():
    assert backward_factorial(F(5), 0) == 1
    assert backward_factorial(F(5), 3) == 5 * 4 * 3
    assert backward_factorial(F(1, 2), 2) == F(1, 2) * F(-1, 2)
    with pytest.raises(ValueError):
        backward_factorial(F(2), -1)


def test_params_validation():
    with pytest.raises(ValueError):
        GbpParams(-1, 2, 1)
    with pytest.raises(ValueError):
        GbpParams(3, 2, 0)
    p = GbpParams(3, 2, 1)
    assert isinstance(p.alpha, F) and isinstance(p.beta, F)


def test_params_messages_coercion_and_repr():
    with pytest.raises(ValueError, match="^degree must be non-negative$"):
        GbpParams(-1, 2, 1)
    with pytest.raises(ValueError, match="^beta must be nonzero$"):
        GbpParams(3, 2, "0/5")
    p = GbpParams(n=3, alpha="1/2", beta=-2)
    assert (type(p.alpha), type(p.beta)) == (F, F)
    assert p == GbpParams(3, F(1, 2), F(-2))
    assert repr(p) == "GbpParams(n=3, alpha=Fraction(1, 2), beta=Fraction(-2, 1))"


def test_known_polynomials():
    assert gbp_of(3, 1, 1) == Polynomial([60, 36, 9, 1])
    assert gbp_of(3, 2, 2) == Polynomial([15, 15, 6, 1])
    assert gbp_of(0, 1, 1) == Polynomial([1])
    assert gbp_of(2, 0, 1) == Polynomial([2, 2, 1])
    assert gbp_of(1, 2, 1) == Polynomial([2, 1])
    assert gbp_of(2, 2, 1) == Polynomial([12, 6, 1])
    assert gbp_of(3, 2, 1) == Polynomial([120, 60, 12, 1])


def test_monic_of_degree_n():
    for _ in range(40):
        n = rng.randint(0, 9)
        alpha = F(rng.randint(-6, 6), rng.randint(1, 3))
        beta = F(rng.randint(1, 8), rng.randint(1, 3)) * rng.choice([1, -1])
        p = gbp_of(n, alpha, beta)
        assert p.degree == n
        assert p.leading == 1


def test_classical_values_at_origin():
    import math

    for n in range(0, 9):
        p = gbp_of(n, 2, 1)
        assert p.coeff(0) == math.factorial(2 * n) // math.factorial(n)


def test_classical_normalization():
    assert classical_bessel(2) == Polynomial([3, 3, 1])
    assert classical_bessel(3) == Polynomial([15, 15, 6, 1])
    # halving the frequency scale relates the two conventions
    for n in range(0, 7):
        lhs = poly_scale_substitute(gbp_of(n, 2, 1), 2)
        rhs = classical_bessel(n) * F(2**n)
        assert lhs == rhs


def test_scaling_identity():
    for _ in range(40):
        n = rng.randint(0, 8)
        alpha = F(rng.randint(-5, 5), rng.randint(1, 3))
        beta = F(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([1, -1])
        lhs = gbp_of(n, alpha, beta) * beta**n
        rhs = poly_scale_substitute(gbp_of(n, alpha, 1), beta)
        assert lhs == rhs


def test_three_term_recurrence():
    # unit-scale classical family: p_n = (2n-1) p_{n-1} + s^2 p_{n-2}
    s2 = Polynomial.monomial(2)
    for n in range(2, 11):
        pn = gbp_of(n, 2, 2)
        assert pn == gbp_of(n - 1, 2, 2) * (2 * n - 1) + s2 * gbp_of(n - 2, 2, 2)


def test_positivity_necessary_matches_coefficient_signs():
    # for n >= 1 the parameter condition coincides with all-positive coefficients
    alphas = [F(a, 2) for a in range(-12, 13)]
    betas = [F(b, 3) for b in range(1, 10)]
    for n in range(1, 7):
        for alpha in alphas:
            for beta in betas:
                params = GbpParams(n, alpha, beta)
                all_pos = all(c > 0 for c in gbp(params).coefficients)
                assert positivity_necessary(params) == all_pos, (n, alpha, beta)


def test_positivity_necessary_rejects_negative_beta():
    assert not positivity_necessary(GbpParams(3, 2, -1))
