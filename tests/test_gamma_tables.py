"""The Budak gamma analysis read off the weight tables, against the routes
it replaced: sigma-substitution into the phase slopes for the delay block,
canonical magnitudes sampled at integer gamma for the mismatch."""

import _oracles
from besselpade import Polynomial, delay_gamma_polynomials, gbp_of, magnitude_gamma_mismatch


def test_delay_block_matches_sigma_substitution_oracle():
    for n in range(1, 17):
        for m in range(1, n + 1):
            block = delay_gamma_polynomials(m, n)
            assert block == _oracles.sigma_substituted_delay_block(m, n), (m, n)


def _unit_weight(k, j):
    """Normalized u^j coefficient of |B_k(j*omega; 2, 1)|^2, 0 past degree k."""
    a = _oracles.para_even(gbp_of(k, 2, 1))
    return a.coeff(j) / a.coeff(0)


def test_mismatch_matches_sampled_oracle_and_closed_form():
    for n in range(2, 11):
        for m in range(1, n):
            for j in range(1, n + 1):
                mm = magnitude_gamma_mismatch(n, m, j)
                assert mm == _oracles.sampled_magnitude_mismatch(n, m, j), (n, m, j)
                closed = (
                    Polynomial([0, 2]) ** (2 * j) * _unit_weight(n, j)
                    - Polynomial([-2, 2]) ** (2 * j) * _unit_weight(m, j)
                )
                assert mm == closed, (n, m, j)
