"""The Budak gamma analysis read off the weight tables, for every pair up to
the paper's largest degrees: the delay block against sigma-substitution
into the phase slopes, and the magnitude mismatch against its closed form
in the unit weights of |B_k(j*omega; 2, 1)|^2."""

import _oracles
from besselpade import Polynomial, delay_gamma_polynomials, gbp_of, magnitude_gamma_mismatch


def test_delay_block_matches_sigma_substitution_oracle():
    for n in range(1, 17):
        for m in range(1, n + 1):
            block = delay_gamma_polynomials(m, n)
            want = _oracles.sigma_substituted_delay_block(m, n)
            assert block == want, (m, n)
            assert repr(block) == repr(want), (m, n)


def _unit_weights(k):
    """Normalized u^j coefficients of |B_k(j*omega; 2, 1)|^2, j = 0..k."""
    a = _oracles.para_even(gbp_of(k, 2, 1))
    return [c / a.coeff(0) for c in a.coefficients]


def test_mismatch_is_the_closed_form_of_degree_2j():
    # every pair compare runs on, up to the paper's largest degrees (16, 15)
    weights = {k: _unit_weights(k) for k in range(1, 17)}
    for n in range(2, 17):
        for m in range(1, n):
            for j in range(1, n + 1):
                beta = weights[m][j] if j <= m else 0
                closed = (
                    Polynomial([0, 2]) ** (2 * j) * weights[n][j]
                    - Polynomial([-2, 2]) ** (2 * j) * beta
                )
                mm = magnitude_gamma_mismatch(n, m, j)
                assert mm == closed, (n, m, j)
                assert mm.degree == 2 * j, (n, m, j)

