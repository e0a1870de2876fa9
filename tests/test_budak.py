"""Tests for the split-exponential approximant family."""

from fractions import Fraction as F

import pytest

import _oracles
from besselpade.core import (
    EvenRationalFunction,
    Polynomial,
    QuadSurd,
    TransferFunction,
    poly_gcd,
)
from besselpade.budak import (
    BudakParams,
    GammaSolutions,
    budak_magnitude_closed,
    budak_params,
    budak_tf,
    coefficient_ratio,
    delay_flatness_order_budak,
    delay_gamma_polynomials,
    gamma_candidates,
    gamma_order2,
    magnitude_gamma_mismatch,
    mutual_exclusion,
    order2_certificate,
)
from besselpade.pade import PadeIndex, pade_exp
from besselpade.response import magnitude_squared
from besselpade.stability import Verdict

G = Polynomial([0, 1])  # the gamma variable for block fixtures


def printed_tf(g):
    # degree (2,3) closed form: numerator 5(g-1)^2 s^2 + 15(g-1) s + 15,
    # denominator g^3 s^3 + 6 g^2 s^2 + 15 g s + 15
    g = F(g)
    return TransferFunction(
        Polynomial([15, 15 * (g - 1), 5 * (g - 1) ** 2]),
        Polynomial([15, 15 * g, 6 * g**2, g**3]),
    )


def printed_mag(g):
    g = F(g)
    return EvenRationalFunction(
        Polynomial([225, 75 * (g - 1) ** 2, 25 * (g - 1) ** 4]),
        Polynomial([225, 45 * g**2, 6 * g**4, g**6]),
    )


def test_params_validation():
    with pytest.raises(ValueError):
        budak_params(2, 3, 0)
    with pytest.raises(ValueError):
        budak_params(2, 3, -1)
    with pytest.raises(ValueError):
        budak_params(4, 3, 1)
    with pytest.raises(ValueError):
        budak_params(0, 0, 1)
    p = budak_params(2, 3, "7/3")
    assert p.rational_gamma() == F(7, 3)


def test_params_messages_and_gamma_coercion():
    for args, message in [
        ((0, 0, 1), "denominator degree must be at least 1"),
        ((4, 3, 1), "numerator degree must satisfy 0 <= m <= n"),
        ((2, 3, 0), "gamma must be positive"),
        ((2, 3, QuadSurd(F(1, 2), -1, 2)), "gamma must be positive"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            BudakParams(*args)
    p = BudakParams(m=2, n=3, gamma="7/3")
    assert type(p.gamma) is F and p == BudakParams(2, 3, F(7, 3))
    assert repr(p) == "BudakParams(m=2, n=3, gamma=Fraction(7, 3))"
    root15 = QuadSurd(F(5, 2), F(1, 2), 15)
    assert BudakParams(2, 3, root15).gamma is root15


def test_gamma_solutions_default_to_no_exact_pair():
    j1, j2 = gamma_candidates(5, 3, 1), gamma_candidates(5, 3, 2)
    assert j1.exact is not None and j2.exact is None
    fields = {name: getattr(j1, name) for name in j1.__match_args__ if name != "exact"}
    assert GammaSolutions(**fields).exact is None


def test_irrational_gamma_blocked_from_tf():
    root15 = QuadSurd(F(5, 2), F(1, 2), 15)
    p = budak_params(2, 3, root15)
    with pytest.raises(ValueError):
        budak_tf(p)
    # a surd that happens to be rational passes through
    assert budak_params(2, 3, QuadSurd(2, 0, 1)).rational_gamma() == 2


def test_tf_printed_forms():
    for g in (F(1, 2), F(2), F(3), F(7, 3)):
        assert budak_tf(budak_params(2, 3, g)) == printed_tf(g), g


def test_tf_gamma_one_degenerates_to_all_pole():
    tf = budak_tf(budak_params(2, 3, 1))
    assert tf == TransferFunction(Polynomial([15]), Polynomial([15, 15, 6, 1]))
    assert tf == printed_tf(1)


def test_tf_m_zero_is_all_pole():
    tf = budak_tf(budak_params(0, 2, 1))
    assert tf == TransferFunction(Polynomial([3]), Polynomial([3, 3, 1]))


def test_half_gamma_relations():
    # m = n at gamma = 1/2 recovers the diagonal approximant; m < n does not
    assert budak_tf(budak_params(3, 3, F(1, 2))) == pade_exp(PadeIndex(3, 3))
    assert budak_tf(budak_params(2, 3, F(1, 2))) != pade_exp(PadeIndex(3, 2))


def test_dc_value_is_one():
    for n in range(1, 5):
        for m in range(0, n + 1):
            for g in (F(1, 2), F(1), F(5, 2)):
                tf = budak_tf(budak_params(m, n, g))
                assert tf.numerator.coeff(0) == tf.denominator.coeff(0)


def test_magnitude_printed_forms():
    for g in (F(1, 2), F(1), F(2), F(3), F(7, 3)):
        assert budak_magnitude_closed(budak_params(2, 3, g)) == printed_mag(g), g
    # the gamma = 2 and gamma = 1 instances in fully cleared integer form
    assert budak_magnitude_closed(budak_params(2, 3, 2)) == EvenRationalFunction(
        Polynomial([225, 75, 25]), Polynomial([225, 180, 96, 64])
    )
    assert budak_magnitude_closed(budak_params(2, 3, 1)) == EvenRationalFunction(
        Polynomial([225]), Polynomial([225, 45, 6, 1])
    )


def test_magnitude_closed_equals_symbolic_route():
    for n in range(1, 6):
        for m in range(0, n + 1):
            for g in (F(1, 2), F(1), F(2), F(3), F(7, 3)):
                params = budak_params(m, n, g)
                assert budak_magnitude_closed(params) == magnitude_squared(
                    budak_tf(params)
                ), (m, n, g)


def test_magnitude_closed_matches_double_sum_oracle():
    for n in range(1, 13):
        for m in range(0, n + 1):
            for g in (F(1, 2), F(1), F(2), F(7, 3), F(5, 11)):
                assert budak_magnitude_closed(
                    budak_params(m, n, g)
                ) == _oracles.double_sum_magnitude(m, n, g), (m, n, g)


def test_coefficient_ratio_values():
    assert coefficient_ratio(3, 2, 1) == F(5, 3)
    assert coefficient_ratio(3, 2, 2) == F(25, 6)


def test_coefficient_ratio_from_printed_magnitude():
    # normalized u^2 match on the (2,3) closed form forces
    # (g/(g-1))^4 = (1/9)/(2/75)
    num_u2 = F(25, 225)
    den_u2 = F(6, 225)
    assert coefficient_ratio(3, 2, 2) == num_u2 / den_u2


def test_coefficient_ratio_matches_factorial_oracle():
    for n in range(2, 17):
        for m in range(1, n):
            for j in range(1, m + 1):
                assert coefficient_ratio(n, m, j) == _oracles.factorial_coefficient_ratio(
                    n, m, j
                ), (n, m, j)


def test_coefficient_ratio_positive_and_validated():
    for m in range(1, 7):
        n = m + 1
        for j in range(1, m + 1):
            assert coefficient_ratio(n, m, j) > 0
    with pytest.raises(ValueError):
        coefficient_ratio(3, 2, 0)
    with pytest.raises(ValueError):
        coefficient_ratio(3, 2, 3)
    with pytest.raises(ValueError):
        coefficient_ratio(3, 3, 1)


def test_coefficient_ratio_exceeds_one():
    # the ratio is always > 1, so the root never degenerates to r = 1
    for n in range(2, 8):
        for m in range(1, n):
            for j in range(1, m + 1):
                assert coefficient_ratio(n, m, j) > 1, (n, m, j)


def test_gamma_candidates_exact_pair():
    sol = gamma_candidates(3, 2, 1)
    assert sol.a_j == F(5, 3)
    assert sol.exact is not None
    pair = set(sol.exact)
    roots = gamma_order2(3, 2)
    assert pair == {roots.gamma_plus, roots.gamma_minus}


def test_gamma_candidates_exact_pair_matches_rationalized_oracle():
    # the exact pair exists for j = 1 only; A_1 comes from the oracle too
    for n in range(2, 17):
        for m in range(1, n):
            pair = _oracles.rationalized_gamma_pair(_oracles.factorial_coefficient_ratio(n, m, 1))
            exact = gamma_candidates(n, m, 1).exact
            assert exact == pair, (n, m)
            assert [repr(x) for x in exact] == [repr(x) for x in pair], (n, m)


def test_gamma_candidates_enclosures():
    sol = gamma_candidates(3, 2, 1)
    assert sol.branch_minus.contains(F(44364, 10**4)) or sol.branch_minus.lo > F(
        44364, 10**4
    )
    assert float(sol.branch_minus.midpoint) == pytest.approx(4.4364917, abs=1e-6)
    assert float(sol.branch_plus.midpoint) == pytest.approx(0.5635083, abs=1e-6)
    assert sol.branch_plus.width <= F(1, 10**12)
    assert sol.branch_minus.width <= F(1, 10**12)


def test_gamma_candidates_above_half():
    for n in range(2, 6):
        for m in range(1, n):
            for j in range(1, m + 1):
                sol = gamma_candidates(n, m, j, precision=9)
                assert sol.branch_plus.lo > F(1, 2), (n, m, j)
                assert sol.branch_minus.lo > F(1, 2), (n, m, j)


def test_gamma_candidates_validation():
    with pytest.raises(ValueError):
        gamma_candidates(3, 2, 1, precision=0)
    with pytest.raises(ValueError):
        gamma_candidates(2, 2, 1)


def test_gamma_order2_fixture():
    roots = gamma_order2(3, 2)
    assert roots.gamma_plus == QuadSurd(F(5, 2), F(1, 2), 15)
    assert roots.gamma_minus == QuadSurd(F(5, 2), F(-1, 2), 15)
    assert roots.quadratic == Polynomial([5, -10, 2])
    with pytest.raises(ValueError):
        gamma_order2(3, 3)
    with pytest.raises(ValueError):
        gamma_order2(2, 3)


def test_gamma_order2_roots_solve_quadratic():
    for n in range(2, 8):
        for m in range(1, n):
            roots = gamma_order2(n, m)
            q = roots.quadratic
            for g in (roots.gamma_plus, roots.gamma_minus):
                # substitute a + b*sqrt(d) by hand: rational and radical
                # components of q(g) must both vanish
                a, b, d = g.a, g.b, g.d
                rational = q.coeff(2) * (a * a + b * b * d) + q.coeff(1) * a + q.coeff(0)
                radical = q.coeff(2) * 2 * a * b + q.coeff(1) * b
                assert rational == 0 and radical == 0, (n, m)
            assert roots.gamma_plus.compare_to_rational(F(1, 2)) > 0
            assert roots.gamma_minus.compare_to_rational(F(1, 2)) > 0
            # the two branches straddle the all-pole point
            assert roots.gamma_plus.compare_to_rational(1) > 0
            assert roots.gamma_minus.compare_to_rational(1) < 0


def test_gamma_order2_matches_first_index_candidates():
    for n in range(2, 7):
        for m in range(1, n):
            roots = gamma_order2(n, m)
            sol = gamma_candidates(n, m, 1)
            assert set(sol.exact) == {roots.gamma_plus, roots.gamma_minus}, (n, m)


def test_mismatch_fixture():
    mm = magnitude_gamma_mismatch(3, 2, 1)
    assert mm == Polynomial([F(-1, 3), F(2, 3), F(-2, 15)])
    assert mm == Polynomial([5, -10, 2]) * F(-1, 15)


def test_mismatch_at_gamma_one_is_all_pole_value():
    # numerator terms carry (gamma-1) factors, so they vanish at 1
    mm = magnitude_gamma_mismatch(3, 2, 2)
    assert mm(F(1)) == F(6, 225)


def test_mismatch_divisibility_split():
    for n in range(2, 6):
        for m in range(1, n):
            q = gamma_order2(n, m).quadratic
            assert q.divides(magnitude_gamma_mismatch(n, m, 1)), (n, m)
            if m >= 2 or n >= 2:
                mm2 = magnitude_gamma_mismatch(n, m, 2)
                assert poly_gcd(q, mm2).degree == 0, (n, m)


def test_mismatch_validation():
    with pytest.raises(ValueError):
        magnitude_gamma_mismatch(3, 2, 0)
    with pytest.raises(ValueError):
        magnitude_gamma_mismatch(3, 3, 1)
    with pytest.raises(ValueError):
        magnitude_gamma_mismatch(3, 2, 4)


def test_mutual_exclusion_reports():
    rep = mutual_exclusion(3, 2)
    assert rep.all_disjoint and rep.all_above_half
    assert rep.pairs_checked == ((1, 2),)
    rep54 = mutual_exclusion(5, 4)
    assert rep54.all_disjoint and rep54.all_above_half
    assert len(rep54.pairs_checked) == 6
    vac = mutual_exclusion(2, 1)
    assert vac.all_disjoint and vac.all_above_half
    assert vac.pairs_checked == ()
    # the candidates' radicands pass the double range here
    rep1312 = mutual_exclusion(13, 12)
    assert rep1312.all_disjoint and rep1312.all_above_half
    assert len(rep1312.pairs_checked) == 66
    with pytest.raises(ValueError, match="need 1 <= m < n"):
        mutual_exclusion(3, 3)


def test_mutual_exclusion_agrees_with_interval_separation():
    for n in range(2, 10):
        for m in range(1, n):
            rep = mutual_exclusion(n, m)
            assert (rep.all_disjoint, rep.all_above_half) == _oracles.interval_mutual_exclusion(n, m)


def test_delay_block_printed_polynomials():
    block = delay_gamma_polynomials(2, 3)
    assert block.scale == 2025
    g1 = Polynomial([-1, 1])  # gamma - 1
    assert block.a(4) == (G - Polynomial([2])) * g1**3 * G**5 * 3
    assert block.a(3) == g1 * G**3 * Polynomial([-5, 13, -13, 4]) * 9
    assert block.a(2) == G * Polynomial([25, -85, 120, -79, 25]) * 9
    assert block.a(1) == Polynomial([5, -10, 8]) * 135
    assert block.b(1) == block.a(1)
    assert block.b(2) == Polynomial([25, -100, 165, -130, 46]) * 9
    assert block.b(3) == G**2 * Polynomial([5, -20, 32, -24, 8]) * 9
    # forced by the product structure of the delay denominator: the
    # (2,3) u^4 entry is 75 g^6 (g-1)^2 + 150 g^4 (g-1)^4, scaled by 1/25
    assert block.b(4) == g1**2 * G**4 * Polynomial([2, -4, 3]) * 3
    assert block.b(5) == g1**4 * G**6
    assert len(block.numerator_polys) == 4
    assert len(block.denominator_polys) == 5
    # indices run from 1; the denominator's last is n + m
    with pytest.raises(IndexError, match="numerator coefficient index 0 out of range"):
        block.a(0)
    with pytest.raises(IndexError, match="denominator coefficient index 6 out of range"):
        block.b(6)


def test_delay_block_second_coefficient_gap():
    block = delay_gamma_polynomials(2, 3)
    gap = block.a(2) - block.b(2)
    assert gap == Polynomial([-1, 1]) ** 5 * 225


def test_delay_block_at_gamma_one_matches_all_pole():
    from besselpade.response import group_delay

    block = delay_gamma_polynomials(2, 3)
    delay = group_delay(budak_tf(budak_params(2, 3, 1)))
    for i in range(1, 5):
        assert block.a(i)(F(1)) / 2025 == delay.numerator.coeff(i) / delay.numerator.coeff(0)
    for i in range(1, 6):
        assert block.b(i)(F(1)) / 2025 == delay.denominator.coeff(i) / delay.denominator.coeff(0)


def test_delay_block_custom_samples():
    samples = [F(k, 7) for k in range(15, 27)]
    block = delay_gamma_polynomials(2, 3, samples)
    assert block.scale == 2025
    assert block.a(1) == Polynomial([5, -10, 8]) * 135


def test_delay_block_sample_validation():
    with pytest.raises(ValueError):
        delay_gamma_polynomials(2, 3, [F(2), F(2), F(3)])
    with pytest.raises(ValueError):
        delay_gamma_polynomials(2, 3, [F(k) for k in range(2, 8)])
    bad = [F(k) for k in range(2, 13)] + [F(1)]
    with pytest.raises(ValueError):
        delay_gamma_polynomials(2, 3, bad)
    with pytest.raises(ValueError):
        delay_gamma_polynomials(0, 3)


def test_delay_flatness_orders():
    assert delay_flatness_order_budak(budak_params(2, 3, 2)).order == 2
    assert delay_flatness_order_budak(budak_params(2, 3, F(1, 2))).order == 2
    assert delay_flatness_order_budak(budak_params(1, 4, F(5, 2))).order == 1
    with pytest.raises(ValueError):
        delay_flatness_order_budak(budak_params(0, 3, 2))
    with pytest.raises(ValueError):
        delay_flatness_order_budak(budak_params(2, 3, 1))


def test_order2_certificate_fixture():
    cert = order2_certificate(3, 2)
    assert cert.magnitude_order == 2
    assert cert.delay_order == 2
    assert cert.u1_divisible_by_q and cert.u2_coprime_to_q
    assert cert.delay_lower_orders_match and cert.delay_mth_coprime_to_q
    assert cert.denominator_verdict is Verdict.STRICT_HURWITZ
    assert cert.numerator_verdict is Verdict.STRICT_HURWITZ
    assert cert.minimum_phase_plus and not cert.minimum_phase_minus


def test_order2_certificate_wider():
    for n, m in [(4, 2), (5, 1), (4, 3)]:
        cert = order2_certificate(n, m)
        assert cert.magnitude_order == 2, (n, m)
        assert cert.delay_order == m, (n, m)
        assert cert.minimum_phase_plus and not cert.minimum_phase_minus, (n, m)
