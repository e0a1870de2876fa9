"""Group delay, magnitude and flatness tests."""

import cmath
import itertools
import json
import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

import _oracles
from besselpade.budak import BudakParams, budak_tf
from besselpade.cli import source_tf, sweep_rows
from besselpade.core import EvenRationalFunction, Polynomial, TransferFunction
from besselpade.gbp import gbp_of
from besselpade.pade import PadeIndex, pade_exp
from besselpade.response import (
    FlatBeyondHorizon,
    FlatnessReport,
    Quantity,
    SamplePoint,
    delay_flatness,
    flatness,
    group_delay,
    magnitude_flatness,
    magnitude_squared,
    sample,
)

rng = random.Random(90911)


def pe(n, m):
    return pade_exp(PadeIndex(n, m))


def ev(f, u):
    return f.numerator(u) / f.denominator(u)


def allpole(n):
    den = gbp_of(n, 2, 1)
    return TransferFunction(Polynomial([den.coeff(0)]), den)


def test_magnitude_squared_fixtures():
    ms = magnitude_squared(pe(3, 2))
    assert ms == EvenRationalFunction(
        Polynomial([3600, 216, 9]), Polynomial([3600, 216, 9, 1])
    )
    assert magnitude_squared(pe(1, 0)) == EvenRationalFunction(
        Polynomial([1]), Polynomial([1, 1])
    )


def test_magnitude_squared_allpass_is_constant():
    ms = magnitude_squared(pe(2, 2))
    assert ms.numerator == Polynomial([1])
    assert ms.denominator == Polynomial([1])


def test_magnitude_squared_matches_the_para_conjugate_product():
    # |H(j*omega)|^2 from the even/odd split equals the full product
    # N(s)N(-s) / D(s)D(-s) with s^2 -> -u
    local = random.Random(4471)
    tfs = [pe(n, m) for n in range(0, 9) for m in range(0, 9)]
    tfs += [allpole(n) for n in range(1, 12)]
    tfs += [
        budak_tf(BudakParams(m, n, g))
        for n in range(1, 6)
        for m in range(0, n + 1)
        for g in (F(1, 3), F(1), F(2), F(7, 5))
    ]
    for _ in range(60):
        num = Polynomial(
            [F(local.randint(-9, 9), local.randint(1, 6)) for _ in range(local.randint(1, 6))]
        )
        den = Polynomial(
            [F(local.randint(1, 9), local.randint(1, 6))]
            + [F(local.randint(-9, 9), local.randint(1, 6)) for _ in range(local.randint(0, 6))]
        )
        tfs.append(TransferFunction(num, den))
    for tf in tfs:
        want = EvenRationalFunction(
            _oracles.para_even(tf.numerator), _oracles.para_even(tf.denominator)
        )
        assert magnitude_squared(tf) == want, tf


def test_group_delay_fixtures():
    gd = group_delay(pe(3, 2))
    assert gd == EvenRationalFunction(
        Polynomial([1440000, 172800, 12384, 592, 17]),
        Polynomial([1440000, 172800, 12384, 832, 33, 1]),
    )
    assert group_delay(pe(1, 0)) == EvenRationalFunction(
        Polynomial([1]), Polynomial([1, 1])
    )
    assert ev(gd, F(1)) == F(1625793, 1626050)


def test_group_delay_of_pure_allpass():
    # |H| = 1, delay still nontrivial
    gd = group_delay(pe(1, 1))
    assert gd == EvenRationalFunction(Polynomial([4]), Polynomial([4, 1]))


def test_group_delay_additive_over_products():
    h1, h2 = pe(2, 1), pe(3, 0)
    prod = TransferFunction(
        h1.numerator * h2.numerator, h1.denominator * h2.denominator
    )
    g1, g2, gp = group_delay(h1), group_delay(h2), group_delay(prod)
    for u in (F(0), F(1, 3), F(1), F(7, 2), F(12)):
        assert ev(gp, u) == ev(g1, u) + ev(g2, u)


def test_group_delay_rejects_zero_at_origin():
    with pytest.raises(ValueError):
        group_delay(TransferFunction(Polynomial([0, 1]), Polynomial([1, 1])))
    with pytest.raises(ValueError):
        group_delay(TransferFunction(Polynomial([1]), Polynomial([0, 1, 1])))


def test_dc_delay_is_one_for_approximants():
    for n in range(1, 11):
        for m in range(0, n):
            gd = group_delay(pe(n, m))
            assert gd.at_origin() == 1, (n, m)


def test_flatness_fixtures():
    rep = delay_flatness(pe(3, 2))
    assert rep.value_at_origin == 1
    assert rep.order == 3
    assert rep.leading_deviation == F(-1, 6000)
    assert rep.quantity is Quantity.DELAY

    rep = magnitude_flatness(pe(3, 2))
    assert rep.value_at_origin == 1
    assert rep.order == 3
    assert rep.leading_deviation == F(-1, 3600)
    assert rep.quantity is Quantity.MAGNITUDE_SQUARED


def test_report_and_point_reprs_and_defaults():
    assert repr(delay_flatness(pe(3, 2))) == (
        "FlatnessReport(value_at_origin=Fraction(1, 1), order=3, "
        "leading_deviation=Fraction(-1, 6000), quantity=<Quantity.DELAY: 'Delay'>)"
    )
    rep = FlatnessReport(value_at_origin=F(2), order=None, leading_deviation=F(0))
    assert rep.quantity is None
    assert rep == FlatnessReport(F(2), None, F(0), None)
    assert rep != FlatnessReport(F(2), None, F(0), Quantity.DELAY)
    point = SamplePoint(omega=0.5, value=1.0)
    assert point.pole_adjacent is False
    assert repr(point) == "SamplePoint(omega=0.5, value=1.0, pole_adjacent=False)"
    assert sample(pe(1, 0), [0.0]) == [SamplePoint(0.0, 1 + 0j, False)]


def test_flatness_constant_raises():
    with pytest.raises(FlatBeyondHorizon):
        magnitude_flatness(pe(2, 2))
    f = EvenRationalFunction(Polynomial([3]), Polynomial([1]))
    with pytest.raises(FlatBeyondHorizon):
        flatness(f)


def test_flatness_explicit_horizon():
    f = EvenRationalFunction(Polynomial([1, 0, 0, 0, 5]), Polynomial([1]))
    assert flatness(f).order == 4
    with pytest.raises(FlatBeyondHorizon):
        flatness(f, max_terms=3)


def test_delay_orders_follow_index_gap():
    # numerator degree m = n-1 gives order n; m = n-2 gives order n-1
    for n in range(2, 7):
        assert delay_flatness(pe(n, n - 1)).order == n, n
        assert delay_flatness(pe(n, n - 2)).order == n - 1, n


def test_magnitude_orders_follow_denominator_degree():
    for n in range(2, 7):
        assert magnitude_flatness(pe(n, n - 1)).order == n, n
        assert magnitude_flatness(pe(n, n - 2)).order == n, n


def test_allpole_delay_matches_classical_family():
    # maximally flat delay for the all-pole ladder
    for n in range(1, 7):
        assert delay_flatness(allpole(n)).order == n, n


def test_sample_transfer_function():
    pts = sample(pe(1, 0), [0.0, 1.0])
    assert pts[0].value == pytest.approx(1.0)
    assert not pts[0].pole_adjacent
    assert pts[1].value == pytest.approx(0.5 - 0.5j)


def test_sample_even_rational():
    ms = magnitude_squared(pe(3, 2))
    pts = sample(ms, [0.0, 1.0])
    assert isinstance(pts[0].value, float)
    assert pts[0].value == pytest.approx(1.0)
    assert pts[1].value == pytest.approx(3825.0 / 3826.0)


def test_sample_flags_poles():
    tf = TransferFunction(Polynomial([1]), Polynomial([1, 0, 1]))
    pts = sample(tf, [1.0, 2.0])
    assert pts[0].pole_adjacent and pts[0].value == math.inf
    assert not pts[1].pole_adjacent


def test_magnitude_against_complex_evaluation():
    for tf in (pe(3, 2), pe(4, 1), allpole(4)):
        ms = magnitude_squared(tf)
        for _ in range(10):
            w = rng.uniform(0.05, 4.0)
            assert ev(ms, w * w) == pytest.approx(
                _oracles.magnitude_value(tf, w), rel=1e-9
            )


def test_group_delay_against_finite_difference():
    for tf in (pe(3, 2), pe(4, 3), allpole(4)):
        gd = group_delay(tf)
        for _ in range(8):
            w = rng.uniform(0.1, 3.0)
            assert ev(gd, w * w) == pytest.approx(
                _oracles.fd_group_delay(tf, w), abs=1e-6
            )


@pytest.mark.parametrize("c, pole", [("1e-12", 1e-6), ("2", math.sqrt(2)), ("1e16", 1e8)])
def test_sample_flags_frequency_scaled_poles(c, pole):
    # The absolute test |D| < 1e-12 flags half this grid for s^2 + 1e-12.
    # At sqrt(2) the float D is 4e-16 of rounding error, not zero.
    tf = TransferFunction(Polynomial([1]), Polynomial([F(c), 0, 1]))
    pts = sample(tf, [0.0, pole / 2, 0.99 * pole, pole, 1.5 * pole, 2 * pole])
    assert [p.pole_adjacent for p in pts] == [False, False, False, True, False, False]
    assert pts[3].value == math.inf
    for p in pts[:3] + pts[4:]:
        x = 1j * p.omega
        num, den = (complex(_oracles.fraction_horner(q, x)) for q in (tf.numerator, tf.denominator))
        assert p.value == num / den


def test_sample_matches_fraction_horner_to_the_bit():
    sources = [pe(n, m) for n, m in ((1, 0), (3, 2), (5, 5), (8, 4), (12, 11))]
    sources += [allpole(n) for n in (3, 7, 10)]
    sources += [budak_tf(BudakParams(m, n, g)) for m, n, g in ((1, 3, F(3, 2)), (2, 4, F(2, 3)))]
    omegas = [0.0] + [k / 16 for k in range(1, 321)]
    near_pi = 0
    for tf in sources:
        for f in (tf, group_delay(tf), magnitude_squared(tf)):
            transfer = f is tf
            for p in sample(f, omegas):
                x = 1j * p.omega if transfer else p.omega * p.omega
                den = complex(_oracles.fraction_horner(f.denominator, x))
                want = complex(_oracles.fraction_horner(f.numerator, x)) / den
                if not transfer:
                    want = want.real
                assert not p.pole_adjacent
                assert p.value == want, (f, p.omega)
                if transfer and abs(cmath.phase(want)) > 3.1:
                    near_pi += 1
    assert near_pi > 0  # the grid crosses the branch cut of the phase


def test_sample_resolves_a_cancelling_numerator_exactly():
    # At sqrt(2) the float N = 2 - w^2 is 4e-16 of rounding error, so the
    # double quotient is 60% off although D = 1 + j*w is accurate.
    tf = TransferFunction(Polynomial([2, 0, 1]), Polynomial([1, 1]))
    (p,) = sample(tf, [math.sqrt(2)])
    r = F(p.omega)
    n, norm = 2 - r * r, 1 + r * r
    assert not p.pole_adjacent
    assert p.value == complex(float(n / norm), float(-n * r / norm))


def test_sample_beyond_the_float_range_is_exact():
    # the coefficient 10^400 has no double, so every point is exact
    k, c = F(10) ** 400, F(1, 10**300)
    tf = TransferFunction(Polynomial([k]), Polynomial([c, 1]))
    pts = sample(tf, [0.0, 1e200, 1e300])
    assert not any(p.pole_adjacent for p in pts)
    assert pts[0].value == complex(math.inf, 0.0)  # |H(0)| = 1e700
    for p in pts[1:]:
        r = F(p.omega)
        norm = c * c + r * r
        assert p.value == complex(float(k * c / norm), float(-k * r / norm))


def test_sample_keeps_overflowed_horner_values_off_the_fast_path():
    # D(x) overflows to inf or nan while its error gate stays finite: the
    # fast quotient was 0j for bessel:8, nan for the all-pass pade:10,10
    cases = [(allpole(8), [5e38]), (pe(10, 10), [3e31 * i / 30 for i in range(7, 31)])]
    for tf, omegas in cases:
        for p in sample(tf, omegas):
            want = _oracles.fraction_sample_point(tf, p.omega)
            assert repr((p.value, p.pole_adjacent)) == repr(want), (tf, p.omega)
    (p,) = sample(allpole(8), [5e38])
    assert abs(p.value) == pytest.approx(5.19e-304, rel=1e-3)


# the G_VALUES the benchmark draws Budak shape parameters from
BENCH_GAMMAS = sorted(
    {F(a, q) for q in (2, 3, 5) for a in range(1, 3 * q) if F(1, 2) < F(a, q) < 3 and a != q}
)


def random_tf(local):
    def poly(degree):
        # a nonzero constant term, so that the group delay is defined
        c0 = F(local.choice((-1, 1)) * local.randint(1, 9), local.randint(1, 6))
        return Polynomial([c0] + [F(local.randint(-9, 9), local.randint(1, 6)) for _ in range(degree)])

    return TransferFunction(poly(local.randint(0, 5)), poly(local.randint(0, 7)))


def kernel_sources():
    local = random.Random(51103)
    tfs = [pe(n, m) for n in range(13) for m in range(13)]
    tfs += [allpole(n) for n in range(1, 31)]
    pairs = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    tfs += [budak_tf(BudakParams(m, n, g)) for m, n in pairs for g in BENCH_GAMMAS]
    tfs += [random_tf(local) for _ in range(100)]
    tfs.append(TransferFunction(Polynomial([1]), Polynomial([F(1, 4), 0, 1])))  # pole at 0.5j
    return tfs


def test_sample_matches_the_four_call_loop():
    omegas = [0.0, -0.0, -0.75, -3.0, 5e-324, 0.5, 2.5, 9.0]
    omegas += [1e29, 1e31, -1e31, 1e34, 1e37, 1e39, 1e40, 1e300]
    for tf in kernel_sources():
        for f in (tf, group_delay(tf), magnitude_squared(tf)):
            got = [repr(p) for p in sample(f, omegas)]
            assert got == [repr(p) for p in _oracles.four_call_sample(f, omegas)], f


def test_sample_over_blocks_of_points_matches_the_four_call_loop():
    # grids of several blocks in ascending, descending and shuffled order:
    # on 0..3 one bound settles each block, and around the pole at 0.5j of
    # the last source the points just outside their own gate are mixed
    # with points of smaller |x|; on 0..1e39 the bound overflows or fails
    # and each point's own gate decides
    local = random.Random(24031)
    narrow = [3.0 * i / 149 for i in range(150)]
    narrow += [0.5 + k * 2.0**-26 for k in range(-40, 41)]
    wide = [1e39 * i / 69 for i in range(70)]
    grids = []
    for grid in (narrow, wide):
        shuffled = sorted(grid)
        local.shuffle(shuffled)
        grids += [sorted(grid), sorted(grid, reverse=True), shuffled]
    sources = kernel_sources()
    for tf in sources[::29] + sources[-1:]:
        for f in (tf, group_delay(tf), magnitude_squared(tf)):
            for omegas in grids:
                got = [repr(p) for p in sample(f, omegas)]
                assert got == [repr(p) for p in _oracles.four_call_sample(f, omegas)], f


def test_sample_where_the_modulus_of_a_finite_value_overflows():
    # N(j) = 1.3e308 * (1 + j) has finite parts and a modulus past the
    # double range; such a point is evaluated exactly
    tf = TransferFunction(Polynomial(["1.3e308", "1.3e308"]), Polynomial([1]))
    omegas = [0.0, 0.5, 1.0, -1.0, 3.0, 1e10]
    for f in (tf, group_delay(tf), magnitude_squared(tf)):
        got = sample(f, omegas)
        assert [repr(p) for p in got] == [repr(p) for p in _oracles.four_call_sample(f, omegas)]
        for p in got:
            assert repr((p.value, p.pole_adjacent)) == repr(
                _oracles.fraction_sample_point(f, p.omega)
            ), (f, p.omega)
    (p,) = sample(tf, [1.0])
    assert p.value == complex(1.3e308, 1.3e308) and not p.pole_adjacent


def test_sample_of_no_points():
    huge = TransferFunction(Polynomial([F(10) ** 400]), Polynomial([1, 1]))
    for tf in (pe(3, 2), huge):
        for f in (tf, group_delay(tf), magnitude_squared(tf)):
            assert sample(f, []) == []


def test_sweep_rows_match_rows_from_sample():
    # where the double H is real at omega > 0 while the exact H is not,
    # its imaginary part underflowed, and where |H| overflowed the double
    # H holds no argument; only there may the phase differ from that of
    # the double H: it is the exact phase, checked with mpmath
    changed = 0
    for tf in kernel_sources():
        for omega_max, points in ((40.0, 9), (3e31, 4)):
            got = sweep_rows(tf, omega_max, points)
            want = _oracles.sample_sweep_rows(tf, omega_max, points)
            assert len(got) == len(want), tf
            for row, old in zip(got, want):
                if repr(row) == repr(old):
                    continue
                changed += 1
                assert repr(row[:2] + row[3:]) == repr(old[:2] + old[3:]), (tf, row)
                assert row[0] > 0, (tf, row)
                assert old[2] in (0.0, math.pi, -math.pi) or old[1] == math.inf, (tf, row)
                with mp.workdps(60):
                    ref = float(mp.arg(_oracles.transfer_value(tf, row[0])))
                assert abs(row[2] - ref) <= 1e-12 * abs(ref), (tf, row)
    # rows from omega = 1e31 of sources with 10 or more excess poles, and
    # the 3 overflowed rows of the source with 12 excess zeros
    assert changed == 60


def flatness_outcome(fn, f, **kwargs):
    """The report of fn(f), or the message of the FlatBeyondHorizon it raises."""
    try:
        return fn(f, **kwargs)
    except FlatBeyondHorizon as exc:
        return f"raised: {exc}"


def random_even_function(local):
    """A reduced even function whose deviation starts at a random power:
    num = value * den + u^k * tail, so low orders share their coefficients."""
    # positive constant and leading terms keep den(0) > 0 once den is monic
    den = [F(local.randint(1, 9), local.randint(1, 6))]
    den += [F(local.randint(-9, 9), local.randint(1, 6)) for _ in range(local.randint(0, 7))]
    den.append(F(local.randint(1, 9), local.randint(1, 6)))
    value = F(local.randint(-9, 9), local.randint(1, 6))
    k = local.randint(1, 12)
    tail = [F(local.randint(-9, 9), local.randint(1, 6)) for _ in range(local.randint(0, 4))]
    num = Polynomial([value * c for c in den]) + Polynomial([0] * k + tail)
    return EvenRationalFunction(num, Polynomial(den))


def test_flatness_matches_the_deviation_polynomial_oracle():
    tfs = [pe(n, m) for n in range(17) for m in range(17)]
    tfs += [allpole(n) for n in range(1, 42)]
    tfs += [
        budak_tf(BudakParams(m, n, g))
        for n in range(1, 17)
        for m in sorted({0, n // 2, n - 1, n})
        for g in (F(2, 3), F(3, 2))
    ]
    functions = [f for tf in tfs for f in (group_delay(tf), magnitude_squared(tf))]
    local = random.Random(70321)
    functions += [random_even_function(local) for _ in range(300)]
    raised = 0
    for f in functions:
        got = flatness_outcome(flatness, f, quantity=Quantity.DELAY)
        assert got == flatness_outcome(
            _oracles.deviation_polynomial_flatness, f, quantity=Quantity.DELAY
        ), f
        raised += isinstance(got, str)
        if isinstance(got, str):
            continue
        # every horizon from just below the order up to just past it
        for max_terms in (got.order - 1, got.order, got.order + 1):
            assert flatness_outcome(flatness, f, max_terms=max_terms) == flatness_outcome(
                _oracles.deviation_polynomial_flatness, f, max_terms=max_terms
            ), (f, max_terms)
    # the all-pass magnitudes and the delay of pade:0,0 are constant
    assert raised >= 17


def test_flatness_matches_the_fraction_scan_oracle():
    # the sources the exact-ladder benchmark analyzes, and past them
    specs = [f"pade:{n},{m}" for n in range(25) for m in range(25)]
    specs += [f"bessel:{n}" for n in range(2, 54)]
    specs += [
        f"budak:{m},{n},{g}"
        for n in range(2, 17)
        for m in sorted({n - 1, n // 2})
        for g in (F(2, 3), F(3, 2))
    ]
    raised = 0
    for spec in specs:
        tf, _ = source_tf(spec)
        for f in (group_delay(tf), magnitude_squared(tf)):
            got = flatness_outcome(flatness, f)
            assert got == flatness_outcome(_oracles.deviation_polynomial_flatness, f), (spec, f)
            raised += isinstance(got, str)
    # the magnitudes of the all-pass pade:n,n, and the delay of pade:0,0
    assert raised == 26
    constant = EvenRationalFunction(Polynomial([F(3, 2), 3]), Polynomial([1, 2]))
    for fn in (flatness, _oracles.deviation_polynomial_flatness):
        with pytest.raises(FlatBeyondHorizon, match="function is constant"):
            fn(constant)


def test_flatness_constant_and_beyond_horizon_match_the_oracle():
    constant = EvenRationalFunction(Polynomial([F(3, 2), 3]), Polynomial([1, 2]))
    late = EvenRationalFunction(Polynomial([1, 0, 0, 0, 0, 0, 5]), Polynomial([1]))
    cases = ((constant, {}), (late, {"max_terms": 6}), (late, {"max_terms": 2}))
    for f, kwargs in cases:
        got = flatness_outcome(flatness, f, **kwargs)
        assert got.startswith("raised: "), (f, kwargs)
        assert got == flatness_outcome(_oracles.deviation_polynomial_flatness, f, **kwargs)
    assert flatness_outcome(flatness, constant) == (
        "raised: no deviation within 4 terms: function is constant"
    )
    assert flatness_outcome(flatness, late, max_terms=6) == (
        "raised: first deviation at u^6 exceeds the horizon"
    )


def axis_root_sources():
    """Transfer functions with poles or zeros on the imaginary axis, where
    the delay's products share a factor (u - w0^2)^2 before reduction."""
    axis, shifted = Polynomial([1, 0, 1]), Polynomial([4, 0, 1])
    p1, p2, p3 = Polynomial([1, 1]), Polynomial([2, 1]), Polynomial([3, 1])
    pairs = [
        (axis * p1, p2**3),  # (s^2+1)(s+1) / (s+2)^3
        (Polynomial([1]), shifted),  # 1/(s^2+4), a constant delay
        (Polynomial([1]), axis),
        (shifted, axis * p1),
        (axis**2 * p3, p1**5),
        (Polynomial([1, -1]), axis**2 * p2),
        (axis * shifted, p1 * p2 * p3 * axis),
        (Polynomial([F(1, 3), F(2, 7), 1]), Polynomial([F(5, 2), 1, F(1, 9), 1])),
    ]
    return [TransferFunction(n, d) for n, d in pairs]


def test_delay_flatness_matches_the_canonical_delay_oracle():
    tfs = [pe(n, m) for n in range(13) for m in range(13)]
    tfs += [allpole(n) for n in range(1, 31)]
    tfs += [
        budak_tf(BudakParams(m, n, g))
        for n in range(1, 13)
        for m in range(n + 1)
        for g in (F(2, 3), F(3, 2), F(2), F(1))
    ]
    tfs += axis_root_sources()
    # constants and even over even: delay_flatness raises on their constant
    # delays without building them, with flatness's exception and message
    tfs.append(source_tf("bessel:0")[0])
    for num, den in (
        ([F(2, 3)], [5]),
        ([-7], [F(1, 9)]),
        ([1, 0, 3], [4, 0, 1]),
        ([F(9, 2), 0, -2, 0, 1], [F(1, 2), 0, 1]),
    ):
        tfs.append(TransferFunction(Polynomial(num), Polynomial(den)))
    raised = 0
    for tf in tfs:
        got = flatness_outcome(delay_flatness, tf)
        assert got == flatness_outcome(_oracles.canonical_delay_flatness, tf), tf
        raised += isinstance(got, str)
    # pade:0,0, 1/(s^2+4), 1/(s^2+1) and the five above have constant delays
    assert raised == 8
    for tf in (
        TransferFunction(Polynomial([0, 1]), Polynomial([1, 1])),
        TransferFunction(Polynomial([1]), Polynomial([0, 1, 1])),
    ):
        with pytest.raises(ValueError) as want:
            _oracles.canonical_delay_flatness(tf)
        with pytest.raises(ValueError, match=str(want.value)):
            delay_flatness(tf)


def reflected(p, scale=1):
    """scale * p(-s)."""
    return Polynomial([scale * (-1) ** k * c for k, c in enumerate(p.coefficients)])


def test_allpass_delays_match_the_fraction_oracle():
    # |N(j*omega)| = |D(j*omega)| makes the two slope denominators
    # proportional; a gain c scales them apart by c^2
    tfs = [pe(n, n) for n in range(1, 21)]
    local = random.Random(40213)
    randoms = []
    for degree in (7, 8):
        coeffs = [F(local.randint(-9, 9), local.randint(1, 6)) for _ in range(degree - 1)]
        randoms.append(Polynomial([F(local.randint(1, 9), local.randint(1, 6))] + coeffs + [1]))
    dens = [gbp_of(5, 2, 1), pe(6, 6).denominator] + randoms
    tfs += [TransferFunction(reflected(d, c), d) for d in dens for c in (-1, 3, F(-1, 2), F(7, 5))]
    # near-all-passes: the slope denominators agree at u^0 but are not proportional
    for d, k in ((pe(6, 6).denominator, 2), (randoms[0], 1)):
        nums = list(reflected(d).coefficients)
        nums[k] += F(1, 3)
        tfs.append(TransferFunction(Polynomial(nums), d))
    for tf in tfs:
        assert group_delay(tf) == _oracles.fraction_group_delay(tf), tf
        assert flatness_outcome(delay_flatness, tf) == flatness_outcome(
            _oracles.canonical_delay_flatness, tf
        ), tf


def shared_split_sources(tmp_path):
    """Pade, Bessel, Budak and file: specs, among them constant numerators
    (Bessel, pade:0,m), a constant denominator (pade:n,0 and a file) and
    rational coefficients (Budak at rational gamma and a file)."""
    specs = ["pade:0,0", "pade:3,0", "pade:0,4", "pade:3,2", "pade:7,7", "pade:2,9"]
    specs += ["bessel:1", "bessel:12", "budak:2,5,3/2", "budak:1,2,1/2", "budak:3,3,2/3"]
    files = {
        "constant_den": ([2, 3, 1], [5]),
        "rational": (["1/3", "-2/7", 1], ["5/2", 1, "1/9", 1]),
        "cubic": ([1, 0, 0, 1], [8, 12, 6, 1]),
        "axis": ([4, 0, 1], ["1/2", 1, 1, 1]),
    }
    for name, (num, den) in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"num": num, "den": den}))
        specs.append(f"file:{path}")
    return specs


def test_analysis_in_any_call_order_matches_a_fresh_copy_and_the_fraction_routes(tmp_path):
    # each polynomial splits once and keeps |L*P(j*omega)|^2 for every
    # later call; whichever call fills that, every result must be the same
    def delay_report(tf):
        return flatness_outcome(delay_flatness, tf)

    def fraction_delay_report(tf):
        fraction_delay = _oracles.fraction_group_delay(tf)
        return flatness_outcome(flatness, fraction_delay, quantity=Quantity.DELAY)

    calls = {
        "group_delay": (group_delay, _oracles.fraction_group_delay),
        "magnitude_squared": (magnitude_squared, _oracles.fraction_magnitude_squared),
        "delay_flatness": (delay_report, fraction_delay_report),
    }
    constant_delays = 0
    for spec in shared_split_sources(tmp_path):
        want = {name: oracle(source_tf(spec)[0]) for name, (_, oracle) in calls.items()}
        constant_delays += isinstance(want["delay_flatness"], str)
        for order in itertools.permutations(calls):
            tf = source_tf(spec)[0]
            for name in order + order:  # the second round reads what the first left
                fresh = TransferFunction(
                    Polynomial(tf.numerator.coefficients), Polynomial(tf.denominator.coefficients)
                )
                call = calls[name][0]
                assert call(tf) == call(fresh) == want[name], (spec, order, name)
    assert constant_delays == 1  # pade:0,0


def test_group_delay_scaling_identity():
    # P(sigma*s) has phase slope sigma*N(sigma^2 u)/D(sigma^2 u), N/D that of P
    one = Polynomial([1])
    for p in (gbp_of(3, 2, 1), gbp_of(7, 2, 1), pe(4, 3).denominator, pe(5, 2).numerator):
        delay = group_delay(TransferFunction(one, p))
        for sigma in (F(2), F(-3), F(1, 3), F(-5, 7)):
            scaled = group_delay(TransferFunction(one, p.scale_substitute(sigma)))
            assert scaled == EvenRationalFunction(
                sigma * delay.numerator.scale_substitute(sigma**2),
                delay.denominator.scale_substitute(sigma**2),
            ), (p, sigma)
