"""The integer kernels of the exact layer against their rational oracles.

`Polynomial` holds integer numerators over one denominator, so its sums,
scalar products, `monic`, `content`, `derivative` and `scale_substitute`
run on integers; each must give exactly the Fraction coefficients of the
list arithmetic in `_oracles`, and equal polynomials must compare and
hash equal however they were built.

`Polynomial.__mul__` clears denominators and convolves integers, and
`routh_hurwitz` runs its rows as integers over one denominator. Both must
give exactly what the plain computation over Fraction gives: the product
equal coefficient by coefficient, the stability report equal field by
field and in its repr.

Other modules see those integers only through `Polynomial.integer_form`,
build from them through `Polynomial.from_integer_form` (which reduces by
one gcd and never changes the list it is given), and take the split on
the imaginary axis from `Polynomial.jw_split`; each must agree with the
Fraction coefficients, and the products with the Fraction schoolbook on
signed entries, interior zeros and zero low coefficients.

The analyze path is integer-first too: `pade_exp` and `gbp` build their
coefficients over the integers, `gbp` as prefix and suffix products of
its term ratios over one denominator; `group_delay` and
`magnitude_squared` read one split of L*P(j*omega) over the integers,
kept on each polynomial with |L*P(j*omega)|^2 = e^2 + u*o^2, whose two
squares form each cross product once, and the
delay forms its phase-slope numerators as the two products e*O - o*E; the
exact points of `sample` are one homogeneous Horner sum over the integers
at omega = p/q. Each must give exactly what the Fraction routes of
`_oracles` give, down to the sign of a zero. `minimum_phase` answers a
numerator with coefficients of both signs by those signs alone, and must
give the verdict of the full Routh array on every numerator checked.
"""

import math
import random
import sys
from fractions import Fraction as F

import pytest

import _oracles
from besselpade import (
    BudakParams,
    EvenRationalFunction,
    FlatBeyondHorizon,
    PadeIndex,
    Quantity,
    TransferFunction,
    budak_tf,
    classical_bessel,
    delay_flatness,
    flatness,
    gbp_of,
    group_delay,
    magnitude_squared,
    pade_exp,
    sample,
)
from besselpade.cli import minimum_phase
from besselpade.core import Polynomial, TruncatedSeries
from besselpade.pade import pade_denominator, pade_numerator
from besselpade.stability import routh_hurwitz


def _coefficient(rng, kind):
    if kind == "int":
        return rng.randint(-50, 50)
    if kind == "rational":
        return F(rng.randint(-50, 50), rng.randint(1, 30))
    if kind == "sparse":
        return rng.choice([0, 0, 0, 0, 1, -3, F(2, 7)])
    # "huge": numerators and denominators past 2^200
    return F(rng.randint(-(1 << 240), 1 << 240), rng.randint(1 << 201, 1 << 230))


def random_polynomial(rng, kind, max_degree=12):
    return Polynomial([_coefficient(rng, kind) for _ in range(rng.randint(0, max_degree + 1))])


KINDS = ("int", "rational", "sparse", "huge")


def test_product_matches_fraction_schoolbook():
    rng = random.Random(20261018)
    operands = [Polynomial(), Polynomial([7]), Polynomial([F(-3, 11)]), Polynomial([0, 0, 0, 1])]
    operands += [random_polynomial(rng, rng.choice(KINDS)) for _ in range(100)]
    for p in operands[:20]:
        for q in operands:
            assert p * q == _oracles.fraction_product(p, q), (p, q)
    for _ in range(200):
        p = random_polynomial(rng, rng.choice(KINDS), 30)
        q = random_polynomial(rng, rng.choice(KINDS), 30)
        assert p * q == _oracles.fraction_product(p, q), (p, q)

    def entry():
        return rng.choice([0, 0, 0, rng.randint(-99, 99), -(1 << rng.randint(60, 300))])

    def shaped(degree):
        # entries of both signs, runs of interior zeros, a zero low end
        low = rng.randint(0, 3)
        body = [entry() for _ in range(degree - low)]
        return Polynomial([0] * low + body + [rng.choice([-1, 1]) * rng.randint(1, 9)])

    for degree in (0, 1, 2, 5, 12, 40, 90):
        for _ in range(6):
            p, q = shaped(degree), shaped(rng.randint(0, degree + 3))
            assert p * q == _oracles.fraction_product(p, q) == q * p, (p, q)
            assert p * p == _oracles.fraction_product(p, p), p
            for a, b in ((p * F(-3, 7), q), (p, q * F(5, 1 << 70))):  # lcms on both sides
                assert a * b == _oracles.fraction_product(a, b), (a, b)


def test_integer_form_is_the_lcm_view_and_round_trips():
    rng = random.Random(20261020)
    polys = [Polynomial(), Polynomial([0, 0]), Polynomial([F(1, 2), F(-3, 4), 5])]
    polys += [random_polynomial(rng, kind) for kind in KINDS for _ in range(25)]
    for p in polys:
        nums, den = p.integer_form
        assert type(nums) is tuple and all(type(c) is int for c in nums), p
        assert den > 0 and den == math.lcm(*[c.denominator for c in p.coefficients]), p
        assert tuple(F(c, den) for c in nums) == p.coefficients, p
        assert not nums or nums[-1] != 0, p
        assert Polynomial.from_integer_form(*p.integer_form) == p
        assert Polynomial.from_integer_form(nums) == p * den
    assert Polynomial().integer_form == Polynomial([0, 0]).integer_form == ((), 1)
    assert Polynomial([F(1, 2), F(-3, 4), 5]).integer_form == ((2, -3, 20), 4)


def test_from_integer_form_reduces_once_and_leaves_its_argument_alone():
    # a negative den is normalized, and the joint gcd and trailing zeros go
    got = Polynomial.from_integer_form((2, -4, 6, 0, 0), -4)
    assert got.integer_form == ((-1, 2, -3), 2)
    assert got.coefficients == (F(-1, 2), 1, F(-3, 2))
    assert Polynomial.from_integer_form([0, 0, 0], -7).integer_form == ((), 1)
    assert Polynomial.from_integer_form((1, 0), 1) == Polynomial([1])
    assert Polynomial.from_integer_form([3, 0, -5]) == Polynomial([3, 0, -5])
    for nums in ([6, 0, 3, 0, 0], (6, 0, 3, 0, 0)):
        assert Polynomial.from_integer_form(nums, 9) == Polynomial([F(2, 3), 0, F(1, 3)])
        assert Polynomial.from_integer_form(nums, -3) == Polynomial([-2, 0, -1])
        assert nums == type(nums)([6, 0, 3, 0, 0])
    with pytest.raises(ZeroDivisionError):
        Polynomial.from_integer_form([1, 2], 0)


def test_product_of_large_denominators_stays_reduced():
    a = F(1, (1 << 211) + 1)
    p = Polynomial([a, 3, a])
    q = Polynomial([1 / a, 0, -1 / a])
    assert p * q == Polynomial([1, 3 / a, 0, -3 / a, -1])
    assert all(type(c) is F for c in (p * q).coefficients)


def assert_coefficients(got, want):
    assert got.coefficients == tuple(want), (got, want)
    assert got == Polynomial(want)


# 0 and negative values included; the last two have large denominators
SCALARS = [0, 1, -1, 12, F(-7, 3), F(5, 1 << 90), F(-(1 << 70), 3**50)]


def test_integer_held_arithmetic_matches_the_fraction_lists():
    rng = random.Random(20261019)
    operands = [Polynomial(), Polynomial([7]), Polynomial([F(-3, 11)]), Polynomial([0, 0, 0, 1])]
    operands += [random_polynomial(rng, rng.choice(KINDS)) for _ in range(80)]
    for p in operands:
        for q in (*operands[:4], rng.choice(operands), -p):
            assert_coefficients(p + q, _oracles.fraction_sum(p, q))
            assert_coefficients(p - q, _oracles.fraction_sum(p, -q))
        assert_coefficients(-p, _oracles.fraction_scalar_product(p, -1))
        assert_coefficients(p.derivative(), _oracles.fraction_derivative(p))
        assert p.even_part() == Polynomial(p.coefficients[0::2])
        assert p.odd_part() == Polynomial(p.coefficients[1::2])
        for c in SCALARS:
            assert_coefficients(p * c, _oracles.fraction_scalar_product(p, c))
            assert_coefficients(c * p, _oracles.fraction_scalar_product(p, c))
            assert_coefficients(p.scale_substitute(c), _oracles.fraction_scale_substitute(p, c))
        if not p.is_zero:
            assert_coefficients(p.monic(), _oracles.fraction_monic(p))
            assert p.content() == _oracles.fraction_content(p)
            assert p.leading == p.coefficients[-1]


def test_equal_polynomials_hash_equal_however_built():
    p = Polynomial([F(1, 2), F(-3, 4), 5])
    routes = [
        Polynomial(["1/2", "-3/4", "5", "0"]),
        Polynomial([0.5, -0.75, 5.0]),
        Polynomial([2, -3, 20]) * F(1, 4),
        Polynomial([1, F(-3, 2), 10]) * Polynomial([F(1, 2)]),
        Polynomial([F(1, 2)]) + Polynomial([0, F(-3, 4), 5]),
        Polynomial([F(3, 2), F(-3, 4), 10]) - Polynomial([1, 0, 5]),
        (p * F(-7, 3)).monic() * 5,
        Polynomial([1, F(-3, 2), 10]).scale_substitute(1) * F(1, 2),
    ]
    ints = Polynomial([2, 4, 6])
    int_routes = [
        Polynomial([F(2), F(4), F(6)]),
        Polynomial(["2", "4", "6"]),
        Polynomial([2.0, 4.0, 6.0]),
        Polynomial([1, 2, 3]) * 2,
        Polynomial([F(1, 3), F(2, 3), 1]) * 6,
        Polynomial([2, 2]) * Polynomial([1, 1]) + Polynomial([0, 0, 4]),
        Polynomial([0, 2, 2, 2]).derivative() - Polynomial([0, 0, 0]),
    ]
    zero = Polynomial()
    zero_routes = [Polynomial([0, 0]), Polynomial([F(0, 5), 0.0, "0/3"]), p - p, p * 0, 0 * ints]
    zero_routes += [Polynomial([5]).derivative(), p.odd_part().odd_part()]
    for want, built in ((p, routes), (ints, int_routes), (zero, zero_routes)):
        for q in built:
            assert q == want and hash(q) == hash(want), q
            assert q.coefficients == want.coefficients
    assert p.monic() == (p * F(-7, 3)).monic() == (p * 10).monic()
    assert hash(p.monic()) == hash((p * F(-7, 3)).monic())
    assert p != ints and p != zero and ints != zero


def test_float_evaluation_of_coefficients_beyond_the_double_range():
    # numerators and denominators past 2^200, their ratios within range
    rng = random.Random(20261020)
    args = [0.0, -0.0, 1.0, -2.5, 1e-300, 3.7e5, 1e40, 1j, 2.5 + 0.75j, complex(0.0, -1e8)]
    polys = [q for q in (random_polynomial(rng, "huge", 8) for _ in range(30)) if not q.is_zero]
    polys.append(Polynomial([F(10**400 + 1, 10**400), F(1, 3 * 10**399)]))
    for p in polys:
        for x in args:
            got, want = p(x), _oracles.fraction_horner(p, x)
            assert type(got) is type(want)
            assert repr(got) == repr(want), (p, x)
    # a coefficient itself beyond the double range
    for c in (F(10) ** 400, -F(10) ** 400, F(3**700, 7)):
        for x in (0.5, 0.5j):
            with pytest.raises(OverflowError):
                Polynomial([1, c])(x)


def test_truncated_series_product_matches_schoolbook():
    rng = random.Random(7)
    for _ in range(100):
        a = TruncatedSeries(random_polynomial(rng, rng.choice(KINDS), 15).coefficients or [0])
        b = TruncatedSeries(random_polynomial(rng, rng.choice(KINDS), 15).coefficients or [0])
        n = min(a.order, b.order)
        full = _oracles.fraction_product(Polynomial(a.coefficients), Polynomial(b.coefficients))
        assert a * b == TruncatedSeries([full.coeff(k) for k in range(n)])


def _factor(rng):
    """A factor with rational roots or rational root pairs, in any half-plane
    or on the imaginary axis."""
    a = F(rng.randint(1, 9), rng.randint(1, 4))
    b = F(rng.randint(1, 9), rng.randint(1, 4))
    return rng.choice(
        [
            Polynomial([a, 1]),
            Polynomial([-a, 1]),
            Polynomial([b * b, 0, 1]),
            Polynomial([0, 1]),
            Polynomial([a * a + b * b, 2 * a, 1]),
            Polynomial([a * a + b * b, -2 * a, 1]),
            Polynomial([-a * a, 0, 1]),
        ]
    )


def _assert_same_report(p):
    got, want = routh_hurwitz(p), _oracles.rational_routh_hurwitz(p)
    assert got == want, p
    assert repr(got) == repr(want), p
    return got


def test_routh_matches_rational_array_on_factor_products():
    rng = random.Random(1)
    for _ in range(1500):
        p = Polynomial([F(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 5))])
        while p.degree < rng.randint(1, 10):
            p = p * _factor(rng)
        _assert_same_report(p)


def test_routh_matches_rational_array_on_sparse_rational_polynomials():
    rng = random.Random(2)
    tried = 0
    while tried < 1500:
        kind = rng.choice(("sparse", "rational", "huge"))
        # huge entries grow row by row; degree 6 keeps them printable
        p = random_polynomial(rng, kind, 6 if kind == "huge" else 14)
        if p.degree < 1:
            continue
        tried += 1
        _assert_same_report(p)


def test_routh_matches_the_leading_pairs_and_rational_arrays():
    # routh_hurwitz slices and negates its first rows and forms the column
    # and the sign changes row by row; the report must equal the array over
    # Q in == and repr, whatever the sign, degree or degeneracy
    rng = random.Random(20261023)
    polys = [Polynomial([1, 1]), Polynomial([-3, -2]), Polynomial([F(1, 2), F(-2, 3)])]
    polys += [Polynomial([2, 0, -1]), Polynomial([0, 0, F(-5, 3)]), Polynomial([4, 0, 1])]
    for _ in range(600):
        # products of rational factors: zero rows from axis roots
        p = Polynomial([F(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 5))])
        while p.degree < rng.randint(1, 8):
            p = p * _factor(rng)
        polys.append(p)
        # sparse and rational: zero pivots, any sign of the leading term
        p = random_polynomial(rng, rng.choice(("sparse", "rational")), 10)
        if p.degree >= 1:
            polys.append(p)
    polys += [classical_bessel(n) for n in range(29, 54)]
    polys += [pade_denominator(PadeIndex(n, m)) for n in range(1, 25) for m in {0, n // 2, n - 1, n}]
    # the paper's largest degrees: the stable Bessel and Pade denominators
    polys += [classical_bessel(86)] + [pade_denominator(PadeIndex(41, m)) for m in (0, 20, 40, 41)]
    polys += [-p for p in polys[-35:]]
    kinds = ("negative", "degree 1", "degree 2", "zero row", "zero pivot", "rational entry")
    seen = dict.fromkeys(kinds, 0)
    for p in polys:
        got = _assert_same_report(p)
        column = got.routh_first_column
        seen["negative"] += p.leading < 0
        seen["degree 1"] += p.degree == 1
        seen["degree 2"] += p.degree == 2
        seen["zero pivot"] += len(column) < p.degree + 1
        seen["zero row"] += len(column) == p.degree + 1 and bool(got.degenerate_rows)
        seen["rational entry"] += any(c.denominator != 1 for c in column)
    assert min(seen.values()) >= 10, seen


# The rational Budak shape parameters of the benchmark: small
# denominators, 1/2 < g < 3, g != 1.
G_VALUES = sorted(
    {
        F(p, q)
        for q in (2, 3, 5)
        for p in range(1, 3 * q)
        if F(1, 2) < F(p, q) < 3 and F(p, q) != 1
    }
)


def assert_analysis_matches(tf):
    assert magnitude_squared(tf) == _oracles.fraction_magnitude_squared(tf), tf
    assert minimum_phase(tf) is _oracles.routh_minimum_phase(tf), tf
    if tf.numerator.coeff(0) == 0 or tf.denominator.coeff(0) == 0:
        return
    assert group_delay(tf) == _oracles.fraction_group_delay(tf), tf


def test_pade_sources_and_analysis_match_the_factorial_sums():
    rng = random.Random(20261018)
    pairs = {(0, 0), (1, 0), (0, 1), (30, 30), (30, 29), (0, 30), (30, 0)}
    pairs |= {(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(24)}
    for n, m in sorted(pairs):
        idx = PadeIndex(n, m)
        assert pade_denominator(idx) == _oracles.factorial_sum_pade_denominator(n, m)
        assert pade_numerator(idx) == _oracles.explicit_pade_numerator(n, m)
        tf = pade_exp(idx)
        assert tf == _oracles.factorial_sum_pade_exp(n, m), (n, m)
        assert_analysis_matches(tf)


def test_bessel_sources_and_analysis_match_the_backward_factorials():
    for n in range(61):
        assert classical_bessel(n) == _oracles.backward_factorial_gbp(n, 2, 2), n
    rng = random.Random(20261019)
    for n in sorted({1, 2, 60, *rng.sample(range(3, 60), 6)}):
        den = classical_bessel(n)
        assert_analysis_matches(TransferFunction(Polynomial([den.coeff(0)]), den))


def test_gbp_matches_the_backward_factorials_for_any_parameters():
    betas = [F(1), F(-1), F(2, 3), F(-5, 2), F(7)]
    for n in range(10):
        # 2-2n..1-n put a zero factor into the later terms
        alphas = {F(2), F(1, 2), F(-3, 4), F(0), F(-7, 3), F(1 - n), F(2 - 2 * n), F(-n)}
        alphas |= {F(a) for a in range(2 - 2 * n, 2 - n)}
        for alpha in sorted(alphas):
            for beta in betas:
                got = gbp_of(n, alpha, beta)
                assert got == _oracles.backward_factorial_gbp(n, alpha, beta), (n, alpha, beta)
    # alpha = 1-n zeroes the first step, so every term below s^n vanishes
    assert gbp_of(6, -5, F(2, 3)) == Polynomial.monomial(6)
    # alpha = 2-2n zeroes only the last step: a zero constant term
    p = gbp_of(6, -10, 1)
    assert p.coeff(0) == 0 and p.coeff(1) != 0


def test_budak_analysis_matches_over_the_rational_gamma_set():
    rng = random.Random(20261020)
    pairs = [(m, n) for n in range(1, 10) for m in sorted({0, 1, n // 2, n - 1, n})]
    for m, n in pairs:
        for g in rng.sample(G_VALUES, 3):
            tf = budak_tf(BudakParams(m, n, g))
            bm = _oracles.backward_factorial_gbp(m, 2, 1)
            bn = _oracles.backward_factorial_gbp(n, 2, 1)
            k = bn.coeff(0) / bm.coeff(0)
            want = TransferFunction(bm.scale_substitute(2 * (g - 1)) * k, bn.scale_substitute(2 * g))
            assert tf == want, (m, n, g)
            assert_analysis_matches(tf)


def test_random_transfer_functions_match_the_fraction_analysis():
    rng = random.Random(20261021)
    checked = 0
    for _ in range(60):
        # denominators past 2^200 ("huge") and sparse numerators
        num = random_polynomial(rng, rng.choice(("rational", "sparse", "huge")), 8)
        den = random_polynomial(rng, rng.choice(("rational", "huge")), 8)
        if num.is_zero or den.coeff(0) == 0:
            continue
        tf = TransferFunction(num, den)
        assert_analysis_matches(tf)
        checked += 1
    assert checked > 40


def test_squared_splits_of_sparse_one_term_and_huge_polynomials():
    # |P(j*omega)|^2 = e^2 + u*o^2 forms each cross product of e and o once;
    # the analysis must equal the Fraction products whatever the shape
    big = (1 << 201) + 12345
    polys = [
        Polynomial([7]),  # constants
        Polynomial([F(-3, 4)]),
        Polynomial([1, 0, 0, 0, 0, 0, 3]),  # even part only, interior zeros
        Polynomial([0, 2, 0, 0, 0, -5]),  # odd part only
        Polynomial([5, 0, 0, 2]),  # one term in each part
        Polynomial([0, 0, 0, 0, 0, 0, 0, 1]),  # one term in all
        Polynomial([9, 1, 0, 0, -2, 0, 0, 1]),  # sparse, mixed signs
        Polynomial([F(1, 3), 0, 0, F(-2, 7), 0, 0, 0, 0, 4]),
        Polynomial([big, 0, -big + 1, 3, 0, 0, big * big]),  # past 2^200
        Polynomial([F(big, 3), F(-1, big), 0, big, 0, F(5, big)]),
    ]
    rng = random.Random(20261022)
    for kind in ("sparse", "huge"):
        polys += [random_polynomial(rng, kind, 9) for _ in range(3)]
    polys = [p for p in polys if not p.is_zero]
    checked = 0
    for num in polys:
        # both analyses need a denominator that does not vanish at s = 0
        for den in [p for p in polys if p.coeff(0) != 0]:
            tf = TransferFunction(num, den)
            assert magnitude_squared(tf) == _oracles.fraction_magnitude_squared(tf), tf
            if tf.numerator.coeff(0) != 0:
                want = _oracles.fraction_group_delay(tf)
                assert group_delay(tf) == want, tf
                # an even side has phase slope 0, and the delay is the
                # other side's slope alone; its flatness must not move
                try:
                    got = delay_flatness(tf)
                except FlatBeyondHorizon:
                    with pytest.raises(FlatBeyondHorizon):
                        flatness(want)
                else:
                    assert got == flatness(want, quantity=Quantity.DELAY), tf
                checked += 1
    assert checked > 60


def test_jw_split_is_the_fraction_split_over_the_lcm_and_is_kept():
    rng = random.Random(20261023)
    polys = [Polynomial([7]), Polynomial([F(-3, 4)]), Polynomial([0, 0, 0, 1])]
    polys += [random_polynomial(rng, kind, 9) for kind in KINDS for _ in range(5)]
    u = Polynomial([0, 1])
    for p in polys:
        if p.is_zero:
            continue
        lcm, e, o, square = p.jw_split()
        assert lcm == p.integer_form[1]
        fe, fo = _oracles.fraction_jw_split(p)
        assert Polynomial.from_integer_form(e, lcm) == fe, p
        assert Polynomial.from_integer_form(o, lcm) == fo, p
        assert Polynomial.from_integer_form(square, lcm * lcm) == fe * fe + u * fo * fo, p
        assert p.jw_split() is p.jw_split()


def test_exact_sample_points_keep_the_lcm_ratio():
    # Coefficients past the double range send every point down the exact
    # path; non-integer coefficients give numerator and denominator
    # different lcms.
    big = F(10) ** 400
    tf = TransferFunction(
        Polynomial([big / 3, F(1, 7), F(-5, 11)]),
        Polynomial([big / 13, big / 90, F(1, 5)]),
    )
    # poles at s = +-j and -big; values past both ends of the double range
    poles = TransferFunction(Polynomial([big]), Polynomial([big, 1, big, 1]))
    huge = TransferFunction(Polynomial([big]), Polynomial([1, 1]))
    # zero over a negative denominator at omega = 1: the value is 0.0, not
    # -0.0; poles at u = (3 +- sqrt 5)/2
    signed = EvenRationalFunction(Polynomial([-big, big]), Polynomial([1, -3, 1]) * Polynomial([big, 1]))
    omegas = [0.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0, 3.25, 1e10, 1e200, 1e300, sys.float_info.max]
    # the 4 eps radius ends within 12 steps of each pole
    for pole in (1.0, ((3 - 5**0.5) / 2) ** 0.5, ((3 + 5**0.5) / 2) ** 0.5):
        for toward in (0.0, 2.0):
            w = pole
            for _ in range(12):
                w = math.nextafter(w, toward)
                omegas.append(w)
    sources = [(g, False) for g in (tf, magnitude_squared(tf), group_delay(tf))]
    sources += [(g, True) for g in (poles, magnitude_squared(poles), huge, signed)]
    seen = []
    for f, has_poles in sources:
        for p in sample(f, omegas):
            assert has_poles or not p.pole_adjacent
            want = _oracles.fraction_sample_point(f, p.omega)
            assert (repr(p.value), p.pole_adjacent) == (repr(want[0]), want[1]), (f, p.omega)
            parts = (p.value.real, p.value.imag) if isinstance(p.value, complex) else (p.value,)
            seen += [repr(x) for x in parts]
    assert seen.count("inf") > 10 and "-inf" in seen and "-0.0" in seen and "0.0" in seen
