"""Exact-arithmetic substrate tests.

Covers: polynomial ring laws, division and gcd, canonical rational
functions, truncated series division, exact interpolation, quadratic
surds and correctly rounded decimal rendering, and the value semantics
every value class of the package shares.
"""

import copy
import importlib
import inspect
import pickle
import random
from fractions import Fraction as F

import pytest

import _oracles
from besselpade.budak import (
    BudakParams,
    delay_gamma_polynomials,
    gamma_candidates,
    gamma_order2,
    magnitude_gamma_mismatch,
    mutual_exclusion,
    order2_certificate,
)
from besselpade.cli import design_report, source_tf
from besselpade.core import (
    Enclosure,
    EvenRationalFunction,
    Polynomial,
    QuadSurd,
    TransferFunction,
    TruncatedSeries,
    exp_series,
    int_nth_root,
    interpolate,
    nth_root_enclosure,
    poly_gcd,
    poly_scale_substitute,
    series_of_ratio,
    surd_to_float,
)
from besselpade.gbp import GbpParams
from besselpade.pade import PadeIndex, pade_exp
from besselpade.response import delay_flatness, sample
from besselpade.stability import routh_hurwitz, theorem1_grid

rng = random.Random(411017)


def rand_poly(max_deg=6, span=9):
    return Polynomial(
        [F(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(rng.randint(0, max_deg + 1))]
    )


def test_construction_strips_trailing_zeros():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coefficients == (F(1), F(2))
    assert Polynomial([0, 0]).is_zero
    assert Polynomial().degree == -1
    zero = Polynomial()
    for query, message in (
        (zero.monic, "cannot normalize the zero polynomial"),
        (zero.content, "zero polynomial has no content"),
        (lambda: zero.leading, "zero polynomial has no leading coefficient"),
        (zero.lowest_nonzero_power, "zero polynomial"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            query()


def test_coeff_beyond_degree_is_zero():
    p = Polynomial([3, 5])
    assert p.coeff(0) == 3
    assert p.coeff(7) == 0


def test_ring_laws_randomized():
    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == Polynomial()


def test_divmod_identity():
    for _ in range(40):
        a = rand_poly(7)
        b = rand_poly(4)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        divmod(Polynomial([1]), Polynomial())


def test_pow_and_monomial():
    s = Polynomial([0, 1])
    assert s**3 == Polynomial.monomial(3)
    assert (s + Polynomial([1])) ** 2 == Polynomial([1, 2, 1])
    assert Polynomial.constant(F(3, 4)) == Polynomial([F(3, 4)])
    with pytest.raises(ValueError, match="negative polynomial power"):
        s**-1


def test_evaluation_types():
    p = Polynomial([1, 0, 1])  # 1 + x^2
    assert p(F(1, 2)) == F(5, 4)
    assert p(2.0) == 5.0
    assert p(1j) == 0j  # complex arithmetic flows through Horner


def test_float_evaluation_matches_fraction_horner_to_the_bit():
    args = [0.0, -0.0, 1.0, -2.5, 1e-300, 3.7e5, 1j, -0.5j, 2.5 + 0.75j, complex(0.0, -1e8)]
    for _ in range(60):
        p = rand_poly(9)
        if p.is_zero:
            continue
        for x in args:
            got, want = p(x), _oracles.fraction_horner(p, x)
            assert type(got) is type(want)
            assert repr(got) == repr(want), (p, x)


def test_scalar_addition_and_subtraction():
    s = Polynomial([0, 1])
    assert s + 2 == Polynomial([2, 1])
    assert 2 + s == Polynomial([2, 1])
    assert s - 2 == Polynomial([-2, 1])
    assert 2 - s == Polynomial([2, -1])
    assert F(1, 3) + s == Polynomial([F(1, 3), 1])
    assert sum([s, s]) == 2 * s
    with pytest.raises(TypeError):
        s + 0.5
    with pytest.raises(TypeError):
        0.5 - s


def test_derivative_and_parts():
    p = Polynomial([7, 5, 3, 2])
    assert p.derivative() == Polynomial([5, 6, 6])
    assert p.even_part() == Polynomial([7, 3])
    assert p.odd_part() == Polynomial([5, 2])


def test_scale_substitute_examples():
    p = Polynomial([15, 15, 6, 1])
    assert poly_scale_substitute(p, 2) == Polynomial([15, 30, 24, 8])
    assert poly_scale_substitute(p, 1) == p
    q = Polynomial([20, 8, 1])
    assert poly_scale_substitute(q, -1) == Polynomial([20, -8, 1])


def test_gcd_examples():
    s = Polynomial([0, 1])
    one = Polynomial([1])
    big = (1 << 61) - 1  # an earlier prime of the modular check, still a valid input
    assert poly_gcd(s * s - one, s - one) == s - one
    assert poly_gcd(rand_poly(5) + one, one) == one
    # coprime over Q, equal modulo the prime
    assert poly_gcd(s, s + Polynomial([big])) == one
    # the prime divides a leading coefficient
    assert poly_gcd(Polynomial([1, big]), s) == one
    shared = Polynomial([F(1, big), 1])
    assert poly_gcd(s * Polynomial([1, big]), Polynomial([1, big])) == shared
    assert poly_gcd(Polynomial([1, big]), s * Polynomial([1, big])) == shared
    s2, s3 = Polynomial([2, 1]), Polynomial([3, 1])
    assert poly_gcd(Polynomial([1, big]) * s2, s2 * s3) == s2
    # the same cases at the prime of poly_gcd's modular coprimality check
    # (2^15 - 19) and at the one before it (2^30 - 35)
    for prime in ((1 << 15) - 19, (1 << 30) - 35):
        assert poly_gcd(s, s + Polynomial([prime])) == one
        assert poly_gcd(Polynomial([1, prime]), s) == one
        shared = Polynomial([F(1, prime), 1])
        assert poly_gcd(s * Polynomial([1, prime]), Polynomial([1, prime])) == shared
        assert poly_gcd(Polynomial([1, prime]), s * Polynomial([1, prime])) == shared
        assert poly_gcd(Polynomial([1, prime]) * s2, s2 * s3) == s2
        # the prime in the shared factor
        assert poly_gcd(Polynomial([prime, 1]) * s2, Polynomial([prime, 1]) * s3) == Polynomial([prime, 1])
    # shared rational root, non-integer cofactors
    root = Polynomial([F(-1, 3), 1])
    a = root * Polynomial([F(5, 7), F(1, 2)])
    b = root * Polynomial([F(-2, 9), 0, F(3, 4)])
    assert poly_gcd(a, b) == root
    p = Polynomial([F(3, 2), 0, 6])
    assert poly_gcd(p, Polynomial()) == p.monic()
    assert poly_gcd(Polynomial(), p) == p.monic()
    with pytest.raises(ValueError):
        poly_gcd(Polynomial(), Polynomial())


def test_gcd_is_monic_and_divides_both():
    for _ in range(25):
        g = rand_poly(3)
        if g.is_zero:
            continue
        a = rand_poly(3) * g
        b = rand_poly(3) * g
        if a.is_zero and b.is_zero:
            continue
        d = poly_gcd(a, b)
        assert d.leading == 1
        assert d.divides(a) and d.divides(b)
        assert d == _oracles.euclid_gcd(a, b)


def test_content():
    assert Polynomial([F(6, 5), F(9, 10)]).content() == F(3, 10)
    assert Polynomial([4, 8]).content() == 4


def test_to_str_conventions():
    assert Polynomial([60, 36, 9, 1]).to_str() == "s^3 + 9 s^2 + 36 s + 60"
    assert Polynomial([60, -24, 3]).to_str() == "3 s^2 - 24 s + 60"
    assert Polynomial([F(1, 2), 1]).to_str() == "s + 1/2"
    assert Polynomial([-1, 0, 1]).to_str("u") == "u^2 - 1"
    assert Polynomial([0, -1]).to_str() == "-s"
    assert Polynomial().to_str() == "0"
    assert Polynomial([5]).to_str() == "5"


def test_to_str_matches_the_fraction_oracle():
    local = random.Random(52177)
    polys = [Polynomial(), Polynomial([1]), Polynomial([-1]), Polynomial([0, 0, F(-1, 1)])]
    for _ in range(400):
        degree = local.randint(0, 9)
        polys.append(
            Polynomial(
                [
                    local.choice([0, 1, -1, F(local.randint(-99, 99), local.randint(1, 30))])
                    for _ in range(degree + 1)
                ]
            )
        )
    polys.append(Polynomial([F(10**40 + 1, 3**50), -(10**60), F(1, 2**70)]))
    for p in polys:
        for var in ("s", "u", "gamma"):
            assert p.to_str(var) == _oracles.fraction_to_str(p, var), p


def test_transfer_function_canonical():
    tf = TransferFunction(Polynomial([120, 0, 3]), Polynomial([0, 2, 0, 1]) * 2)
    assert tf.denominator.leading == 1
    g = Polynomial([1, 1])
    a, b = Polynomial([2, 3]), Polynomial([1, 0, 4])
    assert TransferFunction(a * g, b * g) == TransferFunction(a, b)
    with pytest.raises(ZeroDivisionError):
        TransferFunction(a, Polynomial())


def test_transfer_function_rendering():
    tf = TransferFunction(Polynomial([1]), Polynomial([1]))
    assert str(tf) == "1 / 1"
    tf2 = TransferFunction(Polynomial([60, -24, 3]), Polynomial([60, 36, 9, 1]))
    assert str(tf2) == "(3 s^2 - 24 s + 60) / (s^3 + 9 s^2 + 36 s + 60)"


def test_even_rational_needs_positive_origin():
    with pytest.raises(ValueError):
        EvenRationalFunction(Polynomial([1]), Polynomial([0, 1]))
    f = EvenRationalFunction(Polynomial([2]), Polynomial([2, 2]))
    assert f.numerator == Polynomial([1])
    assert f.at_origin() == 1


def test_rational_function_type_contract():
    # the s-domain and u-domain types share a canonical form, not equality
    g = Polynomial([1, 1])
    a, b = Polynomial([2, 3]), Polynomial([1, 0, 4])
    tf, erf = TransferFunction(a, b), EvenRationalFunction(a, b)
    assert (tf.numerator, tf.denominator) == (erf.numerator, erf.denominator)
    assert tf != erf and erf != tf
    assert tf == TransferFunction(a * g, b * g)
    assert erf == EvenRationalFunction(a * g, b * g)
    assert hash(tf) == hash(TransferFunction(a * g, b * g))
    assert hash(erf) == hash(EvenRationalFunction(a * g, b * g))
    assert len({tf, erf, TransferFunction(a * g, b * g)}) == 2
    assert repr(tf) == "TransferFunction(Polynomial([1/2, 3/4]), Polynomial([1/4, 0, 1]))"
    assert repr(erf) == "EvenRationalFunction(Polynomial([1/2, 3/4]), Polynomial([1/4, 0, 1]))"
    assert str(tf) == "(3/4 s + 1/2) / (s^2 + 1/4)"
    assert str(erf) == "(3/4 u + 1/2) / (u^2 + 1/4)"
    assert tf.value_at(F(1)) == erf.value_at(F(1)) == F(1)
    assert tf.at_origin() == erf.at_origin() == 2
    with pytest.raises(ZeroDivisionError):
        TransferFunction(a, Polynomial([0, 1])).at_origin()


def test_series_of_ratio_examples():
    one = Polynomial([1])
    geo = series_of_ratio(one, Polynomial([1, 1]), 4)
    assert geo.coefficients == (F(1), F(-1), F(1), F(-1))
    p = rand_poly(4) + one
    assert series_of_ratio(p, p, 3).coefficients == (F(1), F(0), F(0))
    with pytest.raises(ZeroDivisionError):
        series_of_ratio(one, Polynomial([0, 1]), 3)
    with pytest.raises(ValueError, match="terms must be non-negative"):
        series_of_ratio(one, Polynomial([1, 1]), -1)


def test_series_of_ratio_multiplies_back():
    for _ in range(20):
        p = rand_poly(5)
        q = rand_poly(5) + Polynomial([1])
        if q.coeff(0) == 0:
            continue
        t = 9
        f = series_of_ratio(p, q, t)
        back = f * TruncatedSeries.from_polynomial(q, t)
        assert back.coefficients == TruncatedSeries.from_polynomial(p, t).coefficients


def test_exp_series():
    assert exp_series(-1, 4).coefficients == (F(1), F(-1), F(1, 2), F(-1, 6))
    assert exp_series(1, 3).coefficients == (F(1), F(1), F(1, 2))
    prod = exp_series(-1, 8) * exp_series(1, 8)
    assert prod.first_nonzero() == 0
    assert all(c == 0 for c in prod.coefficients[1:])
    with pytest.raises(ValueError):
        exp_series(2, 4)
    with pytest.raises(ValueError, match="terms must be at least 1"):
        exp_series(1, 0)


def test_truncated_series_truncates_to_shorter():
    a = TruncatedSeries([1, 2, 3, 4])
    b = TruncatedSeries([1, 1])
    assert (a + b).order == 2
    assert (a * b).coefficients == (F(1), F(3))
    assert TruncatedSeries([0, 0]).first_nonzero() is None
    c = TruncatedSeries([1, F(1, 2), 3])
    assert 2 * c == c * 2 == TruncatedSeries([2, 1, 6])
    assert c * F(1, 3) == TruncatedSeries([F(1, 3), F(1, 6), 1])
    assert c[1] == F(1, 2)
    assert hash(c) == hash(TruncatedSeries([1, F(1, 2), 3]))
    assert repr(c) == "TruncatedSeries([1, 1/2, 3])"


def test_interpolate_examples():
    assert interpolate([(0, 0), (1, 1), (2, 4)]) == Polynomial([0, 0, 1])
    target = Polynomial([675, -1350, 1080])
    pts = [(F(t), target(F(t))) for t in range(7)]
    assert interpolate(pts) == target
    assert interpolate([(0, 5), (1, 5)]) == Polynomial([5])
    with pytest.raises(ValueError):
        interpolate([(1, 2), (1, 3)])
    with pytest.raises(ValueError):
        interpolate([])


def test_interpolate_recovers_random_polynomials():
    for _ in range(15):
        p = rand_poly(5)
        pts = [(F(t), p(F(t))) for t in range(7)]
        assert interpolate(pts) == p


def test_interpolate_matches_the_polynomial_per_step_assembly():
    rng = random.Random(20261019)
    cases = [
        [(F(3, 7), F(-2, 5))],  # a single point
        [(-1, 2), (-2, 0), (-3, F(1, 3)), (-F(1, 2), -7)],  # negative abscissae
        [(F(k, 3) - 1, F(k * k - 5, k + 2)) for k in range(9)],  # rational abscissae
        [(0, "1/2"), ("-3/4", 5), (F(2), "-7"), ("11", F(-1, 9))],  # mixed int, str, Fraction
        [(x, 0) for x in (-2, F(1, 5), 4)],  # the zero polynomial
    ]
    for _ in range(10):
        xs = rng.sample(sorted({F(p, q) for p in range(-12, 13) for q in (1, 2, 3, 7)}), rng.randint(1, 9))
        cases.append([(x, F(rng.randint(-99, 99), rng.randint(1, 20))) for x in xs])
    # 40 points with rational abscissae and 30-digit ordinates
    xs = rng.sample(sorted({F(p, q) for p in range(-40, 41) for q in range(1, 12)}), 40)
    cases.append([(x, F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**6))) for x in xs])
    # integer samples of a magnitude mismatch at gamma = 0..2j, the points
    # magnitude_gamma_mismatch interpolates: they give back its closed form
    for n, m, j in ((2, 1, 1), (8, 7, 2), (16, 15, 16), (16, 1, 9)):
        nums, _ = magnitude_gamma_mismatch(n, m, j).integer_form
        c = rng.randint(1, 10**6)
        points = [(t, c * sum(x * t**k for k, x in enumerate(nums))) for t in range(2 * j + 1)]
        assert interpolate(points) == Polynomial.from_integer_form([c * x for x in nums]), (n, m, j)
        cases.append(points)
    # through every point with degree below their number: the unique interpolant
    for points in cases:
        got = interpolate(points)
        assert all(got(F(x)) == F(y) for x, y in points), points
        assert got.degree < len(points), points


def test_int_nth_root():
    assert int_nth_root(0, 3) == 0
    with pytest.raises(ValueError, match="requires n >= 0, k >= 1"):
        int_nth_root(-1, 2)
    assert int_nth_root(26, 3) == 2
    assert int_nth_root(27, 3) == 3
    assert int_nth_root(10**30, 2) == 10**15
    for _ in range(50):
        n = rng.randint(0, 10**12)
        k = rng.randint(1, 6)
        r = int_nth_root(n, k)
        assert r**k <= n < (r + 1) ** k
    # past the double range, where a float seed overflows
    assert int_nth_root(2**1500 + 12345, 3) == 2**500
    assert int_nth_root(7**700, 7) == 7**100
    assert int_nth_root(7**700 - 1, 7) == 7**100 - 1
    for _ in range(50):
        n = rng.randrange(2**1024, 2**3000)
        k = rng.randint(3, 40)
        r = int_nth_root(n, k)
        assert r**k <= n < (r + 1) ** k


def test_nth_root_enclosure():
    enc = nth_root_enclosure(F(2), 2, 10)
    assert enc.width <= F(1, 10**10)
    assert enc.lo**2 <= 2 <= enc.hi**2
    with pytest.raises(ValueError, match="requires x >= 0"):
        nth_root_enclosure(F(-1), 2, 3)


def test_enclosure_invariants():
    with pytest.raises(ValueError):
        Enclosure(F(1), F(0))
    a = Enclosure(F(0), F(1))
    b = Enclosure(F(2), F(3))
    assert a.disjoint_from(b) and b.disjoint_from(a)
    assert not a.disjoint_from(Enclosure(F(1, 2), F(2)))
    assert a.contains(F(1, 2))
    assert float(Enclosure(F(1), F(2))) == 1.5


def test_enclosure_rejects_an_empty_interval_by_name():
    with pytest.raises(ValueError, match="^empty enclosure$"):
        Enclosure(F(1), F(0))


# one builder for each of the package's 14 value classes
RECORDS = {
    "BudakParams": lambda: BudakParams(2, 3, F(7, 3)),
    "GammaSolutions": lambda: gamma_candidates(3, 2, 1),
    "Order2Gamma": lambda: gamma_order2(3, 2),
    "MutualExclusionReport": lambda: mutual_exclusion(3, 2),
    "DelayCoefficientPolys": lambda: delay_gamma_polynomials(2, 3),
    "Order2Certificate": lambda: order2_certificate(3, 2),
    "DesignReport": lambda: design_report(*source_tf("pade:3,2")),
    "Enclosure": lambda: Enclosure(F(1), F(2)),
    "GbpParams": lambda: GbpParams(3, 1, 1),
    "PadeIndex": lambda: PadeIndex(3, 2),
    "FlatnessReport": lambda: delay_flatness(pade_exp(PadeIndex(3, 2))),
    "SamplePoint": lambda: sample(pade_exp(PadeIndex(3, 2)), [0.5])[0],
    "StabilityReport": lambda: routh_hurwitz(Polynomial([1, 2, 1])),
    "Theorem1Report": lambda: theorem1_grid(2, [1], [1]),
}


@pytest.fixture(params=sorted(RECORDS))
def record_pair(request):
    """Two separately built records of one class with equal fields."""
    make = RECORDS[request.param]
    first, second = make(), make()
    assert type(first).__name__ == request.param
    assert first is not second
    return first, second


def test_records_compare_by_class_and_fields(record_pair):
    a, b = record_pair
    assert a == b and not a != b
    if type(a).__name__ == "DesignReport":
        # its provenance is a dict, so, as for the frozen dataclass it
        # was, hashing it raises
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != tuple(getattr(a, name) for name in a.__match_args__)
    assert a.__eq__(object()) is NotImplemented


def test_records_refuse_assignment_and_deletion(record_pair):
    a, _ = record_pair
    for name in (*a.__match_args__, "unknown"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)


def test_records_rebuild_from_their_fields_by_keyword(record_pair):
    a, _ = record_pair
    fields = {name: getattr(a, name) for name in a.__match_args__}
    assert type(a)(**fields) == a
    assert repr(a).startswith(f"{type(a).__qualname__}({a.__match_args__[0]}=")


def test_records_survive_copy_and_pickle(record_pair):
    a, _ = record_pair
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a)
        assert twin == a
        assert repr(twin) == repr(a)
    with pytest.raises(AttributeError):
        setattr(pickle.loads(pickle.dumps(a)), a.__match_args__[0], 1)


def test_records_of_two_classes_with_equal_fields_differ():
    assert PadeIndex(2, 3) != Enclosure(2, 3)
    assert Enclosure(2, 3) != PadeIndex(2, 3)

    class Index(PadeIndex):
        pass

    assert Index(3, 2) != PadeIndex(3, 2)
    assert repr(Index(3, 2)).endswith(".<locals>.Index(n=3, m=2)")


def test_records_match_class_patterns_by_position():
    match Enclosure(F(1), F(2)):
        case Enclosure(lo, hi):
            assert (lo, hi) == (1, 2)
        case _:
            pytest.fail("no match")


def test_every_value_class_is_covered_and_names_its_constructor_fields():
    """Each public class with `__match_args__` in a public module is one
    of RECORDS, so none skips the value-semantics tests above, and its
    fields are its constructor's parameters, in order."""
    found = {}
    for name in ("core", "gbp", "pade", "stability", "response", "budak", "cli"):
        module = importlib.import_module(f"besselpade.{name}")
        for attr, cls in vars(module).items():
            if (
                isinstance(cls, type)
                and not attr.startswith("_")
                and cls.__module__ == module.__name__
                and hasattr(cls, "__match_args__")
            ):
                found[attr] = cls
    assert sorted(found) == sorted(RECORDS)
    for cls in found.values():
        assert cls.__match_args__ == tuple(inspect.signature(cls).parameters), cls


def test_quadsurd_normalization():
    assert QuadSurd(0, 1, 12) == QuadSurd(0, 2, 3)
    assert QuadSurd(1, 2, 9) == QuadSurd(7, 0, 1)  # perfect square folds
    assert QuadSurd(3, 0, 2).is_rational
    with pytest.raises(ValueError):
        QuadSurd(0, 1, -5)
    assert QuadSurd.from_rational(F(-3, 4)) == QuadSurd(F(-3, 4), 0, 7) == F(-3, 4)
    assert QuadSurd.from_rational(2) == 2 and QuadSurd(0, 1, 2) != 0
    assert -QuadSurd(F(5, 2), F(1, 2), 15) == QuadSurd(F(-5, 2), F(-1, 2), 15)


def test_quadsurd_compare():
    root15 = QuadSurd(0, 1, 15)
    assert root15.compare_to_rational(3) > 0
    assert root15.compare_to_rational(4) < 0
    assert root15 > 3 and root15 < 4
    gamma = QuadSurd(F(5, 2), F(1, 2), 15)
    assert gamma.compare_to_rational(4) > 0
    assert gamma.compare_to_rational(F(9, 2)) < 0
    neg = QuadSurd(F(5, 2), F(-1, 2), 15)
    assert neg.compare_to_rational(1) < 0
    assert neg.compare_to_rational(F(1, 2)) > 0
    assert QuadSurd(2, 0, 1).compare_to_rational(2) == 0


def test_compare_to_rational_matches_an_independent_oracle():
    cases = []
    # r = a exactly (t = 0), b = 0, negative b, and r near the surd
    for _ in range(1500):
        a = F(rng.randint(-(10 ** rng.randint(0, 12)), 10 ** rng.randint(0, 12)), rng.randint(1, 10**6))
        b = F(rng.randint(-(10 ** rng.randint(0, 12)), 10 ** rng.randint(0, 12)), rng.randint(1, 10**6))
        x = QuadSurd(a, rng.choice([0, b, -abs(b)]), rng.choice([2, 3, 5, 6, 7, 15, 99991]))
        near = F(float(x)).limit_denominator(rng.randint(1, 10**6))
        r = F(rng.randint(-(10**12), 10**12), rng.randint(1, 10**6))
        cases += [(x, a), (x, r), (x, near), (x, rng.randint(-5, 5))]
    # sqrt(2) convergents p/q lie within 1/(2 q^2) of sqrt(2); the last
    # ones, with q past 10^10, within 10^-20
    p, q = 1, 1
    for _ in range(30):
        for x in (QuadSurd(0, 1, 2), QuadSurd(0, -1, 2), QuadSurd(F(1, 3), F(5, 7), 2)):
            cases += [(x, F(p, q)), (x, -F(p, q)), (x, F(1, 3) + F(5 * p, 7 * q))]
        cases += [(QuadSurd(p, -q, 2), 0), (QuadSurd(F(p, 1000), F(-q, 1000), 2), 0)]
        p, q = p + 2 * q, p + q
    # the order-2 gammas of the paper's grid against 1/2, 1 and powers of ten
    for n in range(2, 17):
        for m in range(1, n):
            roots = gamma_order2(n, m)
            for x in (roots.gamma_plus, roots.gamma_minus):
                cases += [(x, r) for r in (F(1, 2), 1, *[F(10) ** e for e in range(-3, 4)])]
    for x, r in cases:
        assert x.compare_to_rational(r) == _oracles.mpmath_surd_sign(x, r), (x, r)


def test_quadsurd_str():
    assert str(QuadSurd(F(5, 2), F(1, 2), 15)) == "(5+sqrt(15))/2"
    assert str(QuadSurd(F(5, 2), F(-1, 2), 15)) == "(5-sqrt(15))/2"
    assert str(QuadSurd(0, 1, 2)) == "sqrt(2)"
    assert str(QuadSurd(0, F(1, 3), 2)) == "sqrt(2)/3"
    assert str(QuadSurd(1, 2, 3)) == "1+2*sqrt(3)"
    assert str(QuadSurd(F(3, 4), 0, 1)) == "3/4"


def test_quadsurd_enclosure():
    x = QuadSurd(F(5, 2), F(1, 2), 15)
    enc = x.enclosure(12)
    assert enc.width <= F(1, 10**12)
    # double value sits inside the interval up to representation error
    assert enc.lo - F(1, 10**13) <= F(float(x)) <= enc.hi + F(1, 10**13)
    assert float(x) == pytest.approx(4.436491673, abs=1e-9)
    # a rational surd is its own degenerate interval
    assert QuadSurd.from_rational(F(-3, 4)).enclosure(5) == Enclosure(F(-3, 4), F(-3, 4))


def test_surd_to_float_examples():
    assert surd_to_float(QuadSurd(F(5, 2), F(1, 2), 15), 4) == "4.436"
    assert surd_to_float(QuadSurd(3, 0, 2), 4) == "3.000"
    assert surd_to_float(QuadSurd(F(5, 2), F(-1, 2), 15), 4) == "0.5635"
    assert surd_to_float(QuadSurd(F(5, 2), F(1, 2), 15), 12) == "4.43649167310"
    with pytest.raises(ValueError, match="precision must be at least 1"):
        surd_to_float(QuadSurd(F(5, 2), F(1, 2), 15), 0)


def test_surd_to_float_rational_rounding():
    # round half to even on exact rationals
    assert surd_to_float(QuadSurd(F(25, 1000), 0, 1), 1) == "0.02"
    assert surd_to_float(QuadSurd(F(35, 1000), 0, 1), 1) == "0.04"
    assert surd_to_float(QuadSurd(F(999, 1000), 0, 1), 2) == "1.0"
    assert surd_to_float(QuadSurd(0, 0, 1), 3) == "0.00"
    assert surd_to_float(QuadSurd(-3, 0, 1), 2) == "-3.0"


def test_surd_to_float_matches_refinement_oracle():
    # one-step rounding against interval refinement, string for string
    cases = []
    p, q = 1, 1
    for _ in range(30):
        # sqrt(2) convergents: p - q*sqrt(2) cancels to about 1/(2q)
        cases += [QuadSurd(p, -q, 2), QuadSurd(-p, q, 2), QuadSurd(F(p, 1000), F(-q, 1000), 2)]
        p, q = p + 2 * q, p + q
    for k in range(1, 16):
        # just below a power of ten, so rounding carries into it
        cases += [
            QuadSurd(10, F(-1, 10**k), 2),
            QuadSurd(F(-1, 10**k), F(-1, 10**k), 3),
            QuadSurd(F(10 ** (k + 1) - 5, 10**k), 0, 1),
            QuadSurd(F(-(10**k) + 1, 10**k), 0, 1),
        ]
    checked = [(x, digits) for x in cases for digits in (1, 2, 3, 7, 15, 30)]
    # -(1 + 5/10^k) lies on a tie at k digits and rounds half to even
    checked += [(QuadSurd(F(-(10**k) - 5, 10**k), 0, 1), k) for k in range(1, 16)]
    for _ in range(5000):
        a = F(rng.randint(-(10 ** rng.randint(0, 12)), 10 ** rng.randint(0, 12)), rng.randint(1, 10**6))
        b = F(rng.randint(-(10 ** rng.randint(0, 6)), 10 ** rng.randint(0, 6)), rng.randint(1, 10**6))
        checked.append((QuadSurd(a, b, rng.choice([1, 2, 3, 5, 6, 7, 12, 15, 99991])), rng.randint(1, 30)))
    for x, digits in checked:
        assert surd_to_float(x, digits) == _oracles.refined_surd_to_float(x, digits), (x, digits)


def test_surd_to_float_accuracy():
    # rendered value within half an ulp of the true value at each precision
    for surd in (QuadSurd(F(5, 2), F(1, 2), 15), QuadSurd(0, 1, 2), QuadSurd(F(1, 3), F(2, 7), 5)):
        true = float(surd)
        for digits in (4, 8, 13):
            shown = float(surd_to_float(surd, digits))
            assert abs(shown - true) <= 0.51 * abs(true) * 10.0 ** (1 - digits)
