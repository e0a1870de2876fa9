"""The integer kernels of the exact layer against their rational oracles.

`Polynomial.__mul__` clears denominators and convolves integers, and
`routh_hurwitz` runs its rows as integers over one denominator. Both must
give exactly what the plain computation over Fraction gives: the product
equal coefficient by coefficient, the stability report equal field by
field and in its repr.
"""

import random
from fractions import Fraction as F

import _oracles
from besselpade.core import Polynomial, TruncatedSeries
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


def test_product_of_large_denominators_stays_reduced():
    a = F(1, (1 << 211) + 1)
    p = Polynomial([a, 3, a])
    q = Polynomial([1 / a, 0, -1 / a])
    assert p * q == Polynomial([1, 3 / a, 0, -3 / a, -1])
    assert all(type(c) is F for c in (p * q).coefficients)


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
