"""Exact arithmetic substrate.

Dense rational-coefficient polynomials, canonical rational functions (in the
Laplace variable s and in u = omega^2), truncated power series, quadratic
surds a + b*sqrt(d), exact interpolation in Lagrange's form over the
integers, and correctly rounded decimal rendering of surds in one step,
from exact integer comparisons and one integer square root.

Every coefficient is rational, so all operations here are exact. A
`Polynomial` is held as integer numerators over one positive
denominator, the lcm of its coefficients' denominators, so sums,
products, scalar products and `monic` run on plain ints and pay one gcd
per result. That integer form is the package's internal interface to a
polynomial: other modules read it through `Polynomial.integer_form`,
build from it through `Polynomial.from_integer_form`, take the split on
the imaginary axis from `Polynomial.jw_split`, and run the list kernels
of `_intpoly` on it. Canonical forms first try to prove numerator and
denominator coprime modulo the prime 2^15 - 19, whose residues and their
products are one CPython digit each, and run Euclid over Q only when that
proof fails.
All values are immutable after construction and every operation is a
pure function; instances may be freely shared across threads. (A
`Polynomial` fills three cache slots on first use: its `coefficients` as
Fractions, its float and complex lowering, and its `jw_split`; two
threads racing to fill one store equal values.)

Rationals serialize as "p/q" strings (the "/q" omitted when q = 1), which is
exactly what `str(Fraction)` produces and `Fraction(str)` parses back.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from ._intpoly import convolve, derivative, int_add, ratio_strings, square
from ._record import Record

Coefficient = Union[Fraction, int, str]

_ZERO = Fraction(0)


def _frac(x: Coefficient) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    The coefficient of x**k is nums[k] / den, over the lcm den > 0 of the
    coefficients' denominators, so the pair (`integer_form`) is unique.
    The numerators ascend in degree with no trailing zeros; the zero
    polynomial holds an empty tuple over 1 and reports degree -1. Three
    cache slots are filled on first use: `coefficients`, the float
    lowering (highest first, for Horner), and `jw_split`.
    """

    __slots__ = ("_nums", "_den", "_fractions", "_lowered", "_split")

    def __init__(self, coefficients: Iterable[Coefficient] = ()):
        coeffs = [c if isinstance(c, int) else _frac(c) for c in coefficients]
        den = math.lcm(*[c.denominator for c in coeffs])
        self._set([c.numerator * (den // c.denominator) for c in coeffs], den)

    @classmethod
    def from_integer_form(cls, nums: Sequence[int], den: int = 1) -> "Polynomial":
        """The polynomial with x**k coefficient nums[k] / den, ascending.

        Any sequence of ints and any nonzero den are accepted, the sign of
        den included; one gcd brings the pair to `integer_form`, and nums
        is left as it was given."""
        return cls.__new__(cls)._set(nums, den)

    def _set(self, nums: Sequence[int], den: int) -> "Polynomial":
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        if nums and not nums[-1]:  # strip trailing zeros by slicing
            end = len(nums) - 1
            while end and not nums[end - 1]:
                end -= 1
            nums = nums[:end]
        self._nums = tuple([c // g for c in nums]) if g != 1 else tuple(nums)
        self._den = den // g
        self._fractions = self._lowered = self._split = None
        return self

    @property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(nums, den): the coefficient of x**k is nums[k] / den, with den
        > 0 the lcm of the coefficients' denominators and no trailing zero
        in nums; the zero polynomial is ((), 1). The package's modules
        read a polynomial's integers through this view alone."""
        return self._nums, self._den

    @classmethod
    def monomial(cls, power: int, coefficient: Coefficient = 1) -> "Polynomial":
        return cls([0] * power + [coefficient])

    @classmethod
    def constant(cls, value: Coefficient) -> "Polynomial":
        return cls([value])

    # -- basic queries ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        if self._fractions is None:
            self._fractions = tuple([Fraction(c, self._den) for c in self._nums])
        return self._fractions

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def leading(self) -> Fraction:
        if not self._nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._den)

    def coeff(self, power: int) -> Fraction:
        """Coefficient of x**power (zero beyond the stored degree)."""
        if not 0 <= power < len(self._nums):
            return _ZERO
        if self._fractions is None:
            return Fraction(self._nums[power], self._den)
        return self._fractions[power]

    def lowest_nonzero_power(self) -> int:
        if not self._nums:
            raise ValueError("zero polynomial")
        for k, c in enumerate(self._nums):
            if c != 0:
                return k
        raise AssertionError("unreachable: trailing zeros are stripped")

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial([other])
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        out = int_add([a * c for c in self._nums], [b * c for c in other._nums])
        return Polynomial.from_integer_form(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_integer_form([-c for c in self._nums], self._den)

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            # (A / da) * (B / db) = (A * B) / (da * db), A and B over Z
            nums = convolve(self._nums, other._nums)
            return Polynomial.from_integer_form(nums, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            out = [c * other.numerator for c in self._nums]
            return Polynomial.from_integer_form(out, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return False
        return self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    # -- evaluation and calculus ------------------------------------------

    def __call__(self, x):
        """Horner evaluation; x may be Fraction, int, float or complex.

        A Fraction or int x is evaluated exactly. A float or complex x runs
        over the coefficients converted to float once per polynomial, each
        by one int / int true division (to complex for a complex x), and
        stored highest first in the `_lowered` slot, which the loop reads
        directly. Each step is then the operation that mixing a Fraction
        with x performs, since that division and float(c) both round c
        once, so the result is the same to the bit. A coefficient beyond the
        float range raises OverflowError.
        """
        if isinstance(x, complex):
            result, coeffs = 0j, (self._lowered or self._lower())[1]
        elif isinstance(x, float):
            result, coeffs = 0.0, (self._lowered or self._lower())[0]
        else:
            result, coeffs = _ZERO, reversed(self.coefficients)
        for c in coeffs:
            result = result * x + c
        return result

    def _lower(self) -> tuple[tuple[float, ...], tuple[complex, ...]]:
        """Fill `_lowered`: the coefficients, highest first, as floats and
        as complex numbers."""
        floats = tuple([c / self._den for c in reversed(self._nums)])
        self._lowered = (floats, tuple([complex(c) for c in floats]))
        return self._lowered

    def jw_split(self) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(L, e, o, e^2 + u*o^2), made on first use and kept, with
        L*P(j*omega) = e(u) + j*omega*o(u) for u = omega^2: L > 0 the
        denominator of `integer_form`, and e and o ascending integer
        tuples, (-1)^k times its even and odd numerators. The last entry
        is |L*P(j*omega)|^2 as an integer tuple in u."""
        if self._split is None:
            e, o = list(self._nums[0::2]), list(self._nums[1::2])
            e[1::2] = [-x for x in e[1::2]]
            o[1::2] = [-x for x in o[1::2]]
            sq = int_add(square(e), [0, *square(o)])
            self._split = (self._den, tuple(e), tuple(o), tuple(sq))
        return self._split

    def derivative(self) -> "Polynomial":
        return Polynomial.from_integer_form(derivative(self._nums), self._den)

    def scale_substitute(self, c: Coefficient) -> "Polynomial":
        """Return p(c*x): the x**k coefficient is multiplied by c**k."""
        c = _frac(c)
        p, q, top = c.numerator, c.denominator, max(self.degree, 0)
        # c**k = p**k q**(top-k) / q**top
        nums = [n * p**k * q ** (top - k) for k, n in enumerate(self._nums)]
        return Polynomial.from_integer_form(nums, self._den * q**top)

    def even_part(self) -> "Polynomial":
        """E with p(x) = E(x^2) + x*O(x^2)."""
        return Polynomial.from_integer_form(self._nums[0::2], self._den)

    def odd_part(self) -> "Polynomial":
        """O with p(x) = E(x^2) + x*O(x^2)."""
        return Polynomial.from_integer_form(self._nums[1::2], self._den)

    # -- division ----------------------------------------------------------

    def __divmod__(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        dq = other.degree
        lead = other.leading
        if self.degree < dq:
            return Polynomial(), self
        quot = [_ZERO] * (self.degree - dq + 1)
        for k in range(self.degree - dq, -1, -1):
            factor = rem[k + dq] / lead
            quot[k] = factor
            if factor != 0:
                for i, c in enumerate(other.coefficients):
                    rem[k + i] -= factor * c
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def divides(self, other: "Polynomial") -> bool:
        """True when self divides other with zero remainder."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self._nums[-1]
        if lead == self._den:
            return self
        # (n_k / den) / (lead / den) = n_k / lead
        return Polynomial.from_integer_form(self._nums, lead)

    def content(self) -> Fraction:
        """Positive rational c with self/c primitive (integer coefficients, gcd 1)."""
        if self.is_zero:
            raise ValueError("zero polynomial has no content")
        return Fraction(math.gcd(*self._nums), self._den)

    # -- rendering ---------------------------------------------------------

    def to_str(self, var: str = "s") -> str:
        """Render in descending powers, e.g. "s^3 + 9 s^2 + 36 s + 60".

        Each coefficient n_k / den is written as str(Fraction) would write
        it (`ratio_strings`).
        """
        if self.is_zero:
            return "0"
        parts: list[str] = []
        signed = ratio_strings(self._nums, self._den)
        for power in range(self.degree, -1, -1):
            c = self._nums[power]
            if not c:
                continue
            mag = signed[power].lstrip("-")
            if power:
                x = var if power == 1 else f"{var}^{power}"
                body = x if mag == "1" else f"{mag} {x}"
            else:
                body = mag
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self.coefficients)}])"


def poly_scale_substitute(p: Polynomial, c: Coefficient) -> Polynomial:
    """Return p(c*x); free-function form of Polynomial.scale_substitute."""
    return p.scale_substitute(c)


# 2^15 - 19, the largest prime below 2^15: a residue, and a product of two
# residues, is one CPython digit.
_GCD_PRIME = 32749


def _coprime_mod_prime(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when the images of a and b in GF(P)[x] have a constant gcd.

    a and b are ascending integer coefficient lists whose leading
    coefficients are nonzero mod P.
    """
    prime = _GCD_PRIME
    a = [c % prime for c in a]
    b = [c % prime for c in b]
    while len(b) > 1:
        inv = pow(b[-1], -1, prime)
        shift = len(a) - len(b)
        while shift >= 0:
            factor = a[-1] * inv % prime
            for i in range(len(b) - 1):
                a[shift + i] = (a[shift + i] - factor * b[i]) % prime
            a.pop()
            while a and a[-1] == 0:
                a.pop()
            shift = len(a) - len(b)
        if not a:
            return False
        a, b = b, a
    return True


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor under exact rational arithmetic.

    Coprimality is first checked modulo the prime P = 2^15 - 19, which
    settles the common case (a constant gcd) without Euclid over Q. Let
    A and B be p and q with denominators cleared, and G a primitive
    integer gcd of A and B over Q. By Gauss's lemma G divides A and B in
    Z[x], so lc(G) divides lc(A) and lc(B). When P divides neither
    leading coefficient it does not divide lc(G) either, so the image of
    G mod P keeps its degree and divides both images. A constant gcd of
    the images then forces deg G = 0. When P divides a leading
    coefficient that argument fails (s*(P s + 1) and P s + 1 share
    s + 1/P, yet their images s and 1 are coprime), so the check is
    skipped. A nonconstant gcd of the images proves nothing either way
    (s and s + P), so it falls through too. Every nonconstant gcd comes
    from the Euclid loop over Q. Nothing here depends on the size of P;
    a prime below 2^15 keeps every residue and every product of two
    residues one CPython digit, and a missed proof only costs the Euclid
    loop, never a different result.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if not (p.is_zero or q.is_zero) and (
        p._nums[-1] % _GCD_PRIME
        and q._nums[-1] % _GCD_PRIME
        and _coprime_mod_prime(p._nums, q._nums)
    ):
        return Polynomial([1])
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
        if not b.is_zero:
            b = b.monic()  # keeps intermediate coefficients small
    return a.monic()


def _reduce_pair(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide out the gcd and scale so the denominator is monic."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return Polynomial(), Polynomial([1])
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = num // g
        den = den // g
    lead = den._nums[-1]
    if lead != den._den:
        # num / (lead / den._den), and den scaled monic
        num = Polynomial.from_integer_form([c * den._den for c in num._nums], num._den * lead)
        den = den.monic()
    return num, den


def _wrap(p: Polynomial, var: str) -> str:
    s = p.to_str(var)
    return f"({s})" if p.degree > 0 else s


class _ReducedPair:
    """Reduced rational function with monic denominator, rendered in the
    variable each subclass names as `_var`.

    The canonical form (coprime numerator/denominator, denominator scaled
    monic) is the normalization under which printed textbook forms are
    reproduced verbatim, so equality is plain field comparison between
    instances of the same class.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        self._num, self._den = _reduce_pair(numerator, denominator)

    @property
    def numerator(self) -> Polynomial:
        return self._num

    @property
    def denominator(self) -> Polynomial:
        return self._den

    def value_at(self, x):
        return self._num(x) / self._den(x)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __str__(self) -> str:
        return f"{_wrap(self._num, self._var)} / {_wrap(self._den, self._var)}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._num!r}, {self._den!r})"


class TransferFunction(_ReducedPair):
    """Reduced rational function of s with monic denominator."""

    __slots__ = ()
    _var = "s"

    def at_origin(self) -> Fraction:
        den0 = self._den.coeff(0)
        if den0 == 0:
            raise ZeroDivisionError("pole at s = 0")
        return self._num.coeff(0) / den0


class EvenRationalFunction(_ReducedPair):
    """Reduced rational function of u = omega^2 with monic denominator.

    Carries squared magnitudes and group delays. The denominator must not
    vanish at the origin (its constant term is required positive), matching
    the lowpass prototypes this library analyzes.
    """

    __slots__ = ()
    _var = "u"

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        super().__init__(numerator, denominator)
        if self._den._nums[0] <= 0:
            raise ValueError(
                "even rational function requires a positive denominator constant term"
            )

    def at_origin(self) -> Fraction:
        return self._num.coeff(0) / self._den.coeff(0)


class TruncatedSeries:
    """Exact power-series prefix: the first `order` Maclaurin coefficients.

    Arithmetic never reads beyond the stored prefix; combining two series
    truncates to the shorter order.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Coefficient]):
        self._coeffs = tuple([_frac(c) for c in coefficients])

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "TruncatedSeries":
        return cls([p.coeff(k) for k in range(order)])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, k: int) -> Fraction:
        return self._coeffs[k]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries([self._coeffs[k] + other._coeffs[k] for k in range(n)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries([self._coeffs[k] - other._coeffs[k] for k in range(n)])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            prod = Polynomial(self._coeffs[:n]) * Polynomial(other._coeffs[:n])
            return TruncatedSeries([prod.coeff(k) for k in range(n)])
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def first_nonzero(self) -> int | None:
        """Index of the first nonzero coefficient, None if all stored are zero."""
        for k, c in enumerate(self._coeffs):
            if c != 0:
                return k
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries([{', '.join(str(c) for c in self._coeffs)}])"


def series_of_ratio(num: Polynomial, den: Polynomial, terms: int) -> TruncatedSeries:
    """First `terms` Maclaurin coefficients of num/den, exact.

    Long division: f_k = (p_k - sum_{i<k} f_i q_{k-i}) / q_0, requiring
    q_0 = den(0) nonzero.
    """
    if terms < 0:
        raise ValueError("terms must be non-negative")
    q0 = den.coeff(0)
    if q0 == 0:
        raise ZeroDivisionError("ratio is singular at the origin")
    q = den.coefficients
    out: list[Fraction] = []
    for k in range(terms):
        acc = num.coeff(k)
        for i in range(max(0, k - den.degree), k):
            acc -= out[i] * q[k - i]
        out.append(acc / q0)
    return TruncatedSeries(out)


def exp_series(sign: int, terms: int) -> TruncatedSeries:
    """Maclaurin prefix of e^(sign*x): coefficients sign^k / k!."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    out = []
    c = Fraction(1)
    for k in range(terms):
        if k:
            c = c * sign / k
        out.append(c)
    return TruncatedSeries(out)


def interpolate(points: Sequence[tuple[Coefficient, Coefficient]]) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given points.

    Lagrange's form over the integers. With x_i = X_i/M and y_i = Y_i/L
    over the lcms M and L of the denominators, P = prod_j (M x - X_j) and
    P_i = P / (M x - X_i), the interpolant is sum_i Y_i (W/W_i) P_i over
    L W, where W_i = prod_{j != i} (X_i - X_j) and W = lcm W_i. Each P_i
    comes from P by synthetic division from the top, Q_{k-1} = (P_k + X_i
    Q_k) / M, and each division is exact: the quotient P_i = prod_{j != i}
    (M x - X_j) lies in Z[x] (Gauss's lemma), so every Q_k is an integer.
    Duplicated abscissae are rejected.
    """
    if not points:
        raise ValueError("need at least one point")
    xs = [x if isinstance(x, int) else _frac(x) for x, _ in points]
    ys = [y if isinstance(y, int) else _frac(y) for _, y in points]
    lcm_x = math.lcm(*[x.denominator for x in xs])
    lcm_y = math.lcm(*[y.denominator for y in ys])
    xs = [x.numerator * (lcm_x // x.denominator) for x in xs]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicated abscissa")
    p = [1]
    for x in xs:
        p = convolve(p, (-x, lcm_x))
    ws = [math.prod([x - z for z in xs if z != x]) for x in xs]
    w = math.lcm(*ws)
    out = [0] * len(xs)
    for x, y, wx in zip(xs, ys, ws):
        c = y.numerator * (lcm_y // y.denominator) * (w // wx)
        q = 0
        for k in range(len(xs), 0, -1):
            q = (p[k] + x * q) // lcm_x
            out[k - 1] += c * q
    return Polynomial.from_integer_form(out, lcm_y * w)


# ---------------------------------------------------------------------------
# Intervals and integer roots
# ---------------------------------------------------------------------------


class Enclosure(Record):
    """Closed interval [lo, hi] with exact rational endpoints."""

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        super().__init__(locals())
        if lo > hi:
            raise ValueError("empty enclosure")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def disjoint_from(self, other: "Enclosure") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def __float__(self) -> float:
        return float(self.midpoint)


def int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, exact."""
    if n < 0 or k < 1:
        raise ValueError("int_nth_root requires n >= 0, k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # 2^ceil(bits/k) > n^(1/k); floored Newton steps from above decrease
    # strictly until they reach floor(n^(1/k)), and never pass below it
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def nth_root_enclosure(x: Fraction, k: int, digits: int) -> Enclosure:
    """Enclosure of x**(1/k) of width at most 10**-digits, for x >= 0."""
    if x < 0:
        raise ValueError("nth_root_enclosure requires x >= 0")
    scale = 10**digits
    lo = int_nth_root((x.numerator * scale**k) // x.denominator, k)
    return Enclosure(Fraction(lo, scale), Fraction(lo + 1, scale))


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = square * d with d squarefree; returns (sqrt(square), d)."""
    if n <= 0:
        raise ValueError("need a positive integer")
    root = 1
    d = n
    f = 2
    while f * f <= d:
        sq = f * f
        while d % sq == 0:
            d //= sq
            root *= f
        f += 1
    return root, d


class QuadSurd:
    """Exact value a + b*sqrt(d) with rational a, b and squarefree d > 0.

    A closed type: only sums of a rational and a rational multiple of one
    square root, which is all the quadratic-flatness solutions ever need.
    b = 0 (and then d = 1) is the rational degenerate case.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: Coefficient, b: Coefficient, d: int):
        a, b = _frac(a), _frac(b)
        if b == 0:
            d = 1
        else:
            if d <= 0:
                raise ValueError("radicand must be positive")
            root, d = _squarefree_split(d)
            b *= root
            if d == 1:  # perfect square: fold into the rational part
                a += b
                b = _ZERO
        self._a, self._b, self._d = a, b, d

    @classmethod
    def from_rational(cls, value: Coefficient) -> "QuadSurd":
        return cls(value, 0, 1)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadSurd):
            return (self._a, self._b, self._d) == (other._a, other._b, other._d)
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(-self._a, -self._b, self._d)

    def compare_to_rational(self, r: Coefficient) -> int:
        """Sign of (self - r), decided exactly on integers: over q_a q_b q_r > 0,
        a - r and b read T = p_a q_b q_r - p_r q_a q_b and B = p_b q_a q_r.
        Where T is 0 or has B's sign, T + B sqrt(d) has B's sign; otherwise
        that of the term, T or B sqrt(d), with the larger square."""
        if not isinstance(r, int):
            r = _frac(r)
        a, b, qr = self._a, self._b, r.denominator
        qa, qb = a.denominator, b.denominator
        t = (a.numerator * qr - r.numerator * qa) * qb
        b = b.numerator * qa * qr
        if b == 0:
            return (t > 0) - (t < 0)
        # sign of t + b*sqrt(d), with b*sqrt(d) irrational
        if b > 0:
            if t >= 0:
                return 1
            return 1 if b * b * self._d > t * t else -1
        if t <= 0:
            return -1
        return 1 if t * t > b * b * self._d else -1

    def __lt__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.compare_to_rational(other) < 0
        return NotImplemented

    def __gt__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.compare_to_rational(other) > 0
        return NotImplemented

    def enclosure(self, digits: int) -> Enclosure:
        """Interval of width <= 2 * 10**-digits around the exact value."""
        if self._b == 0:
            return Enclosure(self._a, self._a)
        root = nth_root_enclosure(Fraction(self._d), 2, digits)
        if self._b > 0:
            return Enclosure(self._a + self._b * root.lo, self._a + self._b * root.hi)
        return Enclosure(self._a + self._b * root.hi, self._a + self._b * root.lo)

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * math.sqrt(self._d)

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        common = math.lcm(self._a.denominator, self._b.denominator)
        p = self._a.numerator * (common // self._a.denominator)
        q = self._b.numerator * (common // self._b.denominator)
        root = f"sqrt({self._d})" if abs(q) == 1 else f"{abs(q)}*sqrt({self._d})"
        if p == 0:
            body = root if q > 0 else f"-{root}"
            return body if common == 1 else f"{body}/{common}"
        sign = "+" if q > 0 else "-"
        if common == 1:
            return f"{p}{sign}{root}"
        return f"({p}{sign}{root})/{common}"

    def __repr__(self) -> str:
        return f"QuadSurd({self._a}, {self._b}, {self._d})"


# ---------------------------------------------------------------------------
# Correctly rounded decimal rendering
# ---------------------------------------------------------------------------


def _decimal_exponent(x: QuadSurd, sign: int) -> int:
    """floor(log10(|x|)) for x of the given sign, +1 or -1, by exact
    comparisons against powers of ten: |x| < 10^e iff sign (x - sign 10^e) < 0."""

    def below(e: int) -> bool:
        ten = sign * 10**e if e >= 0 else Fraction(sign, 10**-e)
        return sign * x.compare_to_rational(ten) < 0

    # widen [lo, hi) until 10^lo <= |x| < 10^hi, then bisect
    lo, hi = -1, 1
    while below(lo):
        lo, hi = 2 * lo, lo
    while not below(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return lo


def _format_fixed(digits: str, exponent: int, negative: bool) -> str:
    """Fixed-notation string for mantissa `digits` with leading-digit
    exponent `exponent` (value = 0.digits * 10**(exponent+1))."""
    p = len(digits)
    if exponent >= p - 1:
        body = digits + "0" * (exponent - p + 1)
    elif exponent >= 0:
        body = digits[: exponent + 1] + "." + digits[exponent + 1 :]
    else:
        body = "0." + "0" * (-exponent - 1) + digits
    return "-" + body if negative else body


def surd_to_float(x: QuadSurd, precision: int) -> str:
    """Correctly rounded decimal expansion of a + b*sqrt(d).

    `precision` counts significant decimal digits. The value is rounded in
    one step: its sign and decimal exponent e come from exact comparisons
    against powers of ten, and with y = 10^(precision-1-e) * |x| written as
    (p + q*sqrt(d)) / L over integers, floor(2y) = floor((2p + 2q*sqrt(d)) / L)
    takes one `math.isqrt`. The nearest integer to y is then
    floor((floor(2y) + 1) / 2). An irrational value never lies on a tie; a
    rational one does when 2y is an odd integer, and rounds half to even.
    The scaling by 10^(precision-1-e) is an integer product, into p and q or
    into L, so L need not be in lowest terms: the floor and the tie test
    2p mod L = 0 read the same rational either way.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    sign = x.compare_to_rational(0)
    if not sign:
        return _format_fixed("0" * precision, 0, False)
    e = _decimal_exponent(x, sign)
    a, b = x.a, x.b
    den = math.lcm(a.denominator, b.denominator)
    s = precision - 1 - e
    up = sign * 10 ** max(s, 0)
    p = a.numerator * (den // a.denominator) * up
    q = b.numerator * (den // b.denominator) * up
    den *= 10 ** max(-s, 0)
    # 4 q^2 d is a perfect square only for q = 0, since d is squarefree
    root = math.isqrt(4 * q * q * x.d)
    twice = (2 * p + (root if q >= 0 else -root - 1)) // den
    n = (twice + 1) // 2
    if q == 0 and 2 * p % den == 0 and twice % 2 and n % 2:
        n -= 1
    if n == 10**precision:  # rounding carried into the next power of ten
        n //= 10
        e += 1
    return _format_fixed(str(n), e, sign < 0)
