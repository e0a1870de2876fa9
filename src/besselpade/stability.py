"""Exact Routh-Hurwitz classification.

The array is computed exactly, with no epsilon perturbation, in one pass
of n + 1 rows. Each rational row R_i is held as integers T_i over one
positive denominator d_i, R_i = T_i / d_i. The first two rows are sliced
from p's `integer_form` (every other numerator, from the top), over its
lcm, and negated when the leading coefficient is negative, so that the
array starts with a positive entry. The rational recurrence

    R_{i+1}[j] = (R_i[0] R_{i-1}[j+1] - R_{i-1}[0] R_i[j+1]) / R_i[0]

becomes T_{i+1}[j] = T_i[0] T_{i-1}[j+1] - T_{i-1}[0] T_i[j+1] over
d_{i+1} = d_{i-1} T_i[0], after which the gcd of d_{i+1} and the row is
divided out and the sign of d_{i+1} moved into T_{i+1}. Every step is
exact, so R_i[0] is exactly T_i[0] / d_i, and since d_i > 0 its signs
are those of the integers T_i[0]. Each row's sign change is taken as the
row is produced, and the pass keeps no list of rows: it keeps only the
integer pairs (T_i[0], d_i) of the leading column, which the report
turns into Fractions when its column is first read. A classification
that is asked only for its verdict forms no Fraction at all.
Two degeneracies are rewritten in place, on the integers alone (a zero
row takes the denominator of the row above, a zero pivot keeps its own),
so every row keeps its full degree and a nonzero leading entry:

* a full zero row is replaced by the derivative of the auxiliary
  polynomial read off the row above (covers imaginary-axis roots,
  including the origin and repeated axis pairs);
* a nonzero row whose first k entries vanish (a zero pivot) is
  multiplied, as a polynomial in s, by 1 + (-s^2)^k: entry j becomes
  row[j] + (-1)^k * row[j + k], and the leading entry (-1)^k * row[k]
  is nonzero.

The second rule is sound because the sign changes down the leading
column count right-half-plane roots through a Cauchy index along the
imaginary axis: at s = jw the rows form a generalized Sturm sequence of
the even and odd parts of p (Gantmacher, Theory of Matrices II, ch. XV).
At s = jw the multiplier is 1 + w^(2k) > 0, so it flips no sign and adds
no zero there, and the index, hence the count, stays the same. A strictly
Hurwitz polynomial meets neither degeneracy, so a degenerate array always
ends in NotHurwitz or Marginal.

Verdicts: StrictHurwitz (all roots in the open left half-plane),
Marginal (roots on the imaginary axis, none strictly right), NotHurwitz.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Sequence

from ._record import Record
from .core import Polynomial
from .gbp import GbpParams, gbp
from .pade import PadeIndex, pade_exp


class Verdict(enum.Enum):
    STRICT_HURWITZ = "StrictHurwitz"
    NOT_HURWITZ = "NotHurwitz"
    MARGINAL = "Marginal"

    def __str__(self) -> str:
        return self.value


class StabilityReport(Record):
    """Outcome of one classification.

    sign_changes counts the sign changes down the leading column of the
    whole array, continued through every zero row and zero pivot; it is
    the number of right-half-plane roots. routh_first_column is that
    column, except when a zero pivot interrupts it: then it is partial,
    ending at the zero entry, and degenerate_rows names that row alone.

    The constructor stores the column it is given. A report from
    `routh_hurwitz` holds the column as integer pairs instead, and forms
    the Fractions when routh_first_column is first read, by `==`, `hash`,
    `repr` and class patterns too; it keeps that tuple and returns it
    from then on. Two threads racing to fill it store equal tuples.
    """

    __match_args__ = ("verdict", "routh_first_column", "sign_changes", "degenerate_rows")

    # the integer pairs (T_i[0], d_i) of a report from routh_hurwitz
    _column_pairs = ()

    def __init__(
        self,
        verdict: Verdict,
        routh_first_column: tuple[Fraction, ...],
        sign_changes: int,
        degenerate_rows: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "routh_first_column", routh_first_column)
        object.__setattr__(self, "sign_changes", sign_changes)
        object.__setattr__(self, "degenerate_rows", degenerate_rows)

    # a non-data descriptor: the tuple the constructor or the first read
    # stores in the instance is found before it
    @functools.cached_property
    def routh_first_column(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(p) if d == 1 else Fraction(p, d) for p, d in self._column_pairs])


def _report(
    verdict: Verdict,
    column_pairs: list[tuple[int, int]],
    sign_changes: int,
    degenerate_rows: tuple[int, ...],
) -> StabilityReport:
    """A report whose column is formed from its pairs on first read."""
    report = object.__new__(StabilityReport)
    object.__setattr__(report, "verdict", verdict)
    object.__setattr__(report, "_column_pairs", column_pairs)
    object.__setattr__(report, "sign_changes", sign_changes)
    object.__setattr__(report, "degenerate_rows", degenerate_rows)
    return report


def routh_hurwitz(p: Polynomial) -> StabilityReport:
    """Classify a polynomial of degree >= 1."""
    nums, den = p.integer_form
    n = len(nums) - 1
    if n < 1:
        raise ValueError("need a nonzero polynomial of degree at least 1")
    width = n // 2 + 1
    # entry j of the first two rows is the numerator of the coefficient
    # of s^(top - 2j), zero at negative powers, over p's denominator
    above, row = list(nums[n::-2]), list(nums[n - 1 :: -2])
    if len(row) < width:
        row.append(0)
    if nums[-1] < 0:
        above, row = [-c for c in above], [-c for c in row]
    d_above = d_row = den
    column = [(above[0], d_above)]
    # the leading entry of the first row is positive, and d_i > 0, so the
    # column entry T_i[0] / d_i has the sign of the integer T_i[0]
    positive = True
    changes = 0
    degenerate: list[int] = []
    first_pivot = None
    for i in range(1, n + 1):
        pivot = row[0]
        if pivot == 0:
            if not any(row):
                degenerate.append(i)
                # derivative of the auxiliary polynomial of the row above:
                # entry j sits at power (n - i) - 2j
                row = [(n - i + 1 - 2 * j) * c for j, c in enumerate(above)]
                d_row = d_above
            else:
                if first_pivot is None:
                    # the reported column ends at the zero entry
                    first_pivot = i
                    column.append((0, 1))
                # k leading zeros: multiply the row by 1 + (-s^2)^k
                k = next(j for j, c in enumerate(row) if c)
                sign = (-1) ** k
                row = [c + sign * row[j + k] if j + k < width else c for j, c in enumerate(row)]
            pivot = row[0]
        if (pivot > 0) != positive:
            positive = not positive
            changes += 1
        if first_pivot is None:
            column.append((pivot, d_row))
        if i == n:
            break
        # R_{i+1}[j] = (R_i[0] R_{i-1}[j+1] - R_{i-1}[0] R_i[j+1]) / R_i[0]
        # is nxt[j] / (d_{i-1} T_i[0]) for R_i = T_i / d_i
        pivot_above = above[0]
        nxt = [pivot * a - pivot_above * b for a, b in zip(above[1:], row[1:])]
        nxt.append(0)
        d_nxt = d_above * pivot
        g = math.gcd(d_nxt, *nxt)
        if d_nxt < 0:
            g = -g
        above, d_above = row, d_row
        row, d_row = [c // g for c in nxt], d_nxt // g
    if first_pivot is not None:
        degenerate = [first_pivot]
    if changes > 0:
        verdict = Verdict.NOT_HURWITZ
    elif degenerate:
        verdict = Verdict.MARGINAL
    else:
        verdict = Verdict.STRICT_HURWITZ
    return _report(verdict, column, changes, tuple(degenerate))


class Theorem1Report(Record):
    """Grid sweep outcome; the contract is an empty violation list."""

    __match_args__ = ("checked", "violations")

    def __init__(
        self,
        checked: int,
        violations: tuple[tuple[int, Fraction, Fraction, Verdict], ...] = (),
    ) -> None:
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def theorem1_grid(
    n_max: int,
    alphas: Sequence[Fraction | int],
    betas: Sequence[Fraction | int],
) -> Theorem1Report:
    """Sweep the Hurwitz guarantee for 1 <= n <= n_max, alpha >= 0, beta > 0.

    Every grid point with alpha > 0, or alpha = 0 with n >= 2, must come
    out StrictHurwitz. The boundary point (n = 1, alpha = 0) yields the
    bare monomial s and is allowed Marginal, never NotHurwitz.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    alphas = [Fraction(a) for a in alphas]
    betas = [Fraction(b) for b in betas]
    if any(a < 0 for a in alphas):
        raise ValueError("alpha grid must be non-negative")
    if any(b <= 0 for b in betas):
        raise ValueError("beta grid must be positive")
    violations: list[tuple[int, Fraction, Fraction, Verdict]] = []
    checked = 0
    for n in range(1, n_max + 1):
        for alpha in alphas:
            for beta in betas:
                verdict = routh_hurwitz(gbp(GbpParams(n, alpha, beta))).verdict
                checked += 1
                if alpha == 0 and n == 1:
                    if verdict == Verdict.NOT_HURWITZ:
                        violations.append((n, alpha, beta, verdict))
                elif verdict != Verdict.STRICT_HURWITZ:
                    violations.append((n, alpha, beta, verdict))
    return Theorem1Report(checked, tuple(violations))


def pade_stability(idx: PadeIndex) -> StabilityReport:
    """Classify the canonical denominator of the (n,m) delay approximant."""
    if idx.n < 1:
        raise ValueError("need denominator degree at least 1")
    return routh_hurwitz(pade_exp(idx).denominator)
