"""Seeded op generators for the four workloads.

Every workload is a closed loop with one client: the next op is sent when
the previous one has returned. A run repeats one pass of ops, drawn from
the seed, until its time is up, so every op is timed several times and
every run measures the same mix. For the CLI workloads a pass holds every
member of the workload's fixed ladder once, in a seeded order, with the
free parameters of each member (a rational gamma, a frequency span) drawn
from the seed. For routh-fuzz a pass is a pool of polynomials built from
seeded root factors.

An op is a plain dict (JSON-serialisable), so the same seed gives a
byte-identical op list. The program sees only the generated inputs.

The timed workloads contain no op that fails at the seed commit. Inputs
that hit known defects are kept apart as probes: they run after the timed
region on every run and their outcome is printed, so the defects stay
visible without being mixed into the latency and throughput figures.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Rational Budak shape parameters: small denominators, 1/2 < g < 3, g != 1.
G_VALUES = tuple(
    sorted(
        {
            Fraction(p, q)
            for q in (2, 3, 5)
            for p in range(1, 3 * q)
            if Fraction(1, 2) < Fraction(p, q) < 3 and Fraction(p, q) != 1
        }
    )
)


# exact-ladder: pade:n,m off the diagonal with every m in n//2-1..n//2+1;
# and the Budak (m, n) pairs, each with a seeded g from EXACT_G_VALUES.
# The exact cost of budak:15,16,g ranges 3x over G_VALUES, so a run's cost
# would hang on the draw; 2/3 and 3/2 cost within 10% of each other.
FREE_M_DEGREES = range(8, 22)
FREE_M_SPREAD = (-1, 0, 1)
BUDAK_PAIRS = [(m, n) for n in range(2, 17) for m in sorted({n - 1, n // 2})]
EXACT_G_VALUES = (Fraction(2, 3), Fraction(3, 2))
# gamma-compare: every pair 1 <= M < N <= 8
COMPARE_PAIRS = [(n, m) for n in range(2, 9) for m in range(1, n)]


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{stream}")


def _analyze(source: str, degree: int) -> dict:
    return {
        "kind": "cli",
        "check": "analyze",
        "argv": ["analyze", "--source", source, "--json"],
        "source": source,
        "degree": degree,
    }


def _sweep(source: str, degree: int, omega_max: float, points: int) -> dict:
    return {
        "kind": "cli",
        "check": "sweep",
        "argv": [
            "sweep",
            "--source",
            source,
            "--omega-max",
            repr(omega_max),
            "--points",
            str(points),
        ],
        "source": source,
        "degree": degree,
        "omega_max": omega_max,
        "points": points,
    }


def _compare(n: int, m: int) -> dict:
    return {
        "kind": "cli",
        "check": "compare",
        "argv": ["compare", "--n", str(n), "--m", str(m), "--json"],
        "n": n,
        "m": m,
        "degree": n,
    }


class Workload:
    """A named op stream: `pass_ops(seed)` is the pass a run repeats."""

    name = ""
    calibration = "fractions"  # the host-speed loop most like the work (calibration.py)

    def ladder(self) -> list[tuple[object, object]]:
        """(member, finisher) pairs; finisher(member, rng) -> op, None for a fixed op."""
        raise NotImplementedError

    def pass_ops(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed, "pass")
        ops = [member if finish is None else finish(member, rng) for member, finish in self.ladder()]
        rng.shuffle(ops)
        return ops

    def probes(self, seed: int) -> list[dict]:
        return []


def _pade_source(n: int, m: int) -> tuple[str, int]:
    return f"pade:{n},{m}", n


def _budak_source(m: int, n: int, g: Fraction) -> tuple[str, int]:
    return f"budak:{m},{n},{g}", n


class ExactLadder(Workload):
    """analyze over a Pade/Bessel/Budak degree ladder, plus 50-point sweeps of
    high-degree sources: the exact gcd in _reduce_pair and the group delay
    dominate; the gamma interpolation is bypassed."""

    name = "exact-ladder"
    calibration = "fractions+integers"

    def ladder(self):
        def budak(pair, rng):
            return _analyze(*_budak_source(*pair, rng.choice(EXACT_G_VALUES)))

        def sweep(source, rng):
            return _sweep(*source, rng.randint(2, 10) / 2, 50)

        near = [(n, n - k) for n in range(3, 25) for k in (1, 2)]
        return (
            [(_analyze(*_pade_source(n, m)), None) for n, m in near]
            + [(_analyze(*_pade_source(n, n // 2 + d)), None) for n in FREE_M_DEGREES for d in FREE_M_SPREAD]
            + [(_analyze(f"bessel:{n}", n), None) for n in range(2, 56, 3)]
            + [(pair, budak) for pair in BUDAK_PAIRS]
            + [((f"bessel:{n}", n), sweep) for n in range(30, 51, 5)]
            + [(_pade_source(n, n - 1), sweep) for n in (16, 20, 24)]
        )

    def probes(self, seed):
        # pade:N,N is all-pass, so flatness raises on the constant magnitude;
        # bessel:86 is the lowest Bessel degree whose sweep overflows a float.
        n = _rng(self.name, seed, "probe").randint(2, 12)
        return [
            _analyze(*_pade_source(n, n)),
            _sweep("bessel:86", 86, 1.0, 2),
        ]


class GammaCompare(Workload):
    """compare for every 1 <= M < N <= 8: the only path through
    order2_certificate, with 2(n+m)+3 rational-gamma group delays plus
    interpolation over many mid-degree polynomials with large coefficients."""

    name = "gamma-compare"

    def ladder(self):
        return [(_compare(n, m), None) for n, m in COMPARE_PAIRS]


class FloatSweep(Workload):
    """1000- to 1500-point CSV sweeps of low-degree sources: float evaluation
    in sweep_rows and Polynomial.__call__ plus the atomic write dominate; the
    gcd stays under 1%."""

    name = "float-sweep"

    def ladder(self):
        def sweep(member, rng):
            source, points = member
            if isinstance(source[0], int):  # a Budak (m, n) pair: draw gamma
                source = _budak_source(*source, rng.choice(G_VALUES))
            return _sweep(*source, rng.randint(1, 40) / 2, points)

        sources = [_pade_source(n, m) for n in range(1, 13) for m in sorted({n, n - 1, n // 2})]
        sources += [(f"bessel:{n}", n) for n in range(1, 11)]
        sources += [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
        # points cycle through 1000, 1250, 1500, so every pass writes the same rows
        return [((source, 1000 + 250 * (i % 3)), sweep) for i, source in enumerate(sources)]


# Root-location factor kinds for routh-fuzz, with the roots each contributes.
_FACTOR_KINDS = ("lhp", "rhp", "axis", "origin", "lhp2", "rhp2")


def _factor(kind: str, a: int, b: int) -> tuple[list[int], set[tuple[int, int]]]:
    """Integer coefficients (ascending) and roots (re, im) of one factor."""
    return {
        "lhp": ([a, 1], {(-a, 0)}),
        "rhp": ([-a, 1], {(a, 0)}),
        "axis": ([b * b, 0, 1], {(0, b), (0, -b)}),
        "origin": ([0, 1], {(0, 0)}),
        "lhp2": ([a * a + b * b, 2 * a, 1], {(-a, b), (-a, -b)}),
        "rhp2": ([a * a + b * b, -2 * a, 1], {(a, b), (a, -b)}),
    }[kind]


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def general_position(coeffs: list[int], roots: set[tuple[int, int]]) -> bool:
    """No root pair mirrored across the imaginary axis and no zero coefficient
    between the lowest nonzero one and the leading one.

    Inputs outside this class are the degenerate cases of the Routh table
    (zero rows from mirrored roots, zero pivots from vanishing coefficients);
    at the seed commit some of them raise, so they are probes, not timed ops.
    """
    if any(re != 0 and (-re, im) in roots for re, im in roots):
        return False
    low = next(k for k, c in enumerate(coeffs) if c != 0)
    return all(c != 0 for c in coeffs[low:])


def has_zero_pivot(coeffs: list[int]) -> bool:
    """Whether the Routh array of the polynomial (ascending coefficients)
    meets a zero leading entry in a nonzero row.

    A zero row is replaced by the derivative of the auxiliary polynomial
    of the row above, as the textbook array does. A zero pivot needs the
    (s + a) continuation, the only path of `routh_hurwitz` that can raise;
    general-position polynomials meet it about twice in a thousand.
    """
    n = len(coeffs) - 1
    width = n // 2 + 1

    def row(top: int) -> list[Fraction]:
        return [Fraction(coeffs[top - 2 * j]) if top - 2 * j >= 0 else Fraction(0) for j in range(width)]

    rows = [row(n), row(n - 1)]
    for i in range(1, n + 1):
        if not any(rows[i]):
            rows[i] = [(n - i + 1 - 2 * j) * rows[i - 1][j] for j in range(width)]
        if rows[i][0] == 0:
            return True
        prev, prev2 = rows[i], rows[i - 1]
        rows.append(
            [prev2[j + 1] - prev2[0] * prev[j + 1] / prev[0] if j + 1 < width else Fraction(0) for j in range(width)]
        )
    return False


def _draw_poly(rng: random.Random) -> tuple[list[int], str, set[tuple[int, int]]]:
    kinds = [rng.choice(_FACTOR_KINDS) for _ in range(rng.randint(1, 5))]
    coeffs = [rng.randint(1, 3)]
    roots: set[tuple[int, int]] = set()
    for kind in kinds:
        factor, factor_roots = _factor(kind, rng.randint(1, 5), rng.randint(1, 5))
        coeffs = _poly_mul(coeffs, factor)
        roots |= factor_roots
    if any(k in ("rhp", "rhp2") for k in kinds):
        verdict = "NotHurwitz"
    elif any(k in ("axis", "origin") for k in kinds):
        verdict = "Marginal"
    else:
        verdict = "StrictHurwitz"
    return coeffs, verdict, roots


def _routh_op(coeffs: list[int], verdict: str) -> dict:
    return {"kind": "routh", "coeffs": coeffs, "verdict": verdict, "degree": len(coeffs) - 1}


class RouthFuzz(Workload):
    """routh_hurwitz on polynomials built from known root factors: stability
    is under 1% of every CLI workload, so only this workload shows its cost."""

    name = "routh-fuzz"
    # Polynomials a pass by degree, about half a second in all. The counts
    # follow the draw's own mix but are fixed, because the cost doubles
    # from degree 4 to 6 and the median op sits at the 4/5 boundary: with
    # free counts, p50 moved by 10% from seed to seed.
    degree_quota = {1: 480, 2: 530, 3: 490, 4: 520, 5: 530, 6: 520, 7: 460, 8: 300, 9: 140, 10: 30}

    def pass_ops(self, seed):
        rng = _rng(self.name, seed, "polys")
        room = dict(self.degree_quota)
        ops = []
        while any(room.values()):
            coeffs, verdict, roots = _draw_poly(rng)
            degree = len(coeffs) - 1
            if room[degree] and general_position(coeffs, roots) and not has_zero_pivot(coeffs):
                room[degree] -= 1
                ops.append(_routh_op(coeffs, verdict))
        return ops

    def probes(self, seed):
        # The degenerate classes the timed stream leaves out, plus the two
        # polynomials on which the zero-pivot continuation is known to fail.
        rng = _rng(self.name, seed, "probe")
        out = [_routh_op([-81, 0, 0, 0, 1], "NotHurwitz"), _routh_op([0, -1, 0, 0, 0, 1], "NotHurwitz")]
        while len(out) < 2000:
            coeffs, verdict, roots = _draw_poly(rng)
            if not general_position(coeffs, roots) or has_zero_pivot(coeffs):
                out.append(_routh_op(coeffs, verdict))
        return out


WORKLOADS = {w.name: w for w in (ExactLadder(), GammaCompare(), FloatSweep(), RouthFuzz())}


def reference_universe() -> dict[str, list]:
    """Every analyze source and compare pair the generators can emit."""
    sources: set[str] = set()
    for member, finish in WORKLOADS["exact-ladder"].ladder():
        if finish is None:
            sources.add(member["source"])
    sources |= {f"budak:{m},{n},{g}" for m, n in BUDAK_PAIRS for g in EXACT_G_VALUES}
    return {"analyze": sorted(sources), "compare": sorted(COMPARE_PAIRS)}
