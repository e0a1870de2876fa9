"""Output checks, run between ops and outside every timed region.

* analyze and compare reports must match, digest for digest, the reports
  recorded at the seed commit (`reference.json`), and must state the
  closed-form facts below.
* sweep CSVs must have the documented header and layout, and a strided
  subsample of rows must agree with an mpmath oracle that rebuilds the
  transfer function from its textbook formulas, not from the library.
* routh verdicts must equal the verdict known from the factors.

Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp

REFERENCE_PATH = Path(__file__).with_name("reference.json")
CSV_HEADER = "omega,magnitude,phase_rad,group_delay"
ORACLE_ROWS = 6
_EPS = 2.0**-52


def digest(report_text: str) -> str:
    """Digest of a JSON report in canonical form (key order and spacing free)."""
    canonical = json.dumps(json.loads(report_text), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_source(spec: str) -> tuple[str, list]:
    kind, _, rest = spec.partition(":")
    return kind, rest.split(",")


def _order_facts(spec: str) -> tuple[int | None, int | None]:
    """(delay order, magnitude order) the closed forms fix, None where free."""
    kind, parts = _parse_source(spec)
    if kind == "pade":
        n, m = int(parts[0]), int(parts[1])
        if m == n - 1:
            return n, n
        if m == n - 2:
            return n - 1, None
        return None, None
    if kind == "bessel":
        return int(parts[0]), None
    m = int(parts[0])
    return m, None


def check_analyze(spec: str, text: str, reference: dict) -> list[str]:
    problems = []
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"analyze {spec}: output is not JSON ({exc})"]
    expected = reference["analyze"].get(spec)
    if expected is None:
        problems.append(f"analyze {spec}: no reference digest")
    elif digest(text) != expected:
        problems.append(f"analyze {spec}: report differs from the seed-commit reference")
    delay, magnitude = _order_facts(spec)
    try:
        if delay is not None and report["delay_flatness"]["order"] != delay:
            problems.append(f"analyze {spec}: delay order {report['delay_flatness']['order']} != {delay}")
        if magnitude is not None and report["magnitude_flatness"]["order"] != magnitude:
            problems.append(
                f"analyze {spec}: magnitude order {report['magnitude_flatness']['order']} != {magnitude}"
            )
        kind, parts = _parse_source(spec)
        near_diagonal = kind == "pade" and int(parts[0]) - int(parts[1]) in (1, 2)
        if (near_diagonal or kind == "bessel") and report["stability"]["verdict"] != "StrictHurwitz":
            problems.append(f"analyze {spec}: denominator is not StrictHurwitz")
    except (KeyError, TypeError) as exc:
        problems.append(f"analyze {spec}: report lacks {exc}")
    return problems


def check_compare(n: int, m: int, text: str, reference: dict) -> list[str]:
    label = f"compare {n},{m}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{label}: output is not JSON ({exc})"]
    problems = []
    expected = reference["compare"].get(f"{n},{m}")
    if expected is None:
        problems.append(f"{label}: no reference digest")
    elif digest(text) != expected:
        problems.append(f"{label}: report differs from the seed-commit reference")
    try:
        rows = {}
        for row in report["rows"]:
            rows.setdefault(row["variant"], []).append(row)
        budak = rows["budak"]
        if len(budak) != 2:
            problems.append(f"{label}: expected two budak rows")
        for row in budak:
            if (row["delay_order"], row["magnitude_order"]) != (m, 2):
                problems.append(f"{label}: budak orders {row['delay_order']},{row['magnitude_order']} != {m},2")
            if row["stability"] != "StrictHurwitz":
                problems.append(f"{label}: budak denominator is not StrictHurwitz")
        (bessel,) = rows["bessel"]
        if bessel["delay_order"] != n or bessel["stability"] != "StrictHurwitz":
            problems.append(f"{label}: bessel row breaks delay order {n} / StrictHurwitz")
        (pade,) = rows["pade"]
        delay, magnitude = _order_facts(f"pade:{n},{m}")
        if delay is not None and pade["delay_order"] != delay:
            problems.append(f"{label}: pade delay order {pade['delay_order']} != {delay}")
        if magnitude is not None and pade["magnitude_order"] != magnitude:
            problems.append(f"{label}: pade magnitude order {pade['magnitude_order']} != {magnitude}")
        if n - m in (1, 2) and pade["stability"] != "StrictHurwitz":
            problems.append(f"{label}: near-diagonal pade denominator is not StrictHurwitz")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"{label}: malformed rows ({exc})")
    return problems


# ---------------------------------------------------------------------------
# Float oracle for sweeps
# ---------------------------------------------------------------------------


def _pade(n: int, m: int) -> tuple[list[Fraction], list[Fraction]]:
    """Numerator Q_nm and denominator P_nm of the (n, m) approximant of e^(-s)."""
    f = math.factorial
    num = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        num[m - k] = Fraction(f(n) * math.comb(m, k) * f(n + k), f(n + m) * f(n)) * (-1) ** (m - k)
    den = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        den[n - k] = Fraction(f(m) * math.comb(n, k) * f(m + k), f(n + m) * f(m))
    return num, den


def _bessel_21(n: int, scale: Fraction) -> list[Fraction]:
    """B_n(scale*s; 2, 1) = sum_k C(n,k) (n+k)!/n! (scale*s)^(n-k), ascending."""
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        out[n - k] = Fraction(math.comb(n, k) * math.factorial(n + k), math.factorial(n)) * scale ** (n - k)
    return out


def source_polys(spec: str) -> tuple[list[Fraction], list[Fraction]]:
    """Numerator and denominator (ascending) of a source, from the textbook forms."""
    kind, parts = _parse_source(spec)
    if kind == "pade":
        return _pade(int(parts[0]), int(parts[1]))
    if kind == "bessel":
        n = int(parts[0])
        den = [
            Fraction(math.factorial(n + k), math.factorial(n - k) * math.factorial(k) * 2**k)
            for k in range(n + 1)
        ][::-1]  # theta_n: s^(n-k) carries (n+k)!/((n-k)! k! 2^k)
        return [den[0]], den
    if kind == "budak":
        m, n, g = int(parts[0]), int(parts[1]), Fraction(parts[2])
        num = _bessel_21(m, 2 * (g - 1))
        den = _bessel_21(n, 2 * g)
        k_const = den[0] / num[0]
        return [c * k_const for c in num], den
    raise ValueError(f"no oracle for source {spec!r}")


def _mp_poly(coeffs: list[Fraction], x):
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + mp.mpf(c.numerator) / c.denominator
    return acc


def _horner_condition(coeffs: list[Fraction], omega: float, value) -> float:
    """sum |c_k| omega^k / |p(j omega)|: how much float Horner can lose."""
    size = sum(abs(float(c)) * omega**k for k, c in enumerate(coeffs))
    return size / max(float(abs(value)), 1e-300)


def oracle_row(num, den, omega: float) -> tuple[float, float, float, float]:
    """(magnitude, phase, delay, relative tolerance) at omega, 40 digits.

    The tolerance is the float Horner error bound 8 (deg+1) eps kappa for
    numerator and denominator, so a row fails only when the program's value
    is further off than double-precision evaluation can explain.
    """
    with mp.workdps(40):
        w = mp.mpf(omega)
        s = mp.mpc(0, w)
        n_val, d_val = _mp_poly(num, s), _mp_poly(den, s)
        h = n_val / d_val
        step = mp.mpf("1e-8")
        hi = mp.arg(_mp_poly(num, mp.mpc(0, w + step)) / _mp_poly(den, mp.mpc(0, w + step)))
        lo = mp.arg(_mp_poly(num, mp.mpc(0, w - step)) / _mp_poly(den, mp.mpc(0, w - step)))
        turn = hi - lo
        if turn > mp.pi:
            turn -= 2 * mp.pi
        elif turn < -mp.pi:
            turn += 2 * mp.pi
        delay = -turn / (2 * step)
        degree = max(len(num), len(den))
        kappa = _horner_condition(num, omega, n_val) + _horner_condition(den, omega, d_val)
        tol = 1e-12 + 8 * degree * _EPS * kappa
        return float(abs(h)), float(mp.arg(h)), float(delay), tol


def check_sweep_csv(op: dict, text: str) -> list[str]:
    """Layout of every row, oracle values on ORACLE_ROWS strided rows."""
    spec, omega_max, points = op["source"], op["omega_max"], op["points"]
    label = f"sweep {spec} omega_max={omega_max} points={points}"
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        return [f"{label}: header {lines[0]!r}"]
    if lines[-1] != "" or len(lines) != points + 2:
        return [f"{label}: {len(lines) - 2} rows for {points} points (or no final newline)"]
    rows = []
    for i, line in enumerate(lines[1:-1]):
        fields = line.split(",")
        flagged = len(fields) == 5 and fields[4] == "pole-adjacent"
        try:
            values = [float(x) for x in fields[:4]]
        except ValueError:
            return [f"{label}: row {i} is not numeric: {line!r}"]
        if len(fields) != 4 and not flagged:
            return [f"{label}: row {i} has a bad layout: {line!r}"]
        grid = omega_max * i / (points - 1)
        if abs(values[0] - grid) > 4 * _EPS * omega_max:
            return [f"{label}: row {i} omega {values[0]!r} is off the grid ({grid!r})"]
        if flagged and not all(math.isinf(v) for v in values[1:]):
            return [f"{label}: pole-adjacent row {i} carries finite values"]
        rows.append((values, flagged))

    num, den = source_polys(spec)
    problems = []
    stride = max(1, (points - 1) // (ORACLE_ROWS - 1))
    for i in sorted(set(range(0, points, stride)) | {points - 1}):
        (omega, mag, phase, delay), flagged = rows[i]
        if flagged:
            continue
        ref_mag, ref_phase, ref_delay, tol = oracle_row(num, den, omega)
        phase_err = abs(cmath.phase(cmath.rect(1.0, phase - ref_phase)))
        if abs(mag - ref_mag) > tol * ref_mag:
            problems.append(f"{label}: magnitude {mag!r} at omega {omega!r}, oracle {ref_mag!r}")
        if phase_err > tol + 1e-15:
            problems.append(f"{label}: phase {phase!r} at omega {omega!r}, oracle {ref_phase!r}")
        if abs(delay - ref_delay) > 1e-8 * max(abs(ref_delay), 1.0):
            problems.append(f"{label}: delay {delay!r} at omega {omega!r}, oracle {ref_delay!r}")
    return problems


def check_routh(op: dict, verdict: str) -> list[str]:
    if verdict != op["verdict"]:
        return [f"routh {op['coeffs']}: verdict {verdict}, factors say {op['verdict']}"]
    return []
