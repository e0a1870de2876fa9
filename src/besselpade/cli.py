"""Command-line front end.

Subcommands: gbp | pade | budak | analyze | sweep | compare. Reports are
plain text by default and JSON with --json; all rationals cross the
boundary as exact "p/q" strings. Decimals appear only in CSV sweeps and
surd renderings, whose digit count comes from BESSELPADE_PRECISION
(default 12). Exit codes: 0 success, 2 usage error, 1 computational
error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .budak import BudakParams, budak_tf, gamma_order2, order2_certificate
from .core import EvenRationalFunction, Polynomial, TransferFunction, surd_to_float
from .gbp import GbpParams, classical_bessel, gbp
from .pade import PadeIndex, pade_exp
from .response import (
    FlatnessReport,
    Quantity,
    _sample_pairs,
    flatness,
    group_delay,
    magnitude_squared,
)
from .stability import StabilityReport, Verdict, routh_hurwitz

DEFAULT_PRECISION = 12

_VERDICT_WORDS = {
    Verdict.STRICT_HURWITZ: "Stable",
    Verdict.NOT_HURWITZ: "Unstable",
    Verdict.MARGINAL: "Marginal",
}


class UsageError(Exception):
    """Bad arguments or malformed input specs; exits with status 2."""


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _poly_strings(p: Polynomial) -> list[str]:
    return [str(c) for c in p.coefficients]


def _tf_dict(tf: TransferFunction) -> dict:
    return {
        "num": _poly_strings(tf.numerator),
        "den": _poly_strings(tf.denominator),
        "rendered": str(tf),
    }


def _stability_dict(report: StabilityReport) -> dict:
    return {
        "verdict": str(report.verdict),
        "routh_first_column": [str(c) for c in report.routh_first_column],
        "sign_changes": report.sign_changes,
        "degenerate_rows": list(report.degenerate_rows),
    }


def _flatness_dict(report: FlatnessReport) -> dict:
    return {
        "quantity": str(report.quantity) if report.quantity else None,
        "value_at_origin": str(report.value_at_origin),
        "order": report.order,
        "leading_deviation": str(report.leading_deviation),
    }


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# Design reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignReport:
    tf: TransferFunction
    stability: StabilityReport
    delay: FlatnessReport
    magnitude: FlatnessReport
    minimum_phase: bool
    provenance: dict


def minimum_phase(tf: TransferFunction) -> bool:
    """All zeros in the closed left half-plane (vacuous without zeros)."""
    if tf.numerator.degree < 1:
        return True
    verdict = routh_hurwitz(tf.numerator).verdict
    return verdict in (Verdict.STRICT_HURWITZ, Verdict.MARGINAL)


def _flatness_or_constant(f: EvenRationalFunction, quantity: Quantity) -> FlatnessReport:
    """`response.flatness` of f, or order None and leading deviation 0 when
    f is exactly constant (the magnitude of an all-pass, for one)."""
    if f.denominator.degree == 0 and f.numerator.degree <= 0:
        return FlatnessReport(f.at_origin(), None, Fraction(0), quantity)
    return flatness(f, quantity=quantity)


def _pole_stability(tf: TransferFunction) -> StabilityReport:
    """`routh_hurwitz` of the denominator, or StrictHurwitz with first
    column (d0,) when it is a constant d0 (vacuous without poles, as
    `minimum_phase` is without zeros)."""
    den = tf.denominator
    if den.degree == 0:
        return StabilityReport(Verdict.STRICT_HURWITZ, (den.coeff(0),), 0, ())
    return routh_hurwitz(den)


def design_report(tf: TransferFunction, provenance: dict) -> DesignReport:
    return DesignReport(
        tf,
        _pole_stability(tf),
        _flatness_or_constant(group_delay(tf), Quantity.DELAY),
        _flatness_or_constant(magnitude_squared(tf), Quantity.MAGNITUDE_SQUARED),
        minimum_phase(tf),
        provenance,
    )


def _report_dict(report: DesignReport, command: str) -> dict:
    return {
        "report_version": 1,
        "command": command,
        "provenance": report.provenance,
        "transfer_function": _tf_dict(report.tf),
        "stability": _stability_dict(report.stability),
        "delay_flatness": _flatness_dict(report.delay),
        "magnitude_flatness": _flatness_dict(report.magnitude),
        "minimum_phase": report.minimum_phase,
    }


def _emit_report(tf: TransferFunction, provenance: dict, command: str, as_json: bool) -> None:
    """Print the design report of tf, as JSON or as plain text."""
    report = design_report(tf, provenance)
    if as_json:
        _emit_json(_report_dict(report, command))
        return
    stab = report.stability
    column = ", ".join(str(c) for c in stab.routh_first_column)
    print(f"transfer function: {report.tf}")
    print(f"stability: {stab.verdict} (first column {column}; sign changes {stab.sign_changes})")
    for name, flat in (("delay", report.delay), ("magnitude", report.magnitude)):
        if flat.order is None:
            print(f"{name} flatness: exactly constant, value at origin {flat.value_at_origin}")
            continue
        print(
            f"{name} flatness: order {flat.order}, value at origin "
            f"{flat.value_at_origin}, leading deviation {flat.leading_deviation}"
        )
    print(f"minimum phase: {'yes' if report.minimum_phase else 'no'}")


# ---------------------------------------------------------------------------
# Source specs
# ---------------------------------------------------------------------------


def _load_tf_file(path: str) -> TransferFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read transfer-function file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed transfer-function file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("a transfer-function file must hold a JSON object")
    return TransferFunction(_file_polynomial(data, "num"), _file_polynomial(data, "den"))


def _file_polynomial(data: dict, field: str) -> Polynomial:
    """The `field` array of a transfer-function file: numbers or numeric
    strings, ascending, not all zero. Anything else is a usage error
    naming the field."""
    if field not in data:
        raise UsageError(f'transfer-function file has no "{field}" array')
    value = data[field]
    if not isinstance(value, list) or not all(
        isinstance(c, (int, float, str)) and not isinstance(c, bool) for c in value
    ):
        raise UsageError(
            f'"{field}" in a transfer-function file must be an array of numbers or numeric strings'
        )
    try:
        poly = Polynomial([Fraction(str(c)) for c in value])
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f'bad coefficient in "{field}" of transfer-function file: {exc}') from exc
    if poly.is_zero:
        raise UsageError(f'"{field}" in a transfer-function file is identically zero')
    return poly


def source_tf(spec: str) -> tuple[TransferFunction, dict]:
    """Resolve "pade:N,M" | "budak:M,N,G" | "bessel:N" | "file:PATH" into
    the transfer function and its provenance."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise UsageError(f"source spec needs a kind prefix, got {spec!r}")
    if kind == "file":
        tf = _load_tf_file(rest)
        provenance = {
            "family": "file",
            "num": _poly_strings(tf.numerator),
            "den": _poly_strings(tf.denominator),
        }
        return tf, provenance
    try:
        if kind == "pade":
            n, m = (int(x) for x in rest.split(","))
            provenance = {"family": "pade", "n": n, "m": m}
        elif kind == "budak":
            m_s, n_s, g_s = rest.split(",")
            m, n, g = int(m_s), int(n_s), Fraction(g_s)
            provenance = {"family": "budak", "m": m, "n": n, "gamma": str(g)}
        elif kind == "bessel":
            provenance = {"family": "bessel", "n": int(rest)}
        else:
            raise UsageError(f"unknown source kind {kind!r}")
        return tf_from_provenance(provenance), provenance
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"bad source spec {spec!r}: {exc}") from exc


def tf_from_provenance(provenance: dict) -> TransferFunction:
    """Rebuild the transfer function a report was derived from."""
    family = provenance["family"]
    if family == "pade":
        return pade_exp(PadeIndex(provenance["n"], provenance["m"]))
    if family == "budak":
        return budak_tf(
            BudakParams(provenance["m"], provenance["n"], Fraction(provenance["gamma"]))
        )
    if family == "bessel":
        den = classical_bessel(provenance["n"])
        return TransferFunction(Polynomial([den.coeff(0)]), den)
    if family == "file":
        return TransferFunction(Polynomial(provenance["num"]), Polynomial(provenance["den"]))
    raise ValueError(f"unknown provenance family {family!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gbp(args, precision: int) -> int:
    poly = gbp(GbpParams(args.n, args.alpha, args.beta))
    descending = [str(poly.coeff(k)) for k in range(poly.degree, -1, -1)]
    if args.json:
        _emit_json(
            {
                "report_version": 1,
                "command": "gbp",
                "n": args.n,
                "alpha": str(Fraction(args.alpha)),
                "beta": str(Fraction(args.beta)),
                "coefficients_descending": descending,
                "rendered": str(poly),
            }
        )
    else:
        print(poly)
    return 0


def _cmd_pade(args, precision: int) -> int:
    if args.n < 0 or args.m < 0:
        raise UsageError("degrees must be non-negative")
    provenance = {"family": "pade", "n": args.n, "m": args.m}
    tf = tf_from_provenance(provenance)
    if args.analyze:
        _emit_report(tf, provenance, "pade", args.json)
    elif args.json:
        _emit_json(
            {
                "report_version": 1,
                "command": "pade",
                "provenance": provenance,
                "transfer_function": _tf_dict(tf),
            }
        )
    else:
        print(tf)
    return 0


def _surd_entry(surd, precision: int) -> dict:
    return {"surd": str(surd), "decimal": surd_to_float(surd, precision)}


def _cmd_budak(args, precision: int) -> int:
    if (args.gamma is None) == (not args.order2_gamma):
        raise UsageError("exactly one of --gamma or --order2-gamma is required")
    if args.order2_gamma:
        if not 1 <= args.m < args.n:
            raise UsageError("order-2 gamma needs 1 <= m < n")
        pair = gamma_order2(args.n, args.m)
        if args.json:
            _emit_json(
                {
                    "report_version": 1,
                    "command": "budak-order2",
                    "m": args.m,
                    "n": args.n,
                    "gamma_plus": _surd_entry(pair.gamma_plus, precision),
                    "gamma_minus": _surd_entry(pair.gamma_minus, precision),
                    "quadratic": {
                        "rendered": pair.quadratic.to_str("gamma"),
                        "coefficients_ascending": _poly_strings(pair.quadratic),
                    },
                }
            )
        else:
            for surd in (pair.gamma_plus, pair.gamma_minus):
                print(f"{surd} ≈ {surd_to_float(surd, precision)}")
            print(f"q(gamma) = {pair.quadratic.to_str('gamma')}")
        return 0
    if args.gamma <= 0:
        raise UsageError("gamma must be positive")
    if not 0 <= args.m <= args.n or args.n < 1:
        raise UsageError("need 0 <= m <= n and n >= 1")
    provenance = {
        "family": "budak",
        "m": args.m,
        "n": args.n,
        "gamma": str(Fraction(args.gamma)),
    }
    _emit_report(tf_from_provenance(provenance), provenance, "budak", args.json)
    return 0


def _cmd_analyze(args, precision: int) -> int:
    tf, provenance = source_tf(args.source)
    _emit_report(tf, provenance, "analyze", args.json)
    return 0


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".besselpade-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sweep_rows(
    tf: TransferFunction, omega_max: float, points: int
) -> list[tuple[float, float, float, float, bool]]:
    """(omega, magnitude, phase, delay, pole_adjacent) at each grid point.

    `response.sample` of H(j*omega) gives magnitude and phase, and of the
    exact group delay the delay; the rows read its (value, pole_adjacent)
    pairs directly. A row next to a pole of H is flagged and carries inf
    throughout; the delay alone is inf where the group delay's own
    denominator flags.

    A factor s^k of N or D adds only the constant phase k*pi/2 or
    -k*pi/2, so the delay is that of N over D with the k lowest, zero,
    coefficients of either dropped. A pole at s = 0 flags the omega = 0
    row; a zero there leaves that row magnitude 0.0 and the finite delay
    of the reduced function.
    """
    omegas = [omega_max * i / (points - 1) for i in range(points)]
    h_pairs = _sample_pairs(tf, omegas)
    num, den = tf.numerator, tf.denominator
    zeros, poles = num.lowest_nonzero_power(), den.lowest_nonzero_power()
    if zeros or poles:
        num, den = Polynomial(num.coefficients[zeros:]), Polynomial(den.coefficients[poles:])
        tf = TransferFunction(num, den)
    delay_pairs = _sample_pairs(group_delay(tf), omegas)
    rows = []
    for w, (h, flagged), (delay, _) in zip(omegas, h_pairs, delay_pairs):
        if flagged:
            rows.append((w, math.inf, math.inf, math.inf, True))
        else:
            rows.append((w, abs(h), cmath.phase(h), delay, False))
    return rows


def _cmd_sweep(args, precision: int) -> int:
    if args.points < 2:
        raise UsageError("need at least 2 points")
    if not args.omega_max > 0:
        raise UsageError("omega-max must be positive")
    if math.isinf(args.omega_max * (args.points - 1)):
        raise UsageError("omega-max too large: grid points leave the float range")
    tf, _ = source_tf(args.source)
    lines = ["omega,magnitude,phase_rad,group_delay"]
    for w, mag, phase, delay, flagged in sweep_rows(tf, args.omega_max, args.points):
        line = f"{w!r},{mag!r},{phase!r},{delay!r}"
        if flagged:
            line += ",pole-adjacent"
        lines.append(line)
    text = "\n".join(lines) + "\n"
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            _write_atomic(args.output, text)
        except OSError as exc:
            raise UsageError(
                f"cannot write output file: {args.output}: {exc.strerror or exc}"
            ) from exc
    return 0


def _report_row(label: str, provenance: dict, phase_applies: bool = True) -> dict:
    """A compare row from the design report of a provenance's transfer
    function; its variant is the provenance family."""
    report = design_report(tf_from_provenance(provenance), provenance)
    return {
        "variant": provenance["family"],
        "label": label,
        "delay_order": report.delay.order,
        "magnitude_order": report.magnitude.order,
        "minimum_phase": report.minimum_phase if phase_applies else None,
        "stability": str(report.stability.verdict),
    }


def _compare_rows(n: int, m: int, precision: int) -> list[dict]:
    rows = [_report_row(f"pade({n},{m})", {"family": "pade", "n": n, "m": m})]

    cert = order2_certificate(n, m)
    if cert.magnitude_order is None or cert.delay_order is None:
        raise ArithmeticError("order-2 certificate did not close")
    for surd, min_phase in (
        (cert.gammas.gamma_plus, cert.minimum_phase_plus),
        (cert.gammas.gamma_minus, cert.minimum_phase_minus),
    ):
        decimal = surd_to_float(surd, precision)
        rows.append(
            {
                "variant": "budak",
                "label": f"budak({m},{n}) gamma≈{decimal}",
                "gamma_surd": str(surd),
                "gamma_decimal": decimal,
                "delay_order": cert.delay_order,
                "magnitude_order": cert.magnitude_order,
                "minimum_phase": min_phase,
                "stability": str(cert.denominator_verdict),
            }
        )

    # an all-pole prototype has no zeros to place
    rows.append(_report_row(f"bessel({n})", {"family": "bessel", "n": n}, phase_applies=False))
    return rows


def _cmd_compare(args, precision: int) -> int:
    if not 1 <= args.m < args.n:
        raise UsageError("compare needs 1 <= m < n")
    rows = _compare_rows(args.n, args.m, precision)
    if args.json:
        _emit_json(
            {
                "report_version": 1,
                "command": "compare",
                "n": args.n,
                "m": args.m,
                "rows": rows,
            }
        )
        return 0
    headers = ["variant", "delay_order", "magnitude_order", "minimum_phase", "stability"]
    table = []
    for row in rows:
        phase = row["minimum_phase"]
        table.append(
            [
                row["label"],
                str(row["delay_order"]),
                str(row["magnitude_order"]),
                "-" if phase is None else ("yes" if phase else "no"),
                _VERDICT_WORDS[Verdict(row["stability"])],
            ]
        )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in table)) for c in range(len(headers))
    ]
    print("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)).rstrip())
    for r in table:
        print("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(r)).rstrip())
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _precision_from_env() -> int:
    raw = os.environ.get("BESSELPADE_PRECISION")
    if raw is None:
        return DEFAULT_PRECISION
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"BESSELPADE_PRECISION must be an integer, got {raw!r}") from exc
    if value < 1:
        raise UsageError("BESSELPADE_PRECISION must be at least 1")
    return value


class _Subcommand:
    """Stands in for a subcommand's parser until a command line selects
    it: `add_subparsers(parser_class=_Subcommand)` stores one under each
    name, and `parse_known_args`, the one method argparse calls on a
    stored parser, builds the real parser and its arguments. A parse thus
    builds one subcommand's parser, not six."""

    def __init__(self, add_arguments: Callable[[argparse.ArgumentParser], None], **kwargs):
        self._add_arguments = add_arguments
        self._kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        self._add_arguments(parser)
        return parser.parse_known_args(args, namespace)


def _rational(text: str) -> Fraction:
    """argparse type of a rational: "1/0" is a usage error, as "abc" is."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line. `main` builds one per call, so
    building stays cheap: the terminal width is read once here, not by
    each help formatter argparse makes, and a subcommand's parser is
    built only when a command line selects it (`_Subcommand`). Help
    wraps at the width argparse itself would use, as read at build time."""
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="besselpade",
        description="Exact delay-approximation toolbox: polynomials, approximants, stability and flatness reports.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    def gbp_arguments(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", type=_rational, required=True)
        p.add_argument("--beta", type=_rational, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_gbp)

    def pade_arguments(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--analyze", action="store_true")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_pade)

    def budak_arguments(p):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--gamma", type=_rational)
        p.add_argument("--order2-gamma", action="store_true")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_budak)

    def analyze_arguments(p):
        p.add_argument("--source", required=True, help="pade:N,M | budak:M,N,G | bessel:N | file:PATH")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_analyze)

    def sweep_arguments(p):
        p.add_argument("--source", required=True, help="pade:N,M | budak:M,N,G | bessel:N | file:PATH")
        p.add_argument("--omega-max", type=float, required=True)
        p.add_argument("--points", type=int, required=True)
        p.add_argument("--output", help="target CSV path (omit or '-' for stdout)")
        p.set_defaults(func=_cmd_sweep)

    def compare_arguments(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_compare)

    for name, summary, add_arguments in [
        ("gbp", "construct a generalized Bessel polynomial", gbp_arguments),
        ("pade", "(n,m) delay approximant", pade_arguments),
        ("budak", "two-sided scaled-Bessel approximant", budak_arguments),
        ("analyze", "full report for a transfer function source", analyze_arguments),
        ("sweep", "CSV frequency sweep", sweep_arguments),
        ("compare", "side-by-side approximant table", compare_arguments),
    ]:
        sub.add_parser(name, help=summary, formatter_class=formatter, add_arguments=add_arguments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Exact values outgrow CPython's default int/str conversion limit of
    # 4300 digits (the Routh column of bessel:200 holds 6400-digit
    # entries), so it is lifted while a command runs, where the
    # interpreter has one (3.11, and 3.10.7 on).
    old_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        precision = _precision_from_env()
        return args.func(args, precision)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
