"""Command-line front end.

Subcommands: gbp | pade | budak | analyze | sweep | compare. Reports are
plain text by default and JSON with --json; all rationals cross the
boundary as exact "p/q" strings. Decimals appear only in CSV sweeps,
which print each double's full repr, and in surd renderings, whose digit
count comes from BESSELPADE_PRECISION (default 12). Exit codes: 0
success, 2 usage error, 1 computational error or a closed stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from ._intpoly import ratio_strings
from ._record import Record
from .budak import BudakParams, budak_tf, gamma_order2, order2_certificate
from .core import EvenRationalFunction, Polynomial, TransferFunction, surd_to_float
from .gbp import GbpParams, classical_bessel, gbp
from .pade import PadeIndex, pade_exp
from .response import (
    FlatBeyondHorizon,
    FlatnessReport,
    Quantity,
    delay_flatness,
    flatness,
    frequency_rows,
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
    """str(Fraction) of each coefficient, from `integer_form`."""
    return ratio_strings(*p.integer_form)


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


def _emit_json(command: str, payload: dict) -> None:
    print(json.dumps({"report_version": 1, "command": command, **payload}, indent=2))


# ---------------------------------------------------------------------------
# Design reports
# ---------------------------------------------------------------------------


class DesignReport(Record):
    """What a design report prints about one transfer function."""

    def __init__(
        self,
        tf: TransferFunction,
        stability: StabilityReport,
        delay: FlatnessReport,
        magnitude: FlatnessReport,
        minimum_phase: bool,
        provenance: dict,
    ) -> None:
        super().__init__(locals())


def minimum_phase(tf: TransferFunction) -> bool:
    """All zeros in the closed left half-plane (vacuous without zeros).

    A real polynomial with every root in the closed left half-plane is
    c * prod(s + a) * prod(s^2 + b*s + d) with a, b >= 0 and d > 0, so its
    nonzero coefficients all share the sign of c. A numerator whose
    nonzero coefficients take both signs therefore has a root with
    Re s > 0 and is answered False without a Routh array; every other
    numerator goes through `routh_hurwitz`.
    """
    num = tf.numerator
    if num.degree < 1:
        return True
    if len({c > 0 for c in num.integer_form[0] if c}) > 1:
        return False
    verdict = routh_hurwitz(num).verdict
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
    stability = _pole_stability(tf)
    try:
        delay = delay_flatness(tf)
    except FlatBeyondHorizon:
        # A constant delay is 0: the phase of a rational H(j*omega) tends
        # to a limit as omega grows, where a delay c != 0 would make it
        # drift as -c*omega without bound.
        delay = FlatnessReport(Fraction(0), None, Fraction(0), Quantity.DELAY)
    return DesignReport(
        tf,
        stability,
        delay,
        _flatness_or_constant(magnitude_squared(tf), Quantity.MAGNITUDE_SQUARED),
        minimum_phase(tf),
        provenance,
    )


def _report_dict(report: DesignReport) -> dict:
    return {
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
        _emit_json(command, _report_dict(report))
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

# the form of each source kind, as --source help and field-count errors name it
_SOURCE_FORMS = {
    "pade": "pade:N,M",
    "budak": "budak:M,N,G",
    "bessel": "bessel:N",
    "file": "file:PATH",
}


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
        poly = Polynomial([_fraction(str(c)) for c in value])
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f'bad coefficient in "{field}" of transfer-function file: {exc}') from exc
    if poly.is_zero:
        raise UsageError(f'"{field}" in a transfer-function file is identically zero')
    return poly


def source_tf(spec: str) -> tuple[TransferFunction, dict]:
    """Resolve a source spec, in one of the `_SOURCE_FORMS`, into the
    transfer function and its provenance."""
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
    fields = rest.split(",")
    form = _SOURCE_FORMS.get(kind)
    if form and len(fields) != form.count(",") + 1:
        raise UsageError(f"bad source spec {spec!r}: expected {form}")
    try:
        if kind == "pade":
            n, m = map(int, fields)
            provenance = {"family": "pade", "n": n, "m": m}
        elif kind == "budak":
            m_s, n_s, g_s = fields
            m, n, g = int(m_s), int(n_s), _rational(g_s)
            provenance = {"family": "budak", "m": m, "n": n, "gamma": str(g)}
        elif kind == "bessel":
            provenance = {"family": "bessel", "n": int(rest)}
        else:
            raise UsageError(f"unknown source kind {kind!r}")
        return tf_from_provenance(provenance), provenance
    except (ValueError, TypeError, ZeroDivisionError, argparse.ArgumentTypeError) as exc:
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
            "gbp",
            {
                "n": args.n,
                "alpha": str(args.alpha),
                "beta": str(args.beta),
                "coefficients_descending": descending,
                "rendered": str(poly),
            },
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
            "pade",
            {
                "provenance": provenance,
                "transfer_function": _tf_dict(tf),
            },
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
                "budak-order2",
                {
                    "m": args.m,
                    "n": args.n,
                    "gamma_plus": _surd_entry(pair.gamma_plus, precision),
                    "gamma_minus": _surd_entry(pair.gamma_minus, precision),
                    "quadratic": {
                        "rendered": pair.quadratic.to_str("gamma"),
                        "coefficients_ascending": _poly_strings(pair.quadratic),
                    },
                },
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
        "gamma": str(args.gamma),
    }
    _emit_report(tf_from_provenance(provenance), provenance, "budak", args.json)
    return 0


def _cmd_analyze(args, precision: int) -> int:
    tf, provenance = source_tf(args.source)
    _emit_report(tf, provenance, "analyze", args.json)
    return 0


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a fresh file in the same directory and a
    rename. The file is created with mode 0o666 under O_EXCL, so the
    kernel applies the umask: path gets the mode a plain open(path, "w")
    gives a new file, whether it is new or replaced."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".besselpade-{os.urandom(8).hex()}")
    # O_BINARY, where it exists, keeps the LF line endings
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0), 0o666)
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
    """The rows `sweep` prints: `response.frequency_rows` at the `points`
    grid frequencies omega_max*i/(points-1), i = 0..points-1."""
    return frequency_rows(tf, [omega_max * i / (points - 1) for i in range(points)])


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
        lines.append(f"{w!r},{mag!r},{phase!r},{delay!r}" + (",pole-adjacent" if flagged else ""))
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
            "compare",
            {
                "n": args.n,
                "m": args.m,
                "rows": rows,
            },
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


# CPython's default int/str digit limit, as a fixed bound on the decimal
# exponent of a rational literal: 1e1000000 is a million-digit number, whose
# conversion to str alone is quadratic in its length
_MAX_EXPONENT = 4300


def _fraction(text: str) -> Fraction:
    """Fraction(text), with a ValueError for a decimal exponent beyond
    +-_MAX_EXPONENT; it is read before Fraction makes 10**exponent. An
    exponent written in more characters than that is refused unread, as
    int() of a million digits is itself quadratic."""
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    if exponent and (
        len(exponent[1]) > _MAX_EXPONENT or abs(int(exponent[1])) > _MAX_EXPONENT
    ):
        raise ValueError(f"decimal exponent of {text!r} is beyond ±{_MAX_EXPONENT}")
    return Fraction(text)


def _rational(text: str) -> Fraction:
    """argparse type of a rational: "1/0" is a usage error, as "abc" and
    "1e5000" are."""
    try:
        return _fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _gbp_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--json", action="store_true")


def _pade_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--analyze", action="store_true")
    p.add_argument("--json", action="store_true")


def _budak_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=_rational)
    p.add_argument("--order2-gamma", action="store_true")
    p.add_argument("--json", action="store_true")


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True, help=" | ".join(_SOURCE_FORMS.values()))
    p.add_argument("--json", action="store_true")


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True, help=" | ".join(_SOURCE_FORMS.values()))
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--output", help="target CSV path (omit or '-' for stdout)")


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")


# each subcommand's help summary, the function that adds its arguments and
# the function that runs it
_SUBCOMMANDS = {
    "gbp": ("construct a generalized Bessel polynomial", _gbp_arguments, _cmd_gbp),
    "pade": ("(n,m) delay approximant", _pade_arguments, _cmd_pade),
    "budak": ("two-sided scaled-Bessel approximant", _budak_arguments, _cmd_budak),
    "analyze": ("full report for a transfer function source", _analyze_arguments, _cmd_analyze),
    "sweep": ("CSV frequency sweep", _sweep_arguments, _cmd_sweep),
    "compare": ("side-by-side approximant table", _compare_arguments, _cmd_compare),
}


def _help_formatter() -> Callable[..., argparse.HelpFormatter]:
    """argparse's HelpFormatter at the width argparse itself would use,
    with the terminal width read once, not by each formatter made."""
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line, with every subcommand's
    parser. `main` needs it only for a line that names no subcommand or
    leaves an argument over; help wraps at the terminal width read at
    build time."""
    formatter = _help_formatter()
    parser = argparse.ArgumentParser(
        prog="besselpade",
        description="Exact delay-approximation toolbox: polynomials, approximants, stability and flatness reports.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments, _) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary, formatter_class=formatter))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The full parser hands every string after a subcommand's name to that
    # subcommand's parser and reads none of them itself, so a line that
    # names a subcommand is parsed by that parser alone: same help, errors
    # and namespace. Only leftovers are the top level's to report.
    argv = sys.argv[1:] if argv is None else argv
    args = None
    if argv and argv[0] in _SUBCOMMANDS:
        parser = argparse.ArgumentParser(prog=f"besselpade {argv[0]}", formatter_class=_help_formatter())
        _SUBCOMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or extras:
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
        code = _SUBCOMMANDS[args.command][2](args, precision)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # the reader has gone: the rest goes to os.devnull, not a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
