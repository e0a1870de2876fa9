"""Per-layer metrics of the traced run and the observers that count them.

Each metric is `<module>.<function>.<stat>`. `calls`, `self_s` and `failed`
come from the spans; the other stats from observers that look at a wrapped
call's arguments and result after its span has closed.
"""

from __future__ import annotations


def _bump(counters: dict, key: str, by: float = 1) -> None:
    counters[key] = counters.get(key, 0) + by


def _raise_max(counters: dict, key: str, value: int) -> None:
    counters[key] = max(counters.get(key, 0), value)


def _gcd_observer(counters, args, result, exc):
    p, q = args[0], args[1]
    _raise_max(counters, "max_degree", max(p.degree, q.degree))
    bits = max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for poly in (p, q)
            for c in poly.coefficients
        ),
        default=0,
    )
    _raise_max(counters, "max_coeff_bits", bits)
    if result is not None and result.degree > 0:
        _bump(counters, "nontrivial")


def _interpolate_observer(counters, args, result, exc):
    _bump(counters, "points", len(args[0]))


def _sweep_observer(counters, args, result, exc):
    if result is not None:
        _bump(counters, "rows", len(result))


def _routh_observer(counters, args, result, exc):
    # A zero pivot leaves the first column partial; the continuation that
    # resolves it is the only path that raises ArithmeticError.
    if exc is not None:
        if isinstance(exc, ArithmeticError):
            _bump(counters, "zero_pivot")
        return
    if len(result.routh_first_column) < args[0].degree + 1:
        _bump(counters, "zero_pivot")
    elif result.degenerate_rows:
        _bump(counters, "degenerate")


OBSERVERS = {
    "core.poly_gcd": _gcd_observer,
    "core.interpolate": _interpolate_observer,
    "cli.sweep_rows": _sweep_observer,
    "stability.routh_hurwitz": _routh_observer,
}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "failed": "count",
    "max_degree": "count",
    "max_coeff_bits": "bits",
    "nontrivial_frac": "ratio",
    "points": "count",
    "rows": "count",
    "degenerate": "count",
    "zero_pivot": "count",
}

_CALLS_SELF = ("calls", "self_s")

# layer -> stats, in the order BENCHMARK.json lists them
CATALOGUE: list[tuple[str, tuple[str, ...]]] = [
    ("core.poly_gcd", ("calls", "self_s", "max_degree", "max_coeff_bits", "nontrivial_frac")),
    ("core.interpolate", ("calls", "points", "self_s")),
    ("budak.delay_gamma_polynomials", _CALLS_SELF),
    ("budak.magnitude_gamma_mismatch", _CALLS_SELF),
    ("budak.order2_certificate", _CALLS_SELF),
    ("budak.budak_tf", _CALLS_SELF),
    ("gbp.gbp_of", _CALLS_SELF),
    ("core.surd_to_float", _CALLS_SELF),
    ("core.Polynomial.call", _CALLS_SELF),
    ("cli.sweep_rows", ("calls", "rows", "self_s", "failed")),
    ("stability.routh_hurwitz", ("calls", "self_s", "failed", "degenerate", "zero_pivot")),
    ("response.group_delay", _CALLS_SELF),
    ("response.magnitude_squared", _CALLS_SELF),
    ("response.flatness", ("calls", "self_s", "failed")),
    ("pade.pade_exp", _CALLS_SELF),
    ("cli.source_tf", ("self_s",)),
    ("cli.design_report", ("self_s",)),
    ("cli.main", ("self_s",)),
]

# The layers each workload exists to stress. A traced run in which one of
# them records no call has lost a binding and fails instead of reporting 0.
STRESSED = {
    "exact-ladder": (
        "core.poly_gcd",
        "response.group_delay",
        "response.magnitude_squared",
        "response.flatness",
        "pade.pade_exp",
        "budak.budak_tf",
        "cli.source_tf",
        "cli.design_report",
        "cli.sweep_rows",
        "core.Polynomial.call",
        "cli.main",
    ),
    "gamma-compare": (
        "budak.order2_certificate",
        "budak.delay_gamma_polynomials",
        "budak.magnitude_gamma_mismatch",
        "core.interpolate",
        "core.surd_to_float",
        "gbp.gbp_of",
        "core.poly_gcd",
        "budak.budak_tf",
        "cli.main",
    ),
    "float-sweep": ("cli.sweep_rows", "core.Polynomial.call", "cli.source_tf", "cli.main"),
    "routh-fuzz": ("stability.routh_hurwitz",),
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, trace_overhead_frac last."""
    names = [(f"{layer}.{stat}", UNITS[stat]) for layer, stats in CATALOGUE for stat in stats]
    return names + [("trace_overhead_frac", "ratio")]


def layer_metrics(totals: dict, counters: dict) -> dict[str, float]:
    """Every catalogue metric from span totals (`layer_totals`) and observer counters."""
    out: dict[str, float] = {}
    for layer, stats in CATALOGUE:
        spans = totals.get(layer, {"calls": 0, "self_s": 0.0, "failed": 0})
        counts = counters.get(layer, {})
        for stat in stats:
            if stat in spans:
                value = spans[stat]
            elif stat == "nontrivial_frac":
                value = counts.get("nontrivial", 0) / spans["calls"] if spans["calls"] else 0.0
            else:
                value = counts.get(stat, 0)
            out[f"{layer}.{stat}"] = value
    return out
