"""Self-tests of the benchmark: seeded generators, span arithmetic, checkers.

Run with `PYTHONPATH=src python -m pytest -q perfbench` from the repository
root.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
from besselpade import cli  # noqa: E402
from spans import Span, layer_totals, self_times  # noqa: E402
from workloads import WORKLOADS, has_zero_pivot, reference_universe  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_ops(name):
    workload = WORKLOADS[name]

    def listing(seed):
        return json.dumps(workload.pass_ops(seed) + workload.probes(seed))

    assert listing(7) == listing(7)
    assert listing(7) != listing(8)


def test_every_generated_report_has_a_reference_digest():
    reference = checks.load_reference()
    universe = reference_universe()
    assert set(universe["analyze"]) <= set(reference["analyze"])
    assert {f"{n},{m}" for n, m in universe["compare"]} <= set(reference["compare"])
    for seed in range(5):
        for op in WORKLOADS["exact-ladder"].pass_ops(seed) + WORKLOADS["gamma-compare"].pass_ops(seed):
            if op["check"] == "analyze":
                assert op["source"] in universe["analyze"]
            elif op["check"] == "compare":
                assert (op["n"], op["m"]) in universe["compare"]


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0, False),
        Span("a", 1.0, 4.0, 0, 0, False),
        Span("leaf", 1.5, 2.0, 1, 0, False),
        Span("b", 5.0, 9.0, 0, 0, True),
        Span("leaf", 6.0, 7.0, 3, 0, False),
        Span("leaf", 6.5, 8.0, 3, 0, False),  # overlaps its sibling: counted once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 2.0, 1.0, 1.5])
    totals = layer_totals(spans)
    assert totals["leaf"] == pytest.approx({"calls": 3, "self_s": 3.0, "failed": 0})
    assert totals["b"]["failed"] == 1


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_checker_rejects_a_corrupted_report():
    reference = checks.load_reference()
    text = _cli_stdout(["analyze", "--source", "pade:4,3", "--json"])
    assert checks.check_analyze("pade:4,3", text, reference) == []

    report = json.loads(text)
    report["transfer_function"]["den"][0] += "1"
    assert checks.check_analyze("pade:4,3", json.dumps(report), reference)

    report = json.loads(text)
    report["delay_flatness"]["order"] = 3
    problems = checks.check_analyze("pade:4,3", json.dumps(report), reference)
    assert any("delay order 3 != 4" in p for p in problems)


def test_checker_rejects_a_corrupted_csv_row(tmp_path):
    op = {"source": "pade:3,2", "omega_max": 4.0, "points": 41}
    target = tmp_path / "sweep.csv"
    _cli_stdout(["sweep", "--source", "pade:3,2", "--omega-max", "4.0", "--points", "41", "--output", str(target)])
    text = target.read_text(encoding="utf-8")
    assert checks.check_sweep_csv(op, text) == []

    lines = text.split("\n")
    omega, magnitude, phase, delay = lines[1].split(",")
    bad_value = "\n".join([lines[0], f"{omega},{float(magnitude) * (1 + 1e-9)!r},{phase},{delay}"] + lines[2:])
    assert any("magnitude" in p for p in checks.check_sweep_csv(op, bad_value))

    bad_layout = "\n".join(lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:])
    assert any("layout" in p for p in checks.check_sweep_csv(op, bad_layout))


def test_checker_rejects_a_wrong_routh_verdict():
    op = {"coeffs": [2, 3, 1], "verdict": "StrictHurwitz"}
    assert checks.check_routh(op, "StrictHurwitz") == []
    assert checks.check_routh(op, "Marginal")


def test_zero_pivot_detector_matches_the_textbook_case():
    # s^4 + s^3 + 2s^2 + 2s + 3: the third row of its Routh array starts with 0
    assert has_zero_pivot([3, 2, 2, 1, 1])
    assert not has_zero_pivot([2, 3, 1])
    # s^3 + s: a zero row, replaced by the auxiliary derivative, no zero pivot
    assert not has_zero_pivot([0, 1, 0, 1])
    assert not any(has_zero_pivot(op["coeffs"]) for op in WORKLOADS["routh-fuzz"].pass_ops(3))
