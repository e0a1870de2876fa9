"""End-to-end command-line tests via main(argv)."""

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import mpmath as mp
import pytest

import _oracles
from besselpade import cli
from besselpade.cli import build_parser, main, source_tf, sweep_rows, tf_from_provenance
from besselpade.core import Polynomial, TransferFunction
from besselpade.gbp import gbp_of
from besselpade.response import group_delay, magnitude_squared, sample


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of a command line, whether main returns
    its code or argparse exits with it."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_gbp_plain(capsys):
    code, out, _ = run(capsys, ["gbp", "--n", "3", "--alpha", "1", "--beta", "1"])
    assert code == 0
    assert out.strip() == "s^3 + 9 s^2 + 36 s + 60"


def test_gbp_fractional_parameters(capsys):
    code, out, _ = run(capsys, ["gbp", "--n", "2", "--alpha", "1/2", "--beta", "2"])
    assert code == 0
    assert out.strip() == "s^2 + 3/2 s + 15/16"


def test_gbp_json(capsys):
    payload = run_json(
        capsys, ["gbp", "--n", "3", "--alpha", "2", "--beta", "2", "--json"]
    )
    assert payload["report_version"] == 1
    assert payload["command"] == "gbp"
    assert payload["coefficients_descending"] == ["1", "6", "15", "15"]
    assert payload["alpha"] == "2" and payload["beta"] == "2"


def test_gbp_bad_beta_exits_1(capsys):
    code, _, err = run(capsys, ["gbp", "--n", "3", "--alpha", "1", "--beta", "0"])
    assert code == 1
    assert "error:" in err


def test_pade_plain(capsys):
    code, out, _ = run(capsys, ["pade", "--n", "3", "--m", "2"])
    assert code == 0
    assert out.strip() == "(3 s^2 - 24 s + 60) / (s^3 + 9 s^2 + 36 s + 60)"
    code, out, _ = run(capsys, ["pade", "--n", "0", "--m", "0"])
    assert out.strip() == "1 / 1"


def test_pade_negative_degree_usage_error(capsys):
    code, _, err = run(capsys, ["pade", "--n", "-1", "--m", "0"])
    assert code == 2
    assert "error:" in err


def test_pade_json_without_analysis(capsys):
    payload = run_json(capsys, ["pade", "--n", "3", "--m", "2", "--json"])
    assert list(payload.keys()) == [
        "report_version",
        "command",
        "provenance",
        "transfer_function",
    ]
    assert payload["transfer_function"]["num"] == ["60", "-24", "3"]
    assert payload["transfer_function"]["den"] == ["60", "36", "9", "1"]


def test_pade_analyze_json_shape(capsys):
    payload = run_json(capsys, ["pade", "--n", "3", "--m", "2", "--analyze", "--json"])
    assert list(payload.keys()) == [
        "report_version",
        "command",
        "provenance",
        "transfer_function",
        "stability",
        "delay_flatness",
        "magnitude_flatness",
        "minimum_phase",
    ]
    assert payload["stability"]["verdict"] == "StrictHurwitz"
    assert payload["stability"]["routh_first_column"] == ["1", "9", "88/3", "60"]
    assert payload["stability"]["sign_changes"] == 0
    assert payload["stability"]["degenerate_rows"] == []
    assert payload["delay_flatness"]["order"] == 3
    assert payload["delay_flatness"]["value_at_origin"] == "1"
    assert payload["delay_flatness"]["leading_deviation"] == "-1/6000"
    assert payload["magnitude_flatness"]["order"] == 3
    assert payload["magnitude_flatness"]["leading_deviation"] == "-1/3600"
    assert payload["minimum_phase"] is False


def test_pade_unstable_analyze(capsys):
    payload = run_json(capsys, ["pade", "--n", "5", "--m", "0", "--analyze", "--json"])
    assert payload["stability"]["verdict"] == "NotHurwitz"
    assert payload["stability"]["sign_changes"] == 2
    assert payload["minimum_phase"] is True


def test_all_pass_magnitude_is_exactly_constant_json(capsys):
    payload = run_json(capsys, ["analyze", "--source", "pade:3,3", "--json"])
    assert payload["magnitude_flatness"] == {
        "quantity": "MagnitudeSquared",
        "value_at_origin": "1",
        "order": None,
        "leading_deviation": "0",
    }
    assert payload["delay_flatness"]["order"] == 3
    assert payload["delay_flatness"]["leading_deviation"] == "-1/14400"
    # the diagonal Budak member at gamma = 1/2 is the same all-pass
    budak = run_json(capsys, ["analyze", "--source", "budak:3,3,1/2", "--json"])
    assert budak["magnitude_flatness"] == payload["magnitude_flatness"]
    assert budak["transfer_function"] == payload["transfer_function"]


def test_all_pass_magnitude_is_exactly_constant_plain(capsys):
    code, out, err = run(capsys, ["analyze", "--source", "pade:3,3"])
    assert code == 0, err
    lines = out.splitlines()
    assert lines[2] == "delay flatness: order 3, value at origin 1, leading deviation -1/14400"
    assert lines[3] == "magnitude flatness: exactly constant, value at origin 1"


def test_pade_analyze_all_pass(capsys):
    code, out, err = run(capsys, ["pade", "--n", "4", "--m", "4", "--analyze"])
    assert code == 0, err
    assert "magnitude flatness: exactly constant, value at origin 1" in out.splitlines()
    assert "delay flatness: order 4, value at origin 1, leading deviation -1/2822400" in out


def test_constant_denominator_is_vacuously_hurwitz_json(capsys):
    # no poles: StrictHurwitz with the constant as the whole first column
    stability = {
        "verdict": "StrictHurwitz",
        "routh_first_column": ["1"],
        "sign_changes": 0,
        "degenerate_rows": [],
    }
    payload = run_json(capsys, ["analyze", "--source", "pade:0,3", "--json"])
    assert payload["transfer_function"]["den"] == ["1"]
    assert payload["stability"] == stability
    assert payload["delay_flatness"]["order"] == 2
    assert payload["delay_flatness"]["leading_deviation"] == "1/6"
    assert payload["magnitude_flatness"]["order"] == 2
    assert payload["magnitude_flatness"]["leading_deviation"] == "-1/12"
    assert payload["minimum_phase"] is False
    payload = run_json(capsys, ["pade", "--n", "0", "--m", "0", "--analyze", "--json"])
    assert payload["transfer_function"]["rendered"] == "1 / 1"
    assert payload["stability"] == stability
    assert payload["delay_flatness"]["order"] is None
    assert payload["magnitude_flatness"]["order"] is None
    assert payload["minimum_phase"] is True


def test_constant_denominator_is_vacuously_hurwitz_plain(capsys):
    code, out, err = run(capsys, ["analyze", "--source", "pade:0,3"])
    assert code == 0, err
    assert out.splitlines() == [
        "transfer function: (-1/6 s^3 + 1/2 s^2 - s + 1) / 1",
        "stability: StrictHurwitz (first column 1; sign changes 0)",
        "delay flatness: order 2, value at origin 1, leading deviation 1/6",
        "magnitude flatness: order 2, value at origin 1, leading deviation -1/12",
        "minimum phase: no",
    ]
    code, out, err = run(capsys, ["pade", "--n", "0", "--m", "0", "--analyze"])
    assert code == 0, err
    assert out.splitlines() == [
        "transfer function: 1 / 1",
        "stability: StrictHurwitz (first column 1; sign changes 0)",
        "delay flatness: exactly constant, value at origin 0",
        "magnitude flatness: exactly constant, value at origin 1",
        "minimum phase: yes",
    ]


def test_budak_analyze_json(capsys):
    payload = run_json(
        capsys, ["budak", "--m", "2", "--n", "3", "--gamma", "2", "--json"]
    )
    assert payload["command"] == "budak"
    assert payload["provenance"] == {
        "family": "budak",
        "m": 2,
        "n": 3,
        "gamma": "2",
    }
    assert payload["delay_flatness"]["order"] == 2
    assert payload["magnitude_flatness"]["order"] == 1
    assert payload["minimum_phase"] is True
    assert payload["stability"]["verdict"] == "StrictHurwitz"


def test_budak_nonminimum_phase_below_one(capsys):
    payload = run_json(
        capsys, ["budak", "--m", "2", "--n", "3", "--gamma", "2/3", "--json"]
    )
    assert payload["minimum_phase"] is False
    # gamma = 1/2 gives the numerator 1 - s, a zero at s = 1
    payload = run_json(capsys, ["analyze", "--source", "budak:1,2,1/2", "--json"])
    assert payload["minimum_phase"] is False


@pytest.mark.parametrize(
    "num, want",
    [
        ([1, 0, 0, 1], False),  # s^3+1: one sign, but a right-half-plane pair
        ([1, 0, 1], True),  # s^2+1: Marginal
        ([1, 2, 1], True),  # (s+1)^2
        (["-1/2", -1, "-1/2"], True),  # -(s+1)^2/2: one sign, negative
        ([1, -1], False),  # 1-s: both signs
        ([1, 0, -1, 0, 1], False),  # s^4-s^2+1: both signs, roots at +-e^(+-j*pi/6)
    ],
)
def test_minimum_phase_matches_the_routh_array(tmp_path, capsys, num, want):
    # over (s+2)^3: with (s+1)^3 the factor s+1 of s^3+1 would cancel
    path = tmp_path / "tf.json"
    path.write_text(json.dumps({"num": num, "den": [8, 12, 6, 1]}))
    spec = f"file:{path}"
    assert run_json(capsys, ["analyze", "--source", spec, "--json"])["minimum_phase"] is want
    tf, _ = source_tf(spec)
    assert cli.minimum_phase(tf) is _oracles.routh_minimum_phase(tf) is want


def test_budak_gamma_flag_exclusivity(capsys):
    code, _, err = run(capsys, ["budak", "--m", "2", "--n", "3"])
    assert code == 2
    code, _, err = run(
        capsys,
        ["budak", "--m", "2", "--n", "3", "--gamma", "2", "--order2-gamma"],
    )
    assert code == 2


def test_budak_bad_gamma(capsys):
    code, _, _ = run(capsys, ["budak", "--m", "2", "--n", "3", "--gamma", "-1"])
    assert code == 2
    code, _, _ = run(capsys, ["budak", "--m", "2", "--n", "3", "--gamma", "0"])
    assert code == 2
    code, _, err = run(capsys, ["budak", "--m", "3", "--n", "2", "--gamma", "1"])
    assert code == 2
    assert err == "error: need 0 <= m <= n and n >= 1\n"


def test_zero_denominator_arguments_are_usage_errors(capsys):
    for argv, name in (
        (["gbp", "--n", "3", "--alpha", "1/0", "--beta", "1"], "--alpha"),
        (["gbp", "--n", "3", "--alpha", "1", "--beta", "2/0"], "--beta"),
        (["budak", "--m", "1", "--n", "3", "--gamma", "1/0"], "--gamma"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"argument {name}: invalid Fraction value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gbp", "--n", "1", "--alpha", "1e1000000", "--beta", "1"], "argument --alpha: invalid Fraction value: '1e1000000'"),
        (["gbp", "--n", "1", "--alpha", "1", "--beta=-1e-4301"], "argument --beta: invalid Fraction value: '-1e-4301'"),
        (["budak", "--m", "1", "--n", "2", "--gamma", "1E+1_000_000"], "argument --gamma: invalid Fraction value"),
        (
            ["analyze", "--source", "budak:1,2,1e1000000"],
            "bad source spec 'budak:1,2,1e1000000': invalid Fraction value: '1e1000000'",
        ),
        (
            ["sweep", "--omega-max", "1", "--points", "3", "--source", "budak:1,2,1e1000000"],
            "bad source spec 'budak:1,2,1e1000000': invalid Fraction value: '1e1000000'",
        ),
        (["analyze", "--source", "file:{big}"], 'bad coefficient in "num" of transfer-function file: '),
    ],
)
def test_a_decimal_exponent_beyond_4300_is_a_usage_error(tmp_path, capsys, argv, message):
    # 1e1000000 is a million-digit number; writing it out alone takes
    # minutes, so the literal is refused before it is formed
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"num": ["1", "1e1000000"], "den": [1, 1]}))
    start = time.perf_counter()
    code, out, err = outcome(capsys, [arg.format(big=big) for arg in argv])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert message in err and "Traceback" not in err


def test_a_decimal_exponent_of_4300_is_accepted(tmp_path, capsys):
    code, out, _ = run(capsys, ["gbp", "--n", "1", "--alpha", "1e4300", "--beta", "1"])
    assert (code, out) == (0, f"s + 1{'0' * 4300}\n")
    path = tmp_path / "tf.json"
    path.write_text(json.dumps({"num": ["1e-4300"], "den": [1, 1]}))
    payload = run_json(capsys, ["analyze", "--source", f"file:{path}", "--json"])
    assert payload["provenance"]["num"] == [f"1/1{'0' * 4300}"]


@pytest.mark.parametrize("argv", [["analyze"], ["sweep", "--omega-max", "1", "--points", "3"]])
def test_budak_source_with_a_zero_gamma_denominator_is_a_usage_error(capsys, argv):
    # the G field reads as --gamma does, with its wording
    code, _, err = run(capsys, [*argv, "--source", "budak:2,3,1/0"])
    assert code == 2
    assert "bad source spec 'budak:2,3,1/0': invalid Fraction value: '1/0'" in err
    assert "Fraction(1, 0)" not in err and "Traceback" not in err


def _argparse_reads_as_a_flag(token):
    """Whether this Python's argparse takes `token`, after an option that
    needs a value, for an option of its own. The argparse of Python 3.11
    does so for a negative p/q; a newer one may read it as the value, so
    the test asks argparse itself."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--x")
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parser.parse_args(["--x", token])
    except (argparse.ArgumentError, SystemExit):
        return True
    return False


@pytest.mark.parametrize("alpha, beta", [("1", "-1/2"), ("-3/4", "2"), ("-3/4", "-1/2")])
def test_negative_rational_arguments(capsys, alpha, beta):
    want = str(gbp_of(3, F(alpha), F(beta)))
    # the `=` form always reads a negative p/q as the option's value
    code, out, _ = run(capsys, ["gbp", "--n", "3", f"--alpha={alpha}", f"--beta={beta}"])
    assert code == 0
    assert out.strip() == want
    # the space form: where argparse takes -p/q for an option, a usage error
    argv = ["gbp", "--n", "3", "--alpha", alpha, "--beta", beta]
    if not any(map(_argparse_reads_as_a_flag, (alpha, beta))):
        assert run(capsys, argv)[:2] == (0, want + "\n")
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "expected one argument" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, command",
    [
        (["gbp", "--n", "3", "--alpha", "1", "--beta", "1"], "gbp"),
        (["pade", "--n", "3", "--m", "2"], "pade"),
        (["pade", "--n", "3", "--m", "2", "--analyze"], "pade"),
        (["budak", "--m", "2", "--n", "3", "--gamma", "7/3"], "budak"),
        (["budak", "--m", "2", "--n", "3", "--order2-gamma"], "budak-order2"),
        (["analyze", "--source", "pade:3,2"], "analyze"),
        (["compare", "--n", "3", "--m", "2"], "compare"),
    ],
)
def test_every_json_report_opens_with_its_version_and_command(capsys, argv, command):
    payload = run_json(capsys, [*argv, "--json"])
    assert list(payload.items())[:2] == [("report_version", 1), ("command", command)]


def test_budak_order2_plain(capsys, monkeypatch):
    monkeypatch.setenv("BESSELPADE_PRECISION", "4")
    code, out, _ = run(capsys, ["budak", "--m", "2", "--n", "3", "--order2-gamma"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(5+sqrt(15))/2 ≈ 4.436"
    assert lines[1] == "(5-sqrt(15))/2 ≈ 0.5635"
    assert lines[2] == "q(gamma) = 2 gamma^2 - 10 gamma + 5"


def test_budak_order2_json(capsys):
    payload = run_json(capsys, ["budak", "--m", "2", "--n", "3", "--order2-gamma", "--json"])
    assert payload["command"] == "budak-order2"
    assert payload["gamma_plus"]["surd"] == "(5+sqrt(15))/2"
    assert payload["gamma_plus"]["decimal"] == "4.43649167310"
    assert payload["gamma_minus"]["surd"] == "(5-sqrt(15))/2"
    assert payload["quadratic"]["coefficients_ascending"] == ["5", "-10", "2"]


def test_budak_order2_needs_m_below_n(capsys):
    code, _, _ = run(capsys, ["budak", "--m", "3", "--n", "3", "--order2-gamma"])
    assert code == 2


def test_analyze_sources_round_trip():
    for spec in ("pade:3,2", "budak:2,3,7/3", "bessel:4"):
        tf, provenance = source_tf(spec)
        assert tf_from_provenance(provenance) == tf
    with pytest.raises(ValueError, match="unknown provenance family 'orbit'"):
        tf_from_provenance({"family": "orbit"})


def test_analyze_file_source(tmp_path, capsys):
    path = tmp_path / "tf.json"
    path.write_text(json.dumps({"num": ["1"], "den": ["1", "1"]}))
    payload = run_json(capsys, ["analyze", "--source", f"file:{path}", "--json"])
    assert payload["provenance"]["family"] == "file"
    assert payload["delay_flatness"]["order"] == 1
    tf = tf_from_provenance(payload["provenance"])
    assert tf == TransferFunction(Polynomial([1]), Polynomial([1, 1]))


def _coefficient_strings(tf):
    return {
        "num": [str(c) for c in tf.numerator.coefficients],
        "den": [str(c) for c in tf.denominator.coefficients],
    }


def test_report_coefficients_read_as_str_of_their_fractions(tmp_path, capsys):
    # negative, zero and not in lowest terms as written
    path = tmp_path / "tf.json"
    path.write_text(json.dumps({"num": ["6/8", "-3", "0", "2/6"], "den": ["10/4", "1"]}))
    want = _coefficient_strings(source_tf(f"file:{path}")[0])
    assert want == {"num": ["3/4", "-3", "0", "1/3"], "den": ["5/2", "1"]}
    payload = run_json(capsys, ["analyze", "--source", f"file:{path}", "--json"])
    for block in ("provenance", "transfer_function"):
        assert {key: payload[block][key] for key in want} == want, block
    for n, m in ((0, 0), (3, 2), (12, 11)):
        payload = run_json(capsys, ["pade", "--n", str(n), "--m", str(m), "--json"])
        want = _coefficient_strings(source_tf(f"pade:{n},{m}")[0])
        assert {key: payload["transfer_function"][key] for key in want} == want, (n, m)


@pytest.mark.parametrize(
    "den, stability, line",
    [
        # s^4 + 1: a zero pivot in row 2 ends the column at 0
        (
            [1, 0, 0, 0, 1],
            {
                "verdict": "NotHurwitz",
                "routh_first_column": ["1", "4", "0"],
                "sign_changes": 2,
                "degenerate_rows": [2],
            },
            "stability: NotHurwitz (first column 1, 4, 0; sign changes 2)",
        ),
        # (s + 1)(s^2 + 4): a zero row in row 2, replaced by a derivative
        (
            [4, 4, 1, 1],
            {
                "verdict": "Marginal",
                "routh_first_column": ["1", "1", "2", "4"],
                "sign_changes": 0,
                "degenerate_rows": [2],
            },
            "stability: Marginal (first column 1, 1, 2, 4; sign changes 0)",
        ),
    ],
)
def test_analyze_prints_degenerate_stability_blocks(tmp_path, capsys, den, stability, line):
    path = tmp_path / "tf.json"
    path.write_text(json.dumps({"num": [1], "den": den}))
    payload = run_json(capsys, ["analyze", "--source", f"file:{path}", "--json"])
    assert payload["stability"] == stability
    code, out, err = run(capsys, ["analyze", "--source", f"file:{path}"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == line


def test_analyze_file_errors(tmp_path, capsys):
    code, _, _ = run(capsys, ["analyze", "--source", "file:/no/such/file.json"])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["analyze", "--source", f"file:{bad}"])
    assert code == 2
    assert "malformed transfer-function file" in err
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"num": ["1"]}))
    code, _, err = run(capsys, ["analyze", "--source", f"file:{incomplete}"])
    assert code == 2
    assert '"den"' in err
    for top in ([["1"], ["1", "1"]], "1", None):
        incomplete.write_text(json.dumps(top))
        code, out, err = run(capsys, ["analyze", "--source", f"file:{incomplete}"])
        assert (code, out) == (2, ""), top
        assert "JSON object" in err, err


def test_file_source_identically_zero_field(tmp_path, capsys):
    path = tmp_path / "zero.json"
    for field in ("num", "den"):
        for zero in ([], [0], ["0", 0.0, "0/3"]):
            path.write_text(json.dumps({"num": ["1"], "den": ["1", "1"], field: zero}))
            for argv in (["analyze"], ["sweep", "--omega-max", "1", "--points", "3"]):
                code, out, err = run(capsys, [*argv, "--source", f"file:{path}"])
                assert (code, out) == (2, ""), (field, zero, argv)
                assert f'"{field}"' in err and "identically zero" in err, err


def test_analyze_file_fields_must_be_arrays_of_numbers(tmp_path, capsys):
    path = tmp_path / "tf.json"
    # a string is not read as its characters, nor an object as its keys
    bad = ["12", {"0": 1, "1": 2}, None, True, 3, [[1], 1], [True], [None], ["abc"]]
    for field in ("num", "den"):
        for value in bad:
            data = {"num": ["1"], "den": ["1", "1"], field: value}
            path.write_text(json.dumps(data))
            code, out, err = run(capsys, ["analyze", "--source", f"file:{path}"])
            assert code == 2, (field, value)
            assert out == ""
            assert err.startswith("error:") and f'"{field}"' in err, err
    path.write_text(json.dumps({"num": [1, 0.5, "2/3"], "den": ["1", 1]}))
    payload = run_json(capsys, ["analyze", "--source", f"file:{path}", "--json"])
    assert payload["provenance"]["num"] == ["1", "1/2", "2/3"]


def test_analyze_file_coefficient_past_the_int_digit_limit(tmp_path, capsys):
    # 4400 digits: past CPython's default limit of 4300 for int <-> str
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    path = tmp_path / "big.json"
    path.write_text('{"num": [' + "7" * 4400 + '], "den": ["1", "2", 7]}')
    payload = run_json(capsys, ["analyze", "--source", f"file:{path}", "--json"])
    assert payload["provenance"]["num"] == ["1" * 4400]  # over the monic 7
    assert payload["provenance"]["den"] == ["1/7", "2/7", "1"]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_analyze_bad_specs(capsys):
    for spec in (
        "nope",
        "pade:3",
        "pade:a,b",
        "orbit:1",
        "budak:1,2",
        "pade:-1,2",
        "budak:1,2,0",
        "budak:3,2,1",
        "budak:2,3,1/0",
        "bessel:-1",
    ):
        code, _, err = run(capsys, ["analyze", "--source", spec])
        assert code == 2, spec
        assert "error:" in err


@pytest.mark.parametrize(
    "spec, form",
    [
        ("pade:3", "pade:N,M"),
        ("pade:3,2,1", "pade:N,M"),
        ("budak:1,2", "budak:M,N,G"),
        ("budak:1,2,3,4", "budak:M,N,G"),
        ("bessel:3,4", "bessel:N"),
    ],
)
def test_source_spec_with_the_wrong_field_count_names_its_form(capsys, spec, form):
    code, _, err = run(capsys, ["analyze", "--source", spec])
    assert code == 2
    assert f"bad source spec {spec!r}: expected {form}" in err
    assert "unpack" not in err and "Traceback" not in err


def test_analyze_degenerate_function_exits_1(tmp_path, capsys):
    # a zero or a pole at the origin leaves the phase undefined
    for name, tf, message in (
        ("origin_zero", {"num": ["0", "1"], "den": ["1", "1"]}, "zero at the origin"),
        ("origin_pole", {"num": [1], "den": [0, 1]}, "pole at the origin"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tf))
        code, _, err = run(capsys, ["analyze", "--source", f"file:{path}"])
        assert code == 1
        assert "error:" in err
        assert message in err, name


def test_sweep_stdout(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--source", "pade:3,2", "--omega-max", "2", "--points", "3"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "omega,magnitude,phase_rad,group_delay"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[3]) == pytest.approx(1.0)


def test_sweep_values_match_symbolic(capsys):
    from besselpade.pade import PadeIndex, pade_exp
    from besselpade.response import group_delay

    code, out, _ = run(
        capsys,
        ["sweep", "--source", "pade:3,2", "--omega-max", "3", "--points", "7"],
    )
    tf = pade_exp(PadeIndex(3, 2))
    ms = magnitude_squared(tf)
    gd = group_delay(tf)
    for line in out.splitlines()[1:]:
        w, mag, _, delay = (float(x) for x in line.split(",")[:4])
        assert mag * mag == pytest.approx(float(ms.value_at(F(w).limit_denominator(10**6) ** 2)), rel=1e-9)
        assert delay == pytest.approx(float(gd.value_at(F(w).limit_denominator(10**6) ** 2)), rel=1e-9)


def test_sweep_known_point(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--source", "pade:3,2", "--omega-max", "1", "--points", "2"],
    )
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[3]) == pytest.approx(1625793 / 1626050, rel=1e-15)
    assert float(last[1]) == pytest.approx(math.sqrt(3825 / 3826), rel=1e-15)


def test_sweep_file_output_atomic_lf(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        capsys,
        [
            "sweep",
            "--source",
            "bessel:4",
            "--omega-max",
            "2",
            "--points",
            "5",
            "--output",
            str(target),
        ],
    )
    assert code == 0
    assert out == ""
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "omega,magnitude,phase_rad,group_delay"
    assert len(lines) == 6
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".besselpade-")]
    assert leftovers == []


def test_sweep_unwritable_output_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    for target in (tmp_path / "missing" / "out.csv", tmp_path / "taken"):
        code, out, err = run(
            capsys,
            ["sweep", "--source", "pade:3,2", "--omega-max", "2", "--points", "5", "--output", str(target)],
        )
        assert code == 2, target
        assert out == ""
        assert err.startswith("error: cannot write output file:"), err
    assert list((tmp_path / "taken").iterdir()) == []
    leftovers = [p.name for p in tmp_path.rglob(".besselpade-*")]
    assert leftovers == []


def test_sweep_output_file_takes_the_umask(tmp_path, capsys):
    # a new file and a replaced one both get 0o666 minus the umask, the
    # mode a plain open(path, "w") gives a new file
    target = tmp_path / "out.csv"
    argv = ["sweep", "--source", "pade:2,1", "--omega-max", "1", "--points", "3", "--output", str(target)]
    old = os.umask(0o022)
    try:
        for _ in ("new", "replaced"):
            code, _, err = run(capsys, argv)
            assert code == 0, err
            assert target.stat().st_mode & 0o777 == 0o644
    finally:
        os.umask(old)
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_a_fresh_import_loads_neither_dataclasses_nor_inspect():
    # what `site` preloaded before the import is not the package's doing
    code = (
        "import sys; before = set(sys.modules); import besselpade.cli; "
        "besselpade.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_sweep_flags_pole_adjacent_rows(tmp_path, capsys):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps({"num": ["1"], "den": ["1", "0", "1"]}))
    code, out, _ = run(
        capsys,
        ["sweep", "--source", f"file:{path}", "--omega-max", "2", "--points", "3"],
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows[1].endswith(",pole-adjacent")
    assert "inf" in rows[1]
    assert not rows[0].endswith(",pole-adjacent")
    assert not rows[2].endswith(",pole-adjacent")


@pytest.mark.parametrize("den", [[0, 1], [0, 0, 1, 1]])
def test_sweep_of_a_pole_at_the_origin(tmp_path, capsys, den):
    # 1/s and 1/(s^2 (s + 1)): s^k in D adds the constant phase -k*pi/2,
    # so the delay off the origin is that of N over D without it
    path = tmp_path / "origin_pole.json"
    path.write_text(json.dumps({"num": [1], "den": den}))
    code, out, err = run(
        capsys,
        ["sweep", "--source", f"file:{path}", "--omega-max", "3", "--points", "7"],
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0] == ["0.0", "inf", "inf", "inf", "pole-adjacent"]
    tf, _ = source_tf(f"file:{path}")
    k = den.count(0)
    reduced = TransferFunction(tf.numerator, Polynomial(tf.denominator.coefficients[k:]))
    omegas = [float(row[0]) for row in rows[1:]]
    h = sample(tf, omegas)
    delay = sample(group_delay(reduced), omegas)
    for row, hp, dp in zip(rows[1:], h, delay):
        assert len(row) == 4, row
        assert not hp.pole_adjacent
        assert row[1:] == [repr(abs(hp.value)), repr(cmath.phase(hp.value)), repr(dp.value)]


@pytest.mark.parametrize("num", [[0, 1], [0, 0, 1, 1]])
def test_sweep_of_a_zero_at_the_origin(tmp_path, capsys, num):
    # s/(2s^2 + 2s + 1) and s^2 (s + 1)/(2s^2 + 2s + 1): s^k in N adds the
    # constant phase k*pi/2, so the delay, at the origin too, is that of N
    # without it over D; the omega = 0 row reads magnitude 0 and is not flagged
    path = tmp_path / "origin_zero.json"
    path.write_text(json.dumps({"num": num, "den": [1, 2, 2]}))
    code, out, err = run(
        capsys,
        ["sweep", "--source", f"file:{path}", "--omega-max", "3", "--points", "7"],
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][1] == "0.0"
    tf, _ = source_tf(f"file:{path}")
    k = num.count(0)
    reduced = TransferFunction(Polynomial(tf.numerator.coefficients[k:]), tf.denominator)
    omegas = [float(row[0]) for row in rows]
    h = sample(tf, omegas)
    delay = sample(group_delay(reduced), omegas)
    for row, hp, dp in zip(rows, h, delay):
        assert len(row) == 4, row
        assert not hp.pole_adjacent and math.isfinite(dp.value)
        assert row[1:] == [repr(abs(hp.value)), repr(cmath.phase(hp.value)), repr(dp.value)]


@pytest.mark.parametrize("c, omega_max", [("1e-12", "2e-6"), ("1e16", "2e8")])
def test_sweep_flags_frequency_scaled_poles(tmp_path, capsys, c, omega_max):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps({"num": ["1"], "den": [c, "0", "1"]}))
    code, out, _ = run(
        capsys,
        ["sweep", "--source", f"file:{path}", "--omega-max", omega_max, "--points", "5"],
    )
    assert code == 0
    flags = [line.endswith(",pole-adjacent") for line in out.splitlines()[1:]]
    assert flags == [False, False, True, False, False]


def test_sweep_csv_matches_fraction_horner_to_the_bit(capsys):
    points = 201
    for spec in ("pade:1,0", "pade:6,6", "pade:9,4", "bessel:8", "budak:2,4,3/2"):
        code, out, _ = run(
            capsys,
            ["sweep", "--source", spec, "--omega-max", "12.5", "--points", str(points)],
        )
        assert code == 0
        tf, _ = source_tf(spec)
        gd = group_delay(tf)
        want = ["omega,magnitude,phase_rad,group_delay"]
        for i in range(points):
            w = 12.5 * i / (points - 1)
            num, den = (complex(_oracles.fraction_horner(p, 1j * w)) for p in (tf.numerator, tf.denominator))
            h = num / den
            delay = float(
                _oracles.fraction_horner(gd.numerator, w * w)
                / _oracles.fraction_horner(gd.denominator, w * w)
            )
            want.append(f"{w!r},{abs(h)!r},{cmath.phase(h)!r},{delay!r}")
        assert out.splitlines() == want, spec


@pytest.mark.parametrize("spec", ["bessel:86", "bessel:120", "pade:61,60"])
def test_sweep_of_sources_beyond_the_float_range(capsys, spec):
    # group-delay coefficients reach 2^1030 (bessel:86) to 2^1569 (pade:61,60);
    # at omega = 35 the double Horner value of bessel:120 has four digits
    tf, _ = source_tf(spec)
    for omega_max, points in (("3", "4"), ("35", "2"), ("1000", "2")):
        code, out, err = run(
            capsys,
            ["sweep", "--source", spec, "--omega-max", omega_max, "--points", points],
        )
        assert code == 0, err
        for line in out.splitlines()[1:]:
            w, mag, phase, delay = (float(x) for x in line.split(","))
            with mp.workdps(60):
                h = _oracles.transfer_value(tf, w)
                ref_mag, ref_phase = float(abs(h)), float(mp.arg(h))
            ref_delay = _oracles.fd_group_delay(tf, w, h=mp.mpf("1e-20"), dps=60)
            assert mag == pytest.approx(ref_mag, rel=1e-9), (spec, w)
            assert abs(cmath.phase(cmath.rect(1.0, phase - ref_phase))) < 1e-9, (spec, w)
            assert delay == pytest.approx(ref_delay, rel=1e-9), (spec, w)


def test_sweep_phase_where_the_imaginary_part_underflows(capsys):
    # |H| falls to 1e-293 while the phase is about 36/omega, so Im H is
    # below the least double; the phase comes from the exact N*conj(D)
    tf, _ = source_tf("bessel:8")
    code, out, err = run(
        capsys, ["sweep", "--source", "bessel:8", "--omega-max", "1e39", "--points", "41"]
    )
    assert code == 0, err
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    old = _oracles.sample_sweep_rows(tf, 1e39, 41)
    assert len(rows) == len(old) == 41
    for (w, mag, phase, delay), (old_w, old_mag, old_phase, old_delay, _) in zip(rows, old):
        assert (w, mag, delay) == (old_w, old_mag, old_delay)
        if w == 0:
            assert phase == old_phase
            continue
        assert old_phase == 0.0 and phase != 0.0, w
        with mp.workdps(60):
            ref = mp.arg(_oracles.transfer_value(tf, w))
            assert abs((phase - ref) / ref) < 1e-12, w
    # an H that is real on the axis keeps the phase of the double H
    real = TransferFunction(Polynomial([1]), Polynomial([4, 0, 1]))
    for omega_max in (1.0, 40.0, 1e200):
        got = sweep_rows(real, omega_max, 9)
        assert repr(got) == repr(_oracles.sample_sweep_rows(real, omega_max, 9))



def test_sweep_phase_where_the_magnitude_overflows(capsys):
    # |H| of pade:2,14 and pade:0,12 leaves the double range below
    # omega = 1e31, and the double H is inf + inf*j, whose phase would
    # read pi/4; the phase comes from the exact N*conj(D)
    for spec in ("pade:2,14", "pade:0,12"):
        tf, _ = source_tf(spec)
        code, out, err = run(
            capsys, ["sweep", "--source", spec, "--omega-max", "3e31", "--points", "4"]
        )
        assert code == 0, err
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 4 and rows[0][0] == 0.0
        for w, mag, phase, _ in rows[1:]:
            assert mag == math.inf, (spec, w)
            with mp.workdps(60):
                ref = mp.arg(_oracles.transfer_value(tf, w))
                assert abs((phase - ref) / ref) < 1e-12, (spec, w)


def test_sweep_where_the_modulus_of_a_finite_value_overflows(capsys, tmp_path):
    # H(j) = 1.3e308 * (1 + j): both parts are doubles, |H| is not
    path = tmp_path / "tf.json"
    path.write_text(json.dumps({"num": ["1.3e308", "1.3e308"], "den": [1]}))
    code, out, err = run(
        capsys, ["sweep", "--source", f"file:{path}", "--omega-max", "1", "--points", "2"]
    )
    assert code == 0, err
    assert out.splitlines() == [
        "omega,magnitude,phase_rad,group_delay",
        "0.0,1.3e+308,0.0,-1.0",
        "1.0,inf,0.7853981633974483,-0.5",
    ]


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # as in `besselpade sweep ... | head`: the reader closes the pipe
    # before the command writes. Block-buffered, as stdout into a pipe is
    # by default, the output fails at the flush; unbuffered, at a write.
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env["PYTHONUNBUFFERED"] = unbuffered  # empty counts as unset
    for argv in (
        ["analyze", "--source", "pade:3,2", "--json"],
        ["sweep", "--source", "bessel:3", "--omega-max", "2", "--points", "5"],
        ["compare", "--n", "3", "--m", "2"],
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "besselpade.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1, (argv, err)
        assert err == "", (argv, err)

def axis_root_files(tmp_path):
    """file: specs of H with poles or zeros on the imaginary axis, whose
    delay products share a factor before reduction, and of H with a pole
    or a zero at the origin, whose delay is undefined."""
    pairs = {
        "zero_pair": ([1, 1, 1, 1], [8, 12, 6, 1]),  # (s^2+1)(s+1) / (s+2)^3
        "pole_pair": ([1], [4, 0, 1]),  # 1/(s^2+4)
        "constant_delay": ([1], [1, 0, 1]),  # 1/(s^2+1)
        "both": ([4, 0, 1], [1, 1, 1, 1]),
        "double_pair": ([3, 1, 6, 2, 3, 1], [1, 5, 10, 10, 5, 1]),
        "unstable": ([1, -1], [2, 1, 4, 2, 2, 1]),
        "fractions": (["1/3", "2/7", 1], ["5/2", 1, "1/9", 1]),
        "pole_at_origin": ([1], [0, 1]),
        "zero_at_origin": ([0, 1], [1, 1]),
    }
    specs = []
    for name, (num, den) in pairs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"num": num, "den": den}))
        specs.append(f"file:{path}")
    return specs


def test_analyze_matches_the_canonical_delay_route(tmp_path, capsys, monkeypatch):
    specs = [f"pade:{n},{m}" for n in range(13) for m in range(13)]
    specs += [f"bessel:{n}" for n in range(1, 21)]
    specs += [f"budak:{m},{n},{g}" for n in range(1, 9) for m in range(n + 1) for g in ("2/3", "2")]
    specs += axis_root_files(tmp_path)
    argvs = [["analyze", "--source", spec, *flag] for spec in specs for flag in (["--json"], [])]
    argvs += [["pade", "--n", "0", "--m", "0", "--analyze", "--json"]]
    got = [run(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "design_report", _oracles.canonical_design_report)
    want = [run(capsys, argv) for argv in argvs]
    for argv, g, w in zip(argvs, got, want):
        assert g == w, argv
    codes = [code for code, _, _ in got]
    assert codes.count(1) == 4 and codes.count(0) == len(argvs) - 4
    delays = [
        json.loads(out)["delay_flatness"]
        for argv, (code, out, _) in zip(argvs, got)
        if code == 0 and "--json" in argv
    ]
    assert sum(d["order"] is None for d in delays) == 4  # pade:0,0 twice, 1/(s^2+a)


def test_sweep_usage_errors(capsys):
    code, _, _ = run(
        capsys, ["sweep", "--source", "pade:3,2", "--omega-max", "2", "--points", "1"]
    )
    assert code == 2
    code, _, _ = run(
        capsys, ["sweep", "--source", "pade:3,2", "--omega-max", "0", "--points", "5"]
    )
    assert code == 2
    code, _, _ = run(
        capsys, ["sweep", "--source", "pade:3,2", "--omega-max", "-2", "--points", "5"]
    )
    assert code == 2
    for omega_max in ("inf", "nan", "1e308"):
        code, _, _ = run(
            capsys,
            ["sweep", "--source", "pade:3,2", "--omega-max", omega_max, "--points", "5"],
        )
        assert code == 2, omega_max


def test_compare_table(capsys, monkeypatch):
    monkeypatch.setenv("BESSELPADE_PRECISION", "4")
    code, out, _ = run(capsys, ["compare", "--n", "3", "--m", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "variant",
        "delay_order",
        "magnitude_order",
        "minimum_phase",
        "stability",
    ]
    assert len(lines) == 5
    assert lines[1].startswith("pade(3,2)")
    assert "no" in lines[1] and "Stable" in lines[1]
    assert "gamma≈4.436" in lines[2] and "yes" in lines[2]
    assert "gamma≈0.5635" in lines[3] and "no" in lines[3]
    assert lines[4].startswith("bessel(3)") and "-" in lines[4]
    assert all(line == line.rstrip() for line in lines)


def test_compare_json(capsys):
    payload = run_json(capsys, ["compare", "--n", "3", "--m", "2", "--json"])
    rows = payload["rows"]
    assert [r["variant"] for r in rows] == ["pade", "budak", "budak", "bessel"]
    assert rows[0]["delay_order"] == 3 and rows[0]["magnitude_order"] == 3
    assert rows[0]["minimum_phase"] is False
    assert rows[1]["delay_order"] == 2 and rows[1]["magnitude_order"] == 2
    assert rows[1]["minimum_phase"] is True
    assert rows[1]["gamma_surd"] == "(5+sqrt(15))/2"
    assert rows[2]["minimum_phase"] is False
    assert rows[3]["delay_order"] == 3 and rows[3]["magnitude_order"] == 1
    assert rows[3]["minimum_phase"] is None
    assert all(r["stability"] == "StrictHurwitz" for r in rows)


@pytest.mark.parametrize("m", [15, 8])
def test_compare_at_the_paper_scale(capsys, m):
    payload = run_json(capsys, ["compare", "--n", "16", "--m", str(m), "--json"])
    budak = [r for r in payload["rows"] if r["variant"] == "budak"]
    assert len(budak) == 2
    assert all(r["magnitude_order"] == 2 and r["delay_order"] == m for r in budak)


def test_compare_requires_m_below_n(capsys):
    code, _, _ = run(capsys, ["compare", "--n", "3", "--m", "3"])
    assert code == 2


def test_precision_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("BESSELPADE_PRECISION", "x")
    code, _, err = run(capsys, ["pade", "--n", "1", "--m", "0"])
    assert code == 2
    monkeypatch.setenv("BESSELPADE_PRECISION", "0")
    code, _, _ = run(capsys, ["pade", "--n", "1", "--m", "0"])
    assert code == 2


def test_one_parser_parses_every_subcommand_twice():
    # build_parser() holds every subcommand, as main's fallback needs
    parser = build_parser()
    lines = [
        (["gbp", "--n", "3", "--alpha", "2", "--beta", "1/2"], {"n": 3, "alpha": F(2), "beta": F(1, 2)}),
        (["pade", "--n", "3", "--m", "2", "--analyze"], {"n": 3, "m": 2, "analyze": True, "json": False}),
        (["budak", "--m", "2", "--n", "3", "--gamma", "7/3"], {"gamma": F(7, 3), "order2_gamma": False}),
        (["analyze", "--source", "pade:3,2", "--json"], {"source": "pade:3,2", "json": True}),
        (["sweep", "--source", "bessel:3", "--omega-max", "2", "--points", "5"], {"omega_max": 2.0, "output": None}),
        (["compare", "--n", "3", "--m", "2"], {"n": 3, "m": 2, "json": False}),
    ]
    for _ in range(2):
        for argv, expected in lines:
            args = vars(parser.parse_args(argv))
            assert args["command"] == argv[0]
            assert {key: args[key] for key in expected} == expected, argv


@pytest.mark.parametrize("columns", ["70", "71"])
def test_subcommand_help_lists_its_options_at_the_terminal_width(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for option in ["--source SOURCE", "--omega-max OMEGA_MAX", "--points POINTS", "--output OUTPUT"]:
        assert option in out
    # help text starts at column 24 and wraps at the terminal width less
    # two, so the 45-character source help fits on one line from 71 on
    assert ("pade:N,M | budak:M,N,G | bessel:N | file:PATH" in out) == (columns == "71")


SUBCOMMANDS = {
    "gbp": ("construct a generalized Bessel polynomial", ["--n N", "--alpha ALPHA", "--beta BETA", "--json"]),
    "pade": ("(n,m) delay approximant", ["--n N", "--m M", "--analyze", "--json"]),
    "budak": (
        "two-sided scaled-Bessel approximant",
        ["--m M", "--n N", "--gamma GAMMA", "--order2-gamma", "--json"],
    ),
    "analyze": ("full report for a transfer function source", ["--source SOURCE", "--json"]),
    "sweep": (
        "CSV frequency sweep",
        ["--source SOURCE", "--omega-max OMEGA_MAX", "--points POINTS", "--output OUTPUT"],
    ),
    "compare": ("side-by-side approximant table", ["--n N", "--m M", "--json"]),
}


def exit_of(capsys, argv):
    """The exit code, stdout and stderr of a command line that exits."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help_lists_every_subcommand(capsys, monkeypatch, flag):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = exit_of(capsys, [flag])
    assert (code, err) == (0, "")
    assert out.startswith("usage: besselpade [-h] {gbp,pade,budak,analyze,sweep,compare} ...\n")
    for name, (summary, _) in SUBCOMMANDS.items():
        assert any(line.split() == [name, *summary.split()] for line in out.splitlines()), name


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_lists_each_option(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = exit_of(capsys, [name, "-h"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: besselpade {name} [-h] ")
    for option in ["-h, --help", *SUBCOMMANDS[name][1]]:
        assert any(line.strip().startswith(option) for line in out.splitlines()), option


def test_unknown_subcommand_is_an_invalid_choice(capsys):
    code, out, err = exit_of(capsys, ["nosuch"])
    assert (code, out) == (2, "")
    assert "invalid choice: 'nosuch'" in err
    assert all(f"'{name}'" in err.split("choose from", 1)[1] for name in SUBCOMMANDS)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus"],
        ["--", "analyze", "--source", "pade:3,2"],
        ["analyze"],
        ["analyze", "-hx"],
        ["analyze", "--source"],
        ["analyze", "--source", "pade:3,2", "extra"],
        ["analyze", "--source", "pade:3,2", "--bogus"],
        ["analyze", "--source", "pade:3,2", "--", "x"],
        ["gbp", "--n", "3", "--alpha", "1", "--beta", "-1/2"],
        ["gbp", "--n", "x", "--alpha", "1", "--beta", "1"],
        ["sweep", "--source", "bessel:3", "--omega-max", "2"],
        ["compare", "--n", "3", "--m", "2", "compare"],
    ],
)
def test_main_exits_as_the_full_parser_does(capsys, monkeypatch, argv):
    # main parses a line that names a subcommand with that subcommand's
    # parser alone; help, errors and leftovers must read as from the full one
    monkeypatch.setenv("COLUMNS", "100")
    got = exit_of(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert got == (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_missing_required_argument_prints_the_subcommand_usage(capsys, name):
    code, out, err = exit_of(capsys, [name])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: besselpade {name} ")
    assert f"besselpade {name}: error: the following arguments are required: " in err


def test_repeated_calls_carry_nothing_over(tmp_path, capsys, monkeypatch):
    # main may be called repeatedly in one process: the same lines in
    # either order must give the same results
    monkeypatch.setenv("COLUMNS", "100")
    csv = tmp_path / "out.csv"
    sweep = ["sweep", "--source", "bessel:3", "--omega-max", "2", "--points", "5"]
    lines = [
        ["analyze", "--source", "pade:3,2", "--json"],
        ["analyze", "--source", "pade:3,2"],
        ["budak", "--m", "2", "--n", "3", "--gamma", "7/3"],
        ["budak", "--m", "2", "--n", "3", "--order2-gamma"],
        [*sweep, "--output", str(csv)],
        ["analyze", "--json"],
        sweep,
        ["pade", "--n", "3", "--m", "2", "--analyze", "--json"],
        ["pade", "--n", "3", "--m", "2"],
    ]

    def results(order):
        out = {}
        for i in order:
            out[i] = outcome(capsys, lines[i])
            if csv.exists():
                out[i] += (csv.read_text(),)
                csv.unlink()
        return out

    forward = results(range(len(lines)))
    assert forward == results(reversed(range(len(lines))))
    assert not forward[1][1].startswith("{") and forward[0][1].startswith("{")
    assert forward[4][1] == "" and forward[4][3] == forward[6][1]
    assert forward[5][0] == 2 and "required: --source" in forward[5][2]
    # help wraps at the terminal width of each call
    for columns in ("71", "70", "71"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = outcome(capsys, ["sweep", "-h"])
        assert code == 0
        assert ("pade:N,M | budak:M,N,G | bessel:N | file:PATH" in out) == (columns == "71")


def test_main_answers_fuzzed_lines_as_a_fresh_full_parser_does(tmp_path, capsys, monkeypatch):
    # every line the full parser rejects or answers with help must read the
    # same from main, which parses a line that names a subcommand with that
    # subcommand's parser alone; each line runs at two terminal widths
    monkeypatch.chdir(tmp_path)  # where an --output a line names would go
    rng = random.Random(35)
    names = [*SUBCOMMANDS, "bogus"]
    first = [*names, *SUBCOMMANDS, "-h", "--"]  # most lines name a subcommand
    options = sorted({option.split()[0] for _, opts in SUBCOMMANDS.values() for option in opts})
    tokens = [*names, *options, "-h", "--", "3", "x", "-1/2", "1/0", "pade:3,2"]
    checked = 0
    for _ in range(400):
        argv = [rng.choice(first)] + rng.choices(tokens, k=rng.randint(0, 6))
        for columns in rng.sample(["70", "71", "100"], 2):
            monkeypatch.setenv("COLUMNS", columns)
            try:
                build_parser().parse_args(argv)
            except SystemExit as exc:
                want = (exc.code, *capsys.readouterr())
            else:
                break
            assert exit_of(capsys, argv) == want, (argv, columns)
            checked += 1
    assert checked > 600
