"""Exit codes, report formats, and determinism of the command-line surface."""

import json
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner
from mpmath import mp

from ltwist import errors
from ltwist.cli import SuiteResult, main
from ltwist.zeros import lambda_complete, report_jsonl, scan_zeros

FIXTURE = str(resources.files("ltwist") / "fixtures" / "level1_even.form")


@pytest.fixture()
def runner():
    return CliRunner()


def body_lines(output):
    """Report body: everything except '# ' commentary (timings live there)."""
    return [ln for ln in output.splitlines() if not ln.startswith("# ")]


# ---------------------------------------------------------------------------
# verify suites


@pytest.mark.parametrize("suite", ["specfun", "dirichlet", "identities",
                                   "reductions"])
def test_verify_suites_pass(runner, suite):
    result = runner.invoke(main, ["verify", suite])
    assert result.exit_code == 0
    assert "result: PASS" in result.output


def test_verify_jsonl_schema(runner):
    result = runner.invoke(main, ["verify", "dirichlet", "--format", "jsonl"])
    assert result.exit_code == 0
    rows = [json.loads(ln) for ln in body_lines(result.output)]
    cases, summary, recheck = rows[:-2], rows[-2], rows[-1]
    assert all(r["pass"] for r in cases)
    assert summary["suite"] == "dirichlet"
    assert summary["passed"] == summary["cases"] == len(cases)
    assert recheck["recheck_bits"] == 256 and recheck["pass"]


def test_verify_csv_header(runner):
    result = runner.invoke(main, ["verify", "reductions", "--format", "csv"])
    assert result.exit_code == 0
    rows = body_lines(result.output)
    assert rows[0] == "case,anchor,residual,tol,status"
    assert all(row.endswith(",pass") for row in rows[1:])


def test_verify_unknown_suite_is_usage_error(runner):
    assert runner.invoke(main, ["verify", "nosuch"]).exit_code == 2


def test_suite_result_invariant():
    with pytest.raises(ValueError):
        SuiteResult("s", 1, 2, 0.0, "c", 0.0)


# ---------------------------------------------------------------------------
# form check


def test_form_check_passes_on_fixture(runner):
    result = runner.invoke(main, ["form", "check", FIXTURE])
    assert result.exit_code == 0
    assert "result: PASS" in result.output
    assert "provenance:" in result.output


def test_form_check_detects_tampered_coefficient(runner, tmp_path):
    lines = Path(FIXTURE).read_text().splitlines()
    idx = lines.index(next(ln for ln in lines if ln.startswith("2 ")))
    value = float(lines[idx].split()[1])
    lines[idx] = f"2 {value + 0.01:.12f}"
    bad = tmp_path / "tampered.form"
    bad.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["form", "check", str(bad)])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_form_check_rejects_coefficient_bound_violation(runner, tmp_path):
    lines = Path(FIXTURE).read_text().splitlines()
    idx = lines.index(next(ln for ln in lines if ln.startswith("2 ")))
    lines[idx] = "2 3.0"
    bad = tmp_path / "outofbound.form"
    bad.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["form", "check", str(bad)])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# eval


def test_eval_lambda_matches_library(runner, form_even, ctx):
    result = runner.invoke(main, ["eval", "lambda", "--s", "3,0",
                                  "--form", FIXTURE])
    assert result.exit_code == 0
    with ctx.workprec():
        expected = lambda_complete(form_even, mp.mpf(3), ctx).mpc(ctx)
        assert f"value={mp.nstr(expected, 20)}" in result.output


def test_eval_requires_form(runner):
    assert runner.invoke(main, ["eval", "lambda", "--s", "1,1"]).exit_code == 2


def test_eval_series_certified_tail_exceeds_budget(runner):
    result = runner.invoke(main, ["eval", "series", "--s", "3,0",
                                  "--form", FIXTURE])
    assert result.exit_code == 3
    assert "inconclusive" in result.output


def test_eval_series_with_loose_budget(runner):
    result = runner.invoke(main, ["eval", "series", "--s", "3,0",
                                  "--tol", "1e-6", "--form", FIXTURE])
    assert result.exit_code == 0
    assert "tail<=" in result.output


def test_eval_twist_flag_needs_alpha(runner):
    result = runner.invoke(main, ["eval", "series", "--s", "4,0",
                                  "--j", "1", "--form", FIXTURE])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# zeros scan


def test_zeros_scan_jsonl_matches_module(runner, form_even, ctx):
    result = runner.invoke(main, ["zeros", "scan", "--t0", "0", "--t1", "3",
                                  "--step", "0.25", "--form", FIXTURE,
                                  "--format", "jsonl"])
    assert result.exit_code == 0
    body = "".join(ln + "\n" for ln in body_lines(result.output))
    assert body == report_jsonl(scan_zeros(form_even, 0.0, 3.0, 0.25, ctx))


@pytest.mark.parametrize("t0, t1, code, zeros", [
    ("24", "26", 0, [25.43930000450789]),
    ("38", "40", 3, []),
])
def test_zeros_scan_stops_at_the_data_floor(runner, t0, t1, code, zeros):
    """Above t ~ 37 the even fixture's split Lambda no longer matches
    gamma L at the strip's corners, so the scan is inconclusive instead of
    certifying a zero-free window; below, its zero is still certified."""
    result = runner.invoke(main, ["zeros", "scan", "--t0", t0, "--t1", t1,
                                  "--form", FIXTURE, "--format", "jsonl"])
    assert result.exit_code == code
    found = [json.loads(ln)["t"] for ln in body_lines(result.output)
             if ln.startswith("{")]
    assert found == zeros


def test_threads_flag_never_changes_values(runner):
    args = ["eval", "lambda", "--s", "1.5,2", "--form", FIXTURE]
    one = runner.invoke(main, args + ["--threads", "1"])
    four = runner.invoke(main, args + ["--threads", "4"])
    assert one.exit_code == four.exit_code == 0
    assert body_lines(one.output) == body_lines(four.output)


def test_precision_env_and_flag(runner):
    args = ["eval", "lambda", "--s", "1,1", "--form", FIXTURE]
    via_env = runner.invoke(main, args, env={"LTWIST_PREC": "96"})
    assert "bits=96" in via_env.output
    flag_wins = runner.invoke(main, args + ["--prec", "160"],
                              env={"LTWIST_PREC": "96"})
    assert "bits=160" in flag_wins.output


# ---------------------------------------------------------------------------
# twist / rs / taylor


def test_twist_decompose(runner):
    result = runner.invoke(main, ["twist", "decompose", "--q", "5",
                                  "--s", "3,0", "--form", FIXTURE])
    assert result.exit_code == 0
    assert "status=pass" in result.output


def test_twist_decompose_rejects_composite_modulus(runner):
    result = runner.invoke(main, ["twist", "decompose", "--q", "4",
                                  "--s", "3,0", "--form", FIXTURE])
    assert result.exit_code == 2


def test_rs_average(runner):
    result = runner.invoke(main, ["rs", "--x", "10000", "--form", FIXTURE])
    assert result.exit_code == 0
    assert "status=ok" in result.output
    assert "first_small_prime=2" in result.output


def test_rs_beyond_table_is_usage_error(runner):
    result = runner.invoke(main, ["rs", "--x", "30000", "--form", FIXTURE])
    assert result.exit_code == 2


def test_taylor_command(runner):
    result = runner.invoke(main, ["taylor", "--alpha", "1/5", "--T", "3",
                                  "--y", "0.025", "--form", FIXTURE])
    assert result.exit_code == 0
    assert "status=pass" in result.output


def test_taylor_rejects_height_out_of_range(runner):
    result = runner.invoke(main, ["taylor", "--alpha", "1/5", "--T", "1",
                                  "--y", "0.2", "--form", FIXTURE])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# exit-code contract


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.LtwistError)),
    key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_exits_2_or_3(runner, monkeypatch, cls):
    """Exit 1 means "residual exceeded its threshold"; no library error may
    escape as a traceback and read as that."""
    exc = cls(7, "synthetic") if cls is errors.ParseError else cls("synthetic")

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr("ltwist.cli.lambda_complete", boom)
    result = runner.invoke(main, ["eval", "lambda", "--s", "1,1",
                                  "--form", FIXTURE])
    assert result.exit_code in (2, 3)


def test_pole_sample_error_asks_for_resample(runner, monkeypatch):
    def boom(*args, **kwargs):
        raise errors.PoleSampleError("sample hits a pole; resample")

    monkeypatch.setattr("ltwist.cli.lambda_complete", boom)
    result = runner.invoke(main, ["eval", "lambda", "--s", "1,1",
                                  "--form", FIXTURE])
    assert result.exit_code == 3
