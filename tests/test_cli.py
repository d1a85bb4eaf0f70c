"""End-to-end runs of the command line interface.

Each test runs the source tree's CLI as ``python -m hadamard_rect.cli`` in a
subprocess, with this repository's ``src/`` put first on ``PYTHONPATH``, so
the suite checks the code it sits next to and needs no install. Only
``test_installed_console_script_matches_golden_bytes`` needs the package
installed: it runs the ``hadamard-rect`` console script and is skipped where
that script is not on ``PATH``.

SOURCE_DATE_EPOCH is stripped from the environment so every report carries a
null timestamp and byte-level comparisons are meaningful.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
CLI = [sys.executable, "-m", "hadamard_rect.cli"]
GOLDEN_BOUND_ARGS = ("bound", "--theorem", "t1", "--catalog", "u2v2",
                     "--rect", "0,2,0,1", "--s", "0.5", "--format", "json")


def cli_env(**overrides):
    """The caller's environment with ``src/`` first on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if k != "SOURCE_DATE_EPOCH"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env.update(overrides)
    return env


def run_cli(*args):
    return subprocess.run([*CLI, *args],
                          capture_output=True, text=True, env=cli_env())


# ---------------------------------------------------------------------------
# reports and byte-stability
# ---------------------------------------------------------------------------

def test_bound_report_matches_golden_bytes():
    res = run_cli(*GOLDEN_BOUND_ARGS)
    assert res.returncode == 0
    golden = (DATA / "golden_bound_report.json").read_text()
    assert res.stdout == golden


@pytest.mark.skipif(shutil.which("hadamard-rect") is None,
                    reason="hadamard-rect console script is not installed")
def test_installed_console_script_matches_golden_bytes():
    env = {k: v for k, v in os.environ.items() if k != "SOURCE_DATE_EPOCH"}
    res = subprocess.run(["hadamard-rect", *GOLDEN_BOUND_ARGS],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
    golden = (DATA / "golden_bound_report.json").read_text()
    assert res.stdout == golden


def test_source_date_epoch_pins_timestamp():
    env = cli_env(SOURCE_DATE_EPOCH="0")
    res = subprocess.run([*CLI, "bound", "--catalog", "uv",
                          "--format", "json"],
                         capture_output=True, text=True, env=env)
    assert json.loads(res.stdout)["timestamp"] == "1970-01-01T00:00:00+00:00"


def test_out_writes_report_file(tmp_path):
    target = tmp_path / "report.json"
    res = run_cli("bound", "--catalog", "uv", "--out", str(target),
                  "--format", "json")
    assert res.returncode == 0
    assert f"report written to {target}" in res.stdout
    assert json.loads(target.read_text())["command"] == "bound"


def test_out_to_unwritable_path_is_a_usage_failure(tmp_path):
    res = run_cli("bound", "--catalog", "uv",
                  "--out", str(tmp_path / "missing" / "report.json"))
    assert res.returncode == 2
    assert "error:" in res.stderr


# ---------------------------------------------------------------------------
# lemma
# ---------------------------------------------------------------------------

def test_lemma_identity_holds():
    res = run_cli("lemma", "--fn", "u^2*v^2+u*v", "--rect", "0.5,2.5,1,3")
    assert res.returncode == 0


def test_lemma_negative_coordinates_are_fine():
    res = run_cli("lemma", "--catalog", "uv", "--rect=-1,1,-0.5,0.5")
    assert res.returncode == 0


def test_lemma_verbatim_misses_on_off_unit_rect():
    res = run_cli("lemma", "--catalog", "const", "--rect", "0,2,0,1",
                  "--mode", "verbatim", "--format", "json")
    assert res.returncode == 1
    body = json.loads(res.stdout)
    assert body["results"][0]["residual"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_t3_both_constants_yields_two_rows():
    res = run_cli("bound", "--theorem", "t3", "--catalog", "u2v2",
                  "--q", "2", "--t3-constant", "both", "--format", "json")
    assert res.returncode == 0
    rows = json.loads(res.stdout)["results"]
    assert [r["params"]["constant"] for r in rows] == ["verbatim", "sharpened"]


def test_bound_corner_and_midpoint_specializations():
    res = run_cli("bound", "--theorem", "c1_2", "--catalog", "uv",
                  "--rect", "0,2,0,1", "--s", "1", "--format", "json")
    row = json.loads(res.stdout)["results"][0]
    assert row["theorem"] == "c1_2"
    assert row["params"]["corner"] == "bd"
    res = run_cli("bound", "--theorem", "mid", "--catalog", "uv",
                  "--format", "json")
    assert json.loads(res.stdout)["results"][0]["theorem"] == "c1_mid"


def test_bound_certify_records_hypothesis():
    res = run_cli("bound", "--catalog", "uv", "--certify", "--format", "json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["results"][0]["hypothesis_certified"] is True


def test_bound_csv_output():
    res = run_cli("bound", "--catalog", "uv", "--format", "csv")
    lines = res.stdout.splitlines()
    assert lines[0] == "theorem,constant,lhs,rhs,margin,holds"
    assert len(lines) == 2
    assert lines[1].startswith("t1,")


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def test_chain_flat_case_values():
    res = run_cli("chain", "--catalog", "uv", "--s", "1", "--format", "json")
    assert res.returncode == 0
    rows = json.loads(res.stdout)["results"]
    assert len(rows) == 5
    for row in rows:
        assert row["value"] == pytest.approx(0.25, abs=1e-12)


def test_chain_certify_rejects_negative_rect():
    res = run_cli("chain", "--catalog", "uv", "--rect=-1,1,0,1", "--certify")
    assert res.returncode == 2
    assert "error:" in res.stderr


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_gap_csv_shape_and_determinism():
    args = ("scan", "--scan-kind", "gap", "--theorem", "t1", "--catalog", "uv",
            "--rect", "0,2,0,1", "--s", "1", "--grid", "8", "--format", "csv")
    one = run_cli(*args)
    two = run_cli(*args)
    assert one.returncode == 0
    assert one.stdout == two.stdout
    lines = one.stdout.splitlines()
    assert lines[0] == "x,y,lhs,rhs,margin"
    assert len(lines) == 1 + 81


def test_scan_gap_json_summary_consistent_with_rows():
    res = run_cli("scan", "--scan-kind", "gap", "--theorem", "t1",
                  "--catalog", "uv", "--rect", "0,2,0,1", "--s", "1",
                  "--grid", "4", "--format", "json")
    body = json.loads(res.stdout)
    margins = [row["margin"] for row in body["results"]]
    assert min(margins) == pytest.approx(body["summary"]["min_margin"])


def test_scan_sweep_trend():
    res = run_cli("scan", "--scan-kind", "sweep", "--theorem", "t1",
                  "--catalog", "uv", "--rect", "0,2,0,1",
                  "--s", "0.25,0.5,1", "--format", "json")
    assert res.returncode == 0
    body = json.loads(res.stdout)
    assert body["summary"]["rhs_trend"] == "decreasing"
    assert len(body["results"]) == 3


def test_scan_compare_requires_q():
    res = run_cli("scan", "--scan-kind", "compare", "--catalog", "uv")
    assert res.returncode == 2
    res = run_cli("scan", "--scan-kind", "compare", "--catalog", "u2v2",
                  "--s", "0.5", "--q", "2", "--format", "json")
    assert res.returncode == 0
    body = json.loads(res.stdout)
    assert len(body["results"]) == 4
    assert body["summary"]["tightest_family"]


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

CFG = """\
# defaults shared by the walkthrough
theorem = t1
catalog = u2v2
rect = 0,2,0,1
s = 0.5
format = json
"""


def test_config_file_equivalent_to_flags(tmp_path):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(CFG)
    via_cfg = run_cli("bound", "--config", str(cfg))
    via_flags = run_cli("bound", "--theorem", "t1", "--catalog", "u2v2",
                        "--rect", "0,2,0,1", "--s", "0.5", "--format", "json")
    assert via_cfg.returncode == via_flags.returncode == 0
    assert via_cfg.stdout == via_flags.stdout


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(CFG)
    res = run_cli("bound", "--config", str(cfg), "--s", "1")
    assert json.loads(res.stdout)["results"][0]["params"]["s"] == 1.0


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("theorem = t1\nbogus = 3\n")
    res = run_cli("bound", "--config", str(cfg), "--catalog", "uv")
    assert res.returncode == 2
    assert "bogus" in res.stderr
    assert ":2" in res.stderr


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("lemma", "--catalog", "uv", "--rect", "0,0,0,1"),
    ("lemma", "--catalog", "nope"),
    ("lemma", "--fn", "u^^2"),
    ("lemma", "--fn", "u*v", "--catalog", "uv"),
    ("bound", "--catalog", "uv", "--point", "5,5"),
    ("bound", "--catalog", "uv", "--theorem", "t2"),          # t2 needs --q
    ("bound", "--catalog", "uv", "--s", "2"),
    ("scan", "--catalog", "uv", "--grid", "0"),
    ("chain", "--catalog", "uv", "--s", "0.5,1"),             # one s only
])
def test_usage_errors_exit_2(args):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr


@pytest.mark.parametrize("args", [
    ("bound", "--fn", "(u+v)^0.5*u", "--rect", "0,1,0,1", "--s", "0.5"),
    ("lemma", "--fn", "(u+v)^0.5*u", "--rect", "0,1,0,1"),
])
def test_non_finite_values_report_one_error_line_without_numpy_warnings(args):
    # the finite-difference mixed partial of (u+v)^0.5*u is NaN at (0, 0)
    res = run_cli(*args)
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    assert "Warning" not in res.stderr


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2
    assert run_cli("--help").returncode == 0
    assert run_cli("bound", "--help").returncode == 0


# ---------------------------------------------------------------------------
# acceptance suite subcommand (slow: runs every check)
# ---------------------------------------------------------------------------

def test_suite_passes_with_verbatim_exhibit():
    res = run_cli("suite", "--include-verbatim-identity")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert sum(ln.startswith("[PASS]") for ln in lines) == 9
    assert sum(ln.startswith("[KNOWN_TYPO]") for ln in lines) == 1
    assert any("expected-failure" in ln for ln in lines)


def test_suite_zero_tolerance_reports_failure():
    res = run_cli("suite", "--tol", "0")
    assert res.returncode == 1
    assert "[FAIL]" in res.stdout
