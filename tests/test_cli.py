"""End-to-end runs of the command line interface.

Each test runs the source tree's CLI as ``python -m hadamard_rect.cli`` in a
subprocess, with this repository's ``src/`` put first on ``PYTHONPATH``, so
the suite checks the code it sits next to and needs no install; one test
also calls ``cli.main`` in process and compares it with those runs. Only
``test_installed_console_script_matches_golden_bytes`` needs the package
installed: it runs the ``hadamard-rect`` console script and is skipped where
that script is not on ``PATH``.

SOURCE_DATE_EPOCH is stripped from the environment so every report carries a
null timestamp and byte-level comparisons are meaningful.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hadamard_rect import bounds, cli
from hadamard_rect.suite import CheckResult

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
# golden stdout and exit code of every report path
# ---------------------------------------------------------------------------

GOLDEN = DATA / "cli"
GAP_ARGS = ("scan", "--catalog", "uv", "--rect", "0,2,0,1", "--grid", "4")
SWEEP_ARGS = ("scan", "--scan-kind", "sweep", "--catalog", "uv", "--rect", "0,2,0,1",
              "--s", "0.25,0.5,1")
COMPARE_ARGS = ("scan", "--scan-kind", "compare", "--catalog", "u2v2", "--s", "0.5",
                "--q", "2")


def fn_gap_args(fn):
    return ("scan", "--fn", fn, "--rect", "0.5,2.5,1,3", "--grid", "12")


# case -> argv; stdout is cli/<case>.out, the exit code cli/exit_codes.json[case]
GOLDEN_CASES = {
    "lemma_exact": ("lemma", "--fn", "u^2*v^2+u*v", "--rect", "0.5,2.5,1,3",
                    "--point", "1,2"),
    "lemma_exact_json": ("lemma", "--fn", "u^2*v^2+u*v", "--rect", "0.5,2.5,1,3",
                         "--format", "json"),
    "lemma_verbatim": ("lemma", "--catalog", "const", "--rect", "0,2,0,1",
                       "--mode", "verbatim"),
    "lemma_verbatim_json": ("lemma", "--catalog", "const", "--rect", "0,2,0,1",
                            "--mode", "verbatim", "--tol", "0.75", "--format", "json"),
    "lemma_quadrature_csv": ("lemma", "--fn", "u^2.5*v^2.5", "--rect", "1,2,1,2",
                             "--format", "csv"),
    "bound_c1_2_csv": ("bound", "--theorem", "c1_2", "--catalog", "uv",
                       "--rect", "0,2,0,1", "--format", "csv"),
    "bound_t3_both": ("bound", "--theorem", "t3", "--catalog", "u2v2", "--q", "2",
                      "--t3-constant", "both"),
    "bound_c3_5_verbatim_json": ("bound", "--theorem", "c3_5", "--catalog", "u2v2",
                                 "--rect", "0,2,0,1", "--s", "0.5", "--q", "2",
                                 "--mode", "verbatim", "--tol", "1e-9", "--format", "json"),
    "bound_mid_json": ("bound", "--theorem", "mid", "--catalog", "uv", "--format", "json"),
    "bound_c2_3_json": ("bound", "--theorem", "c2_3", "--catalog", "u2v2", "--q", "3",
                        "--format", "json"),
    "bound_t2_certify_json": ("bound", "--theorem", "t2", "--catalog", "u2v2", "--q", "2",
                              "--certify", "--seed", "7", "--format", "json"),
    "bound_counterexample": ("bound", "--theorem", "t1", "--fn", "u^1.5*v^1.5",
                             "--certify"),
    "chain_json": ("chain", "--catalog", "u2v2", "--rect", "0,2,0,1", "--s", "0.5",
                   "--format", "json"),
    "chain_csv": ("chain", "--catalog", "uv", "--s", "1", "--format", "csv"),
    "chain_certify": ("chain", "--catalog", "uv", "--s", "1", "--certify", "--seed", "3"),
    "chain_counterexample": ("chain", "--fn", "u*v+1-u^2", "--certify"),
    "scan_gap_json": (*GAP_ARGS, "--format", "json"),
    "scan_gap_csv": (*GAP_ARGS, "--format", "csv"),
    "scan_gap": GAP_ARGS,
    "scan_gap_out": (*GAP_ARGS, "--out", "report.json"),
    "scan_gap_t3_verbatim_json": ("scan", "--theorem", "t3", "--q", "2",
                                  "--t3-constant", "sharpened", "--mode", "verbatim",
                                  "--catalog", "u2v2", "--s", "0.5", "--grid", "2",
                                  "--format", "json"),
    "scan_gap_error_cells": ("scan", "--fn", "u^0.5*v^0.5", "--grid", "2"),
    "scan_gap_error_cells_json": ("scan", "--fn", "u^0.5*v^0.5", "--grid", "2",
                                  "--format", "json"),
    # quadrature left sides on a 13x13 lattice, recorded before the column writers
    "scan_fn_sqrt_csv": (*fn_gap_args("(u+v)^0.5*u"), "--format", "csv"),
    "scan_fn_sqrt_json": (*fn_gap_args("(u+v)^0.5*u"), "--format", "json"),
    "scan_fn_power_sum_csv": (*fn_gap_args("u^3*v^2.5+u^2.5*v^2"), "--format", "csv"),
    "scan_fn_power_sum_json": (*fn_gap_args("u^3*v^2.5+u^2.5*v^2"), "--format", "json"),
    "scan_fn_t2_json": (*fn_gap_args("u^3*v^2.5+u^2.5*v^2"), "--theorem", "t2",
                        "--q", "1.5", "--format", "json"),
    "scan_fn_t3_sharpened_csv": (*fn_gap_args("(u+v)^0.5*u"), "--theorem", "t3", "--q", "4",
                                 "--t3-constant", "sharpened", "--format", "csv"),
    "scan_fn_error_cells_csv": ("scan", "--fn", "u^0.5*v^0.5", "--grid", "12",
                                "--format", "csv"),
    "sweep_csv": (*SWEEP_ARGS, "--format", "csv"),
    "sweep": SWEEP_ARGS,
    "sweep_t3_json": ("scan", "--scan-kind", "sweep", "--theorem", "t3", "--q", "2",
                      "--catalog", "u2v2", "--s", "0.5,1", "--tol", "1e-9",
                      "--format", "json"),
    "compare_json": (*COMPARE_ARGS, "--format", "json"),
    "compare": COMPARE_ARGS,
    "compare_csv": (*COMPARE_ARGS, "--mode", "verbatim", "--format", "csv"),
    "suite": ("suite", "--include-verbatim-identity"),
    "suite_json": ("suite", "--tol", "0", "--format", "json"),
    "suite_csv": ("suite", "--format", "csv"),
}


def fixed_suite(tol_override=None, include_verbatim_identity=False):
    """Stands in for run_acceptance_suite, which takes about 9 s."""
    checks = [CheckResult("c1", "identity residuals", "PASS", "worst 5e-12"),
              CheckResult("c2", "bound battery", "FAIL" if tol_override == 0 else "PASS",
                          "worst margin -1.8e-15")]
    if include_verbatim_identity:
        checks.append(CheckResult("c10", "verbatim normalization", "KNOWN_TYPO",
                                  "residual 0.5 as predicted"))
    return checks


def run_golden_case(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_acceptance_suite", fixed_suite)
    code = cli.main(list(GOLDEN_CASES[name]))
    return code, capsys.readouterr().out


# sha256 of scan stdout on 65x65 lattices, recorded before the lattice writers:
# a quadrature t3 scan on a decimal rect, an axis ending at -0 (printed as -0
# in CSV), and a scan whose every cell is an error cell
LARGE_SCANS = {
    "fn-t3-decimal": (("--fn", "u^2.5*v^2", "--rect", "0.1,0.7,0.3,1.9", "--theorem", "t3",
                       "--q", "2"), 0,
                      "fa1359a87ad3212cff1103618f96a131590bb768e3e4901ed6f50863e8601a06",
                      "67aa78ad8fa66abf079b35fb41f397f880e59e9d8d58ddf87d8a4a6a278dfafd"),
    "uv-negative-zero": (("--catalog", "uv", "--rect=-1,-0,0,1"), 0,
                         "8c72716db6c17321e22beb96a73bf3492e3461db1c132d5454ad3ac989913a11",
                         "30345849eaf1f9e7433347b60cd0e1e6b571b9b6425cee64bc157cef67c607f7"),
    "all-error-cells": (("--fn", "u^0.5*v^0.5"), 1,
                        "6580fb8a418ce5cc11ab9728f8e1914d59939ef4dc8cc1d3905c72bfbfb82a51",
                        "b9043211869e9c0af8da63f7aeb5e8a9923b7759425d2f3d5a2013f030779c0d"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(LARGE_SCANS))
def test_large_scans_match_recorded_hashes(name, fmt, monkeypatch, capsys):
    args, code, csv_hash, json_hash = LARGE_SCANS[name]
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    assert cli.main(["scan", *args, "--grid", "64", "--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (csv_hash if fmt == "csv" else json_hash)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_matches_golden_stdout_and_exit_code(name, tmp_path, monkeypatch, capsys):
    code, out = run_golden_case(name, tmp_path, monkeypatch, capsys)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert (code, out) == (codes[name], (GOLDEN / f"{name}.out").read_text())
    if "--out" in GOLDEN_CASES[name]:
        assert ((tmp_path / "report.json").read_text()
                == (GOLDEN / "scan_gap_json.out").read_text())


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


@pytest.mark.parametrize("theorem, golden", [
    ("t3", "golden_bound_t3_both_certify.json"),
    ("c3_2", "golden_bound_c3_2_both_certify.json"),
])
def test_bound_certifies_once_for_both_constants(theorem, golden, monkeypatch, capsys):
    calls = []
    certify = bounds.certify_coordinated
    monkeypatch.setattr(bounds, "certify_coordinated",
                        lambda *args: calls.append(args) or certify(*args))
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    code = cli.main(["bound", "--theorem", theorem, "--t3-constant", "both",
                     "--catalog", "u2v2", "--rect", "0,2,0,1", "--s", "0.5", "--q", "2",
                     "--certify", "--format", "json"])
    assert (code, len(calls)) == (0, 1)
    assert capsys.readouterr().out == (DATA / golden).read_text()


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


def test_chain_certify_names_the_first_non_finite_sample():
    # (u-v)^2.5 is NaN wherever u < v; the sampler used to count NaN as a pass
    res = run_cli("chain", "--fn", "(u-v)^2.5", "--rect", "0,1,0,1", "--certify")
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        "error: certification sample is nan at 0.04642819950617605 "
        "on section v = 0.1375961892906249"]


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


@pytest.mark.parametrize("rect,grid", [("0.53,3.39,1,2", "12"), ("-0.4,0.58,0,1", "10")])
def test_scan_gap_lattice_ends_on_the_rectangle(rect, grid):
    # a + n (b - a) / n is one ulp past b here; the last row must be (b, d)
    res = run_cli("scan", "--catalog", "uv", f"--rect={rect}", "--grid", grid,
                  "--format", "json")
    assert res.returncode == 0, res.stderr
    _, b, _, d = map(float, rect.split(","))
    last = json.loads(res.stdout)["results"][-1]
    assert (last["x"], last["y"]) == (b, d)


def test_scan_grid_above_the_limit_is_one_error_line():
    res = run_cli("scan", "--catalog", "uv", "--grid", "513")
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    assert "512" in lines[0]


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


def test_in_process_calls_share_one_parser_and_match_fresh_runs(tmp_path, monkeypatch,
                                                                capsys):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(CFG)
    calls = [("bound", "--config", str(cfg)),
             ("scan", "--catalog", "uv", "--grid", "2", "--format", "csv"),
             ("lemma", "--catalog", "nope")]
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    cli._parser.cache_clear()
    for args in calls:
        code = cli.main(list(args))
        fresh = run_cli(*args)
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout)
    assert cli._parser.cache_info().misses == 1


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

# flags that cannot take effect
INAPPLICABLE_FLAGS = [
    ("bound", "--theorem", "c1_2", "--catalog", "uv", "--point", "5,5"),
    ("bound", "--theorem", "mid", "--catalog", "uv", "--point", "5,5"),
    ("scan", "--scan-kind", "gap", "--catalog", "uv", "--point", "5,5"),
    ("scan", "--scan-kind", "sweep", "--catalog", "uv", "--grid", "4"),
    ("scan", "--scan-kind", "compare", "--catalog", "uv", "--q", "2", "--grid", "4"),
]

# a seed with no certification, and q, a t3 constant or a theorem where the
# family or the scan takes none
INAPPLICABLE_FAMILY_FLAGS = [
    ("bound", "--catalog", "uv", "--seed", "5"),
    ("chain", "--catalog", "uv", "--seed", "5"),
    ("bound", "--catalog", "uv", "--q", "2"),
    ("scan", "--catalog", "uv", "--q", "2"),
    ("bound", "--theorem", "c2_1", "--catalog", "uv", "--q", "2", "--t3-constant", "sharpened"),
    ("scan", "--scan-kind", "compare", "--catalog", "uv", "--q", "2", "--t3-constant",
     "sharpened"),
    ("scan", "--scan-kind", "compare", "--catalog", "uv", "--q", "2", "--theorem", "bogus"),
]


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
    ("scan", "--catalog", "uv", "--grid", "513"),             # above MAX_GRID
    ("chain", "--catalog", "uv", "--tol", "-1"),
    *INAPPLICABLE_FLAGS,
    ("scan", "--catalog", "uv", "--grid", "2", "--tol", "nan"),
    ("bound", "--catalog", "uv", "--tol", "nan"),
    ("chain", "--catalog", "uv", "--tol", "nan"),
    ("lemma", "--catalog", "uv", "--tol", "nan"),
    ("bound", "--catalog", "uv", "--tol", "inf", "--format", "json"),
    ("bound", "--catalog", "uv", "--certify", "--seed", "-1"),
    *INAPPLICABLE_FAMILY_FLAGS,
])
def test_usage_errors_exit_2(args):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr


@pytest.mark.parametrize("args, message", [
    (("scan", "--catalog", "uv", "--grid", "2", "--tol", "nan"), "--tol must be a finite "
     "number >= 0, got nan"),
    (("bound", "--catalog", "uv", "--tol", "inf", "--format", "json"), "--tol must be a "
     "finite number >= 0, got inf"),
    (("lemma", "--catalog", "uv", "--config", "tol.cfg"), "--tol must be a finite number "
     ">= 0, got nan"),
    (("bound", "--catalog", "uv", "--certify", "--seed", "-1"), "seed must be a "
     "nonnegative integer, got -1"),
], ids=["scan-tol-nan", "bound-tol-inf-json", "config-tol-nan", "negative-seed"])
def test_bad_tol_or_seed_is_one_error_line_naming_it(args, message, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tol.cfg").write_text("tol = nan\n")
    assert cli.main(list(args)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


# a rect whose width, height or area is not a positive finite float, and a
# verbatim left side too large for a float (the rect's area is 1e-320)
TINY = ("--catalog", "const", "--rect", "0,1e-160,0,1e-160", "--mode", "verbatim")


@pytest.mark.parametrize("args, message", [
    (("scan", "--catalog", "const", "--rect", "0,1e-200,0,1e-200", "--mode", "verbatim",
      "--grid", "2"), "area 0.0 must be finite and greater than 0"),
    (("bound", "--catalog", "u2v2", "--rect", "0,1e-200,0,1e-200"), "area 0.0"),
    (("bound", "--catalog", "uv", "--rect=-1e308,1e308,0,1"), "width inf"),
    (("scan", "--catalog", "uv", "--rect=-1e308,1e308,0,1"), "width inf"),
    (("bound", *TINY), "left side of const overflows a float at (5e-161, 5e-161)"),
    (("lemma", *TINY), "left side of const overflows a float at (5e-161, 5e-161)"),
], ids=["scan-area-underflows", "bound-area-underflows", "bound-width-overflows",
        "scan-width-overflows", "bound-left-side-overflows", "lemma-left-side-overflows"])
def test_unrepresentable_rect_or_left_side_is_one_error_line(args, message, capsys):
    assert cli.main(list(args)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err
    assert message in out.err


def test_scan_cells_whose_left_side_overflows_are_error_cells(capsys):
    assert cli.main(["scan", *TINY, "--grid", "2", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["error_cells"] == 9
    assert all(r["lhs"] is None and r["margin"] is None for r in report["results"])


# a right side whose power is too large for a float: |D|^q at (x, y), and
# (x - a)^2
RHS_OVERFLOWS = [("--theorem", "t2", "--q", "2", "--fn", "u^3*v^3",
                  "--rect", "0,1e40,0,1e40"),
                 ("--theorem", "t1", "--catalog", "uv", "--rect", "0,1e200,0,1")]


@pytest.mark.parametrize("args, point, message", [
    (RHS_OVERFLOWS[0], "5e39,5e39", "t2 right side of u^3*v^3 overflows a float at (5e+39, 5e+39)"),
    (RHS_OVERFLOWS[1], "5e199,0.5", "t1 right side of uv overflows a float at (5e+199, 0.5)"),
], ids=["power-of-d", "squared-offset"])
def test_right_side_that_overflows_is_one_error_line(args, point, message, capsys):
    assert cli.main(["bound", *args, "--point", point]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("args", RHS_OVERFLOWS, ids=["power-of-d", "squared-offset"])
def test_scan_cells_whose_right_side_overflows_are_error_cells(args, capsys):
    assert cli.main(["scan", "--scan-kind", "gap", *args, "--grid", "2",
                     "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["error_cells"] == 9
    assert all(r["rhs"] is None and r["margin"] is None for r in report["results"])


def test_a_scan_with_failed_cells_claims_only_the_cells_it_evaluated(capsys):
    # (b - x)^2 overflows a float at x = a and x = b, not at the midpoint
    assert cli.main(["scan", "--theorem", "t1", "--catalog", "uv",
                     "--rect", "0,1.5e154,0,1", "--grid", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "  6 cells failed to evaluate", "no violations on the 3 evaluated cells"]


def test_empty_source_date_epoch_reads_as_unset(monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "")
    assert cli.main(["lemma", "--catalog", "uv", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["timestamp"] is None


@pytest.mark.parametrize("value", ["abc", "1.5", "99999999999999999999"])
def test_malformed_source_date_epoch_is_one_error_line(value, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
    assert cli.main(["lemma", "--catalog", "uv", "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: SOURCE_DATE_EPOCH ") and out.err.count("\n") == 1, out.err
    assert repr(value) in out.err


@pytest.mark.parametrize("args", INAPPLICABLE_FLAGS + INAPPLICABLE_FAMILY_FLAGS)
def test_flag_that_cannot_take_effect_is_one_error_line(args, capsys):
    assert cli.main(list(args)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {args[-2]} ") and out.err.count("\n") == 1, out.err


@pytest.mark.parametrize("args, key", [
    (("bound", "--theorem", "c1_2", "--catalog", "uv"), "point = junk"),
    (("bound", "--theorem", "mid", "--catalog", "uv"), "point = 5,5"),
    (("scan", "--scan-kind", "gap", "--catalog", "uv", "--grid", "2"), "point = 5,5"),
    (("scan", "--scan-kind", "sweep", "--catalog", "uv", "--s", "0.5,1"), "grid = 4"),
    (("scan", "--scan-kind", "compare", "--catalog", "uv", "--q", "2"), "grid = 4"),
    (("bound", "--catalog", "uv"), "seed = 5"),
    (("chain", "--catalog", "uv"), "seed = 5"),
    (("scan", "--catalog", "uv", "--grid", "2"), "q = 2"),
    (("bound", "--catalog", "uv"), "t3-constant = sharpened"),
    (("scan", "--scan-kind", "compare", "--catalog", "uv", "--q", "2"), "theorem = t2"),
])
def test_config_keys_that_do_not_apply_are_ignored(args, key, tmp_path, monkeypatch, capsys):
    # one config file may serve several commands
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(key + "\n")
    plain = cli.main([*args, "--format", "json"]), capsys.readouterr()
    with_cfg = cli.main([*args, "--format", "json", "--config", str(cfg)]), capsys.readouterr()
    assert with_cfg == plain
    assert plain[0] == 0 and plain[1].err == ""


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


def test_an_overflowing_power_product_names_the_overflow(capsys):
    # u^2.5 overflows at u = 1.5e154, but where v = 0 the term is exactly 0,
    # so the first value that is not finite is the real overflow at v = 1
    assert cli.main(["bound", "--fn", "u^2.5*v^2", "--rect", "0,1.5e154,0,1"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: u^2.5*v^2 evaluated to inf at (1.5e+154, 1.0)\n")


@pytest.mark.parametrize("args, code", [
    (("bound", "--theorem", "t1", "--fn", "u^1.5*v^1.5", "--certify"), 0),
    (("chain", "--fn", "u*v+1-u^2", "--certify"), 1),
])
def test_certification_counterexample_is_reported_without_a_warning(args, code):
    res = run_cli(*args)
    assert (res.returncode, res.stderr) == (code, "")
    assert "COUNTEREXAMPLE FOUND" in res.stdout


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2
    assert run_cli("--help").returncode == 0
    for command in ("lemma", "bound", "chain", "scan", "suite"):
        assert run_cli(command, "--help").returncode == 0, command


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
