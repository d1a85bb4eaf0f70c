"""Each script in ``demos/`` runs to completion; the certification demo
prints the bytes in ``tests/data/demo05_stdout.txt``.

The demos run as subprocesses with the interpreter running pytest, the
checkout's ``src/`` first on ``PYTHONPATH`` (as in ``tests/test_cli.py``),
and numpy ``RuntimeWarning``s turned into errors.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import cli_env

DATA = Path(__file__).parent / "data"
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


def run_demo(demo):
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          capture_output=True, text=True, env=cli_env())


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    res = run_demo(demo)
    assert res.returncode == 0, res.stderr


def test_certification_demo_output_is_pinned():
    # verdicts, samples_used, the witness's section, x1, x2, lambda and the
    # replayed slack
    res = run_demo(next(p for p in DEMOS if p.stem == "05_certification"))
    assert res.returncode == 0, res.stderr
    assert res.stdout == (DATA / "demo05_stdout.txt").read_text()
