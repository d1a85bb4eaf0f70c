"""Each script in ``demos/`` runs to completion.

The demos run as subprocesses with the interpreter running pytest, the
checkout's ``src/`` first on ``PYTHONPATH`` (as in ``tests/test_cli.py``),
and numpy ``RuntimeWarning``s turned into errors.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import cli_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         capture_output=True, text=True, env=cli_env())
    assert res.returncode == 0, res.stderr
