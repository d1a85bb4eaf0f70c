"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one status line (visible under pytest -s or on failure) and
fails only on FAIL; the verbatim-identity exhibit is asserted to come back
as the expected known failure, not as a pass.
"""
import pytest

from hadamard_rect import cli, serialize
from hadamard_rect import suite as suite_module
from hadamard_rect.suite import (ALL_CHECKS, FAIL, KNOWN_TYPO, PASS, check_c9_determinism,
                                 check_verbatim_identity_exhibit)


@pytest.mark.parametrize("check", ALL_CHECKS,
                         ids=lambda fn: fn.__name__.removeprefix("check_"))
def test_criterion(check):
    result = check(None)
    print(f"criterion {result.check_id}: {result.status} -- {result.detail}")
    assert result.status == PASS, f"{result.check_id}: {result.detail}"


def test_verbatim_identity_exhibit_is_known_typo():
    result = check_verbatim_identity_exhibit()
    print(f"criterion {result.check_id}: {result.status} -- {result.detail}")
    assert result.status == KNOWN_TYPO, result.detail
    assert result.status != FAIL
    assert result.passed


def test_c9_compares_the_bytes_scan_writes(monkeypatch, capsys):
    # c9's scan is `scan --catalog uv --rect 0,2,0,1 --grid 6 --format csv`
    # written by the same column writer, so a drift in that writer shows in c9
    written = []

    def recording(header, rows):
        written.append(serialize.rows_to_csv(header, rows))
        return written[-1]

    monkeypatch.setattr(suite_module, "rows_to_csv", recording)
    assert check_c9_determinism().status == PASS
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    assert cli.main(["scan", "--catalog", "uv", "--rect", "0,2,0,1", "--grid", "6",
                     "--format", "csv"]) == 0
    assert written == [capsys.readouterr().out] * 2
