"""Report serialization: JSON and CSV with deterministic bytes.

CSV floats use 17 significant digits (exact double round-trip). JSON floats
rely on repr, which carries the same round-trip guarantee. The timestamp
field is populated from SOURCE_DATE_EPOCH when set and not empty, and is
null otherwise, so identical runs produce identical bytes.

A table of float columns (a scan's lattice) is written column by column:
rows_to_csv takes it as a 2-d float array, and report_to_json as results
given by FloatColumns. Each column is formatted once and the rows are
joined, byte for byte what the row writers make of the same table, with
a non-finite JSON value written as null.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

TOOL_NAME = "hadamard-rect"


@dataclass(frozen=True)
class FloatColumns:
    """Report results as named float columns: grid[:, k] is names[k]."""

    names: tuple[str, ...]
    grid: np.ndarray


def fmt17(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def run_timestamp() -> str | None:
    """SOURCE_DATE_EPOCH as an ISO 8601 UTC time; None when it is unset or
    empty. A value that is not a whole number of seconds a date can hold
    raises ValueError naming the variable."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return None
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise ValueError("SOURCE_DATE_EPOCH must be a whole number of seconds since "
                         f"1970-01-01 UTC, got {epoch!r}") from None


def build_report(version: str, command: str, config: dict, results: list | FloatColumns,
                 summary: dict, notes: list[str]) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": version,
        "timestamp": run_timestamp(),
        "command": command,
        "config": config,
        "results": results,
        "summary": summary,
        "notes": notes,
    }


def _json_rows(table: FloatColumns) -> str:
    """The results list as json.dumps(indent=2) writes it in a report."""
    if not len(table.grid):
        return "[]"
    finite = math.isfinite
    cols = [[repr(v) if finite(v) else "null" for v in col] for col in table.grid.T.tolist()]
    keys = (json.dumps(name).replace("%", "%%") for name in table.names)
    row = "    {" + ",".join(f"\n      {key}: %s" for key in keys) + "\n    }"
    return "[\n" + ",\n".join([row % cells for cells in zip(*cols)]) + "\n  ]"


def report_to_json(report: dict) -> str:
    results = report["results"]
    if not isinstance(results, FloatColumns):
        return json.dumps(report, indent=2, allow_nan=True) + "\n"
    text = json.dumps({**report, "results": []}, indent=2, allow_nan=True) + "\n"
    # the top-level key is the one "results" line at indent 2
    return text.replace('\n  "results": []', '\n  "results": ' + _json_rows(results), 1)


def rows_to_csv(header: list[str], rows) -> str:
    """Comma separators, LF line endings, 17-significant-digit floats.

    rows is a list of rows, or a 2-d float array written column by column.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray):
        cols = [[format(v, ".17g") for v in col] for col in rows.T.tolist()]
        return buf.getvalue() + "".join([",".join(cells) + "\n" for cells in zip(*cols)])
    for row in rows:
        writer.writerow([fmt17(cell) for cell in row])
    return buf.getvalue()
