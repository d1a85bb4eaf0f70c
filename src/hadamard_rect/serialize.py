"""Report serialization: JSON and CSV with deterministic bytes.

CSV floats use 17 significant digits (exact double round-trip). JSON floats
rely on repr, which carries the same round-trip guarantee. The timestamp
field is populated from SOURCE_DATE_EPOCH when set and not empty, and is
null otherwise, so identical runs produce identical bytes.

A table of floats over a lattice (a scan's report) is given as a
FloatLattice: its x and y axes and its value columns. rows_to_csv and
report_to_json format each axis value once, build one template that holds
every row's axis text, and fill it with one % substitution of the values:
%.17g for CSV, the values' repr texts for JSON, with a non-finite value
written as null. The bytes are those the row writers make of the same table.
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

TOOL_NAME = "hadamard-rect"


@dataclass(frozen=True)
class FloatLattice:
    """Report results as a table over the lattice xs x ys in scan order, y
    in the outer loop: row iy * len(xs) + ix has the columns names, which
    are (xs[ix], ys[iy], *values[row]). The axes are finite and not empty."""

    names: tuple[str, ...]
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray       # (len(xs) * len(ys), len(names) - 2)


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


def build_report(version: str, command: str, config: dict, results: list | FloatLattice,
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


def _fill(xs: list[str], ys: list[str], head: str, mid: str, tail: str, sep: str) -> str:
    """The row head + x + mid + y + tail for every lattice point in scan
    order, rows joined by sep; the axis texts go in as they are."""
    blocks = []
    for y in ys:                   # one y's rows: its xs joined by the text between them
        end = mid + y + tail
        blocks.append(head + (end + sep + head).join(xs) + end)
    return sep.join(blocks)


def _json_rows(table: FloatLattice) -> str:
    """The results list as json.dumps(indent=2) writes it in a report."""
    values = table.values.ravel()
    texts = list(map(repr, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[k] = "null"
    x_key, y_key, *keys = (f"\n      {json.dumps(name)}: ".replace("%", "%%")
                           for name in table.names)
    template = _fill(list(map(repr, table.xs.tolist())), list(map(repr, table.ys.tolist())),
                     "    {" + x_key, "," + y_key,
                     "".join("," + key + "%s" for key in keys) + "\n    }", ",\n")
    return "[\n" + template % tuple(texts) + "\n  ]"


def report_to_json(report: dict) -> str:
    results = report["results"]
    if not isinstance(results, FloatLattice):
        return json.dumps(report, indent=2, allow_nan=True) + "\n"
    text = json.dumps({**report, "results": []}, indent=2, allow_nan=True) + "\n"
    # the top-level key is the one "results" line at indent 2
    return text.replace('\n  "results": []', '\n  "results": ' + _json_rows(results), 1)


def rows_to_csv(header: list[str], rows: list | FloatLattice) -> str:
    """Comma separators, LF line endings, 17-significant-digit floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, FloatLattice):
        template = _fill([format(v, ".17g") for v in rows.xs.tolist()],
                         [format(v, ".17g") for v in rows.ys.tolist()],
                         "", ",", ",%.17g" * rows.values.shape[1] + "\n", "")
        return buf.getvalue() + template % tuple(rows.values.ravel().tolist())
    for row in rows:
        writer.writerow([fmt17(cell) for cell in row])
    return buf.getvalue()
