import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_rect.serialize import (FloatLattice, build_report, fmt17, report_to_json,
                                     rows_to_csv, run_timestamp)


def test_fmt17_round_trips_doubles():
    for v in (0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -0.0):
        assert float(fmt17(v)) == v
    assert fmt17(True) == "true"
    assert fmt17(False) == "false"
    assert fmt17(7) == "7"
    assert fmt17("x") == "x"


def test_timestamp_follows_source_date_epoch(monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    assert run_timestamp() is None
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert run_timestamp() == "1970-01-01T00:00:00+00:00"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "")
    assert run_timestamp() is None


@pytest.mark.parametrize("value", ["abc", "0x10", "1e9", "99999999999999999999"])
def test_malformed_source_date_epoch_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
    with pytest.raises(ValueError, match=f"SOURCE_DATE_EPOCH .* got '{value}'"):
        run_timestamp()


def test_report_shape_and_json_bytes(monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    rep = build_report("0.1.0", "lemma", {"s": 1.0}, [{"ok": True}],
                       {"n": 1}, ["note"])
    assert list(rep) == ["tool", "version", "timestamp", "command", "config",
                         "results", "summary", "notes"]
    assert rep["tool"] == "hadamard-rect"
    text = report_to_json(rep)
    assert text.endswith("\n")
    assert json.loads(text)["timestamp"] is None


def test_csv_uses_lf_and_full_precision():
    text = rows_to_csv(["a", "b"], [[0.1, True], [2, "z"]])
    assert text == "a,b\n0.10000000000000001,true\n2,z\n"
    assert "\r" not in text


# ---------------------------------------------------------------------------
# the lattice writers against the row writers they replace for scan tables
# ---------------------------------------------------------------------------

def _rows_csv(header, rows):
    """The row writer: csv.writer row by row, fmt17 per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt17(cell) for cell in row])
    return buf.getvalue()


def _rows_json(report, names, rows):
    """The row writer: json.dumps(indent=2) of one dict per row, with every
    non-finite value written as null."""
    results = [{name: (v if math.isfinite(v) else None) for name, v in zip(names, row)}
               for row in rows]
    return json.dumps({**report, "results": results}, indent=2, allow_nan=True) + "\n"


_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     1e16, 0.1, -1.0 / 3.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-300, max_value=1e-300))

# increasing lattice axes; the second kind ends at -0.0, as --rect=-1,-0,0,1 does
_AXES = st.one_of(
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=5, unique=True).map(sorted),
    st.lists(st.floats(-1e3, -5e-324), max_size=4, unique=True).map(lambda v: sorted(v) + [-0.0]))

_NAMES = st.sampled_from([("x", "y", "lhs", "rhs", "margin"),
                          ('a "quoted" %s, with a comma', "y%", "%d,", '"', "100%")])


@st.composite
def _lattices(draw):
    names = draw(_NAMES)[:2 + draw(st.integers(0, 3))]
    xs, ys = draw(_AXES), draw(_AXES)
    cells = st.lists(_CELLS, min_size=len(names) - 2, max_size=len(names) - 2)
    values = draw(st.lists(cells, min_size=len(xs) * len(ys), max_size=len(xs) * len(ys)))
    return names, xs, ys, values


@settings(max_examples=200, deadline=None)
@given(lattice=_lattices(),
       summary=st.dictionaries(st.sampled_from(["results", "n", "x"]), _CELLS, max_size=3))
def test_column_writers_equal_the_row_writers(lattice, summary):
    names, xs, ys, values = lattice
    rows = [(x, y, *values[iy * len(xs) + ix]) for iy, y in enumerate(ys)
            for ix, x in enumerate(xs)]
    table = FloatLattice(names, np.array(xs), np.array(ys),
                         np.array(values, dtype=float).reshape(len(rows), len(names) - 2))
    assert rows_to_csv(list(names), table) == _rows_csv(names, rows)
    report = build_report("0.1.0", "scan", {"results": "config"}, [], summary, ["a note"])
    want = _rows_json(report, names, rows)
    got = report_to_json({**report, "results": table})
    assert got == want
    assert json.loads(got)["results"] == json.loads(want)["results"]
