import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_rect import bounds, identity
from hadamard_rect.analysis import (MAX_GRID, GapSurface, RefinedMin,
                                    compare_families, refine_argmin, scan_gap,
                                    sweep_s)
from hadamard_rect.bounds import TheoremId, family_rhs, remark_aggregate
from hadamard_rect.domain import EvalPoint, NormalizationMode, PrefactorMode, Rect
from hadamard_rect.identity import lemma_lhs
from hadamard_rect.quad import ToleranceNotMet
from hadamard_rect.surfaces import EvalError, catalog_lookup, parse_surface

WIDE = Rect(0.0, 2.0, 0.0, 1.0)
OFF = Rect(0.5, 2.5, 1.0, 3.0)
UNIT = Rect(0.0, 1.0, 0.0, 1.0)
UV = catalog_lookup("uv")
POWER = parse_surface("u^2.5*v^2")


def test_scan_grid_shape_and_order():
    surf = scan_gap(TheoremId.T1, UV, WIDE, 1.0, grid_n=2)
    assert isinstance(surf, GapSurface)
    assert surf.grid_shape == (3, 3)
    assert surf.grid.shape == (9, 5)
    # y is the outer loop: the first three rows share y = 0
    assert list(surf.grid[:3, 1]) == [0.0, 0.0, 0.0]
    assert list(surf.grid[:3, 0]) == [0.0, 1.0, 2.0]


def test_scan_bilinear_attains_zero_margin_at_corners():
    surf = scan_gap(TheoremId.T1, UV, WIDE, 1.0, grid_n=8)
    assert surf.min_margin == pytest.approx(0.0, abs=1e-13)
    # four corner ties; argmin carries the coordinates of the first one
    # in scan order, which is (a, c)
    assert surf.argmin == (WIDE.a, WIDE.c)
    assert not surf.errors


def test_scan_known_values_on_coarse_grid():
    surf = scan_gap(TheoremId.T1, UV, WIDE, 1.0, grid_n=2)
    by_xy = {(row[0], row[1]): row for row in surf.grid}
    corner = by_xy[(0.0, 0.0)]
    assert corner[2] == pytest.approx(0.5)      # lhs
    assert corner[3] == pytest.approx(0.5)      # rhs
    center = by_xy[(1.0, 0.5)]
    assert center[2] == pytest.approx(0.0)
    assert center[3] == pytest.approx(0.125)


def test_scan_is_deterministic():
    one = scan_gap(TheoremId.T2, UV, WIDE, 0.5, q=2.0, grid_n=4)
    two = scan_gap(TheoremId.T2, UV, WIDE, 0.5, q=2.0, grid_n=4)
    assert np.array_equal(one.grid, two.grid)
    assert one.argmin == two.argmin


def test_scan_survives_cell_failures():
    # mixed partial of u^1.5 v^1.5 blows up nowhere, but u^0.5's does at 0;
    # cells on the singular edges record errors instead of aborting
    f = parse_surface("u^0.5*v^0.5")
    surf = scan_gap(TheoremId.T1, f, Rect(0.0, 1.0, 0.0, 1.0), 0.5, grid_n=2)
    assert surf.errors
    bad = {(ix, iy) for ix, iy, _ in surf.errors}
    assert (0, 0) in bad
    finite = surf.grid[~np.isnan(surf.grid[:, 4])]
    assert len(finite) + len(surf.errors) == 9


def test_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        scan_gap(TheoremId.T1, UV, WIDE, 1.0, grid_n=0)


def test_refine_descends_from_lattice_minimum():
    coarse = scan_gap(TheoremId.T1, UV, WIDE, 0.5, grid_n=4)
    ref = refine_argmin(TheoremId.T1, UV, WIDE, 0.5, coarse.argmin)
    assert isinstance(ref, RefinedMin)
    assert ref.margin <= coarse.min_margin + 1e-15
    assert WIDE.contains(EvalPoint(ref.x, ref.y))


def test_refine_stays_inside_from_boundary_start():
    ref = refine_argmin(TheoremId.T1, UV, WIDE, 1.0, (0.0, 0.0))
    assert WIDE.contains(EvalPoint(ref.x, ref.y))
    assert ref.margin <= 1e-13


def test_sweep_reports_one_row_per_s_and_trend():
    res = sweep_s(TheoremId.T1, UV, WIDE, EvalPoint(1.0, 0.5),
                  [0.25, 0.5, 0.75, 1.0])
    assert len(res.reports) == 4
    assert all(r.holds for r in res.reports)
    # rhs = area-scaled 1/(4(s+1)^2) shrinks as s rises
    assert res.rhs_trend == "decreasing"
    rhs = [r.rhs for r in res.reports]
    assert rhs == sorted(rhs, reverse=True)


def test_sweep_requires_q_for_holder_family():
    with pytest.raises(ValueError, match="needs q"):
        sweep_s(TheoremId.T2, UV, WIDE, EvalPoint(1.0, 0.5), [0.5])


def test_compare_families_shares_lhs():
    reps = compare_families(catalog_lookup("u2v2"), WIDE, EvalPoint(0.5, 0.25),
                            0.5, 2.0)
    assert len(reps) == 4
    assert {r.theorem_id for r in reps} == {TheoremId.T1, TheoremId.T2, TheoremId.T3}
    lhs = {r.lhs for r in reps}
    assert len(lhs) == 1
    assert all(r.holds for r in reps)
    t3s = [r for r in reps if r.theorem_id is TheoremId.T3]
    assert {r.params["constant"] for r in t3s} == {"verbatim", "sharpened"}


# ---------------------------------------------------------------------------
# scans against the point path: one left side and one right side per point
# ---------------------------------------------------------------------------

def point_loop(theorem, f, rect, s, q, grid_n, mode,
               constant_mode=PrefactorMode.VERBATIM):
    """The reference scan: lemma_lhs and the point family_rhs at each cell."""
    rhs_at = family_rhs(theorem, s, q, constant_mode)
    xs = [rect.a + i * (rect.b - rect.a) / grid_n for i in range(grid_n)] + [rect.b]
    ys = [rect.c + j * (rect.d - rect.c) / grid_n for j in range(grid_n)] + [rect.d]
    rows, errors = [], []
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            pt = EvalPoint(x, y)
            try:
                lhs = abs(lemma_lhs(f, rect, pt, mode))
                rhs = rhs_at(f, rect, pt)
                rows.append((x, y, lhs, rhs, rhs - lhs))
            except (EvalError, ToleranceNotMet) as exc:
                errors.append((ix, iy, str(exc)))
                rows.append((x, y, np.nan, np.nan, np.nan))
    return np.array(rows, dtype=float), tuple(errors)


@pytest.mark.parametrize("mode", list(NormalizationMode), ids=lambda m: m.value)
@pytest.mark.parametrize("theorem,q", [(TheoremId.T1, None), (TheoremId.T2, 2.0),
                                       (TheoremId.T3, 2.0)], ids=["t1", "t2", "t3"])
@pytest.mark.parametrize("expr", ["u^2*v^2", "u^2.5*v^2", "(u+v)^0.5*u"])
def test_scan_rows_equal_the_point_path(expr, theorem, q, mode):
    f = parse_surface(expr)
    gap = scan_gap(theorem, f, OFF, 0.5, q, grid_n=4, mode=mode)
    grid, errors = point_loop(theorem, f, OFF, 0.5, q, 4, mode)
    assert not gap.errors and not errors
    assert gap.grid.shape == grid.shape
    for row, ref in zip(gap.grid, grid):
        assert tuple(row) == tuple(ref)


# every family the lattice benchmark scans, and the sharpened t3 constant
LATTICE_FAMILIES = [(TheoremId.T1, None, PrefactorMode.VERBATIM),
                    *((TheoremId.T2, q, PrefactorMode.VERBATIM) for q in (1.5, 2.0, 3.0)),
                    *((TheoremId.T3, q, cmode) for q in (1.0, 2.0, 4.0)
                      for cmode in PrefactorMode)]


def family_id(family):
    theorem, q, cmode = family
    if theorem is TheoremId.T1:
        return "t1"
    tag = f"{theorem.value}-q{q:g}"
    return f"{tag}-{cmode.value}" if theorem is TheoremId.T3 else tag


def assert_scan_equals_point_loop(theorem, f, rect, s, q, grid_n, cmode):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = scan_gap(theorem, f, rect, s, q, grid_n, cmode)
        grid, errors = point_loop(theorem, f, rect, s, q, grid_n,
                                  NormalizationMode.CORRECTED, cmode)
    assert gap.errors == errors
    assert gap.grid.shape == grid.shape
    # bit for bit: a last-bit slip in any power shows here
    assert gap.grid.tobytes() == grid.tobytes()
    return gap


@pytest.mark.parametrize("rect", [OFF, Rect(0.1, 0.7, 0.3, 1.9)], ids=["off", "decimal"])
@pytest.mark.parametrize("grid_n", [1, 12])
@pytest.mark.parametrize("s", [0.25, 1.0])
@pytest.mark.parametrize("family", LATTICE_FAMILIES, ids=family_id)
def test_scan_rows_equal_the_point_path_for_every_lattice_family(family, s, grid_n, rect):
    # at grid 1 every cell's middle stencil row and column is row 0 or n
    theorem, q, cmode = family
    for expr in ("u^2.5*v^2", "u^3*v^2.5+u^2.5*v^2", "(u+v)^0.5*u"):
        gap = assert_scan_equals_point_loop(theorem, parse_surface(expr), rect, s, q,
                                            grid_n, cmode)
        assert not gap.errors


EXPONENTS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])


@st.composite
def power_products(draw):
    terms = [f"{draw(st.integers(1, 5))}*u^{draw(EXPONENTS):g}*v^{draw(EXPONENTS):g}"
             for _ in range(draw(st.integers(1, 2)))]
    return parse_surface("+".join(terms))


@st.composite
def decimal_rects(draw):
    a, c = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    return Rect(a / 10, (a + draw(st.integers(1, 30))) / 10,
                c / 10, (c + draw(st.integers(1, 30))) / 10)


@settings(max_examples=60, deadline=None)
@given(f=power_products(), rect=decimal_rects(), grid_n=st.integers(1, 9),
       family=st.sampled_from(LATTICE_FAMILIES), s=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
def test_scan_equals_the_point_path_on_random_power_products(f, rect, grid_n, family, s):
    # rects touching an axis give u^0.5 factors an infinite |D|: error
    # cells and the per-cell fallback are compared too
    theorem, q, cmode = family
    assert_scan_equals_point_loop(theorem, f, rect, s, q, grid_n, cmode)


def test_scan_cells_whose_right_side_overflows_equal_the_point_path():
    # (x - a)^2 or (b - x)^2 overflows a float at the cells on x = a and
    # x = b; the cells on the middle column hold
    rect = Rect(0.0, 1.5e154, 0.0, 1.0)
    for theorem, q in ((TheoremId.T1, None), (TheoremId.T3, 2.0)):
        gap = assert_scan_equals_point_loop(theorem, UV, rect, 1.0, q, 2,
                                            PrefactorMode.VERBATIM)
        assert [e[:2] for e in gap.errors] == [(0, 0), (2, 0), (0, 1), (2, 1), (0, 2), (2, 2)]
        assert gap.errors[0][2] == (f"{theorem.value} right side of uv overflows a float "
                                    "at (0.0, 0.0)")


def test_clean_scan_evaluates_the_family_formula_once(monkeypatch):
    calls = []
    for name in ("_t1", "_quadrant_sum"):
        def counted(*args, _name=name, _original=getattr(bounds, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(bounds, name, counted)
    for theorem, q in ((TheoremId.T1, None), (TheoremId.T2, 2.0), (TheoremId.T3, 2.0)):
        assert not scan_gap(theorem, POWER, OFF, 0.5, q, grid_n=8).errors
    # once for the whole 9x9 lattice, not once per cell
    assert calls == ["_t1", "_quadrant_sum", "_quadrant_sum"]


@pytest.mark.parametrize("expr", ["(u+v)^0.5*u", "u^0.5*v^0.5"])
def test_scan_errors_equal_the_point_path(expr):
    # (u+v)^0.5*u: the left side holds but |D| is NaN at (0, 0), which every
    # cell's stencil contains; u^0.5*v^0.5: the left side's integrals fail
    f = parse_surface(expr)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = scan_gap(TheoremId.T1, f, UNIT, 0.5, grid_n=3)
        grid, errors = point_loop(TheoremId.T1, f, UNIT, 0.5, None, 3,
                                  NormalizationMode.CORRECTED)
    assert len(gap.errors) == 16
    assert gap.errors == errors
    assert np.array_equal(gap.grid, grid, equal_nan=True)


def test_scan_cells_whose_left_side_overflows_equal_the_point_path():
    # the verbatim left side of u on a 1e-320-high rect overflows a float at
    # six of the nine nodes: those are error cells, the other three hold
    f, rect = parse_surface("u"), Rect(0.0, 1.0, 0.0, 1e-320)
    gap = scan_gap(TheoremId.T1, f, rect, 1.0, grid_n=2, mode="verbatim")
    grid, errors = point_loop(TheoremId.T1, f, rect, 1.0, None, 2, NormalizationMode.VERBATIM)
    assert len(gap.errors) == 6 and "left side of u overflows a float" in gap.errors[0][2]
    assert gap.errors == errors
    assert np.array_equal(gap.grid, grid, equal_nan=True)


def counting_integrate_2d(monkeypatch):
    calls = []
    original = identity.integrate_2d

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(identity, "integrate_2d", counted)
    return calls


def test_scan_makes_one_mixed_partial_call_and_one_area_integral(monkeypatch):
    sizes = []

    def counting(u, v):
        sizes.append(np.broadcast(np.asarray(u), np.asarray(v)).size)
        return POWER.mixed_fn(u, v)

    f = dataclasses.replace(POWER, mixed_fn=counting)
    calls = counting_integrate_2d(monkeypatch)
    gap = scan_gap(TheoremId.T3, f, OFF, 0.5, 2.0, grid_n=6)
    assert not gap.errors
    assert sizes == [49]
    assert len(calls) == 1


@pytest.mark.parametrize("run", [
    lambda: sweep_s(TheoremId.T1, POWER, OFF, EvalPoint(1.0, 2.0), [0.25, 0.5, 0.75, 1.0]),
    lambda: compare_families(POWER, OFF, EvalPoint(1.0, 2.0), 0.5, 2.0),
    lambda: refine_argmin(TheoremId.T1, POWER, OFF, 0.5, (1.0, 2.0)),
    lambda: remark_aggregate(TheoremId.R_METU, POWER, OFF, 0.5, 2.0),
], ids=["sweep", "compare", "refine", "aggregate"])
def test_one_area_integral_per_call_on_one_rect(monkeypatch, run):
    calls = counting_integrate_2d(monkeypatch)
    run()
    assert len(calls) == 1


@pytest.mark.parametrize("rect,grid_n", [(Rect(0.53, 3.39, 1.0, 2.0), 12),
                                         (Rect(-0.4, 0.58, 0.0, 1.0), 10)])
def test_scan_lattice_ends_exactly_at_b_and_d(rect, grid_n):
    # a + n (b - a) / n lands one ulp past b on these rects
    gap = scan_gap(TheoremId.T1, UV, rect, 1.0, grid_n=grid_n)
    assert not gap.errors
    assert gap.grid[-1, 0] == rect.b and gap.grid[-1, 1] == rect.d
    assert max(gap.grid[:, 0]) == rect.b and max(gap.grid[:, 1]) == rect.d


def test_scan_rejects_grid_above_the_limit():
    with pytest.raises(ValueError, match=str(MAX_GRID)):
        scan_gap(TheoremId.T1, UV, WIDE, 1.0, grid_n=MAX_GRID + 1)


def test_scan_reads_string_modes_as_their_members():
    f = catalog_lookup("u2v2")
    for mode in NormalizationMode:
        for cmode in PrefactorMode:
            by_value = scan_gap(TheoremId.T3, f, WIDE, 0.5, q=2.0, grid_n=4,
                                constant_mode=cmode.value, mode=mode.value)
            by_member = scan_gap(TheoremId.T3, f, WIDE, 0.5, q=2.0, grid_n=4,
                                 constant_mode=cmode, mode=mode)
            assert by_value.grid.tobytes() == by_member.grid.tobytes()
            assert by_value.params == by_member.params
