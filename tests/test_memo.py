"""The parse, left-side, stencil and family-evaluator memos: repeated
queries on one expression, one (f, rect), one point or one exponent set
reuse earlier work and give the values a cold call gives.

tests/conftest.py empties every bounded memo before each test.
"""
import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_rect import bounds, cli, identity, quad
from hadamard_rect.bounds import (Corner, TheoremId, corner_report, midpoint_report,
                                  remark_aggregate, t1_rhs, t2_rhs, t3_rhs)
from hadamard_rect.domain import EvalPoint, NormalizationMode, PrefactorMode, Rect, make_rect
from hadamard_rect.identity import lemma_lhs
from hadamard_rect.quad import QuadConfig, ToleranceNotMet
from hadamard_rect.surfaces import EvalError, ParseError, catalog_lookup, parse_surface

UNIT = Rect(0.0, 1.0, 0.0, 1.0)
OFF = Rect(0.5, 2.5, 1.0, 3.0)
POINTS = (EvalPoint(0.5, 1.0), EvalPoint(1.25, 2.5), EvalPoint(2.5, 3.0), OFF.midpoint())


def _empty_memos():
    identity._lhs_parts.cache_clear()
    bounds._stencil.cache_clear()
    bounds._family_evaluator.cache_clear()


def test_conftest_empties_exactly_the_bounded_memos(bounded_memos):
    # a new memo is a deliberate edit of this set
    assert set(bounded_memos) == {
        "hadamard_rect.surfaces.parse_surface", "hadamard_rect.identity._lhs_parts",
        "hadamard_rect.bounds._family_evaluator", "hadamard_rect.bounds._stencil"}
    # the unbounded pure tables stay warm from test to test
    for table in (quad.gauss_legendre, quad._tensor_rule, cli._parser):
        assert table.cache_parameters()["maxsize"] is None


def _values(f, use_exact, cold):
    """Left sides in both modes and three right sides at every point; cold
    empties every memo before each value."""
    out = []
    for pt in POINTS:
        for value in (
                lambda: lemma_lhs(f, OFF, pt, NormalizationMode.CORRECTED, use_exact=use_exact),
                lambda: lemma_lhs(f, OFF, pt, NormalizationMode.VERBATIM, use_exact=use_exact),
                lambda: t1_rhs(f, OFF, pt, 0.5),
                lambda: t2_rhs(f, OFF, pt, 0.25, 3.0),
                lambda: t3_rhs(f, OFF, pt, 0.75, 2.0, PrefactorMode.SHARPENED)):
            if cold:
                _empty_memos()
            out.append(value())
    return out


@pytest.mark.parametrize("name,use_exact", [("u2v2", True), ("u2v2", False),
                                            ("u2.5v2", True)],
                         ids=["exact", "quadrature-polynomial", "quadrature-power"])
def test_warm_values_equal_cold_values(name, use_exact):
    f = catalog_lookup(name)
    cold = _values(f, use_exact, cold=True)
    warm = _values(f, use_exact, cold=False)
    assert warm == cold
    # both modes and every point read one entry
    assert identity._lhs_parts.cache_info().currsize == 1


def test_a_replaced_surface_never_reads_the_original_entries():
    f = catalog_lookup("u2.5v2")
    pt = POINTS[1]
    want = (lemma_lhs(f, OFF, pt), t1_rhs(f, OFF, pt, 0.5))
    fn_calls, mixed_calls = [], []
    g = dataclasses.replace(f, fn=lambda u, v: fn_calls.append(1) or f.fn(u, v),
                            mixed_fn=lambda u, v: mixed_calls.append(1) or f.mixed_fn(u, v))
    assert (lemma_lhs(g, OFF, pt), t1_rhs(g, OFF, pt, 0.5)) == want
    assert fn_calls and mixed_calls
    # a copy with the very same fields is still another surface
    h = dataclasses.replace(f)
    assert all(getattr(h, fd.name) is getattr(f, fd.name) for fd in dataclasses.fields(f))
    assert h != f
    lemma_lhs(h, OFF, pt)
    assert identity._lhs_parts.cache_info().currsize == 3


def test_errors_are_raised_again_and_never_remembered():
    # |D| of (u+v)^0.5*u is NaN at (0, 0): the finite difference leaves the domain
    f = parse_surface("(u+v)^0.5*u")
    with np.errstate(invalid="ignore"):
        for _ in range(2):
            with pytest.raises(EvalError, match="nan"):
                t1_rhs(f, UNIT, UNIT.midpoint(), 0.5)
    assert bounds._stencil.cache_info().currsize == 0
    # the left side of u^0.5*v^0.5 misses the default tolerance on [0,1]^2
    g = parse_surface("u^0.5*v^0.5")
    for _ in range(2):
        with pytest.raises(ToleranceNotMet):
            lemma_lhs(g, UNIT, UNIT.midpoint())
    assert identity._lhs_parts.cache_info().currsize == 0


def test_left_side_table_stays_within_its_bound():
    f = catalog_lookup("uv")
    rects = [Rect(0.0, 1.0 + k / 64, 0.0, 1.0) for k in range(2 * identity._LHS_MEMO_SIZE)]
    first = lemma_lhs(f, rects[0], EvalPoint(0.5, 0.5))
    for rect in rects[1:]:
        lemma_lhs(f, rect, EvalPoint(0.5, 0.5))
        assert identity._lhs_parts.cache_info().currsize <= identity._LHS_MEMO_SIZE
    # the oldest entry was dropped: the first rect is computed again, equally
    misses = identity._lhs_parts.cache_info().misses
    assert lemma_lhs(f, rects[0], EvalPoint(0.5, 0.5)) == first
    assert identity._lhs_parts.cache_info().misses == misses + 1


def test_equal_rects_and_configs_built_apart_share_memo_entries():
    f, pt = catalog_lookup("u2.5v2"), POINTS[1]
    rects = (Rect(0.5, 2.5, 1.0, 3.0), make_rect(0.5, 2.5, 1, 3),
             dataclasses.replace(Rect(0.5, 9.0, 1.0, 3.0), b=2.5))
    cfgs = (QuadConfig(24, 12, 1e-11), QuadConfig(gl_order=24, max_subdiv=12, abs_tol=1e-11),
            dataclasses.replace(QuadConfig(24), max_subdiv=12))
    for group in (rects, cfgs):
        assert len({id(x) for x in group}) == 3
        assert len(set(group)) == 1 and len({hash(x) for x in group}) == 1
    want = (lemma_lhs(f, rects[0], pt, cfg=cfgs[0]), t2_rhs(f, rects[0], pt, 0.5, 3.0))
    for rect, cfg in zip(rects[1:], cfgs[1:]):
        assert (lemma_lhs(f, rect, pt, cfg=cfg), t2_rhs(f, rect, pt, 0.5, 3.0)) == want
    for memo in (identity._lhs_parts, bounds._stencil):
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


# ---------------------------------------------------------------------------
# the stencil memo: one |D| stencil and one quadrant sum per point
# ---------------------------------------------------------------------------

def _counting(monkeypatch, f):
    """f with its mixed partial counted, and bounds._quadrant_sum counted:
    returns the copy and the two call lists."""
    mixed, sums = [], []
    quadrant_sum = bounds._quadrant_sum
    monkeypatch.setattr(bounds, "_quadrant_sum",
                        lambda *args: sums.append(1) or quadrant_sum(*args))
    g = dataclasses.replace(f, mixed_fn=lambda u, v: mixed.append(1) or f.mixed_fn(u, v))
    return g, mixed, sums


def test_a_battery_point_takes_one_stencil_and_one_sum_per_q_and_weights(monkeypatch):
    f, mixed, sums = _counting(monkeypatch, catalog_lookup("u2.5v2"))
    pt = POINTS[1]
    rhs = []
    for s in (0.25, 0.5, 0.75, 1.0):
        rhs.append(t1_rhs(f, OFF, pt, s))
        rhs += [t2_rhs(f, OFF, pt, s, q) for q in (1.5, 2.0, 3.0)]
        rhs += [t3_rhs(f, OFF, pt, s, q, mode) for q in (1.0, 2.0, 4.0) for mode in PrefactorMode]
    assert len(rhs) == 40
    # t2's sum is the same at every s (weights 1, 1); t3's in both
    # constant modes: 3 Holder sums and 3 x 4 power-mean sums
    assert (len(mixed), len(sums)) == (1, 15)


def test_a_specialization_group_takes_one_stencil_per_point(monkeypatch):
    f, mixed, sums = _counting(monkeypatch, catalog_lookup("u2.5v2"))
    s = 0.5
    for corner in Corner:
        corner_report(TheoremId.T1, corner, f, OFF, s)
        corner_report(TheoremId.T2, corner, f, OFF, s, 2.0)
        corner_report(TheoremId.T3, corner, f, OFF, s, 2.0)
    for theorem, q in ((TheoremId.T1, None), (TheoremId.T2, 2.0), (TheoremId.T3, 2.0)):
        midpoint_report(theorem, f, OFF, s, q)
    remark_aggregate(TheoremId.R_C15, f, OFF, s)
    remark_aggregate(TheoremId.R_METU, f, OFF, s, 2.0)
    remark_aggregate(TheoremId.R_FINAL, f, OFF, s, 2.0)
    # the four corners and the midpoint; a t2 and a t3 sum at each
    assert (len(mixed), len(sums)) == (5, 10)
    assert bounds._stencil.cache_info().currsize == 5


def test_the_stencil_table_stays_within_its_bound_and_keeps_no_error():
    f = catalog_lookup("u2v2")
    pts = [EvalPoint(0.5 + k / 16, 1.0 + k / 32) for k in range(3 * bounds._STENCIL_MEMO_SIZE)]
    first = t2_rhs(f, OFF, pts[0], 0.5, 3.0)
    for pt in pts[1:]:
        t2_rhs(f, OFF, pt, 0.5, 3.0)
        assert bounds._stencil.cache_info().currsize <= bounds._STENCIL_MEMO_SIZE
    # the oldest point was dropped: its stencil is computed again, equally
    misses = bounds._stencil.cache_info().misses
    assert t2_rhs(f, OFF, pts[0], 0.5, 3.0) == first
    assert bounds._stencil.cache_info().misses == misses + 1
    # a quadrant sum that overflows raises again on every call
    g, big = parse_surface("u^3*v^3"), Rect(0.0, 1e40, 0.0, 1e40)
    for _ in range(2):
        with pytest.raises(EvalError, match="overflows"):
            t2_rhs(g, big, EvalPoint(5e39, 5e39), 1.0, 2.0)


def test_a_right_side_outside_the_rect_raises_before_any_evaluation(monkeypatch):
    f, mixed, _ = _counting(monkeypatch, catalog_lookup("u2v2"))
    t1_rhs(f, UNIT, UNIT.midpoint(), 0.5)
    outside = EvalPoint(5.0, 5.0)
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            t1_rhs(f, UNIT, outside, 0.5)
        with pytest.raises(ValueError) as lhs_exc:
            lemma_lhs(f, UNIT, outside)
        assert str(exc.value) == str(lhs_exc.value)
    # f was not evaluated there, and the point never entered the memo:
    # the midpoint's stencil is still the one entry
    assert len(mixed) == 1
    assert bounds._stencil.cache_info().currsize == 1
    hits = bounds._stencil.cache_info().hits
    t1_rhs(f, UNIT, UNIT.midpoint(), 0.5)
    assert (len(mixed), bounds._stencil.cache_info().hits) == (1, hits + 1)


# OVER holds OFF, so one point is queried on both rects; it also holds
# (0, 0), where |D| of (u+v)^0.5*u is NaN, so every stencil of that
# surface on OVER fails
OVER = Rect(0.0, 2.5, 0.0, 3.0)
_SURFACES = (catalog_lookup("u2v2"), catalog_lookup("u2.5v2"), parse_surface("(u+v)^0.5*u"))
_PTS = (EvalPoint(0.5, 1.0), OFF.midpoint(), EvalPoint(1.25, 2.5))
_FAMILY_Q = st.one_of(st.just((TheoremId.T1, None)),
                      st.tuples(st.just(TheoremId.T2), st.sampled_from((2, 2.0, 3.0))),
                      st.tuples(st.just(TheoremId.T3), st.sampled_from((1, 2, 2.0))))
_ON = (st.sampled_from(_SURFACES), st.sampled_from((OFF, OVER)), st.sampled_from((0.5, 1.0)))
_OPS = st.one_of(
    st.tuples(st.just("point"), *_ON, _FAMILY_Q, st.sampled_from(PrefactorMode),
              st.sampled_from(_PTS)),
    st.tuples(st.just("corner"), *_ON, _FAMILY_Q, st.sampled_from(PrefactorMode),
              st.sampled_from(Corner)),
    st.tuples(st.just("mid"), *_ON, _FAMILY_Q, st.sampled_from(PrefactorMode)),
    st.tuples(st.just("remark"), *_ON,
              st.sampled_from((TheoremId.R_C15, TheoremId.R_METU, TheoremId.R_FINAL)),
              st.sampled_from((2, 3.0))))


def _run(op):
    kind, f, rect, s, *rest = op
    try:
        if kind == "point":
            (family, q), mode, pt = rest
            if family is TheoremId.T1:
                return t1_rhs(f, rect, pt, s)
            if family is TheoremId.T2:
                return t2_rhs(f, rect, pt, s, q)
            return t3_rhs(f, rect, pt, s, q, mode)
        if kind == "corner":
            (family, q), mode, corner = rest
            return corner_report(family, corner, f, rect, s, q, constant_mode=mode)
        if kind == "mid":
            (family, q), mode = rest
            return midpoint_report(family, f, rect, s, q, constant_mode=mode)
        remark, q = rest
        return remark_aggregate(remark, f, rect, s, q)
    except EvalError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_OPS, min_size=4, max_size=16))
def test_interleaved_right_sides_and_reports_equal_cold_calls(ops):
    warm = [_run(op) for op in ops]
    cold = []
    for op in ops:
        _empty_memos()
        cold.append(_run(op))
    assert warm == cold


# ---------------------------------------------------------------------------
# the parse memo: one Surface per expression
# ---------------------------------------------------------------------------

def test_two_scans_of_one_expression_fill_the_left_side_table_once(tmp_path, capsys):
    argv = ["scan", "--fn", "u^2.5*v^2", "--rect", "0.5,2.5,1,3", "--grid", "4",
            "--format", "csv"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    info = identity._lhs_parts.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert parse_surface("u^2.5*v^2") is parse_surface("u^2.5*v^2")
    assert parse_surface("u^2.5*v^2", name="p") is not parse_surface("u^2.5*v^2")


def test_a_bad_expression_raises_every_time_and_is_never_remembered():
    for _ in range(2):
        with pytest.raises(ParseError):
            parse_surface("u^^2")
    assert parse_surface.cache_info().currsize == 0


def test_two_suite_runs_in_one_process_give_identical_json(capsys):
    runs = []
    for _ in range(2):
        assert cli.main(["suite", "--format", "json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# the family evaluator memo
# ---------------------------------------------------------------------------

def test_each_family_evaluator_is_built_once_per_key():
    f = catalog_lookup("u2v2")
    for pt in POINTS:
        t1_rhs(f, OFF, pt, 0.5)
        t2_rhs(f, OFF, pt, 0.5, 3.0)
        t3_rhs(f, OFF, pt, 0.5, 2.0, PrefactorMode.SHARPENED)
        t3_rhs(f, OFF, pt, 0.5, 2.0)
    info = bounds._family_evaluator.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    assert info.hits == 4 * (len(POINTS) - 1)
    assert (bounds.family_rhs(bounds.TheoremId.T2, 0.5, 3.0)
            is bounds.family_rhs(bounds.TheoremId.T2, 0.5, 3.0))


def test_right_sides_reports_and_aggregates_share_one_evaluator_per_exponent_set():
    f = catalog_lookup("u2v2")
    t1_rhs(f, OFF, POINTS[1], 0.5)
    t2_rhs(f, OFF, POINTS[1], 0.5, 2.0)
    corner_report(TheoremId.T1, Corner.AC, f, OFF, 0.5)
    midpoint_report(TheoremId.T2, f, OFF, 0.5, 2.0)
    remark_aggregate(TheoremId.R_METU, f, OFF, 0.5, 2.0)
    assert bounds._family_evaluator.cache_info().misses == 2


def test_one_evaluator_per_formula_however_the_call_is_written():
    T1, T2, T3 = TheoremId.T1, TheoremId.T2, TheoremId.T3
    f, pt = catalog_lookup("u2v2"), POINTS[1]
    # t1 reads s alone, t2 s and q, t3 s, q and the constant mode
    t1 = bounds.family_rhs(T1, 0.5)
    assert all(e is t1 for e in (
        bounds.family_rhs(T1, 0.5, 3.0), bounds.family_rhs(T1, s=0.5),
        bounds.family_rhs(T1, 0.5, None, PrefactorMode.SHARPENED)))
    t2 = bounds.family_rhs(T2, 0.5, 3.0)
    assert all(e is t2 for e in (
        bounds.family_rhs(T2, 0.5, 3.0, PrefactorMode.VERBATIM),
        bounds.family_rhs(T2, 0.5, q=3.0), bounds.family_rhs(T2, 0.5, 3.0, "sharpened")))
    t3 = bounds.family_rhs(T3, 0.5, 2.0, PrefactorMode.SHARPENED)
    assert all(e is t3 for e in (
        bounds.family_rhs(T3, 0.5, 2.0, "sharpened"),
        bounds.family_rhs(T3, 0.5, q=2.0, constant_mode="sharpened")))
    t3_verbatim = bounds.family_rhs(T3, 0.5, 2.0)
    assert t3_verbatim is bounds.family_rhs(T3, 0.5, 2.0, "verbatim")
    assert t3_verbatim is not t3
    info = bounds._family_evaluator.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    # the right sides and reports read the same four
    assert t1_rhs(f, OFF, pt, 0.5) == t1(f, OFF, pt)
    assert t2_rhs(f, OFF, pt, 0.5, 3.0) == t2(f, OFF, pt)
    assert t3_rhs(f, OFF, pt, 0.5, 2.0, "sharpened") == t3(f, OFF, pt)
    corner_report(TheoremId.T3, Corner.AC, f, OFF, 0.5, 2.0, constant_mode="sharpened")
    midpoint_report(TheoremId.T1, f, OFF, 0.5, 3.0)
    assert bounds._family_evaluator.cache_info().misses == 4


def test_a_bad_exponent_raises_every_time_and_is_never_remembered():
    f = catalog_lookup("u2v2")
    pt = POINTS[1]
    for _ in range(2):
        for call in (lambda: t1_rhs(f, OFF, pt, 0.0),           # s in (0, 1]
                     lambda: t2_rhs(f, OFF, pt, 1.5, 2.0),
                     lambda: t2_rhs(f, OFF, pt, 0.5, 1.0),      # Holder q > 1
                     lambda: t3_rhs(f, OFF, pt, 0.5, 0.5),      # power mean q >= 1
                     lambda: t3_rhs(f, OFF, pt, 0.5, 2.0, "bogus")):
            with pytest.raises(ValueError):
                call()
    assert bounds._family_evaluator.cache_info().currsize == 0


@pytest.mark.parametrize("first,second", [(2, 2.0), (2.0, 2)], ids=["int-first", "float-first"])
def test_integer_and_float_q_give_equal_right_sides(first, second):
    f = catalog_lookup("u2.5v2")
    for pt in POINTS:
        for mode in PrefactorMode:
            assert t3_rhs(f, OFF, pt, 0.5, first, mode) == t3_rhs(f, OFF, pt, 0.5, second, mode)
        assert t2_rhs(f, OFF, pt, 0.5, first) == t2_rhs(f, OFF, pt, 0.5, second)


# ---------------------------------------------------------------------------
# the cost of a warm lookup
# ---------------------------------------------------------------------------

def _python_calls(fn, *args, **kwargs) -> list[str]:
    """The Python functions a warm call fn(*args, **kwargs) enters, fn
    included, by name: sys.setprofile reports a "call" event for each
    Python frame and none for C code, such as a C-level hash."""
    fn(*args, **kwargs)
    names, profiler = [], sys.getprofile()
    sys.setprofile(lambda frame, event, arg:
                   names.append(frame.f_code.co_name) if event == "call" else None)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(profiler)
    return names


def test_a_warm_lookup_runs_no_python_level_hash_or_coercion():
    f, pt, cfg = catalog_lookup("u2.5v2"), POINTS[1], QuadConfig()
    # t1_rhs..t3_rhs reach the cached evaluator with C-level key hashes
    # only, then run the evaluator, its formula closure, and _t1 or the
    # point's quadrant-sum memo; Rect.area is an attribute
    for call in ((t1_rhs, f, OFF, pt, 0.5), (t2_rhs, f, OFF, pt, 0.5, 2.0),
                 (t3_rhs, f, OFF, pt, 0.5, 2.0, PrefactorMode.SHARPENED)):
        calls = _python_calls(*call)
        assert len(calls) == 4, calls
    # lemma_lhs on the quadrature path: one point check (2 frames), the
    # path choice, and the left-side formula with its corner sum; no enum
    # coercion, and C-level Rect and QuadConfig hashes
    calls = _python_calls(lemma_lhs, f, OFF, pt, cfg=cfg)
    assert len(calls) == 6, calls
    # a t1 corner report: the lemma_lhs and t1 right side above, through
    # family_rhs; the corner's point and its EvalPoint; four reads of an
    # enum's .value, 2 frames each; _params, _finish, the holds rule and
    # the report's __init__
    calls = _python_calls(corner_report, TheoremId.T1, Corner.AD, f, OFF, 0.5, cfg=cfg)
    assert len(calls) == 27, calls
