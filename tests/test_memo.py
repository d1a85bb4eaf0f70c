"""The parse, left-side, stencil and family-evaluator memos: repeated
queries on one expression, one (f, rect), one point or one exponent set
reuse earlier work and give the values a cold call gives.

tests/conftest.py empties all four memos before each test.
"""
import dataclasses

import numpy as np
import pytest

from hadamard_rect import bounds, cli, identity
from hadamard_rect.bounds import t1_rhs, t2_rhs, t3_rhs
from hadamard_rect.domain import EvalPoint, NormalizationMode, PrefactorMode, Rect
from hadamard_rect.identity import lemma_lhs
from hadamard_rect.quad import ToleranceNotMet
from hadamard_rect.surfaces import EvalError, ParseError, catalog_lookup, parse_surface

UNIT = Rect(0.0, 1.0, 0.0, 1.0)
OFF = Rect(0.5, 2.5, 1.0, 3.0)
POINTS = (EvalPoint(0.5, 1.0), EvalPoint(1.25, 2.5), EvalPoint(2.5, 3.0), OFF.midpoint())


def _empty_memos():
    identity._lhs_parts.cache_clear()
    bounds._last_stencil = None
    bounds.family_stencil_rhs.cache_clear()


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
    assert bounds._last_stencil is None
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
    info = bounds.family_stencil_rhs.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    assert info.hits == 4 * (len(POINTS) - 1)
    assert (bounds.family_stencil_rhs(bounds.TheoremId.T2, 0.5, 3.0)
            is bounds.family_stencil_rhs(bounds.TheoremId.T2, 0.5, 3.0))


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
    assert bounds.family_stencil_rhs.cache_info().currsize == 0


@pytest.mark.parametrize("first,second", [(2, 2.0), (2.0, 2)], ids=["int-first", "float-first"])
def test_integer_and_float_q_give_equal_right_sides(first, second):
    f = catalog_lookup("u2.5v2")
    for pt in POINTS:
        for mode in PrefactorMode:
            assert t3_rhs(f, OFF, pt, 0.5, first, mode) == t3_rhs(f, OFF, pt, 0.5, second, mode)
        assert t2_rhs(f, OFF, pt, 0.5, first) == t2_rhs(f, OFF, pt, 0.5, second)
