import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_rect.bounds import (BOUND_ABS_TOL, BOUND_REL_TOL, Corner,
                                  TheoremId, chain_evaluate, corner_report,
                                  midpoint_report, remark_aggregate,
                                  t1_report, t1_rhs, t2_report, t2_rhs,
                                  t3_report, t3_rhs)
from hadamard_rect.domain import (EvalPoint, NormalizationMode, PrefactorMode,
                                  Rect)
from hadamard_rect.quad import DEEP
from hadamard_rect.surfaces import catalog_lookup, parse_surface, scaled

UNIT = Rect(0.0, 1.0, 0.0, 1.0)
WIDE = Rect(0.0, 2.0, 0.0, 1.0)
MID = EvalPoint(0.5, 0.5)
UV = catalog_lookup("uv")
U2V2 = catalog_lookup("u2v2")
U2V25 = catalog_lookup("u2v2.5")


# ---------------------------------------------------------------------------
# the paper's displayed corner and midpoint formulas, written out on their
# own: the oracle the specializations are checked against
# ---------------------------------------------------------------------------

def displayed_corner(theorem, corner, f, rect, s, q=None):
    """Right side of corner part 1-4 as displayed (verbatim t3 constant)."""
    D = lambda u, v: abs(f.mixed_partial(u, v))
    pt, opp = corner.point(rect), corner.opposite(rect)
    dc, do = D(pt.x, pt.y), D(opp.x, opp.y)
    dm1, dm2 = D(pt.x, opp.y), D(opp.x, pt.y)
    area, s1, s2 = rect.area, s + 1.0, s + 2.0
    if theorem is TheoremId.T1:
        return area / s2 ** 2 * (dc / s1 ** 2 + (dm1 + dm2) / s1 + do)
    if theorem is TheoremId.T2:
        p = q / (q - 1.0)
        return (area * (p + 1.0) ** (-2.0 / p) / s1 ** (2.0 / q)
                * (dc ** q + dm1 ** q + dm2 ** q + do ** q) ** (1.0 / q))
    inner = dc ** q + s1 * (dm1 ** q + dm2 ** q) + s1 ** 2 * do ** q
    return 2.0 ** (2.0 - 2.0 / q) * area / (s1 * s2) ** (2.0 / q) * inner ** (1.0 / q)


def displayed_midpoint(theorem, f, rect, s, q=None):
    """Right side of the midpoint specialization as displayed."""
    D = lambda u, v: abs(f.mixed_partial(u, v))
    a, b, c, d = rect.a, rect.b, rect.c, rect.d
    mx, my = (a + b) / 2.0, (c + d) / 2.0
    area, s1, s2 = rect.area, s + 1.0, s + 2.0
    if theorem is TheoremId.T1:
        return area / (4.0 * s2 ** 2) * (
            D(mx, my) / s1 ** 2
            + (D(a, my) + D(b, my)) / (2.0 * s1)
            + (D(mx, c) + D(mx, d)) / (2.0 * s1)
            + (D(a, c) + D(a, d) + D(b, c) + D(b, d)) / 4.0)
    quads = (((mx, c), (a, my), (a, c)), ((mx, d), (a, my), (a, d)),
             ((mx, c), (b, my), (b, c)), ((mx, d), (b, my), (b, d)))
    edge, corner = (1.0, 1.0) if theorem is TheoremId.T2 else (s1, s1 ** 2)
    total = sum((D(mx, my) ** q + edge * D(*pe) ** q + edge * D(*pv) ** q
                 + corner * D(*pc) ** q) ** (1.0 / q) for pe, pv, pc in quads)
    if theorem is TheoremId.T2:
        p = q / (q - 1.0)
        return area / 16.0 * (p + 1.0) ** (-2.0 / p) / s1 ** (2.0 / q) * total
    return 2.0 ** (2.0 - 2.0 / q) * area / 16.0 / (s1 * s2) ** (2.0 / q) * total


# (family, q) pairs the oracle tests cover
DISPLAYED_FAMILIES = ((TheoremId.T1, None), (TheoremId.T2, 1.5), (TheoremId.T2, 3.0),
                      (TheoremId.T3, 1.0), (TheoremId.T3, 2.0), (TheoremId.T3, 4.0))


# ---------------------------------------------------------------------------
# closed-form anchors: for u*v the mixed partial is 1 everywhere and the
# nine-point first-power sum collapses to a perfect square
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
def test_first_power_anchor_at_unit_midpoint(s):
    assert t1_rhs(UV, UNIT, MID, s) == pytest.approx(1.0 / (4.0 * (s + 1.0) ** 2),
                                                     abs=1e-15)


def test_holder_anchor_at_unit_midpoint():
    # (1/3 from the kernel) * (1/2 from s) * (1/2 from the quadrant sum)
    assert t2_rhs(UV, UNIT, MID, 1.0, 2.0) == pytest.approx(1.0 / 12.0, abs=1e-15)


@pytest.mark.parametrize("s", [0.25, 0.75, 1.0])
@pytest.mark.parametrize("f", [UV, U2V2], ids=["uv", "u2v2"])
def test_power_mean_at_q1_collapses_to_first_power(f, s):
    for pt in (MID, EvalPoint(0.25, 0.75), EvalPoint(1.0, 0.5)):
        rect = WIDE
        t1 = t1_rhs(f, rect, pt, s)
        for mode in PrefactorMode:
            assert t3_rhs(f, rect, pt, s, 1.0, mode) == pytest.approx(t1, rel=1e-13)


@pytest.mark.parametrize("q", [1.5, 2.0, 4.0])
def test_prefactor_modes_differ_by_fixed_ratio(q):
    v = t3_rhs(U2V2, WIDE, EvalPoint(1.0, 0.5), 0.5, q, PrefactorMode.VERBATIM)
    sh = t3_rhs(U2V2, WIDE, EvalPoint(1.0, 0.5), 0.5, q, PrefactorMode.SHARPENED)
    assert v / sh == pytest.approx(2.0 ** (4.0 - 4.0 / q), rel=1e-13)
    assert v >= sh


def test_q_validation():
    with pytest.raises(Exception):
        t2_rhs(UV, UNIT, MID, 0.5, 1.0)      # Holder needs q > 1
    with pytest.raises(Exception):
        t3_rhs(UV, UNIT, MID, 0.5, 0.5)      # power mean needs q >= 1


def test_each_point_bound_makes_one_nine_point_mixed_partial_call():
    sizes = []

    def counting(u, v):
        sizes.append(np.broadcast(np.asarray(u), np.asarray(v)).size)
        return U2V2.mixed_fn(u, v)

    f = dataclasses.replace(U2V2, mixed_fn=counting)
    pt = EvalPoint(0.75, 0.25)
    for rhs in (lambda: t1_rhs(f, WIDE, pt, 0.5), lambda: t2_rhs(f, WIDE, pt, 0.5, 2.0),
                lambda: t3_rhs(f, WIDE, pt, 0.5, 3.0)):
        sizes.clear()
        rhs()
        assert sizes == [9]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_fields_are_consistent():
    rep = t1_report(U2V2, WIDE, EvalPoint(1.0, 0.5), 0.5)
    assert rep.theorem_id is TheoremId.T1
    assert rep.margin == pytest.approx(rep.rhs - rep.lhs, abs=1e-15)
    assert rep.tol == pytest.approx(BOUND_ABS_TOL + BOUND_REL_TOL * abs(rep.rhs))
    assert rep.holds == (rep.margin >= -rep.tol)
    assert rep.holds
    assert rep.hypothesis_certified is None
    assert rep.params["rect"] == (0.0, 2.0, 0.0, 1.0)
    assert rep.params["point"] == (1.0, 0.5)
    assert rep.params["s"] == 0.5
    assert rep.params["mode"] == "corrected"


def test_reports_hold_across_catalog_spot_checks():
    for name in ("uv", "u2v2", "u2.5v2.5", "sum_square"):
        f = catalog_lookup(name)
        assert t1_report(f, WIDE, EvalPoint(0.5, 0.25), 0.5).holds
        assert t2_report(f, WIDE, EvalPoint(0.5, 0.25), 0.5, 2.0).holds
        assert t3_report(f, WIDE, EvalPoint(0.5, 0.25), 0.5, 2.0,
                         PrefactorMode.SHARPENED).holds


def test_certification_hook_sets_flag():
    rep = t1_report(UV, UNIT, MID, 0.5, certify=True)
    assert rep.hypothesis_certified is True


def test_certification_hook_flags_failing_hypothesis():
    # |mixed partial| of u^1.5 v^1.5 is 2.25 sqrt(uv): concave sections,
    # so 1-convexity on coordinates fails and the sampler should see it
    f = parse_surface("u^1.5*v^1.5")
    with pytest.warns(UserWarning, match="counterexample"):
        rep = t1_report(f, UNIT, MID, 1.0, certify=True)
    assert rep.hypothesis_certified is False


# ---------------------------------------------------------------------------
# corner and midpoint specializations
# ---------------------------------------------------------------------------

def test_corner_geometry_helpers():
    assert Corner.AC.point(WIDE) == EvalPoint(0.0, 0.0)
    assert Corner.AC.opposite(WIDE) == EvalPoint(2.0, 1.0)
    assert Corner.BD.point(WIDE) == EvalPoint(2.0, 1.0)
    assert Corner.AD.opposite(WIDE) == EvalPoint(2.0, 0.0)


def test_corner_ids_follow_displayed_partition():
    order = [(Corner.AC, "1"), (Corner.BD, "2"), (Corner.AD, "3"), (Corner.BC, "4")]
    for corner, part in order:
        assert corner_report(TheoremId.T1, corner, UV, WIDE, 0.5).theorem_id.value == f"c1_{part}"
        assert corner_report(TheoremId.T2, corner, UV, WIDE, 0.5, q=2.0).theorem_id.value == f"c2_{part}"
        assert corner_report(TheoremId.T3, corner, UV, WIDE, 0.5, q=2.0).theorem_id.value == f"c3_{part}"


def test_corner_equality_case_for_bilinear():
    # at s = 1 the first-power corner bound is attained by u*v
    rep = corner_report(TheoremId.T1, Corner.AC, UV, WIDE, 1.0)
    assert rep.lhs == pytest.approx(0.5, abs=1e-14)
    assert rep.rhs == pytest.approx(0.5, abs=1e-14)
    assert abs(rep.margin) < 1e-12
    assert rep.holds


def test_corner_reports_hold_everywhere():
    for corner in Corner:
        for theorem, q in ((TheoremId.T1, None), (TheoremId.T2, 2.0), (TheoremId.T3, 2.0)):
            rep = corner_report(theorem, corner, U2V2, WIDE, 0.75, q=q)
            assert rep.holds, (theorem, corner)


@pytest.mark.parametrize("rect", [UNIT, WIDE], ids=["unit", "wide"])
@pytest.mark.parametrize("f", [UV, U2V2, U2V25], ids=["uv", "u2v2", "u2v2.5"])
def test_corner_reports_match_displayed_formulas(f, rect):
    for theorem, q in DISPLAYED_FAMILIES:
        for s in (0.25, 0.75):
            for corner in Corner:
                got = corner_report(theorem, corner, f, rect, s, q=q).rhs
                assert got == pytest.approx(
                    displayed_corner(theorem, corner, f, rect, s, q), rel=1e-13), \
                    (theorem, q, s, corner)


@pytest.mark.parametrize("rect", [UNIT, WIDE], ids=["unit", "wide"])
@pytest.mark.parametrize("f", [UV, U2V2, U2V25], ids=["uv", "u2v2", "u2v2.5"])
def test_midpoint_reports_match_displayed_formulas(f, rect):
    for theorem, q in DISPLAYED_FAMILIES:
        for s in (0.25, 0.75):
            got = midpoint_report(theorem, f, rect, s, q=q).rhs
            assert got == pytest.approx(
                displayed_midpoint(theorem, f, rect, s, q), rel=1e-13), (theorem, q, s)


def test_midpoint_specialization_equals_general_bound_at_midpoint():
    # the displayed midpoint forms are the general bounds at the midpoint
    for f in (UV, U2V2):
        for rect in (UNIT, WIDE):
            mid = rect.midpoint()
            s = 0.5
            assert t1_rhs(f, rect, mid, s) == pytest.approx(
                displayed_midpoint(TheoremId.T1, f, rect, s), rel=1e-13)
            assert t2_rhs(f, rect, mid, s, 2.0) == pytest.approx(
                displayed_midpoint(TheoremId.T2, f, rect, s, 2.0), rel=1e-13)
            assert t3_rhs(f, rect, mid, s, 3.0) == pytest.approx(
                displayed_midpoint(TheoremId.T3, f, rect, s, 3.0), rel=1e-13)


def test_midpoint_ids():
    assert midpoint_report(TheoremId.T1, UV, WIDE, 0.5).theorem_id is TheoremId.C1_MID
    assert midpoint_report(TheoremId.T2, UV, WIDE, 0.5, q=2.0).theorem_id is TheoremId.C2_5
    assert midpoint_report(TheoremId.T3, UV, WIDE, 0.5, q=2.0).theorem_id is TheoremId.C3_5


def test_specializations_require_q_where_applicable():
    with pytest.raises(ValueError, match="needs q"):
        corner_report(TheoremId.T2, Corner.AC, UV, WIDE, 0.5)
    with pytest.raises(ValueError, match="needs q"):
        corner_report(TheoremId.T3, Corner.AC, UV, WIDE, 0.5)
    with pytest.raises(ValueError, match="needs q"):
        midpoint_report(TheoremId.T2, UV, WIDE, 0.5)
    with pytest.raises(ValueError, match="no corner specialization"):
        corner_report(TheoremId.R_C15, Corner.AC, UV, WIDE, 0.5)


# ---------------------------------------------------------------------------
# summed corner aggregates
# ---------------------------------------------------------------------------

def test_aggregates_equal_area_weighted_corner_sums():
    families = ((TheoremId.R_C15, TheoremId.T1, None),
                (TheoremId.R_METU, TheoremId.T2, 2.0),
                (TheoremId.R_FINAL, TheoremId.T3, 2.0))
    for f in (UV, U2V25):
        for remark, family, q in families:
            agg = remark_aggregate(remark, f, WIDE, 0.5, q=q)
            per_corner = [corner_report(family, corner, f, WIDE, 0.5, q=q)
                          for corner in Corner]
            displayed = WIDE.area * sum(displayed_corner(family, corner, f, WIDE, 0.5, q)
                                        for corner in Corner)
            assert agg.rhs == pytest.approx(displayed, rel=1e-12)
            assert WIDE.area * sum(r.rhs for r in per_corner) == pytest.approx(
                displayed, rel=1e-12)
            assert agg.lhs == pytest.approx(
                WIDE.area * sum(r.lhs for r in per_corner), rel=1e-12)
            assert agg.holds


def test_aggregates_require_q_where_applicable():
    with pytest.raises(ValueError, match="needs q"):
        remark_aggregate(TheoremId.R_METU, UV, WIDE, 0.5)
    with pytest.raises(ValueError, match="needs q"):
        remark_aggregate(TheoremId.R_FINAL, UV, WIDE, 0.5)
    with pytest.raises(ValueError, match="not an aggregate"):
        remark_aggregate(TheoremId.T1, UV, WIDE, 0.5)
    assert remark_aggregate(TheoremId.R_C15, UV, WIDE, 0.5).holds


# ---------------------------------------------------------------------------
# positive homogeneity: every bound side scales linearly with the surface
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(min_value=0.125, max_value=8.0),
       s=st.floats(min_value=0.1, max_value=1.0))
def test_bounds_scale_linearly(alpha, s):
    pt = EvalPoint(0.75, 0.25)
    g = scaled(U2V2, alpha)
    assert t1_rhs(g, WIDE, pt, s) == pytest.approx(alpha * t1_rhs(U2V2, WIDE, pt, s),
                                                   rel=1e-12)
    assert t2_rhs(g, WIDE, pt, s, 2.0) == pytest.approx(
        alpha * t2_rhs(U2V2, WIDE, pt, s, 2.0), rel=1e-12)
    assert t3_rhs(g, WIDE, pt, s, 3.0) == pytest.approx(
        alpha * t3_rhs(U2V2, WIDE, pt, s, 3.0), rel=1e-12)


# ---------------------------------------------------------------------------
# five-term chain
# ---------------------------------------------------------------------------

def test_chain_bilinear_unit_is_flat():
    ev = chain_evaluate(UV, UNIT, 1.0)
    for val in ev.values:
        assert val == pytest.approx(0.25, abs=1e-12)
    assert ev.monotone
    assert ev.hypothesis_certified is None


def test_chain_monotone_for_quartic():
    ev = chain_evaluate(U2V2, WIDE, 0.5)
    assert ev.monotone
    assert ev.e0 < ev.e4


def test_chain_inner_equalities_for_matching_power_surface():
    # for u^s v^s the area mean, edge means and corner sum all coincide
    s = 0.5
    f = parse_surface(f"u^{s}*v^{s}")
    ev = chain_evaluate(f, UNIT, s, cfg=DEEP)
    assert ev.monotone
    assert ev.e2 == pytest.approx(ev.e3, abs=1e-9)
    assert ev.e3 == pytest.approx(ev.e4, abs=1e-9)
    assert ev.e0 < ev.e2


def test_chain_certification_flag():
    ev = chain_evaluate(UV, UNIT, 1.0, certify=True)
    assert ev.hypothesis_certified is True


def test_chain_rejects_bad_exponent():
    with pytest.raises(Exception):
        chain_evaluate(UV, UNIT, 1.5)
