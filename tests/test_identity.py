from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hadamard_rect.domain import EvalPoint, NormalizationMode, Rect
from hadamard_rect.identity import (corner_term_A, lemma_lhs, lemma_lhs_at,
                                    lemma_residual, lemma_residual_exact,
                                    lemma_rhs)
from hadamard_rect.quad import DEEP
from hadamard_rect.suite import identity_battery_rects, interior_points, random_poly_battery
from hadamard_rect.surfaces import catalog_lookup, const_surface, parse_surface

UNIT = Rect(0.0, 1.0, 0.0, 1.0)
WIDE = Rect(0.0, 2.0, 0.0, 1.0)
MID = EvalPoint(0.5, 0.5)


def test_corner_combination_bilinear_unit_midpoint():
    f = catalog_lookup("uv")
    assert corner_term_A(f, UNIT, MID) == pytest.approx(0.25, abs=1e-15)


def test_corner_combination_verbatim_divides_by_area():
    f = catalog_lookup("uv")
    pt = EvalPoint(1.0, 0.5)
    cor = corner_term_A(f, WIDE, pt, NormalizationMode.CORRECTED)
    ver = corner_term_A(f, WIDE, pt, NormalizationMode.VERBATIM)
    assert ver == pytest.approx(cor / WIDE.area, abs=1e-15)


def test_bilinear_lhs_has_product_closed_form():
    # for u*v the whole signed combination collapses to
    # (midpoint_x - x)(midpoint_y - y), an easy independent oracle
    f = catalog_lookup("uv")
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, c = rng.uniform(-2.0, 2.0, 2)
        rect = Rect(a, a + rng.uniform(0.3, 3.0), c, c + rng.uniform(0.3, 3.0))
        pt = EvalPoint(a + rng.uniform(0.0, 1.0) * (rect.b - a),
                       c + rng.uniform(0.0, 1.0) * (rect.d - c))
        m = rect.midpoint()
        closed = (m.x - pt.x) * (m.y - pt.y)
        assert lemma_lhs(f, rect, pt) == pytest.approx(closed, abs=1e-11)


def test_both_sides_agree_exactly_on_polynomials():
    f = catalog_lookup("u2v2")
    for rect in (UNIT, WIDE, Rect(0.25, 2.25, 0.125, 1.125)):
        for pt in (rect.midpoint(), EvalPoint(rect.a, rect.c),
                   EvalPoint(rect.b, rect.midpoint().y)):
            ev = lemma_residual(f, rect, pt)
            assert ev.exact
            assert ev.residual == 0.0
            assert sum(ev.quadrant_terms) == pytest.approx(ev.rhs, abs=1e-15)


def test_exact_evaluation_returns_rationals():
    f = parse_surface("u^3*v^2+u*v")
    ev = lemma_residual_exact(f, WIDE, EvalPoint(0.5, 0.25))
    assert isinstance(ev.lhs, Fraction)
    assert ev.residual == 0
    assert ev.lhs == ev.rhs


def test_exact_evaluation_rejects_non_polynomial():
    f = parse_surface("u^0.5*v^0.5")
    with pytest.raises(ValueError):
        lemma_residual_exact(f, UNIT, MID)


def test_const_annihilated_in_corrected_mode():
    f = const_surface(3.0)
    for rect in (UNIT, WIDE):
        ev = lemma_residual_exact(f, rect, rect.midpoint())
        assert ev.lhs == 0
        assert ev.rhs == 0


def test_const_leaves_residual_in_verbatim_mode():
    # normalizing the corner combination twice leaves k(1 - area)/area behind
    f = const_surface(1.0)
    ev = lemma_residual_exact(f, WIDE, EvalPoint(1.0, 0.5),
                              NormalizationMode.VERBATIM)
    assert ev.residual == Fraction(1, 2)
    ev = lemma_residual_exact(f, UNIT, MID, NormalizationMode.VERBATIM)
    assert ev.residual == 0


def test_modes_coincide_on_unit_area_rectangles():
    f = catalog_lookup("u2v2")
    rect = Rect(0.5, 1.5, 2.0, 3.0)
    pt = EvalPoint(0.75, 2.5)
    cor = lemma_residual(f, rect, pt, NormalizationMode.CORRECTED)
    ver = lemma_residual(f, rect, pt, NormalizationMode.VERBATIM)
    assert cor.lhs == pytest.approx(ver.lhs, abs=1e-14)
    assert ver.residual == 0.0


def test_quadrature_path_matches_exact_path():
    f = parse_surface("u^4*v^3+2*u*v")
    rect = Rect(0.5, 2.5, 1.0, 3.0)
    pt = EvalPoint(1.25, 2.5)
    exact_lhs = lemma_lhs(f, rect, pt)
    num_lhs = lemma_lhs(f, rect, pt, use_exact=False)
    assert num_lhs == pytest.approx(exact_lhs, abs=1e-9)
    ev = lemma_residual(f, rect, pt, use_exact=False)
    assert not ev.exact
    assert ev.residual < 1e-9


def test_identity_holds_for_fractional_power_surface():
    # mixed partial ~ (uv)^0.5 is edge-singular in slope only, deep
    # refinement handles that; (uv)^-0.5 at the corner would not converge
    f = parse_surface("u^1.5*v^1.5")
    ev = lemma_residual(f, UNIT, EvalPoint(0.25, 0.75), cfg=DEEP)
    assert not ev.exact
    assert ev.residual < 1e-8


def test_boundary_point_drops_empty_quadrants():
    f = catalog_lookup("uv")
    pt = EvalPoint(0.0, 0.5)     # x = a kills the two left quadrants
    ev = lemma_residual(f, WIDE, pt)
    assert ev.residual == 0.0
    assert lemma_rhs(f, WIDE, pt, use_exact=False) == pytest.approx(ev.rhs, abs=1e-10)


def test_corner_point_values_match_hand_computation():
    # at the (a, c) corner of [0,2]x[0,1] the bilinear sides are +-1/2
    f = catalog_lookup("uv")
    ev = lemma_residual_exact(f, WIDE, EvalPoint(0.0, 0.0))
    assert abs(ev.lhs) == Fraction(1, 2)
    assert abs(ev.rhs) == Fraction(1, 2)
    assert ev.residual == 0


def test_point_outside_rect_rejected():
    f = catalog_lookup("uv")
    bad = EvalPoint(3.0, 0.5)
    with pytest.raises(ValueError, match="outside"):
        lemma_lhs(f, WIDE, bad)
    with pytest.raises(ValueError, match="outside"):
        lemma_residual(f, WIDE, bad)
    with pytest.raises(ValueError, match="outside"):
        corner_term_A(f, WIDE, bad)
    for use_exact in (True, False):
        with pytest.raises(ValueError, match="outside"):
            lemma_lhs_at(f, WIDE, use_exact=use_exact)(bad)


def test_exact_rhs_is_rounded_once():
    # c1's battery on its last rect: rand19 at (1.75, 0.875) gives
    # -0.05372260199652778 once rounded, -0.053722601996527786 from four
    rect = identity_battery_rects()[-1]
    for f in random_poly_battery()[15:]:
        for pt in interior_points(rect):
            assert lemma_rhs(f, rect, pt) == lemma_residual(f, rect, pt).rhs, (f.name, pt)


# ---------------------------------------------------------------------------
# recorded reprs of both paths, errors included; edge points and corners
# zero out quadrants. Run this file as a script to rewrite the record.
# ---------------------------------------------------------------------------

IDENTITY_GOLDEN = Path(__file__).parent / "data" / "identity_golden.txt"


def _golden_cases():
    surfaces = (catalog_lookup("u2v2"), random_poly_battery()[7],
                parse_surface("u^2.5*v^2"))
    for f in surfaces:
        for rect in (UNIT, Rect(0.5, 2.5, 1.0, 3.0)):
            w, h = rect.b - rect.a, rect.d - rect.c
            points = (("interior", EvalPoint(rect.a + 0.25 * w, rect.c + 0.75 * h)),
                      ("edge", EvalPoint(rect.a, rect.c + 0.5 * h)),
                      ("corner", EvalPoint(rect.b, rect.c)),
                      ("midpoint", rect.midpoint()))
            for where, pt in points:
                for mode in NormalizationMode:
                    yield f"{f.name} {rect} {where} {mode.value}", f, rect, pt, mode


def _golden_text() -> str:
    lines = []
    for label, f, rect, pt, mode in _golden_cases():
        for path, run in (
                ("quad", lambda: lemma_residual(f, rect, pt, mode, use_exact=False)),
                ("exact", lambda: lemma_residual_exact(f, rect, pt, mode))):
            try:
                value = repr(run())
            except Exception as exc:
                value = f"{type(exc).__name__}: {exc}"
            lines.append(f"{label} {path}: {value}")
    return "\n".join(lines) + "\n"


def test_both_paths_match_the_recorded_values():
    # interior, edge and corner points zero out zero, two and three quadrants
    assert _golden_text() == IDENTITY_GOLDEN.read_text()


if __name__ == "__main__":
    IDENTITY_GOLDEN.write_text(_golden_text())
