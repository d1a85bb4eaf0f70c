"""The exact left side at a point: recorded values, the rational formula as
oracle, every coordinate type the rational path accepts, and modes given
by their string values.
"""
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_rect.domain import EvalPoint, NormalizationMode, Rect
from hadamard_rect.identity import (_exact_parts, _lhs_combination, corner_term_A,
                                    lemma_lhs, lemma_lhs_at, lemma_residual,
                                    lemma_residual_exact)
from hadamard_rect.suite import random_poly_battery
from hadamard_rect.surfaces import Poly2, catalog, catalog_lookup, poly_surface

OFF = Rect(0.5, 2.5, 1.0, 3.0)

# ---------------------------------------------------------------------------
# recorded reprs of lemma_lhs and lemma_lhs_at on the rational path. Run
# this file as a script to rewrite the record.
# ---------------------------------------------------------------------------

LHS_GOLDEN = Path(__file__).parent / "data" / "lhs_golden.txt"

# the eight battery rects, one with negative and one with decimal coordinates
GOLDEN_RECTS = ((0, 1, 0, 1), (0, 2, 0, 1), (0.5, 2.5, 1, 3), (0, 1.5, 0.5, 2),
                (1, 2, 0, 2), (0.25, 1.25, 0.5, 3), (0, 3, 0, 3), (0.5, 1, 0, 0.5),
                (-1.5, -0.25, -2.0, 0.5), (0.1, 0.7, 0.3, 1.9))


def _golden_points(rect: Rect) -> list[EvalPoint]:
    """Corners, edge midpoints, the midpoint and three interior points."""
    w, h = rect.b - rect.a, rect.d - rect.c
    mid = rect.midpoint()
    return [*rect.corners(),
            EvalPoint(rect.a, mid.y), EvalPoint(rect.b, mid.y),
            EvalPoint(mid.x, rect.c), EvalPoint(mid.x, rect.d), mid,
            EvalPoint(rect.a + w / 6.0, rect.c + 5.0 * h / 6.0),
            EvalPoint(rect.a + 0.3 * w, rect.c + 0.45 * h),
            EvalPoint(rect.a + 0.875 * w, rect.c + 0.125 * h)]


def _golden_surfaces():
    polys = [e.surface for e in catalog() if e.surface.poly is not None]
    battery = random_poly_battery()
    return polys + [battery[3], battery[7], battery[12]]


def _golden_text(value_at) -> str:
    """One line per (surface, rect, mode): the reprs at every golden point,
    value_at(f, rect, mode, points) giving the values."""
    lines = []
    for f in _golden_surfaces():
        for coords in GOLDEN_RECTS:
            rect = Rect(*coords)
            for mode in NormalizationMode:
                values = value_at(f, rect, mode, _golden_points(rect))
                lines.append(f"{f.name} {rect} {mode.value}: {values!r}")
    return "\n".join(lines) + "\n"


def _by_lemma_lhs(f, rect, mode, points):
    return tuple(lemma_lhs(f, rect, pt, mode) for pt in points)


def _by_lemma_lhs_at(f, rect, mode, points):
    at = lemma_lhs_at(f, rect, mode)
    return tuple(at(pt) for pt in points)


@pytest.mark.parametrize("value_at", [_by_lemma_lhs, _by_lemma_lhs_at],
                         ids=["lemma_lhs", "lemma_lhs_at"])
def test_exact_left_sides_match_the_recorded_values(value_at):
    assert _golden_text(value_at) == LHS_GOLDEN.read_text()


# ---------------------------------------------------------------------------
# the rational formula _lhs_combination stays the oracle
# ---------------------------------------------------------------------------

@st.composite
def _polys(draw):
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                 st.integers(-3, 3).filter(bool), min_size=1, max_size=8))
    return Poly2.from_dict(terms)


@st.composite
def _rect_and_point(draw):
    coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
    a, b = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
    c, d = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
    x = draw(st.one_of(st.sampled_from((a, b)), st.floats(min_value=a, max_value=b)))
    y = draw(st.one_of(st.sampled_from((c, d)), st.floats(min_value=c, max_value=d)))
    return Rect(a, b, c, d), EvalPoint(x, y)


def _outcome(value):
    """repr of value(), which tells -0.0 from 0.0, or the error it raised:
    on tiny rects the verbatim left side overflows a float."""
    try:
        return repr(value())
    except OverflowError as exc:
        return f"OverflowError: {exc}"


@settings(max_examples=150, deadline=None)
@given(poly=_polys(), where=_rect_and_point(), mode=st.sampled_from(NormalizationMode))
def test_left_side_is_the_rational_formula_rounded_once(poly, where, mode):
    rect, pt = where
    f = poly_surface(poly, name="drawn")
    oracle = _outcome(lambda: float(_lhs_combination(rect.exact(), *pt.exact(),
                                                     *_exact_parts(poly, rect), mode)))
    assert _outcome(lambda: lemma_lhs_at(f, rect, mode)(pt)) == oracle
    assert _outcome(lambda: lemma_lhs(f, rect, pt, mode)) == oracle


# ---------------------------------------------------------------------------
# coordinate types
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", [int, float, np.int64, np.float64],
                         ids=["int", "float", "np.int64", "np.float64"])
@pytest.mark.parametrize("mode", list(NormalizationMode), ids=lambda m: m.value)
def test_exact_path_reads_every_coordinate_type_as_its_value(kind, mode):
    f = catalog_lookup("u3v2")
    at = lemma_lhs_at(f, OFF, mode)
    for x, y in ((1, 2), (2, 3), (1, 1)):
        pt = EvalPoint(kind(x), kind(y))
        want = float(lemma_residual_exact(f, OFF, EvalPoint(float(x), float(y)), mode).lhs)
        assert lemma_lhs(f, OFF, pt, mode) == want
        assert at(pt) == want


def test_exact_path_reads_rational_coordinates_exactly():
    f = catalog_lookup("u2v3")
    pt = EvalPoint(Fraction(2, 3), Fraction(7, 5))
    for mode in NormalizationMode:
        want = float(_lhs_combination(OFF.exact(), *pt.exact(),
                                      *_exact_parts(f.poly, OFF), mode))
        assert lemma_lhs(f, OFF, pt, mode) == want


# ---------------------------------------------------------------------------
# a mode given as its string value
# ---------------------------------------------------------------------------

def test_string_mode_reads_as_its_member():
    f = catalog_lookup("u2v2")
    pt = EvalPoint(1.0, 2.0)
    for mode in NormalizationMode:
        for use_exact in (True, False):
            assert (lemma_lhs(f, OFF, pt, mode.value, use_exact=use_exact)
                    == lemma_lhs(f, OFF, pt, mode, use_exact=use_exact))
        assert lemma_lhs_at(f, OFF, mode.value)(pt) == lemma_lhs_at(f, OFF, mode)(pt)
        assert corner_term_A(f, OFF, pt, mode.value) == corner_term_A(f, OFF, pt, mode)
        assert lemma_residual(f, OFF, pt, mode.value) == lemma_residual(f, OFF, pt, mode)
        assert (lemma_residual_exact(f, OFF, pt, mode.value)
                == lemma_residual_exact(f, OFF, pt, mode))
    # the two modes differ here, so a string read as the default would show
    assert lemma_lhs(f, OFF, pt, "verbatim") != lemma_lhs(f, OFF, pt, "corrected")


def test_unknown_mode_raises():
    f = catalog_lookup("u2v2")
    pt = EvalPoint(1.0, 2.0)
    for call in (lambda: lemma_lhs(f, OFF, pt, "sharpened"),
                 lambda: lemma_lhs_at(f, OFF, "bogus"),
                 lambda: corner_term_A(f, OFF, pt, "bogus"),
                 lambda: lemma_residual(f, OFF, pt, "bogus"),
                 lambda: lemma_residual_exact(f, OFF, pt, "bogus")):
        with pytest.raises(ValueError, match="is not a valid NormalizationMode"):
            call()


if __name__ == "__main__":
    LHS_GOLDEN.write_text(_golden_text(_by_lemma_lhs))
