"""The exact left side at a point: recorded values, the rational formula as
oracle, the lattice evaluator against the point path, every coordinate
type the rational path accepts, and modes given by their string values.
"""
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadamard_rect.domain import EvalPoint, NormalizationMode, Rect
from hadamard_rect.identity import (_exact_parts, _lhs_combination, corner_term_A,
                                    lemma_lhs, lemma_lhs_at, lemma_lhs_lattice,
                                    lemma_residual, lemma_residual_exact)
from hadamard_rect.suite import random_poly_battery
from hadamard_rect.surfaces import (MAX_POLY_DEGREE, EvalError, Poly2, catalog, catalog_lookup,
                                    parse_surface, poly_surface)

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
    assume((b - a) * (d - c) > 0.0)          # Rect rejects an area that underflows
    x = draw(st.one_of(st.sampled_from((a, b)), st.floats(min_value=a, max_value=b)))
    y = draw(st.one_of(st.sampled_from((c, d)), st.floats(min_value=c, max_value=d)))
    return Rect(a, b, c, d), EvalPoint(x, y)


def _outcome(value):
    """repr of value(), which tells -0.0 from 0.0, or "overflow": on tiny
    rects the verbatim left side overflows a float, which float() of the
    oracle reports as OverflowError and the library as EvalError."""
    try:
        return repr(value())
    except (OverflowError, EvalError):
        return "overflow"


@settings(max_examples=150, deadline=None)
@given(poly=_polys(), where=_rect_and_point(), mode=st.sampled_from(NormalizationMode))
def test_left_side_is_the_rational_formula_rounded_once(poly, where, mode):
    rect, pt = where
    f = poly_surface(poly, name="drawn")
    oracle = _outcome(lambda: float(_lhs_combination(rect.exact(), *pt.exact(),
                                                     *_exact_parts(poly, rect), mode)))
    assert _outcome(lambda: lemma_lhs_at(f, rect, mode)(pt)) == oracle
    assert _outcome(lambda: lemma_lhs(f, rect, pt, mode)) == oracle


@st.composite
def _full_degree_polys(draw):
    """Up to MAX_POLY_DEGREE in each variable, with one term of degree at
    least 6 in both, so the right side meets the kernel moments of degree
    5 to 7 in each variable."""
    top = draw(st.tuples(st.integers(6, MAX_POLY_DEGREE), st.integers(6, MAX_POLY_DEGREE)))
    degree = st.integers(0, MAX_POLY_DEGREE)
    terms = draw(st.dictionaries(st.tuples(degree, degree), st.integers(-3, 3).filter(bool),
                                 max_size=7))
    return Poly2.from_dict({**terms, top: draw(st.integers(1, 3))})


@st.composite
def _grid_rect_and_point(draw):
    """A rect and a point inside it on one grid of step 1/den: dyadic (8)
    or decimal (10, whose floats have large power-of-two denominators)."""
    den = draw(st.sampled_from((8, 10)))
    ticks = st.lists(st.integers(-24, 24), min_size=2, max_size=2, unique=True)
    a, b = sorted(draw(ticks))
    c, d = sorted(draw(ticks))
    x, y = draw(st.integers(a, b)), draw(st.integers(c, d))
    return Rect(a / den, b / den, c / den, d / den), EvalPoint(x / den, y / den)


@settings(max_examples=60, deadline=None)
@given(poly=_full_degree_polys(), where=_grid_rect_and_point())
def test_full_degree_identity_is_exact_and_its_left_side_is_the_formula(poly, where):
    rect, pt = where
    f = poly_surface(poly, name="drawn")
    corrected = lemma_residual_exact(f, rect, pt, NormalizationMode.CORRECTED)
    assert corrected.residual == 0
    # verbatim divides A by the area once more, and that is its whole residual
    verbatim = lemma_residual_exact(f, rect, pt, NormalizationMode.VERBATIM)
    a, b, c, d = rect.exact()
    assert verbatim.residual == abs(verbatim.a_term - corrected.a_term) / ((b - a) * (d - c))
    for mode in NormalizationMode:
        oracle = float(_lhs_combination(rect.exact(), *pt.exact(),
                                        *_exact_parts(poly, rect), mode))
        assert repr(lemma_lhs_at(f, rect, mode)(pt)) == repr(oracle)


# ---------------------------------------------------------------------------
# the lattice left side equals the point path node for node
# ---------------------------------------------------------------------------

def _lattice(rect: Rect, n: int = 12):
    """scan_gap's lattice coordinates."""
    xs = [rect.a + i * (rect.b - rect.a) / n for i in range(n)] + [rect.b]
    ys = [rect.c + j * (rect.d - rect.c) / n for j in range(n)] + [rect.d]
    return xs, ys


def _point_path(f, rect, xs, ys, mode):
    """repr of lemma_lhs_at at each node, or the message of its EvalError."""
    at = lemma_lhs_at(f, rect, mode)

    def outcome(x, y):
        try:
            return repr(at(EvalPoint(x, y)))
        except EvalError as exc:
            return str(exc)

    return [[outcome(x, y) for x in xs] for y in ys]


def _lattice_path(f, rect, xs, ys, mode):
    """The same from one lemma_lhs_lattice call."""
    values, failed = lemma_lhs_lattice(f, rect, xs, ys, mode)
    assert values.shape == (len(ys), len(xs))
    return [[failed.get((ix, iy), repr(v)) for ix, v in enumerate(row)]
            for iy, row in enumerate(values.tolist())]


@pytest.mark.parametrize("mode", list(NormalizationMode), ids=lambda m: m.value)
@pytest.mark.parametrize("coords", [(0.5, 2.5, 1, 3), (1, 2, 1, 2), (0.1, 0.7, 0.3, 1.9),
                                    (1, 3, 0.5, 1.5)])
@pytest.mark.parametrize("expr", ["u^2*v^2+u*v", "u^2.5*v^2", "(u+v)^0.5*u",
                                  "u^3*v^2.5+u^2.5*v^2"],
                         ids=["exact", "power", "sqrt", "power-sum"])
def test_lattice_left_side_is_the_point_path_bit_for_bit(expr, coords, mode):
    f, rect = parse_surface(expr), Rect(*coords)
    xs, ys = _lattice(rect)
    assert _lattice_path(f, rect, xs, ys, mode) == _point_path(f, rect, xs, ys, mode)


@settings(max_examples=60, deadline=None)
@given(poly=_polys(), where=_rect_and_point(), mode=st.sampled_from(NormalizationMode),
       n=st.integers(1, 6))
def test_exact_lattice_left_side_is_the_point_path(poly, where, mode, n):
    rect, _ = where
    f = poly_surface(poly, name="drawn")
    xs, ys = _lattice(rect, n)
    # on tiny rects some nodes of the verbatim left side overflow a float
    assert _lattice_path(f, rect, xs, ys, mode) == _point_path(f, rect, xs, ys, mode)


def test_an_overflowing_left_side_raises_eval_error_and_fails_its_lattice_nodes():
    f, rect = catalog_lookup("const"), Rect(0.0, 1e-160, 0.0, 1e-160)
    pt = rect.midpoint()
    for call in (lambda: lemma_lhs_at(f, rect, "verbatim")(pt),
                 lambda: lemma_lhs(f, rect, pt, "verbatim"),
                 lambda: lemma_residual(f, rect, pt, "verbatim")):
        with pytest.raises(EvalError, match="left side of const overflows a float"):
            call()
    xs, ys = _lattice(rect, 2)
    values, errors = lemma_lhs_lattice(f, rect, xs, ys, "verbatim")
    assert np.isnan(values).all()
    assert sorted(errors) == [(ix, iy) for ix in range(3) for iy in range(3)]
    assert errors[1, 1] == f"left side of const overflows a float at ({xs[1]}, {ys[1]})"
    # the corrected left side of a constant is 0 everywhere
    values, errors = lemma_lhs_lattice(f, rect, xs, ys, "corrected")
    assert errors == {} and not values.any()


def test_a_lattice_outside_the_rect_is_rejected():
    with pytest.raises(ValueError, match="outside"):
        lemma_lhs_lattice(catalog_lookup("uv"), OFF, [0.5, 2.6], [1.0, 3.0])


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
