import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hadamard_rect.domain import (BadExponent, DegenerateRect, EvalPoint,
                                  HolderPair, NormalizationMode, PowerMeanQ,
                                  Rect, SExponent, make_holder_pair, make_rect)


def test_rect_basic_geometry():
    r = Rect(0.0, 2.0, 0.0, 1.0)
    assert r.area == 2.0
    assert r.midpoint() == EvalPoint(1.0, 0.5)
    corners = r.corners()
    assert corners == (EvalPoint(0, 0), EvalPoint(0, 1),
                       EvalPoint(2, 0), EvalPoint(2, 1))


@pytest.mark.parametrize("bad", [(1, 1, 0, 1), (2, 1, 0, 1), (0, 1, 1, 1), (0, 1, 2, 1)])
def test_degenerate_rect_rejected(bad):
    with pytest.raises(DegenerateRect):
        make_rect(*bad)


@pytest.mark.parametrize("coords", [(0, 1e-200, 0, 1e-200), (0, 0.5, 0, 5e-324),
                                    (-1e308, 1e308, 0, 1), (0, 1, -1e308, 1e308),
                                    (0, 1e200, 0, 1e200)],
                         ids=["area-underflows", "area-underflows-subnormal",
                              "width-overflows", "height-overflows", "area-overflows"])
def test_rect_whose_width_height_or_area_is_not_a_positive_finite_float_is_rejected(coords):
    with pytest.raises(DegenerateRect, match="must be finite and greater than 0"):
        make_rect(*coords)


def test_rect_with_a_subnormal_area_is_accepted():
    assert Rect(0.0, 1e-160, 0.0, 1e-160).area > 0.0


_COORD = st.floats(-1e6, 1e6, allow_nan=False)


@given(a=_COORD, c=_COORD, w=st.floats(1e-3, 1e6), h=st.floats(1e-3, 1e6))
def test_rect_area_and_hash_are_those_of_its_fields(a, c, w, h):
    b, d = a + w, c + h
    r = Rect(a, b, c, d)
    # computed once at construction, with the bits the formula gives
    assert r.area == (b - a) * (d - c)
    # the hash a frozen dataclass gives its fields, also after replace()
    assert hash(r) == hash((a, b, c, d))
    moved = dataclasses.replace(Rect(a, b + 1.0, c, d), b=b)
    assert moved == r and hash(moved) == hash(r) and moved.area == r.area


def test_rect_fields_repr_equality_and_pickling_are_unchanged():
    r = Rect(0.5, 2.5, 1.0, 3.0)
    assert [fd.name for fd in dataclasses.fields(r)] == ["a", "b", "c", "d"]
    assert repr(r) == "Rect(a=0.5, b=2.5, c=1.0, d=3.0)"
    assert r == make_rect(0.5, 2.5, 1, 3) and r != Rect(0.5, 2.5, 1.0, 3.5)
    assert dataclasses.astuple(r) == (0.5, 2.5, 1.0, 3.0)
    copy = pickle.loads(pickle.dumps(r))
    assert (copy, hash(copy), copy.area) == (r, hash(r), r.area)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.area = 1.0


def test_contains_includes_boundary():
    r = Rect(0.0, 2.0, 0.0, 1.0)
    assert r.contains(EvalPoint(0.0, 0.0))
    assert r.contains(EvalPoint(2.0, 1.0))
    assert r.contains(EvalPoint(1.0, 0.5))
    assert not r.contains(EvalPoint(2.0001, 0.5))
    assert not r.contains(EvalPoint(1.0, -0.0001))


def test_exact_coordinates_are_fractions():
    r = Rect(0.25, 2.25, 0.125, 1.125)
    a, b, c, d = r.exact()
    assert (a, b, c, d) == (Fraction(1, 4), Fraction(9, 4),
                            Fraction(1, 8), Fraction(9, 8))
    assert EvalPoint(0.5, 0.75).exact() == (Fraction(1, 2), Fraction(3, 4))


@pytest.mark.parametrize("s", [0.0, -0.5, 1.0001, 2.0])
def test_s_exponent_range(s):
    with pytest.raises(BadExponent):
        SExponent(s)


def test_s_exponent_accepts_boundary():
    assert SExponent(1.0).s == 1.0
    assert SExponent(1e-9).s == 1e-9


def test_holder_pair_must_be_conjugate():
    HolderPair(2.0, 2.0)
    HolderPair(3.0, 1.5)
    with pytest.raises(BadExponent):
        HolderPair(2.0, 3.0)
    with pytest.raises(BadExponent):
        HolderPair(1.0, 2.0)


@given(st.floats(min_value=1.0001, max_value=64.0))
def test_make_holder_pair_conjugacy(q):
    hp = make_holder_pair(q)
    assert hp.q == q
    assert abs(1.0 / hp.p + 1.0 / hp.q - 1.0) < 1e-12


def test_make_holder_pair_rejects_q_at_most_one():
    with pytest.raises(BadExponent):
        make_holder_pair(1.0)
    with pytest.raises(BadExponent):
        make_holder_pair(0.5)


def test_power_mean_q_allows_one():
    assert PowerMeanQ(1.0).q == 1.0
    with pytest.raises(BadExponent):
        PowerMeanQ(0.99)


def test_mode_enums_round_trip():
    assert NormalizationMode("corrected") is NormalizationMode.CORRECTED
    assert NormalizationMode("verbatim") is NormalizationMode.VERBATIM
