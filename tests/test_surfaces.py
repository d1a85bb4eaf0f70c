import math
from fractions import Fraction

import numpy as np
import pytest

from hadamard_rect.domain import Rect
from hadamard_rect.surfaces import (DomainNotNonnegative, EvalError,
                                    ParseError, Poly2, SamplerConfig,
                                    SurfaceKind, UnknownSurface, Verdict,
                                    catalog, catalog_lookup,
                                    certify_coordinated,
                                    certify_s_convex_second_sense,
                                    const_surface, finite_difference_mixed,
                                    parse_surface, poly_surface,
                                    replay_witness, scaled)


# ---------------------------------------------------------------------------
# parsing and classification
# ---------------------------------------------------------------------------

def test_parse_bilinear_is_polynomial():
    f = parse_surface("u*v")
    assert f.kind is SurfaceKind.POLYNOMIAL
    assert f.poly is not None
    assert f(2.0, 3.0) == 6.0
    assert f.mixed_partial(0.3, 0.7) == 1.0


def test_parse_expands_integer_power_of_sum():
    f = parse_surface("(u+v)^2")
    assert f.kind is SurfaceKind.POLYNOMIAL
    # u^2 + 2uv + v^2
    assert f.poly.eval_exact(Fraction(1, 2), Fraction(1, 3)) == Fraction(25, 36)
    assert f.mixed_partial(5.0, -3.0) == 2.0


def test_parse_fractional_power_product():
    f = parse_surface("u^0.5*v^0.5")
    assert f.kind is SurfaceKind.POWER_PRODUCT
    assert f.poly is None
    assert f(4.0, 9.0) == pytest.approx(6.0, abs=1e-14)
    # d2/dudv = 0.25 u^-0.5 v^-0.5
    assert f.mixed_partial(4.0, 4.0) == pytest.approx(1.0 / 16.0, rel=1e-13)


def test_parse_fractional_power_sum_keeps_exact_mixed():
    f = parse_surface("u^2.5+v")
    assert f.kind is SurfaceKind.POWER_PRODUCT
    # mixed partial of a separable sum vanishes
    assert f.mixed_partial(1.7, 0.4) == 0.0


def test_parse_unexpandable_falls_back_to_numeric():
    f = parse_surface("(u+v)^0.5")
    assert f.kind is SurfaceKind.NUMERIC_ONLY
    assert f.mixed_fn is None
    assert f(1.0, 3.0) == pytest.approx(2.0, abs=1e-14)


def test_parse_huge_integer_power_downgrades():
    # expanding (u+v)^40 would blow past the polynomial degree cap
    f = parse_surface("(u+v)^40")
    assert f.kind is SurfaceKind.NUMERIC_ONLY
    assert f(1.0, 1.0) == pytest.approx(2.0 ** 40)


def test_parse_error_reports_offset_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse_surface("u^^2")
    assert exc.value.position == 2
    assert exc.value.expected == ("number",)
    assert "unexpected '^' at offset 2" in str(exc.value)


def test_parse_error_trailing_junk():
    with pytest.raises(ParseError) as exc:
        parse_surface("2u")
    assert exc.value.position == 1
    assert "end of input" in str(exc.value.expected)


@pytest.mark.parametrize("bad", ["", "u+", "*v", "u^", "(u+v", "u^v", "w", "u/v", "-u"])
def test_parse_error_on_malformed_expressions(bad):
    with pytest.raises(ParseError):
        parse_surface(bad)


def test_eval_error_outside_power_domain():
    f = parse_surface("u^0.5*v^0.5")
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvalError):
            f(-1.0, 1.0)


def test_mixed_partial_error_names_first_non_finite_point():
    # 0.25 u^-0.5 v^-0.5 is infinite on the axes; array input is checked too
    f = parse_surface("u^0.5*v^0.5")
    with np.errstate(divide="ignore"):
        with pytest.raises(EvalError, match=r"is inf at \(0\.0, 0\.5\)"):
            f.mixed_partial(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.5, 1.0]))


def test_surfaces_accept_arrays():
    f = parse_surface("u^2*v+3")
    u = np.linspace(0.0, 2.0, 7)
    v = np.linspace(0.0, 1.0, 7)
    out = f(u, v)
    assert out.shape == (7,)
    assert np.allclose(out, u * u * v + 3.0)


# ---------------------------------------------------------------------------
# exact polynomial structure
# ---------------------------------------------------------------------------

def test_poly_eval_exact_matches_float_eval():
    p = Poly2.from_dict({(0, 0): Fraction(1, 3), (2, 1): -2, (3, 3): Fraction(5, 7)})
    f = poly_surface(p)
    for u, v in [(0.0, 0.0), (0.5, 0.25), (1.75, 2.0), (3.0, 0.125)]:
        exact = p.eval_exact(Fraction(u), Fraction(v))
        assert f(u, v) == pytest.approx(float(exact), rel=1e-14, abs=1e-14)


def test_mixed_partial_poly_is_exact_derivative():
    p = Poly2.from_dict({(2, 2): 1})      # d2/dudv (u^2 v^2) = 4uv
    m = p.mixed_partial_poly()
    assert m.eval_exact(Fraction(3), Fraction(5)) == 60


def test_finite_difference_tracks_exact_mixed_partial():
    f = parse_surface("u^3*v^3")
    rng = np.random.default_rng(4)
    for _ in range(10):
        u, v = rng.uniform(0.5, 3.0, size=2)
        exact = f.mixed_partial(u, v)
        approx = finite_difference_mixed(f.fn, u, v)
        assert approx == pytest.approx(exact, rel=2e-5)


def test_scaled_preserves_exact_structure():
    f = parse_surface("u^2*v^2")
    g = scaled(f, 2.5)
    assert g.poly is not None
    assert g(1.0, 2.0) == pytest.approx(2.5 * 4.0)
    assert g.mixed_partial(1.0, 1.0) == pytest.approx(2.5 * 4.0)
    h = scaled(parse_surface("(u+v)^0.5"), 3.0)
    assert h.poly is None
    assert h(1.0, 3.0) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_has_twelve_certified_entries():
    entries = catalog()
    assert len(entries) == 12
    assert all(e.abs_mixed_coordinated for e in entries)
    assert len({e.name for e in entries}) == 12


@pytest.mark.parametrize("name,probe", [
    ("uv", 6.0), ("bilinear", 6.0), ("quartic", 36.0), ("u2v2", 36.0),
    ("sextic", 216.0), ("const", 1.0),
])
def test_catalog_lookup_by_name_and_alias(name, probe):
    f = catalog_lookup(name)
    assert f(2.0, 3.0) == pytest.approx(probe)


def test_catalog_lookup_miss():
    with pytest.raises(UnknownSurface):
        catalog_lookup("uw")


# ---------------------------------------------------------------------------
# certification sampler
# ---------------------------------------------------------------------------

def test_certify_negative_value_is_a_counterexample():
    report = certify_s_convex_second_sense(lambda t: -t, 1.0, 0.0, 1.0,
                                           SamplerConfig(seed=7))
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.witness.kind == "negative_value"
    assert replay_witness(lambda t: -t, 1.0, report.witness) > 0


def test_certify_concave_root_fails_inequality():
    report = certify_s_convex_second_sense(np.sqrt, 1.0, 0.0, 4.0,
                                           SamplerConfig(seed=3))
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.witness.kind == "inequality"
    assert replay_witness(np.sqrt, 1.0, report.witness) > 0


def test_certify_convex_section_passes():
    report = certify_s_convex_second_sense(lambda t: t * t, 1.0, 0.0, 2.0)
    assert report.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
    assert report.witness is None
    assert report.samples_used > 0


def test_certify_is_deterministic_for_fixed_seed():
    cfg = SamplerConfig(seed=11)
    f = catalog_lookup("uv")
    rect = Rect(0.0, 2.0, 0.0, 1.0)
    r1 = certify_coordinated(lambda u, v: abs(f.mixed_partial(u, v)), rect, 0.5, cfg)
    r2 = certify_coordinated(lambda u, v: abs(f.mixed_partial(u, v)), rect, 0.5, cfg)
    assert r1 == r2
    assert r1.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND


def test_certify_coordinated_finds_sectionwise_violation():
    # f(u,v) = sqrt(u) + v is concave along every horizontal section
    report = certify_coordinated(lambda u, v: np.sqrt(u) + v,
                                 Rect(0.0, 4.0, 0.0, 1.0), 1.0,
                                 SamplerConfig(seed=5))
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.witness.section is not None


def test_certification_requires_nonnegative_domain():
    with pytest.raises(DomainNotNonnegative):
        certify_s_convex_second_sense(lambda t: t * t, 0.5, -1.0, 1.0)
    with pytest.raises(DomainNotNonnegative):
        certify_coordinated(lambda u, v: u * v, Rect(-1.0, 1.0, 0.0, 1.0), 0.5)


def test_const_surface_roundtrip():
    f = const_surface(3.5)
    assert f(0.3, 0.9) == 3.5
    assert f.mixed_partial(0.3, 0.9) == 0.0
    assert math.isfinite(f.poly.eval_exact(Fraction(1), Fraction(1)))
