import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_rect.bounds import t1_rhs
from hadamard_rect.domain import EvalPoint, Rect
from hadamard_rect.surfaces import (_LAMBDA_GRID, _N_PAIRS, _N_SECTIONS,
                                    _PAIRS_PER_SECTION, _VIOLATION_TOL,
                                    CertificationReport,
                                    DomainNotNonnegative, EvalError,
                                    ParseError, Poly2, SamplerConfig,
                                    SurfaceKind, UnknownSurface, Verdict,
                                    Witness, MAX_POLY_DEGREE,
                                    catalog, catalog_lookup,
                                    certify_coordinated,
                                    certify_s_convex_second_sense,
                                    const_surface, finite_difference_mixed,
                                    kernel_moments, parse_surface,
                                    poly_surface, power_integrals, powers,
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


def test_a_power_product_term_is_zero_where_a_factor_is_exactly_zero():
    # u^2.5 overflows at u = 1.5e154; against v^2 = 0 the term is 0, not
    # inf * 0, and numpy's overflow warning does not escape
    f = parse_surface("u^2.5*v^2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f(1.5e154, 0.0) == 0.0
        assert f.fn(np.array([1.5e154, 4.0]), np.array([0.0, 3.0])).tolist() == [0.0, 288.0]
        assert f.mixed_partial(1e250, 0.0) == 0.0          # 5 u^1.5 v
        with pytest.raises(EvalError, match=r"evaluated to inf at \(1\.5e\+154, 1\.0\)"):
            f(1.5e154, 1.0)
    # a zero to a negative power is a pole, even against an exact zero
    g = parse_surface("u^0.5*v^2")                         # D = u^-0.5 v
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvalError, match=r"is nan at \(0\.0, 0\.0\)"):
            g.mixed_partial(0.0, 0.0)


def test_mixed_partial_error_names_first_non_finite_point():
    # 0.25 u^-0.5 v^-0.5 is infinite on the axes; array input is checked too
    f = parse_surface("u^0.5*v^0.5")
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


_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_polys = st.dictionaries(st.tuples(st.integers(0, MAX_POLY_DEGREE), st.integers(0, MAX_POLY_DEGREE)),
                         _fracs, max_size=12).map(Poly2.from_dict)


def _brute(p, alpha, beta):
    """sum c_ij alpha(i) beta(j) over every coefficient, zeros included."""
    return sum(cv * alpha(i) * beta(j)
               for i, row in enumerate(p.coeffs) for j, cv in enumerate(row))


@settings(max_examples=80, deadline=None)
@given(p=_polys, u=_fracs, v=_fracs, lo=_fracs, hi=_fracs)
def test_contraction_is_the_brute_force_sum(p, u, v, lo, hi):
    du, dv = p.degree_u, p.degree_v
    pow_u, pow_v = (lambda i: u ** i), (lambda j: v ** j)
    integral = lambda k: (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)   # antiderivative of t^k
    moment = lambda k: Fraction(1, k + 1) - Fraction(1, k + 2)        # of (1-t) t^k on [0, 1]
    value = _brute(p, pow_u, pow_v)
    assert p.contract(powers(u, du), powers(v, dv)) == value
    assert p.eval_exact(u, v) == value
    assert p.contract(power_integrals(lo, hi, du), powers(v, dv)) == _brute(p, integral, pow_v)
    assert p.contract(powers(u, du), power_integrals(lo, hi, dv)) == _brute(p, pow_u, integral)
    assert (p.contract(power_integrals(lo, hi, du), power_integrals(u, v, dv))
            == _brute(p, integral, lambda j: (v ** (j + 1) - u ** (j + 1)) / (j + 1)))
    assert p.contract(kernel_moments(du), kernel_moments(dv)) == _brute(p, moment, moment)


def test_a_numeric_only_surface_raises_eval_error_without_a_numpy_warning():
    f = parse_surface("(u-v)^2.5")
    assert f.kind is SurfaceKind.NUMERIC_ONLY
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalError):
            f(0.0, 1.0)
        with pytest.raises(EvalError):
            f.mixed_partial(0.0, 1.0)
        assert f(3.0, 2.0) == 1.0
        # values that overflow to inf leave the finite difference as NaN
        g = parse_surface("(u*1000000000000+1)^30.5")
        with pytest.raises(EvalError):
            g.mixed_partial(1e8, 1.0)


def test_a_power_product_pole_raises_eval_error_without_a_numpy_warning():
    # |D| of u^0.5*v^0.5 is 0.25 u^-0.5 v^-0.5: a pole at the corner (0, 0)
    # of every stencil on [0,1]^2
    f = parse_surface("u^0.5*v^0.5")
    assert f.kind is SurfaceKind.POWER_PRODUCT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalError, match=r"is inf at \(0\.0, 0\.0\)"):
            t1_rhs(f, Rect(0.0, 1.0, 0.0, 1.0), EvalPoint(0.5, 0.5), 0.5)


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


# violations planted about 1e-6 deep: the sampler must see them at its
# default seed, and a tolerance near 1e-3 would pass every one
def _bump(t):
    """1 plus a concave 1e-4·t(1-t): not convex (s = 1) on [0, 1]."""
    return 1.0 + 1e-4 * t * (1.0 - t)


def _dip(t):
    """Convex, but negative down to -1e-6 on [0, 1)."""
    return 1e-6 * (t * t - 1.0)


@pytest.mark.parametrize("g, kind", [(_bump, "inequality"), (_dip, "negative_value")],
                         ids=["concave-bump", "negative-dip"])
def test_certify_finds_a_violation_planted_1e_6_deep(g, kind):
    reports = (certify_s_convex_second_sense(g, 1.0, 0.0, 1.0),
               certify_coordinated(lambda u, v: g(u), Rect(0.0, 1.0, 0.0, 1.0), 1.0))
    for report in reports:
        assert report.verdict is Verdict.COUNTEREXAMPLE
        assert report.witness.kind == kind
        assert 1e-7 < report.witness.slack < 1e-5
    # the coordinated search finds it on a horizontal section u -> g(u)
    assert reports[1].witness.section[0] == "v"


def test_certification_requires_nonnegative_domain():
    with pytest.raises(DomainNotNonnegative):
        certify_s_convex_second_sense(lambda t: t * t, 0.5, -1.0, 1.0)
    with pytest.raises(DomainNotNonnegative):
        certify_coordinated(lambda u, v: u * v, Rect(-1.0, 1.0, 0.0, 1.0), 0.5)


# ---------------------------------------------------------------------------
# the sequential scan: one section, three g calls and one RNG draw at a
# time. The library batches every section of an orientation into one g call
# and must give the same reports, witness and samples_used included.
# ---------------------------------------------------------------------------

def _reference_scan_section(g, s: float, lo: float, hi: float, n_pairs: int,
                            rng, tol: float, section) -> tuple[Witness | None, int]:
    xs = rng.uniform(lo, hi, size=(n_pairs, 2))
    x1 = xs[:, 0:1]
    x2 = xs[:, 1:2]
    g1 = np.asarray(g(xs[:, 0]), dtype=float).reshape(-1, 1)
    g2 = np.asarray(g(xs[:, 1]), dtype=float).reshape(-1, 1)
    # the definition lives on nonnegative functions; a negative sample is
    # already a counterexample
    neg = np.argwhere(np.minimum(g1, g2) < -tol)
    used = 2 * n_pairs
    if neg.size:
        r = int(neg[0, 0])
        pt = float(xs[r, 0] if g1[r, 0] < -tol else xs[r, 1])
        val = float(min(g1[r, 0], g2[r, 0]))
        return Witness(pt, pt, 0.0, val, 0.0, -val, "negative_value", section), used
    lam = _LAMBDA_GRID[None, :]
    mid = lam * x1 + (1.0 - lam) * x2
    lhs = np.asarray(g(mid.ravel()), dtype=float).reshape(mid.shape)
    rhs = lam ** s * g1 + (1.0 - lam) ** s * g2
    used += mid.size
    bad = np.argwhere(lhs > rhs + tol)
    if bad.size:
        r, k = int(bad[0, 0]), int(bad[0, 1])
        return Witness(float(x1[r, 0]), float(x2[r, 0]), float(_LAMBDA_GRID[k]),
                       float(lhs[r, k]), float(rhs[r, k]),
                       float(lhs[r, k] - rhs[r, k]), "inequality", section), used
    return None, used


def reference_certify_s_convex_second_sense(g, s: float, lo: float, hi: float,
                                            config: SamplerConfig = SamplerConfig()
                                            ) -> CertificationReport:
    rng = np.random.default_rng(config.seed)
    witness, used = _reference_scan_section(g, s, lo, hi, _N_PAIRS, rng,
                                            _VIOLATION_TOL, None)
    verdict = Verdict.COUNTEREXAMPLE if witness else Verdict.NO_COUNTEREXAMPLE_FOUND
    return CertificationReport(verdict, witness, used, config.seed, s)


def reference_certify_coordinated(f, rect: Rect, s: float,
                                  config: SamplerConfig = SamplerConfig()
                                  ) -> CertificationReport:
    rng = np.random.default_rng(config.seed)
    used = 0
    v_cuts = rng.uniform(rect.c, rect.d, size=_N_SECTIONS)
    u_cuts = rng.uniform(rect.a, rect.b, size=_N_SECTIONS)
    for v0 in v_cuts:
        witness, n = _reference_scan_section(
            lambda u, v0=v0: f(u, np.full_like(np.asarray(u, float), v0)),
            s, rect.a, rect.b, _PAIRS_PER_SECTION, rng,
            _VIOLATION_TOL, ("v", float(v0)))
        used += n
        if witness:
            return CertificationReport(Verdict.COUNTEREXAMPLE, witness, used, config.seed, s)
    for u0 in u_cuts:
        witness, n = _reference_scan_section(
            lambda v, u0=u0: f(np.full_like(np.asarray(v, float), u0), v),
            s, rect.c, rect.d, _PAIRS_PER_SECTION, rng,
            _VIOLATION_TOL, ("u", float(u0)))
        used += n
        if witness:
            return CertificationReport(Verdict.COUNTEREXAMPLE, witness, used, config.seed, s)
    return CertificationReport(Verdict.NO_COUNTEREXAMPLE_FOUND, None, used, config.seed, s)


# convex, concave along v-sections, concave along u-sections, negative
# valued, and of changing curvature (whether a pair fails depends on lambda)
SURFACES_2D = {
    "u^2+v^2": lambda u, v: u * u + v * v,
    "sqrt(u)+v": lambda u, v: np.sqrt(u) + v,
    "u+sqrt(v)": lambda u, v: u + np.sqrt(v),
    "u*v-1": lambda u, v: u * v - 1.0,
    "2+cos(3u)+cos(3v)": lambda u, v: 2.0 + np.cos(3.0 * u) + np.cos(3.0 * v),
}
SECTIONS_1D = {"t^2": lambda t: t * t, "sqrt(t)": np.sqrt, "t-1": lambda t: t - 1.0,
               "2+cos(3t)": lambda t: 2.0 + np.cos(3.0 * t)}

_ends = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
_widths = st.floats(min_value=0.01, max_value=4.0, allow_nan=False)
_s_values = st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0))
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SURFACES_2D)), a=_ends, c=_ends, wu=_widths,
       wv=_widths, s=_s_values, seed=_seeds)
def test_batched_coordinated_certification_equals_the_sequential_scan(name, a, c, wu,
                                                                       wv, s, seed):
    f = SURFACES_2D[name]
    rect = Rect(a, a + wu, c, c + wv)
    cfg = SamplerConfig(seed=seed)
    assert certify_coordinated(f, rect, s, cfg) == reference_certify_coordinated(f, rect, s, cfg)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SECTIONS_1D)), lo=_ends, width=_widths,
       s=_s_values, seed=_seeds)
def test_batched_1d_certification_equals_the_sequential_scan(name, lo, width, s, seed):
    g = SECTIONS_1D[name]
    cfg = SamplerConfig(seed=seed)
    assert (certify_s_convex_second_sense(g, s, lo, lo + width, cfg)
            == reference_certify_s_convex_second_sense(g, s, lo, lo + width, cfg))


@pytest.mark.parametrize("name, rect, s, seed, kind, axis", [
    ("sqrt(u)+v", Rect(0.0, 4.0, 0.0, 1.0), 1.0, 5, "inequality", "v"),
    ("u+sqrt(v)", Rect(0.0, 1.0, 0.0, 4.0), 1.0, 5, "inequality", "u"),
    ("u*v-1", Rect(0.0, 1.0, 0.0, 1.0), 0.5, 3, "negative_value", "v"),
])
def test_witnesses_of_each_kind_equal_the_sequential_scan(name, rect, s, seed, kind, axis):
    f = SURFACES_2D[name]
    report = certify_coordinated(f, rect, s, SamplerConfig(seed=seed))
    assert (report.witness.kind, report.witness.section[0]) == (kind, axis)
    assert report == reference_certify_coordinated(f, rect, s, SamplerConfig(seed=seed))


def _counted(fn):
    def wrapper(*args):
        wrapper.calls += 1
        return fn(*args)
    wrapper.calls = 0
    return wrapper


@pytest.mark.parametrize("name, rect, calls", [
    ("u^2+v^2", Rect(0.0, 2.0, 0.0, 1.0), 2),      # clean verdict: both orientations
    ("sqrt(u)+v", Rect(0.0, 4.0, 0.0, 1.0), 1),    # v-section witness: u-sections skipped
])
def test_coordinated_certification_makes_one_call_per_orientation(name, rect, calls):
    g = _counted(SURFACES_2D[name])
    certify_coordinated(g, rect, 1.0, SamplerConfig(seed=5))
    assert g.calls == calls


def test_1d_certification_makes_one_call():
    g = _counted(SECTIONS_1D["t^2"])
    report = certify_s_convex_second_sense(g, 1.0, 0.0, 2.0)
    assert (g.calls, report.samples_used) == (1, 660 * 17)


def test_non_finite_certification_sample_raises():
    f = parse_surface("(u-v)^2.5").fn
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvalError, match=r"is nan at 0\.0464\d* on section v = 0\.1375"):
            certify_coordinated(f, Rect(0.0, 1.0, 0.0, 1.0), 1.0)
        with pytest.raises(EvalError, match="is nan at"):
            certify_coordinated(lambda u, v: np.full_like(u, np.nan), Rect(0.0, 1.0, 0.0, 1.0), 1.0)
        with pytest.raises(EvalError, match=r"is nan at 0\.\d+$"):
            certify_s_convex_second_sense(lambda t: np.sqrt(t - 0.5), 1.0, 0.0, 1.0)
    with pytest.raises(EvalError, match="is inf at"):
        certify_s_convex_second_sense(lambda t: np.where(t > 0.5, np.inf, t), 1.0, 0.0, 1.0)


def test_non_finite_sample_after_a_witness_section_raises():
    # the first v-section already holds a witness; its NaN sits in a later one
    def g(u, v):
        return np.where(v > 0.5, np.nan, -1.0 + 0.0 * u)
    assert reference_certify_coordinated(g, Rect(0.0, 1.0, 0.0, 1.0), 1.0).witness.section[1] < 0.5
    with pytest.raises(EvalError):
        certify_coordinated(g, Rect(0.0, 1.0, 0.0, 1.0), 1.0)


def test_const_surface_roundtrip():
    f = const_surface(3.5)
    assert f(0.3, 0.9) == 3.5
    assert f.mixed_partial(0.3, 0.9) == 0.0
    assert math.isfinite(f.poly.eval_exact(Fraction(1), Fraction(1)))
