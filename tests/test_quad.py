import math
from fractions import Fraction

import numpy as np
import pytest

from hadamard_rect.domain import PrefactorMode, Rect
from hadamard_rect.quad import (DEEP, IntegralResult, QuadConfig,
                                ToleranceNotMet, gauss_legendre,
                                holder_kernel_constant, integrate_1d,
                                integrate_2d, kernel_moment,
                                poly_integral_exact, power_mean_prefactor)
from hadamard_rect.surfaces import EvalError, Poly2, power_integrals, powers


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 32, 64])
def test_nodes_match_numpy_reference(order):
    # numpy's leggauss is the independent oracle for the Newton iteration
    x, w = gauss_legendre(order)
    xr, wr = np.polynomial.legendre.leggauss(order)
    assert np.allclose(x, xr, atol=5e-15, rtol=0)
    assert np.allclose(w, wr, atol=5e-15, rtol=0)
    assert np.all(np.diff(x) > 0)
    assert abs(w.sum() - 2.0) < 1e-14


def test_nodes_are_cached_and_readonly():
    x1, w1 = gauss_legendre(32)
    x2, _ = gauss_legendre(32)
    assert x1 is x2
    with pytest.raises(ValueError):
        x1[0] = 0.0
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_integrate_1d_closed_forms():
    r = integrate_1d(np.cos, 0.0, 1.0)
    assert abs(r.value - math.sin(1.0)) < 1e-13
    r = integrate_1d(lambda t: np.exp(-t), 0.0, 5.0)
    assert abs(r.value - (1.0 - math.exp(-5.0))) < 1e-12


def test_integrate_1d_endpoint_singularity():
    # integral of t^(-1/2) over (0,1] is 2; nodes never touch the endpoint,
    # cells refine geometrically toward it, so convergence is slow but real
    cfg = QuadConfig(gl_order=32, max_subdiv=48, abs_tol=1e-8)
    r = integrate_1d(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0, cfg)
    assert abs(r.value - 2.0) < 1e-7
    assert r.subdivisions > 10


def test_integrate_1d_degenerate_interval():
    assert integrate_1d(np.cos, 2.0, 2.0) == IntegralResult(0.0, 0.0, 0)


def test_integrate_1d_reversed_endpoints_flip_sign():
    fwd = integrate_1d(lambda t: t ** 3, 0.0, 2.0).value
    bwd = integrate_1d(lambda t: t ** 3, 2.0, 0.0).value
    assert abs(fwd + bwd) < 1e-12


def test_tolerance_not_met_carries_best_value():
    cramped = QuadConfig(gl_order=4, max_subdiv=2, abs_tol=1e-13)
    with pytest.raises(ToleranceNotMet) as exc:
        integrate_1d(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0, cramped)
    assert exc.value.err_estimate > cramped.abs_tol
    assert 1.0 < exc.value.value < 2.1


@pytest.mark.parametrize("integrate", [
    lambda cfg: integrate_1d(np.sqrt, 0.0, 1.0, cfg),
    lambda cfg: integrate_2d(lambda u, v: np.sqrt(u) + 0.0 * v, Rect(0.0, 1.0, 0.0, 1.0), cfg),
], ids=["1d", "2d"])
def test_tolerance_not_met_is_raised_exactly_above_abs_tol(integrate):
    # with no subdivision the error estimate does not depend on abs_tol
    # (for the 2d sqrt(u) it is about 9.9e-4), so abs_tol decides alone
    single = lambda abs_tol: QuadConfig(gl_order=8, max_subdiv=0, abs_tol=abs_tol)
    est = integrate(single(1.0)).err_estimate
    assert est > 1e-6
    with pytest.raises(ToleranceNotMet) as exc:
        integrate(single(est / 2))
    assert exc.value.err_estimate == est
    assert integrate(single(2 * est)).err_estimate == est


def test_eval_error_on_nan_integrand():
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvalError):
            integrate_1d(lambda t: np.sqrt(t - 10.0), 0.0, 1.0)


def test_integrate_2d_separable_product():
    # int_0^1 int_0^2 u e^v du dv = 2 (e - 1)
    r = integrate_2d(lambda u, v: u * np.exp(v), Rect(0, 2, 0, 1))
    assert abs(r.value - 2.0 * (math.e - 1.0)) < 1e-11


def test_integrate_2d_edge_singularity_goes_deep():
    # u^(1/4) v^(1/4) has unbounded derivatives along u=0 and v=0
    r = integrate_2d(lambda u, v: np.power(u, 0.25) * np.power(v, 0.25), Rect(0, 1, 0, 1), DEEP)
    assert abs(r.value - (0.8) ** 2) < 1e-10
    assert r.subdivisions > 8


def test_integrate_2d_smooth_poly_accepts_at_root():
    r = integrate_2d(lambda u, v: (3 * u ** 4 - u) * (2 * v ** 3 + 1), Rect(0.5, 2.5, 1, 3))
    exact = ((3 * 2.5 ** 5 / 5 - 2.5 ** 2 / 2) - (3 * 0.5 ** 5 / 5 - 0.5 ** 2 / 2)) * \
            ((3 ** 4 / 2 + 3) - (1 / 2 + 1))
    assert abs(r.value - exact) <= 1e-15 * abs(exact) + 1e-13
    assert r.subdivisions == 0


def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(gl_order=0)
    with pytest.raises(ValueError):
        QuadConfig(max_subdiv=-1)
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)


def test_edge_integral_by_contraction():
    # int_1^3 (2 + t^2) dt = 2*2 + 26/3, as the section u -> p(u, 5) of
    # p(u, v) = 2 + u^2 and as the area integral over [1, 3] x [0, 1]
    p = Poly2.from_dict({(0, 0): 2, (2, 0): 1})
    want = Fraction(4) + Fraction(26, 3)
    assert p.contract(power_integrals(Fraction(1), Fraction(3), 2), powers(Fraction(5), 0)) == want
    assert poly_integral_exact(p, Rect(1, 3, 0, 1)) == want


def test_poly_integral_exact_vs_quadrature():
    p = Poly2.from_dict({(0, 0): 1, (2, 1): Fraction(3, 2), (4, 4): -2})
    rect = Rect(0.5, 2.5, 1, 3)
    exact = poly_integral_exact(p, rect)
    quad = integrate_2d(p, rect)
    assert abs(float(exact) - quad.value) < 1e-9 * max(1.0, abs(float(exact)))


def test_kernel_moment_closed_form():
    assert kernel_moment(1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    for s in (0.1, 0.35, 0.5, 0.99):
        got = integrate_1d(lambda t: (1.0 - t) * np.power(t, s), 0.0, 1.0,
                           QuadConfig(gl_order=48, max_subdiv=40, abs_tol=1e-13))
        assert abs(got.value - kernel_moment(s)) < 1e-12
    with pytest.raises(ValueError):
        kernel_moment(-1.0)


def test_holder_kernel_constant():
    assert holder_kernel_constant(2.0) == pytest.approx(3.0 ** -1.0, abs=1e-16)
    assert holder_kernel_constant(1.0) == pytest.approx(0.25, abs=1e-16)
    with pytest.raises(ValueError):
        holder_kernel_constant(0.0)


def test_power_mean_prefactor_modes():
    # the two constants agree at q = 1 and split apart for q > 1
    assert power_mean_prefactor(1.0, PrefactorMode.VERBATIM) == pytest.approx(1.0)
    assert power_mean_prefactor(1.0, PrefactorMode.SHARPENED) == pytest.approx(1.0)
    assert power_mean_prefactor(2.0, PrefactorMode.VERBATIM) == pytest.approx(2.0)
    assert power_mean_prefactor(2.0, PrefactorMode.SHARPENED) == pytest.approx(0.5)
    for q in (1.5, 2.0, 8.0):
        assert (power_mean_prefactor(q, PrefactorMode.VERBATIM)
                >= power_mean_prefactor(q, PrefactorMode.SHARPENED))
