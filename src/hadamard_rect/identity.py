"""The two-variable Montgomery-type integral identity.

For f with an integrable mixed partial D = d^2 f / du dv on [a,b] x [c,d]
and an interior point (x, y), the corrected identity says

    (1/area) [ A - (x-a) I[f(a,.)] - (b-x) I[f(b,.)]
                 - (d-y) I[f(.,d)] - (y-c) I[f(.,c)] + II[f] ]
  =  sum over quadrants  w_q / area * II[ k_q(t,l) D(u_q(t), v_q(l)) ]

where A is the bilinear corner combination

    A = (x-a)(y-c) f(a,c) + (x-a)(d-y) f(a,d)
      + (b-x)(y-c) f(b,c) + (b-x)(d-y) f(b,d)

and each quadrant q in the canonical order (a,c), (a,d), (b,c), (b,d)
carries weight w_q ((x-a)^2(y-c)^2 and so on), kernel k_q = sign_q (1-t)(1-l)
with sign_q = +1, -1, -1, +1, and the affine map onto that quadrant.

VERBATIM mode divides A by the area. That version only coincides with the
corrected one on unit-area rectangles; for constant surfaces its residual
is exactly |k (1 - area) / area|, which is the regression this package
exists to pin down.

Once its four corner values, four edge integrals and area integral are
known, the left side is bilinear in (x, y), and those nine numbers depend
only on (f, rect). lemma_lhs_at computes them once, remembers them for
the next queries on that (f, rect), and returns the left side as a
function of the point; lemma_lhs is one call of it.

Polynomial surfaces get a fully rational path: every term above is a
polynomial integral, so the residual can be shown to vanish exactly. There
the remembered entry is, per mode, four integers k00, k10, k01, k11 over
one integer den, so the left side at x = nx/dx, y = ny/dy is

    (k00 dx dy + k10 nx dy + k01 ny dx + k11 nx ny) / (den dx dy),

one correctly rounded integer division: float() of the rational formula.
The integers are read off _lhs_combination, the one left-side formula:
its rational values at the unit square's corners give the four bilinear
coefficients. Every rational quantity is one contraction
sum c_ij alpha_i beta_j of a coefficient grid (Poly2.contract): the corner
values with powers of the corner's coordinates, the edge and area
integrals with integrals of powers over the sides, and each quadrant term
with D composed onto the quadrant's affine map and the kernel's moments,
integral_0^1 (1-t) t^k dt = 1 / ((k+1)(k+2)), without forming the product.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .domain import EvalPoint, NormalizationMode, Rect
from .quad import QuadConfig, integrate_1d, integrate_2d
from .surfaces import EvalError, Poly2, Surface, kernel_moments, power_integrals, powers

__all__ = [
    "LemmaEvaluation", "ExactLemmaEvaluation", "corner_term_A", "lemma_lhs",
    "lemma_lhs_at", "lemma_lhs_lattice", "lemma_rhs", "lemma_residual", "lemma_residual_exact",
]

_UNIT = Rect(0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class LemmaEvaluation:
    lhs: float
    rhs: float
    residual: float
    mode: NormalizationMode
    a_term: float
    quadrant_terms: tuple[float, float, float, float]
    exact: bool          # both sides computed in rational arithmetic


@dataclass(frozen=True)
class ExactLemmaEvaluation:
    """Rational-arithmetic evaluation; residual == 0 is an exact statement."""

    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    mode: NormalizationMode
    a_term: Fraction
    quadrant_terms: tuple[Fraction, Fraction, Fraction, Fraction]


def _check_point(rect: Rect, pt: EvalPoint):
    if not rect.contains(pt):
        raise ValueError(f"point ({pt.x}, {pt.y}) lies outside "
                         f"[{rect.a},{rect.b}]x[{rect.c},{rect.d}]")


def _quadrants(r, x, y):
    """(kernel sign, weight, u-corner, v-corner) per quadrant in canonical
    order; r = (a, b, c, d). Floats or rationals throughout."""
    a, b, c, d = r
    return ((1, (x - a) ** 2 * (y - c) ** 2, a, c),
            (-1, (x - a) ** 2 * (d - y) ** 2, a, d),
            (-1, (b - x) ** 2 * (y - c) ** 2, b, c),
            (1, (b - x) ** 2 * (d - y) ** 2, b, d))


def _corner_sum(r, x, y, fc, mode: NormalizationMode):
    """A at (x, y) from the corner values fc in canonical order, normalized
    per mode; r = (a, b, c, d). Floats or rationals throughout."""
    a, b, c, d = r
    total = ((x - a) * (y - c) * fc[0] + (x - a) * (d - y) * fc[1]
             + (b - x) * (y - c) * fc[2] + (b - x) * (d - y) * fc[3])
    if mode is NormalizationMode.VERBATIM:
        total /= (b - a) * (d - c)
    return total


def _lhs_combination(r, x, y, fc, edges, whole, mode: NormalizationMode):
    """The left side at (x, y) from its nine (f, rect) numbers: the corner
    values fc, the edge integrals of f(a,.), f(b,.), f(.,d), f(.,c) and the
    area integral. The one left-side formula, for floats and rationals."""
    a, b, c, d = r
    acc = _corner_sum(r, x, y, fc, mode)
    acc -= (x - a) * edges[0]
    acc -= (b - x) * edges[1]
    acc -= (d - y) * edges[2]
    acc -= (y - c) * edges[3]
    acc += whole
    return acc / ((b - a) * (d - c))


def corner_term_A(f: Surface, rect: Rect, pt: EvalPoint,
                  mode: NormalizationMode = NormalizationMode.CORRECTED) -> float:
    """The bilinear corner combination, normalized per mode."""
    _check_point(rect, pt)
    mode = NormalizationMode(mode)
    fc = tuple(f(p.x, p.y) for p in rect.corners())
    return _corner_sum((rect.a, rect.b, rect.c, rect.d), pt.x, pt.y, fc, mode)


# (f, rect, path) entries _lhs_parts keeps: every (surface, rect) of a battery
_LHS_MEMO_SIZE = 128


@lru_cache(maxsize=_LHS_MEMO_SIZE)
def _lhs_parts(f: Surface, rect: Rect, cfg: QuadConfig | None):
    """The left side of f over rect up to the point. When cfg is None,
    _bilinear_coefficients of its rational parts; under cfg, (rect
    coordinates, corner values, edge integrals, area integral) by
    Gauss-Legendre. Errors propagate and are not remembered."""
    if cfg is None:
        return _bilinear_coefficients(rect.exact(), *_exact_parts(f.poly, rect))
    a, b, c, d = r = (rect.a, rect.b, rect.c, rect.d)
    fc = tuple(f(p.x, p.y) for p in rect.corners())
    edges = (integrate_1d(lambda v: f.fn(a, v), c, d, cfg).value,
             integrate_1d(lambda v: f.fn(b, v), c, d, cfg).value,
             integrate_1d(lambda u: f.fn(u, d), a, b, cfg).value,
             integrate_1d(lambda u: f.fn(u, c), a, b, cfg).value)
    return r, fc, edges, integrate_2d(f.fn, rect, cfg).value


def _overflow(f: Surface, what: str, x, y) -> EvalError:
    return EvalError(f"{what} of {f.name} overflows a float at ({x}, {y})")


def _exact_lhs(f: Surface, ks, x, y) -> float:
    """The rational left side at (x, y) from its integer form
    ks = (k00, k10, k01, k11, den), as one integer division."""
    k00, k10, k01, k11, den = ks
    nx, dx = _ratio(x)
    ny, dy = _ratio(y)
    try:
        return ((k00 * dx + k10 * nx) * dy + (k01 * dx + k11 * nx) * ny) / (den * dx * dy)
    except OverflowError:
        raise _overflow(f, "left side", x, y) from None


def lemma_lhs_at(f: Surface, rect: Rect,
                 mode: NormalizationMode = NormalizationMode.CORRECTED,
                 cfg: QuadConfig = QuadConfig(), use_exact: bool = True
                 ) -> Callable[[EvalPoint], float]:
    """The signed left-hand side as a function of the point.

    The corner values, edge integrals and area integral depend only on
    (f, rect): rational on polynomial surfaces unless use_exact is off,
    Gauss-Legendre under cfg otherwise. The last _LHS_MEMO_SIZE (f by
    identity, rect, path) keep them for both modes; EvalError and
    ToleranceNotMet surface here and are not kept. Each call then gives
    lemma_lhs's value bit for bit; a point outside rect raises ValueError.
    On the rational path a call is one integer division (module docstring),
    and a value too large for a float raises EvalError.
    """
    mode = NormalizationMode(mode)
    if use_exact and f.poly is not None:
        ks = _lhs_parts(f, rect, None)[mode]

        def at(pt: EvalPoint) -> float:
            _check_point(rect, pt)
            return _exact_lhs(f, ks, pt.x, pt.y)

        return at
    r, fc, edges, whole = _lhs_parts(f, rect, cfg)

    def at(pt: EvalPoint) -> float:
        _check_point(rect, pt)
        return _lhs_combination(r, pt.x, pt.y, fc, edges, whole, mode)

    return at


def lemma_lhs_lattice(f: Surface, rect: Rect, xs, ys,
                      mode: NormalizationMode = NormalizationMode.CORRECTED,
                      cfg: QuadConfig = QuadConfig()):
    """The signed left-hand side on the lattice xs by ys, whose coordinates
    lie in rect: a (len(ys), len(xs)) array, y by row and x by column, and
    {(ix, iy): message} of the nodes where lemma_lhs_at raises EvalError,
    which hold NaN.

    Every node equals lemma_lhs_at's value bit for bit. The quadrature
    path is _lhs_combination once on the meshgrid: numpy rounds each
    element of + - * / as Python rounds a float. The rational path is one
    integer division per node.
    """
    mode = NormalizationMode(mode)
    _check_point(rect, EvalPoint(min(xs), min(ys)))
    _check_point(rect, EvalPoint(max(xs), max(ys)))
    if f.poly is None:
        r, fc, edges, whole = _lhs_parts(f, rect, cfg)
        with np.errstate(over="ignore", invalid="ignore"):   # as Python floats are
            return _lhs_combination(r, *np.meshgrid(xs, ys), fc, edges, whole, mode), {}
    ks = _lhs_parts(f, rect, None)[mode]
    out = np.empty((len(ys), len(xs)))
    failed = {}
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            try:
                out[iy, ix] = _exact_lhs(f, ks, x, y)
            except EvalError as exc:
                out[iy, ix] = np.nan
                failed[ix, iy] = str(exc)
    return out, failed


def lemma_lhs(f: Surface, rect: Rect, pt: EvalPoint,
              mode: NormalizationMode = NormalizationMode.CORRECTED,
              cfg: QuadConfig = QuadConfig(), use_exact: bool = True) -> float:
    """Signed left-hand side of the identity.

    Polynomial surfaces go through the rational oracle unless use_exact is
    switched off (the boundary integrals and the area integral are then
    Gauss-Legendre like everything else). Points on one (f, rect) share
    its integrals through lemma_lhs_at.
    """
    _check_point(rect, pt)
    return lemma_lhs_at(f, rect, mode, cfg, use_exact)(pt)


def _rhs_terms(f: Surface, rect: Rect, pt: EvalPoint,
               cfg: QuadConfig) -> tuple[float, float, float, float]:
    """The quadrant terms by Gauss-Legendre; zero-weight quadrants are skipped."""
    area = rect.area
    x, y = pt.x, pt.y
    terms = []
    for sign, weight, uc, vc in _quadrants((rect.a, rect.b, rect.c, rect.d), x, y):
        if weight == 0.0:
            terms.append(0.0)
            continue

        def integrand(t, l, sign=sign, uc=uc, vc=vc):
            u = uc + t * (x - uc)
            v = vc + l * (y - vc)
            return sign * (1.0 - t) * (1.0 - l) * f.mixed_partial(u, v)

        terms.append(weight / area * integrate_2d(integrand, _UNIT, cfg).value)
    return tuple(terms)


def lemma_rhs(f: Surface, rect: Rect, pt: EvalPoint,
              cfg: QuadConfig = QuadConfig(), use_exact: bool = True) -> float:
    """Kernel-weighted mixed-partial side; quadrants with zero weight are skipped.

    On polynomial surfaces (unless use_exact is off) this is the rational
    sum rounded once, so it equals lemma_residual's rhs.
    """
    _check_point(rect, pt)
    if use_exact and f.poly is not None:
        return float(sum(_exact_rhs_terms(f.poly, rect.exact(), *pt.exact()), Fraction(0)))
    return sum(_rhs_terms(f, rect, pt, cfg))


def lemma_residual(f: Surface, rect: Rect, pt: EvalPoint,
                   mode: NormalizationMode = NormalizationMode.CORRECTED,
                   cfg: QuadConfig = QuadConfig(), use_exact: bool = True) -> LemmaEvaluation:
    """Evaluate both sides and their absolute gap.

    On polynomial surfaces (and use_exact left on) every quantity comes out
    of rational arithmetic, so a residual of 0.0 means exactly zero.
    """
    _check_point(rect, pt)
    mode = NormalizationMode(mode)
    if use_exact and f.poly is not None:
        ex = lemma_residual_exact(f, rect, pt, mode)

        def rounded(value: Fraction, what: str) -> float:
            try:
                return float(value)
            except OverflowError:
                raise _overflow(f, what, pt.x, pt.y) from None

        return LemmaEvaluation(
            lhs=rounded(ex.lhs, "left side"), rhs=rounded(ex.rhs, "right side"),
            residual=rounded(ex.residual, "residual"), mode=mode,
            a_term=rounded(ex.a_term, "corner term"),
            quadrant_terms=tuple(rounded(t, "quadrant term") for t in ex.quadrant_terms),
            exact=True)
    lhs = lemma_lhs(f, rect, pt, mode, cfg, use_exact=False)
    terms = _rhs_terms(f, rect, pt, cfg)
    rhs = sum(terms)
    return LemmaEvaluation(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), mode=mode,
                           a_term=corner_term_A(f, rect, pt, mode),
                           quadrant_terms=terms, exact=False)


# ---------------------------------------------------------------------------
# rational path
# ---------------------------------------------------------------------------

def _exact_parts(p: Poly2, rect: Rect):
    """Corner values, edge integrals and area integral of p over rect, in
    rational arithmetic, ordered as _lhs_combination takes them: each one
    contraction of p with powers of a coordinate or integrals of powers."""
    a, b, c, d = rect.exact()
    ua, ub = powers(a, p.degree_u), powers(b, p.degree_u)
    vc, vd = powers(c, p.degree_v), powers(d, p.degree_v)
    iu, iv = power_integrals(a, b, p.degree_u), power_integrals(c, d, p.degree_v)
    fc = (p.contract(ua, vc), p.contract(ua, vd), p.contract(ub, vc), p.contract(ub, vd))
    edges = (p.contract(ua, iv), p.contract(ub, iv), p.contract(iu, vd), p.contract(iu, vc))
    return fc, edges, p.contract(iu, iv)


def _bilinear_coefficients(r, fc, edges, whole) -> dict:
    """_lhs_combination over rationals in integer form: per mode, integers
    (k00, k10, k01, k11, den) with den > 0 and no common factor such that
    the left side at (x, y) is (k00 + k10 x + k01 y + k11 x y) / den.

    The left side is bilinear in (x, y), so its values l00, l10, l01, l11
    at the unit square's corners give its coefficients l00, l10 - l00,
    l01 - l00 and l11 - l10 - l01 + l00. Scaled to the lcm of their reduced
    denominators, they are already in lowest terms: each prime of den
    fails to divide the numerator scaled from the coefficient whose
    denominator holds its highest power.
    """
    out = {}
    for mode in NormalizationMode:
        l00, l10, l01, l11 = (_lhs_combination(r, x, y, fc, edges, whole, mode)
                              for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)))
        coeffs = (l00, l10 - l00, l01 - l00, l11 - l10 - l01 + l00)
        den = math.lcm(*(k.denominator for k in coeffs))
        out[mode] = (*(k.numerator * (den // k.denominator) for k in coeffs), den)
    return out


def _ratio(v) -> tuple[int, int]:
    """v as (numerator, denominator > 0), the rational Fraction(v) reads."""
    try:
        return v.as_integer_ratio()
    except AttributeError:                 # numpy integers, say
        q = Fraction(v)
        return q.numerator, q.denominator


def _exact_rhs_terms(p: Poly2, r, x: Fraction, y: Fraction) -> tuple[Fraction, ...]:
    """The quadrant terms of p at (x, y) in rational arithmetic; r = (a, b, c, d)."""
    a, b, c, d = r
    area = (b - a) * (d - c)
    mixed = p.mixed_partial_poly()
    ku, kv = kernel_moments(mixed.degree_u), kernel_moments(mixed.degree_v)
    terms = []
    for sign, weight, uc, vc in _quadrants(r, x, y):
        if weight == 0:
            terms.append(Fraction(0))
            continue
        composed = mixed.compose_affine(uc, x - uc, vc, y - vc)
        terms.append(sign * weight / area * composed.contract(ku, kv))
    return tuple(terms)


def lemma_residual_exact(f: Surface, rect: Rect, pt: EvalPoint,
                         mode: NormalizationMode = NormalizationMode.CORRECTED) -> ExactLemmaEvaluation:
    """Both sides in rational arithmetic. Requires a polynomial surface."""
    if f.poly is None:
        raise ValueError(f"{f.name} has no exact polynomial form")
    _check_point(rect, pt)
    mode = NormalizationMode(mode)
    r = rect.exact()
    x, y = pt.exact()
    parts = _exact_parts(f.poly, rect)
    a_num = _corner_sum(r, x, y, parts[0], mode)
    lhs = _lhs_combination(r, x, y, *parts, mode)
    terms = _exact_rhs_terms(f.poly, r, x, y)
    rhs = sum(terms, Fraction(0))
    return ExactLemmaEvaluation(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                                mode=mode, a_term=a_num, quadrant_terms=terms)
