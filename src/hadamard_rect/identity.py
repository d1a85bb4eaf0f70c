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
carries weight w_q ((x-a)^2(y-c)^2 and so on), kernel k_q built from
(t-1), (1-t), (l-1), (1-l), and the affine map onto that quadrant.

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
polynomial integral, so the residual can be shown to vanish exactly.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .domain import EvalPoint, NormalizationMode, Rect
from .quad import QuadConfig, integrate_1d, integrate_2d, poly1d_integral_exact, poly_integral_exact
from .surfaces import Poly2, Surface

__all__ = [
    "LemmaEvaluation", "ExactLemmaEvaluation", "corner_term_A", "lemma_lhs",
    "lemma_lhs_at", "lemma_rhs", "lemma_residual", "lemma_residual_exact",
    "QUADRANTS",
]

_UNIT = Rect(0.0, 1.0, 0.0, 1.0)

# one entry per quadrant, canonical corner order; each record is
# (corner tag, kernel as float fn, kernel as Poly2 in (t, l), which rect
# corner the affine map pulls toward)
_K_AC = Poly2.from_dict({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})   # (t-1)(l-1)
_K_AD = Poly2.from_dict({(0, 0): -1, (1, 0): 1, (0, 1): 1, (1, 1): -1})   # (t-1)(1-l)
_K_BC = Poly2.from_dict({(0, 0): -1, (1, 0): 1, (0, 1): 1, (1, 1): -1})   # (1-t)(l-1)
_K_BD = Poly2.from_dict({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})   # (1-t)(1-l)

QUADRANTS = (
    ("ac", lambda t, l: (t - 1.0) * (l - 1.0), _K_AC),
    ("ad", lambda t, l: (t - 1.0) * (1.0 - l), _K_AD),
    ("bc", lambda t, l: (1.0 - t) * (l - 1.0), _K_BC),
    ("bd", lambda t, l: (1.0 - t) * (1.0 - l), _K_BD),
)


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


def _quadrant_geometry(rect: Rect, pt: EvalPoint):
    """(weight, u-corner, v-corner) per quadrant in canonical order."""
    a, b, c, d = rect.a, rect.b, rect.c, rect.d
    x, y = pt.x, pt.y
    return (
        ((x - a) ** 2 * (y - c) ** 2, a, c),
        ((x - a) ** 2 * (d - y) ** 2, a, d),
        ((b - x) ** 2 * (y - c) ** 2, b, c),
        ((b - x) ** 2 * (d - y) ** 2, b, d),
    )


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
    fc = tuple(f(p.x, p.y) for p in rect.corners())
    return _corner_sum((rect.a, rect.b, rect.c, rect.d), pt.x, pt.y, fc, mode)


# (f, rect, path) entries _lhs_parts keeps: every (surface, rect) of a battery
_LHS_MEMO_SIZE = 128


@dataclass(frozen=True, eq=False)
class _Same:
    """A Surface keyed by identity, as hashing its value costs microseconds;
    the memo holds it, so its id() is not reused while it is a key."""

    f: Surface

    def __hash__(self):
        return id(self.f)

    def __eq__(self, other):
        return self.f is other.f


@lru_cache(maxsize=_LHS_MEMO_SIZE)
def _lhs_parts(same: _Same, rect: Rect, cfg: QuadConfig | None):
    """(rect coordinates, corner values, edge integrals, area integral) of
    same.f over rect: rational when cfg is None, by Gauss-Legendre under cfg
    otherwise. Errors propagate and are not remembered."""
    f = same.f
    if cfg is None:
        return (rect.exact(), *_exact_parts(f.poly, rect))
    a, b, c, d = r = (rect.a, rect.b, rect.c, rect.d)
    fc = tuple(f(p.x, p.y) for p in rect.corners())
    edges = (integrate_1d(lambda v: f.fn(a, v), c, d, cfg).value,
             integrate_1d(lambda v: f.fn(b, v), c, d, cfg).value,
             integrate_1d(lambda u: f.fn(u, d), a, b, cfg).value,
             integrate_1d(lambda u: f.fn(u, c), a, b, cfg).value)
    return r, fc, edges, integrate_2d(f.fn, rect, cfg).value


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
    """
    exact = use_exact and f.poly is not None
    r, fc, edges, whole = _lhs_parts(_Same(f), rect, None if exact else cfg)

    def at(pt: EvalPoint) -> float:
        _check_point(rect, pt)
        if exact:
            return float(_lhs_combination(r, *pt.exact(), fc, edges, whole, mode))
        return _lhs_combination(r, pt.x, pt.y, fc, edges, whole, mode)

    return at


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


def _rhs_terms(f: Surface, rect: Rect, pt: EvalPoint, cfg: QuadConfig,
               use_exact: bool) -> tuple[tuple[float, float, float, float], bool]:
    if use_exact and f.poly is not None:
        exact = _exact_rhs_terms(f.poly, rect, pt)
        return tuple(float(t) for t in exact), True
    area = rect.area
    x, y = pt.x, pt.y
    terms = []
    for (_, kernel, _), (weight, uc, vc) in zip(QUADRANTS, _quadrant_geometry(rect, pt)):
        if weight == 0.0:
            terms.append(0.0)
            continue

        def integrand(t, l, uc=uc, vc=vc, kernel=kernel):
            u = uc + t * (x - uc)
            v = vc + l * (y - vc)
            return kernel(t, l) * f.mixed_partial(u, v)

        terms.append(weight / area * integrate_2d(integrand, _UNIT, cfg).value)
    return tuple(terms), False


def lemma_rhs(f: Surface, rect: Rect, pt: EvalPoint,
              cfg: QuadConfig = QuadConfig(), use_exact: bool = True) -> float:
    """Kernel-weighted mixed-partial side; quadrants with zero weight are skipped."""
    _check_point(rect, pt)
    terms, _ = _rhs_terms(f, rect, pt, cfg, use_exact)
    return sum(terms)


def lemma_residual(f: Surface, rect: Rect, pt: EvalPoint,
                   mode: NormalizationMode = NormalizationMode.CORRECTED,
                   cfg: QuadConfig = QuadConfig(), use_exact: bool = True) -> LemmaEvaluation:
    """Evaluate both sides and their absolute gap.

    On polynomial surfaces (and use_exact left on) every quantity comes out
    of rational arithmetic, so a residual of 0.0 means exactly zero.
    """
    _check_point(rect, pt)
    if use_exact and f.poly is not None:
        ex = lemma_residual_exact(f, rect, pt, mode)
        return LemmaEvaluation(
            lhs=float(ex.lhs), rhs=float(ex.rhs), residual=float(ex.residual),
            mode=mode, a_term=float(ex.a_term),
            quadrant_terms=tuple(float(t) for t in ex.quadrant_terms), exact=True)
    lhs = lemma_lhs(f, rect, pt, mode, cfg, use_exact=False)
    terms, _ = _rhs_terms(f, rect, pt, cfg, use_exact=False)
    rhs = sum(terms)
    return LemmaEvaluation(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), mode=mode,
                           a_term=corner_term_A(f, rect, pt, mode),
                           quadrant_terms=terms, exact=False)


# ---------------------------------------------------------------------------
# rational path
# ---------------------------------------------------------------------------

def _exact_geometry(rect: Rect, pt: EvalPoint):
    a, b, c, d = rect.exact()
    x, y = pt.exact()
    return a, b, c, d, x, y


def _exact_parts(p: Poly2, rect: Rect):
    """Corner values, edge integrals and area integral of p over rect, in
    rational arithmetic, ordered as _lhs_combination takes them."""
    a, b, c, d = rect.exact()
    fc = (p.eval_exact(a, c), p.eval_exact(a, d), p.eval_exact(b, c), p.eval_exact(b, d))
    edges = (poly1d_integral_exact(p.restrict_u(a), c, d),
             poly1d_integral_exact(p.restrict_u(b), c, d),
             poly1d_integral_exact(p.restrict_v(d), a, b),
             poly1d_integral_exact(p.restrict_v(c), a, b))
    return fc, edges, poly_integral_exact(p, rect)


def _exact_rhs_terms(p: Poly2, rect: Rect, pt: EvalPoint) -> tuple[Fraction, ...]:
    a, b, c, d, x, y = _exact_geometry(rect, pt)
    area = (b - a) * (d - c)
    mixed = p.mixed_partial_poly()
    geo = (
        ((x - a) ** 2 * (y - c) ** 2, a, c),
        ((x - a) ** 2 * (d - y) ** 2, a, d),
        ((b - x) ** 2 * (y - c) ** 2, b, c),
        ((b - x) ** 2 * (d - y) ** 2, b, d),
    )
    terms = []
    for (_, _, kpoly), (weight, uc, vc) in zip(QUADRANTS, geo):
        if weight == 0:
            terms.append(Fraction(0))
            continue
        composed = mixed.compose_affine(uc, x - uc, vc, y - vc)
        integ = poly_integral_exact(kpoly.mul(composed), _UNIT)
        terms.append(weight / area * integ)
    return tuple(terms)


def lemma_residual_exact(f: Surface, rect: Rect, pt: EvalPoint,
                         mode: NormalizationMode = NormalizationMode.CORRECTED) -> ExactLemmaEvaluation:
    """Both sides in rational arithmetic. Requires a polynomial surface."""
    if f.poly is None:
        raise ValueError(f"{f.name} has no exact polynomial form")
    _check_point(rect, pt)
    r = rect.exact()
    x, y = pt.exact()
    parts = _exact_parts(f.poly, rect)
    a_num = _corner_sum(r, x, y, parts[0], mode)
    lhs = _lhs_combination(r, x, y, *parts, mode)
    terms = _exact_rhs_terms(f.poly, rect, pt)
    rhs = sum(terms, Fraction(0))
    return ExactLemmaEvaluation(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                                mode=mode, a_term=a_num, quadrant_terms=terms)
