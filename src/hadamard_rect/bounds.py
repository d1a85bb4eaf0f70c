"""Upper bounds on the identity's left side under coordinated s-convexity
of |d^2 f / du dv| (or its q-th power), plus the five-term mean chain.

Three families, each written once as a function of |D| on the nine points
{a, x, b} x {c, y, d}, which one mixed-partial call per point evaluates:

- t1 (first power): kernel moments integrate to 1/((s+1)(s+2)) and the
  bound groups by evaluation point.
- t2 (Holder): kernel mass (p+1)^(-2/p) against q-th power means over each
  quadrant's four evaluation points.
- t3 (power mean): per-quadrant weighted q-means; the printed leading
  constant 2^(2-2/q) is kept verbatim, with the sharper 2^(2/q-2) available
  side by side. At q = 1 the family collapses onto t1 exactly.

Each specialization is its family bound at a point: the corner ones at
their corner, the midpoint ones at the midpoint, and each remark aggregate
is the area times the family bound summed over the four corners. The
paper's displayed corner, midpoint and aggregate formulas are not used
here; they are the independent oracle of the tests and of acceptance
check c6. All left sides use the corrected normalization unless told
otherwise.
"""
from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import (EvalPoint, NormalizationMode, PowerMeanQ,
                     PrefactorMode, Rect, SExponent, make_holder_pair)
from .identity import lemma_lhs
from .quad import (DEEP, QuadConfig, integrate_1d, integrate_2d,
                   holder_kernel_constant, poly1d_integral_exact,
                   poly_integral_exact, power_mean_prefactor)
from .surfaces import (SamplerConfig, Surface, Verdict, certify_coordinated)

__all__ = [
    "TheoremId", "Corner", "BoundReport", "ChainEvaluation", "family_rhs",
    "family_report", "t1_rhs", "t2_rhs", "t3_rhs", "t1_report", "t2_report",
    "t3_report", "corner_report", "midpoint_report", "remark_aggregate",
    "chain_evaluate", "BOUND_ABS_TOL", "BOUND_REL_TOL", "CHAIN_TOL",
]

BOUND_ABS_TOL = 1e-10
BOUND_REL_TOL = 1e-12
CHAIN_TOL = 1e-10


class TheoremId(Enum):
    T1 = "t1"
    T2 = "t2"
    T3 = "t3"
    C1_1 = "c1_1"
    C1_2 = "c1_2"
    C1_3 = "c1_3"
    C1_4 = "c1_4"
    C1_MID = "c1_mid"
    C2_1 = "c2_1"
    C2_2 = "c2_2"
    C2_3 = "c2_3"
    C2_4 = "c2_4"
    C2_5 = "c2_5"
    C3_1 = "c3_1"
    C3_2 = "c3_2"
    C3_3 = "c3_3"
    C3_4 = "c3_4"
    C3_5 = "c3_5"
    R_C15 = "r_c15"
    R_METU = "r_metu"
    R_FINAL = "r_final"
    CHAIN = "chain"


class Corner(Enum):
    """Corner where a specialization pins (x, y); canonical order."""

    AC = "ac"
    AD = "ad"
    BC = "bc"
    BD = "bd"

    def point(self, rect: Rect) -> EvalPoint:
        u = rect.a if self.value[0] == "a" else rect.b
        v = rect.c if self.value[1] == "c" else rect.d
        return EvalPoint(u, v)

    def opposite(self, rect: Rect) -> EvalPoint:
        u = rect.b if self.value[0] == "a" else rect.a
        v = rect.d if self.value[1] == "c" else rect.c
        return EvalPoint(u, v)


_FAMILY_NAMES = {TheoremId.T1: "first-power", TheoremId.T2: "Holder",
                 TheoremId.T3: "power-mean"}

# displayed part numbers: the (a,c) specialization is part 1, (b,d) part 2,
# (a,d) part 3, (b,c) part 4, for all three families
_CORNER_PART = {Corner.AC: 1, Corner.BD: 2, Corner.AD: 3, Corner.BC: 4}

_CORNER_IDS = {(family, corner): TheoremId(f"c{family.value[1]}_{part}")
               for family in _FAMILY_NAMES for corner, part in _CORNER_PART.items()}

_MID_IDS = {TheoremId.T1: TheoremId.C1_MID, TheoremId.T2: TheoremId.C2_5,
            TheoremId.T3: TheoremId.C3_5}

_AGGREGATE_FAMILY = {TheoremId.R_C15: TheoremId.T1, TheoremId.R_METU: TheoremId.T2,
                     TheoremId.R_FINAL: TheoremId.T3}


@dataclass(frozen=True)
class BoundReport:
    theorem_id: TheoremId
    lhs: float
    rhs: float
    margin: float
    holds: bool
    tol: float
    params: dict
    hypothesis_certified: bool | None = None


@dataclass(frozen=True)
class ChainEvaluation:
    e0: float
    e1: float
    e2: float
    e3: float
    e4: float
    monotone: bool
    hypothesis_certified: bool | None = None

    @property
    def values(self) -> tuple[float, float, float, float, float]:
        return (self.e0, self.e1, self.e2, self.e3, self.e4)


def _finish(tid: TheoremId, lhs: float, rhs: float, params: dict,
            certified: bool | None = None) -> BoundReport:
    tol = BOUND_ABS_TOL + BOUND_REL_TOL * abs(rhs)
    margin = rhs - lhs
    return BoundReport(theorem_id=tid, lhs=lhs, rhs=rhs, margin=margin,
                       holds=margin >= -tol, tol=tol, params=params,
                       hypothesis_certified=certified)


def _params(rect: Rect, pt: EvalPoint | None, s: float, mode: NormalizationMode,
            **extra) -> dict:
    out = {"rect": (rect.a, rect.b, rect.c, rect.d), "s": s, "mode": mode.value}
    if pt is not None:
        out["point"] = (pt.x, pt.y)
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# the three families, written once over the |D| stencil
# ---------------------------------------------------------------------------

def _stencil(f: Surface, rect: Rect, pt: EvalPoint) -> list[list[float]]:
    """|D| on {a, x, b} x {c, y, d} from one mixed-partial call.

    D[i][j] is |D| at the i-th of (a, x, b) and the j-th of (c, y, d).
    """
    u, v = np.meshgrid((rect.a, pt.x, rect.b), (rect.c, pt.y, rect.d), indexing="ij")
    return np.abs(f.mixed_partial(u, v)).tolist()


def _t1(D: list[list[float]], rect: Rect, pt: EvalPoint, s: float) -> float:
    """First-power bound, grouped by evaluation point."""
    a, b, c, d = rect.a, rect.b, rect.c, rect.d
    x, y = pt.x, pt.y
    wx = (x - a) ** 2 + (b - x) ** 2
    wy = (y - c) ** 2 + (d - y) ** 2
    s1 = s + 1.0
    acc = wx * wy / s1 ** 2 * D[1][1]
    acc += (x - a) ** 2 * wy / s1 * D[0][1]
    acc += (b - x) ** 2 * wy / s1 * D[2][1]
    acc += (y - c) ** 2 * wx / s1 * D[1][0]
    acc += (d - y) ** 2 * wx / s1 * D[1][2]
    acc += (x - a) ** 2 * (y - c) ** 2 * D[0][0]
    acc += (x - a) ** 2 * (d - y) ** 2 * D[0][2]
    acc += (b - x) ** 2 * (y - c) ** 2 * D[2][0]
    acc += (b - x) ** 2 * (d - y) ** 2 * D[2][2]
    return acc / (rect.area * (s + 2.0) ** 2)


def _quadrant_sum(D: list[list[float]], rect: Rect, pt: EvalPoint, q: float,
                  edge_w: float, corner_w: float) -> float:
    """Sum over the quadrants, in canonical corner order, of the squared
    weight product / area times the q-mean of (x, y), the quadrant's two
    edge points and its corner: the Holder family weighs them (1, 1, 1, 1),
    the power-mean family (1, s+1, s+1, (s+1)^2)."""
    x, y = pt.x, pt.y
    dxy = D[1][1] ** q
    acc = 0.0
    for i, wu in ((0, (x - rect.a) ** 2), (2, (rect.b - x) ** 2)):
        for j, wv in ((0, (y - rect.c) ** 2), (2, (rect.d - y) ** 2)):
            inner = (dxy + edge_w * D[1][j] ** q + edge_w * D[i][1] ** q
                     + corner_w * D[i][j] ** q)
            acc += wu * wv / rect.area * inner ** (1.0 / q)
    return acc


def family_rhs(theorem: TheoremId, s: float, q: float | None = None,
               constant_mode: PrefactorMode = PrefactorMode.VERBATIM
               ) -> Callable[[Surface, Rect, EvalPoint], float]:
    """The right side of family t1, t2 or t3 as a function of (f, rect, pt).

    s and q are checked here, once, so a caller can check them before it
    computes any left side. Each evaluation makes one mixed-partial call.
    """
    if theorem not in _FAMILY_NAMES:
        raise ValueError(f"{theorem} is not a bound family (t1, t2, t3)")
    SExponent(s)
    s1 = s + 1.0
    if theorem is TheoremId.T1:
        return lambda f, rect, pt: _t1(_stencil(f, rect, pt), rect, pt, s)
    if q is None:
        raise ValueError(f"the {_FAMILY_NAMES[theorem]} family needs q")
    if theorem is TheoremId.T2:
        kernel = holder_kernel_constant(make_holder_pair(q).p)
        return lambda f, rect, pt: (
            _quadrant_sum(_stencil(f, rect, pt), rect, pt, q, 1.0, 1.0)
            * kernel / s1 ** (2.0 / q))
    PowerMeanQ(q)
    scale = power_mean_prefactor(q, constant_mode) / (s1 * (s + 2.0)) ** (2.0 / q)
    return lambda f, rect, pt: scale * _quadrant_sum(
        _stencil(f, rect, pt), rect, pt, q, s1, s1 ** 2)


def t1_rhs(f: Surface, rect: Rect, pt: EvalPoint, s: float) -> float:
    """First-power bound, grouped by evaluation point."""
    return family_rhs(TheoremId.T1, s)(f, rect, pt)


def t2_rhs(f: Surface, rect: Rect, pt: EvalPoint, s: float, q: float) -> float:
    """Holder-type bound; q > 1, conjugate p = q/(q-1)."""
    return family_rhs(TheoremId.T2, s, q)(f, rect, pt)


def t3_rhs(f: Surface, rect: Rect, pt: EvalPoint, s: float, q: float,
           constant_mode: PrefactorMode = PrefactorMode.VERBATIM) -> float:
    """Power-mean bound; q >= 1. At q = 1 it equals t1_rhs exactly."""
    return family_rhs(TheoremId.T3, s, q, constant_mode)(f, rect, pt)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _certify_abs_mixed(f: Surface, rect: Rect, s: float, power: float,
                       sampler: SamplerConfig) -> bool:
    g = (lambda u, v: np.abs(f.mixed_partial(u, v)) ** power)
    report = certify_coordinated(g, rect, s, sampler)
    ok = report.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
    if not ok:
        warnings.warn(f"certification found a counterexample for {f.name}: {report.witness}")
    return ok


def _report(tid: TheoremId, family: TheoremId, f: Surface, rect: Rect,
            pt: EvalPoint, s: float, q: float | None, constant_mode: PrefactorMode,
            mode: NormalizationMode, cfg: QuadConfig, certify: bool = False,
            sampler: SamplerConfig = SamplerConfig(), **extra) -> BoundReport:
    """The family bound at pt against the left side there, reported as tid."""
    rhs_at = family_rhs(family, s, q, constant_mode)
    power = 1.0 if family is TheoremId.T1 else q
    certified = _certify_abs_mixed(f, rect, s, power, sampler) if certify else None
    lhs = abs(lemma_lhs(f, rect, pt, mode, cfg))
    if family is not TheoremId.T1:
        extra["q"] = q
    if family is TheoremId.T3:
        extra["constant"] = constant_mode.value
    return _finish(tid, lhs, rhs_at(f, rect, pt), _params(rect, pt, s, mode, **extra),
                   certified)


def family_report(theorem: TheoremId, f: Surface, rect: Rect, pt: EvalPoint,
                  s: float, q: float | None = None,
                  constant_mode: PrefactorMode = PrefactorMode.VERBATIM,
                  mode: NormalizationMode = NormalizationMode.CORRECTED,
                  cfg: QuadConfig = QuadConfig(), certify: bool = False,
                  sampler: SamplerConfig = SamplerConfig()) -> BoundReport:
    """Report of family t1, t2 or t3 at pt."""
    return _report(theorem, theorem, f, rect, pt, s, q, constant_mode, mode, cfg,
                   certify, sampler)


def t1_report(f: Surface, rect: Rect, pt: EvalPoint, s: float,
              mode: NormalizationMode = NormalizationMode.CORRECTED,
              cfg: QuadConfig = QuadConfig(), certify: bool = False,
              sampler: SamplerConfig = SamplerConfig()) -> BoundReport:
    return family_report(TheoremId.T1, f, rect, pt, s, None, PrefactorMode.VERBATIM,
                         mode, cfg, certify, sampler)


def t2_report(f: Surface, rect: Rect, pt: EvalPoint, s: float, q: float,
              mode: NormalizationMode = NormalizationMode.CORRECTED,
              cfg: QuadConfig = QuadConfig(), certify: bool = False,
              sampler: SamplerConfig = SamplerConfig()) -> BoundReport:
    return family_report(TheoremId.T2, f, rect, pt, s, q, PrefactorMode.VERBATIM,
                         mode, cfg, certify, sampler)


def t3_report(f: Surface, rect: Rect, pt: EvalPoint, s: float, q: float,
              constant_mode: PrefactorMode = PrefactorMode.VERBATIM,
              mode: NormalizationMode = NormalizationMode.CORRECTED,
              cfg: QuadConfig = QuadConfig(), certify: bool = False,
              sampler: SamplerConfig = SamplerConfig()) -> BoundReport:
    return family_report(TheoremId.T3, f, rect, pt, s, q, constant_mode,
                         mode, cfg, certify, sampler)


def corner_report(theorem: TheoremId, corner: Corner, f: Surface, rect: Rect,
                  s: float, q: float | None = None,
                  mode: NormalizationMode = NormalizationMode.CORRECTED,
                  constant_mode: PrefactorMode = PrefactorMode.VERBATIM,
                  cfg: QuadConfig = QuadConfig()) -> BoundReport:
    """Corner specialization: the family bound at the corner."""
    tid = _CORNER_IDS.get((theorem, corner))
    if tid is None:
        raise ValueError(f"no corner specialization for {theorem}")
    return _report(tid, theorem, f, rect, corner.point(rect), s, q, constant_mode,
                   mode, cfg, corner=corner.value)


def midpoint_report(theorem: TheoremId, f: Surface, rect: Rect, s: float,
                    q: float | None = None,
                    mode: NormalizationMode = NormalizationMode.CORRECTED,
                    constant_mode: PrefactorMode = PrefactorMode.VERBATIM,
                    cfg: QuadConfig = QuadConfig()) -> BoundReport:
    """Midpoint specialization: the family bound at the midpoint."""
    tid = _MID_IDS.get(theorem)
    if tid is None:
        raise ValueError(f"no midpoint specialization for {theorem}")
    return _report(tid, theorem, f, rect, rect.midpoint(), s, q, constant_mode,
                   mode, cfg)


def remark_aggregate(remark: TheoremId, f: Surface, rect: Rect, s: float,
                     q: float | None = None,
                     cfg: QuadConfig = QuadConfig()) -> BoundReport:
    """Summed corner inequalities (un-normalized: each corner value x area).

    Both sides are the area times the sum over the four corners of the
    family's corner left side and right side (power-mean family with the
    verbatim constant).
    """
    family = _AGGREGATE_FAMILY.get(remark)
    if family is None:
        raise ValueError(f"not an aggregate id: {remark}")
    rhs_at = family_rhs(family, s, q)
    area = rect.area
    lhs = sum(area * abs(lemma_lhs(f, rect, p, NormalizationMode.CORRECTED, cfg))
              for p in rect.corners())
    rhs = area * sum(rhs_at(f, rect, p) for p in rect.corners())
    extra = {} if family is TheoremId.T1 else {"q": q}
    return _finish(remark, lhs, rhs, _params(rect, None, s, NormalizationMode.CORRECTED, **extra))


# ---------------------------------------------------------------------------
# the five-term chain
# ---------------------------------------------------------------------------

def _mean_1d(f: Surface, fixed: str, coord: float, lo: float, hi: float,
             cfg: QuadConfig) -> float:
    """Mean of a section f(., coord) or f(coord, .) over [lo, hi]."""
    if f.poly is not None:
        from fractions import Fraction
        coeffs = (f.poly.restrict_v(Fraction(coord)) if fixed == "v"
                  else f.poly.restrict_u(Fraction(coord)))
        return float(poly1d_integral_exact(coeffs, Fraction(lo), Fraction(hi))
                     / (Fraction(hi) - Fraction(lo)))
    if fixed == "v":
        g = lambda u: f.fn(u, np.full_like(np.asarray(u, float), coord))
    else:
        g = lambda v: f.fn(np.full_like(np.asarray(v, float), coord), v)
    return integrate_1d(g, lo, hi, cfg).value / (hi - lo)


def chain_evaluate(f: Surface, rect: Rect, s: float,
                   cfg: QuadConfig = DEEP, certify: bool = False,
                   sampler: SamplerConfig = SamplerConfig()) -> ChainEvaluation:
    """The five-term chain of means.

    e0: scaled midpoint value. e1: scaled mid-section means. e2: area mean.
    e3: edge-mean combination. e4: corner sum over (s+1)^2. Monotone means
    e0 <= e1 <= e2 <= e3 <= e4 up to 1e-10.

    The default quadrature config subdivides deeply: the chain is used with
    surfaces like u^s v^s whose boundary sections have endpoint
    singularities, and several chain links are exact equalities for them.
    """
    SExponent(s)
    certified = None
    if certify:
        report = certify_coordinated(f.fn, rect, s, sampler)
        certified = report.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
        if not certified:
            warnings.warn(f"chain hypothesis failed for {f.name}: {report.witness}")
    a, b, c, d = rect.a, rect.b, rect.c, rect.d
    mid = rect.midpoint()
    e0 = 4.0 ** (s - 1.0) * f(mid.x, mid.y)
    e1 = 2.0 ** (s - 2.0) * (_mean_1d(f, "v", mid.y, a, b, cfg)
                             + _mean_1d(f, "u", mid.x, c, d, cfg))
    if f.poly is not None:
        e2 = float(poly_integral_exact(f.poly, rect)) / rect.area
    else:
        e2 = integrate_2d(f.fn, rect, cfg).value / rect.area
    e3 = (1.0 / (2.0 * (s + 1.0))) * (
        _mean_1d(f, "v", c, a, b, cfg) + _mean_1d(f, "v", d, a, b, cfg)
        + _mean_1d(f, "u", a, c, d, cfg) + _mean_1d(f, "u", b, c, d, cfg))
    e4 = sum(f(p.x, p.y) for p in rect.corners()) / (s + 1.0) ** 2
    vals = (e0, e1, e2, e3, e4)
    monotone = all(vals[i + 1] - vals[i] >= -CHAIN_TOL for i in range(4))
    return ChainEvaluation(e0, e1, e2, e3, e4, monotone, certified)
