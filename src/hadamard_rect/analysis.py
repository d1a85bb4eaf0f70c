"""Margin analysis over a rectangle: lattice scans, s sweeps, family
comparison, and a small local refinement of the worst lattice cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import EvalPoint, NormalizationMode, PrefactorMode, Rect
from .identity import lemma_lhs
from .bounds import (BoundReport, TheoremId, family_report, family_rhs,
                     t1_report, t2_report, t3_report)
from .quad import QuadConfig, ToleranceNotMet
from .surfaces import EvalError, Surface

__all__ = ["GapSurface", "SweepResult", "RefinedMin", "scan_gap", "sweep_s",
           "compare_families", "refine_argmin"]


@dataclass(frozen=True)
class GapSurface:
    """Lattice evaluation of one bound family over a rectangle.

    grid rows are (x, y, lhs, rhs, margin) in scan order: y runs in the
    outer loop, x in the inner one. Cells that failed to evaluate carry
    NaN and an entry in errors; they do not abort the scan.

    argmin holds the (x, y) coordinates of the smallest margin, first in
    scan order on ties, ready to feed refine_argmin. errors entries are
    (ix, iy, message) lattice indices.
    """

    grid: np.ndarray
    grid_shape: tuple[int, int]
    min_margin: float
    argmin: tuple[float, float] | None
    errors: tuple[tuple[int, int, str], ...]
    params: dict


@dataclass(frozen=True)
class SweepResult:
    reports: tuple[BoundReport, ...]
    rhs_trend: str        # "decreasing" | "increasing" | "mixed" | "n/a"


@dataclass(frozen=True)
class RefinedMin:
    x: float
    y: float
    margin: float
    iterations: int


def scan_gap(theorem: TheoremId, f: Surface, rect: Rect, s: float,
             q: float | None = None, grid_n: int = 8,
             constant_mode: PrefactorMode = PrefactorMode.VERBATIM,
             mode: NormalizationMode = NormalizationMode.CORRECTED,
             cfg: QuadConfig = QuadConfig()) -> GapSurface:
    """Evaluate margin = rhs - lhs on the (grid_n+1)^2 lattice including the
    boundary. Deterministic: no randomness anywhere in the scan."""
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    rhs_at = family_rhs(theorem, s, q, constant_mode)
    xs = [rect.a + i * (rect.b - rect.a) / grid_n for i in range(grid_n + 1)]
    ys = [rect.c + j * (rect.d - rect.c) / grid_n for j in range(grid_n + 1)]
    rows = []
    errors = []
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            pt = EvalPoint(x, y)
            try:
                lhs = abs(lemma_lhs(f, rect, pt, mode, cfg))
                rhs = rhs_at(f, rect, pt)
                rows.append((x, y, lhs, rhs, rhs - lhs))
            except (EvalError, ToleranceNotMet) as exc:
                errors.append((ix, iy, str(exc)))
                rows.append((x, y, np.nan, np.nan, np.nan))
    grid = np.array(rows, dtype=float)
    margins = grid[:, 4]
    if np.all(np.isnan(margins)):
        min_margin, argmin = float("nan"), None
    else:
        k = int(np.nanargmin(margins))       # first minimum in scan order
        min_margin = float(margins[k])
        argmin = (float(grid[k, 0]), float(grid[k, 1]))
    params = {"theorem": theorem.value, "surface": f.name,
              "rect": (rect.a, rect.b, rect.c, rect.d), "s": s,
              "grid_n": grid_n, "mode": mode.value}
    if q is not None:
        params["q"] = q
    if theorem is TheoremId.T3:
        params["constant"] = constant_mode.value
    return GapSurface(grid=grid, grid_shape=(grid_n + 1, grid_n + 1),
                      min_margin=min_margin, argmin=argmin,
                      errors=tuple(errors), params=params)


def refine_argmin(theorem: TheoremId, f: Surface, rect: Rect, s: float,
                  start: tuple[float, float], q: float | None = None,
                  constant_mode: PrefactorMode = PrefactorMode.VERBATIM,
                  mode: NormalizationMode = NormalizationMode.CORRECTED,
                  cfg: QuadConfig = QuadConfig(), iterations: int = 20) -> RefinedMin:
    """Coordinate descent with step halving from a lattice minimum.

    Purely local polish; the scan stays the source of truth for coverage.
    """
    rhs_at = family_rhs(theorem, s, q, constant_mode)

    def margin_at(x, y):
        pt = EvalPoint(min(max(x, rect.a), rect.b), min(max(y, rect.c), rect.d))
        lhs = abs(lemma_lhs(f, rect, pt, mode, cfg))
        return rhs_at(f, rect, pt) - lhs

    x, y = start
    x = min(max(x, rect.a), rect.b)
    y = min(max(y, rect.c), rect.d)
    best = margin_at(x, y)
    step_x = (rect.b - rect.a) / 8.0
    step_y = (rect.d - rect.c) / 8.0
    for _ in range(iterations):
        for dx, dy in ((step_x, 0.0), (-step_x, 0.0), (0.0, step_y), (0.0, -step_y)):
            cx = min(max(x + dx, rect.a), rect.b)
            cy = min(max(y + dy, rect.c), rect.d)
            cand = margin_at(cx, cy)
            if cand < best:
                best, x, y = cand, cx, cy
        step_x *= 0.5
        step_y *= 0.5
    return RefinedMin(x=x, y=y, margin=best, iterations=iterations)


def sweep_s(theorem: TheoremId, f: Surface, rect: Rect, pt: EvalPoint,
            s_values, q: float | None = None,
            constant_mode: PrefactorMode = PrefactorMode.VERBATIM,
            mode: NormalizationMode = NormalizationMode.CORRECTED,
            cfg: QuadConfig = QuadConfig()) -> SweepResult:
    """One report per s. The rhs trend is reported descriptively; nothing
    about monotonicity in s is asserted."""
    reports = [family_report(theorem, f, rect, pt, s, q, constant_mode, mode, cfg)
               for s in s_values]
    rhs = [r.rhs for r in reports]
    if len(rhs) < 2:
        trend = "n/a"
    elif all(b <= a + 1e-15 for a, b in zip(rhs, rhs[1:])):
        trend = "decreasing"
    elif all(b >= a - 1e-15 for a, b in zip(rhs, rhs[1:])):
        trend = "increasing"
    else:
        trend = "mixed"
    return SweepResult(reports=tuple(reports), rhs_trend=trend)


def compare_families(f: Surface, rect: Rect, pt: EvalPoint, s: float, q: float,
                     mode: NormalizationMode = NormalizationMode.CORRECTED,
                     cfg: QuadConfig = QuadConfig()) -> tuple[BoundReport, ...]:
    """All families at one point with a shared left side: t1, t2(q),
    t3(q) in both constant modes. q must exceed 1 so the Holder row exists."""
    return (
        t1_report(f, rect, pt, s, mode, cfg),
        t2_report(f, rect, pt, s, q, mode, cfg),
        t3_report(f, rect, pt, s, q, PrefactorMode.VERBATIM, mode, cfg),
        t3_report(f, rect, pt, s, q, PrefactorMode.SHARPENED, mode, cfg),
    )
