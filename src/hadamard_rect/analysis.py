"""Margin analysis over a rectangle: lattice scans, s sweeps, family
comparison, and a small local refinement of the worst lattice cell.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .domain import EvalPoint, NormalizationMode, PrefactorMode, Rect
from .identity import lemma_lhs_at, lemma_lhs_lattice
from .bounds import (BoundReport, Stencil, TheoremId, family_report, family_rhs,
                     family_stencil_rhs)
from .quad import QuadConfig, ToleranceNotMet
from .serialize import FloatLattice
from .surfaces import EvalError, Surface

__all__ = ["GapSurface", "SweepResult", "RefinedMin", "scan_gap", "sweep_s",
           "compare_families", "refine_argmin", "MAX_GRID"]

# largest grid_n a scan accepts: (MAX_GRID + 1)^2 cells, about 263k
MAX_GRID = 512


@dataclass(frozen=True)
class GapSurface:
    """Lattice evaluation of one bound family over a rectangle.

    grid rows are (x, y, lhs, rhs, margin) in scan order: y runs in the
    outer loop, x in the inner one. The lattice's first and last
    coordinates are the rectangle's edges exactly. Each row equals what
    lemma_lhs and family_rhs give at that point, bit for bit, although
    both sides are computed for the whole lattice at once: the right side
    is one pass of the family's formula over arrays. Cells that
    failed to evaluate carry NaN and an entry in errors; they do not abort
    the scan.

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

    def table(self) -> FloatLattice:
        """grid as its axes and its (lhs, rhs, margin) columns, for the writers."""
        nx = self.grid_shape[1]
        return FloatLattice(("x", "y", "lhs", "rhs", "margin"), self.grid[:nx, 0],
                            self.grid[::nx, 1], self.grid[:, 2:])


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


class _FloatPow(np.ndarray):
    """A float64 array whose ** is Python's float pow on each element.

    numpy's power, and its square and square-root fast paths, can differ
    from Python's pow in the last bit, so a family's stencil form run on
    these arrays gives every cell the bits the point path gives it. As on
    a float, a power too large for a float raises OverflowError.
    """

    def __pow__(self, e):
        out = np.fromiter(map(pow, self.ravel().tolist(), repeat(e)), float, self.size)
        return out.reshape(self.shape).view(_FloatPow)


def _lattice_rhs(on_stencil: Callable[[Stencil, Rect, EvalPoint], float],
                 f: Surface, rect: Rect, xs: list[float], ys: list[float]
                 ) -> np.ndarray:
    """A family's right side at every lattice cell, indexed [iy, ix]: one
    mixed-partial call on the whole lattice, then one call of its stencil
    form on_stencil over arrays.

    The lattice holds a, b, c and d, so each cell's stencil is lattice rows
    (0, ix, n) by columns (0, iy, n), and each stencil entry is a slice of
    M, the |D| array indexed [ix, iy]. Raises EvalError where the
    mixed-partial call does, and OverflowError where a power does.
    """
    M = np.abs(f.mixed_partial(*np.meshgrid(xs, ys, indexing="ij"))).view(_FloatPow)
    n = len(xs) - 1
    ends = (slice(0, 1), slice(None), slice(n, n + 1))
    D = [[M[i, j] for j in ends] for i in ends]
    pt = EvalPoint(np.array(xs)[:, None].view(_FloatPow),
                   np.array(ys)[None, :].view(_FloatPow))
    with np.errstate(over="ignore", invalid="ignore"):   # as Python floats are
        return np.asarray(on_stencil(D, rect, pt)).T


def scan_gap(theorem: TheoremId, f: Surface, rect: Rect, s: float,
             q: float | None = None, grid_n: int = 8,
             constant_mode: PrefactorMode = PrefactorMode.VERBATIM,
             mode: NormalizationMode = NormalizationMode.CORRECTED,
             cfg: QuadConfig = QuadConfig()) -> GapSurface:
    """Evaluate margin = rhs - lhs on the (grid_n+1)^2 lattice including the
    boundary. Deterministic: no randomness anywhere in the scan.

    Cost: one left-side lattice call (four edge integrals and one area
    integral, then one array expression or one integer division per node),
    one mixed-partial call on the whole lattice, and one pass of the
    family's formula over the lattice as arrays. A cell whose left or right
    side raises EvalError is an error cell; where the lattice's mixed
    partial or right side fails, each cell falls back to family_rhs and
    keeps its own message. grid_n is at most MAX_GRID.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    if grid_n > MAX_GRID:
        raise ValueError(f"grid_n must be <= {MAX_GRID}, got {grid_n}")
    mode, constant_mode = NormalizationMode(mode), PrefactorMode(constant_mode)
    rhs_at = family_rhs(theorem, s, q, constant_mode)   # checks s and q first
    on_stencil = family_stencil_rhs(theorem, s, q, constant_mode)
    # the last coordinate is b (d) itself: a + n (b - a) / n can miss it
    xs = [rect.a + i * (rect.b - rect.a) / grid_n for i in range(grid_n)] + [rect.b]
    ys = [rect.c + j * (rect.d - rect.c) / grid_n for j in range(grid_n)] + [rect.d]
    try:
        lhs, failed = lemma_lhs_lattice(f, rect, xs, ys, mode, cfg)
    except (EvalError, ToleranceNotMet) as exc:
        # the left side's integrals do not depend on the point: every cell fails
        lhs = rhs = np.full((len(ys), len(xs)), np.nan)
        failed = {(ix, iy): str(exc) for iy in range(len(ys)) for ix in range(len(xs))}
    else:
        lhs = np.abs(lhs)
        try:
            rhs = _lattice_rhs(on_stencil, f, rect, xs, ys)
        except (EvalError, OverflowError):
            rhs = np.full_like(lhs, np.nan)
            for iy, y in enumerate(ys):
                for ix, x in enumerate(xs):
                    if (ix, iy) in failed:
                        continue
                    try:
                        rhs[iy, ix] = rhs_at(f, rect, EvalPoint(x, y))
                    except EvalError as exc:
                        failed[ix, iy] = str(exc)
    errors = sorted(((ix, iy, msg) for (ix, iy), msg in failed.items()),
                    key=lambda e: (e[1], e[0]))   # scan order
    with np.errstate(invalid="ignore"):     # inf - inf is NaN, as on floats
        margin = rhs - lhs
    for ix, iy, _ in errors:
        lhs[iy, ix] = rhs[iy, ix] = margin[iy, ix] = np.nan
    X, Y = np.meshgrid(xs, ys)
    grid = np.column_stack([col.ravel() for col in (X, Y, lhs, rhs, margin)])
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
    lhs_at = lemma_lhs_at(f, rect, mode, cfg)

    def margin_at(x, y):
        pt = EvalPoint(min(max(x, rect.a), rect.b), min(max(y, rect.c), rect.d))
        lhs = abs(lhs_at(pt))
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
    """One report per s, all sharing one left side. The rhs trend is
    reported descriptively; nothing about monotonicity in s is asserted."""
    s_values = list(s_values)
    for s in s_values:           # every s and q is checked before the left side
        family_rhs(theorem, s, q, constant_mode)
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
    families = ((TheoremId.T1, None, PrefactorMode.VERBATIM),
                (TheoremId.T2, q, PrefactorMode.VERBATIM),
                (TheoremId.T3, q, PrefactorMode.VERBATIM),
                (TheoremId.T3, q, PrefactorMode.SHARPENED))
    for theorem, fq, cmode in families:     # checked before the left side
        family_rhs(theorem, s, fq, cmode)
    return tuple(family_report(theorem, f, rect, pt, s, fq, cmode, mode, cfg)
                 for theorem, fq, cmode in families)
