"""The acceptance battery: nine check groups covering the identity, the
bound families, the aggregates, the chain, and determinism.

Each check returns a CheckResult; the CLI suite command and the test suite
both run these. Tolerances are the stated defaults unless an override is
passed (an override of 0 is legal and is expected to fail: quadrature
noise is real).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import scan_gap
from .bounds import (CHAIN_TOL, Corner, TheoremId, chain_evaluate, corner_report,
                     midpoint_report, remark_aggregate, t1_rhs, t2_rhs, t3_rhs)
from .domain import (EvalPoint, NormalizationMode, PrefactorMode, Rect,
                     make_holder_pair)
from .identity import lemma_lhs, lemma_residual, lemma_residual_exact
from .quad import (DEEP, QuadConfig, holder_kernel_constant, integrate_1d,
                   integrate_2d, kernel_moment)
from .serialize import rows_to_csv
from .surfaces import (Poly2, SamplerConfig, Verdict, catalog,
                       certify_coordinated, certify_s_convex_second_sense,
                       catalog_lookup, parse_surface, poly_surface, Surface)

__all__ = ["CheckResult", "run_acceptance_suite", "ALL_CHECKS"]

PASS = "PASS"
FAIL = "FAIL"
KNOWN_TYPO = "KNOWN_TYPO"

_BATTERY_SEED = 20260816


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    status: str
    detail: str

    @property
    def passed(self) -> bool:
        return self.status != FAIL


def _tol(default: float, override: float | None) -> float:
    return default if override is None else override


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------

def identity_battery_rects() -> list[Rect]:
    # dyadic coordinates so Fraction(float) is the intended rational
    return [Rect(0, 1, 0, 1), Rect(0, 2, 0, 1), Rect(0.5, 2.5, 1, 3),
            Rect(-1, 1, -0.5, 0.5), Rect(0.25, 2.25, 0.125, 1.125)]


def interior_points(rect: Rect, fracs=(0.25, 0.5, 0.75)) -> list[EvalPoint]:
    return [EvalPoint(rect.a + fx * (rect.b - rect.a), rect.c + fy * (rect.d - rect.c))
            for fx in fracs for fy in fracs]


def random_poly_battery(count: int = 20, seed: int = _BATTERY_SEED) -> list[Surface]:
    """Deterministic set of integer-coefficient polynomials of degree <= 4."""
    surfaces = [catalog_lookup("const"), catalog_lookup("uv"), catalog_lookup("u2v2")]
    rng = np.random.default_rng(seed)
    while len(surfaces) < count:
        grid = rng.integers(-3, 4, size=(5, 5))
        if not grid.any():
            continue
        poly = Poly2.from_dict({(i, j): int(grid[i, j]) for i in range(5)
                                for j in range(5) if grid[i, j]})
        surfaces.append(poly_surface(poly, name=f"rand{len(surfaces)}"))
    return surfaces


def theorem_battery_rects() -> list[Rect]:
    return [Rect(0, 1, 0, 1), Rect(0, 2, 0, 1), Rect(0.5, 2.5, 1, 3)]


def theorem_battery_points(rect: Rect) -> list[EvalPoint]:
    """5x5 interior lattice plus the corners plus the midpoint, deduplicated."""
    pts = [EvalPoint(rect.a + i * (rect.b - rect.a) / 6.0,
                     rect.c + j * (rect.d - rect.c) / 6.0)
           for i in range(1, 6) for j in range(1, 6)]
    pts.extend(rect.corners())
    mid = rect.midpoint()
    if mid not in pts:
        pts.append(mid)
    return pts


# ---------------------------------------------------------------------------
# the nine checks
# ---------------------------------------------------------------------------

def check_c1_identity(tol_override: float | None = None) -> CheckResult:
    """Corrected identity: exact residual 0 and quadrature residual <= 1e-10
    over 20 polynomials x 5 rects x 9 interior points."""
    quad_tol = _tol(1e-10, tol_override)
    surfaces = random_poly_battery()
    worst = 0.0
    exact_failures = 0
    cases = 0
    cfg = QuadConfig()
    for f in surfaces:
        for rect in identity_battery_rects():
            for pt in interior_points(rect):
                cases += 1
                ex = lemma_residual_exact(f, rect, pt, NormalizationMode.CORRECTED)
                if ex.residual != 0:
                    exact_failures += 1
                ev = lemma_residual(f, rect, pt, NormalizationMode.CORRECTED,
                                    cfg, use_exact=False)
                worst = max(worst, ev.residual)
    ok = exact_failures == 0 and worst <= quad_tol
    detail = (f"{cases} cases; exact nonzero residuals: {exact_failures}; "
              f"worst quadrature residual {worst:.3e} (tol {quad_tol:.1e})")
    return CheckResult("c1", "corrected identity, exact and quadrature paths",
                       PASS if ok else FAIL, detail)


def check_c2_verbatim_residual(tol_override: float | None = None) -> CheckResult:
    """Verbatim normalization leaves residual 1/2 for f = 1 on [0,2]x[0,1]
    and residual 0 on the unit square."""
    tol = _tol(1e-12, tol_override)
    one = catalog_lookup("const")
    off = lemma_residual_exact(one, Rect(0, 2, 0, 1), EvalPoint(0.7, 0.3),
                               NormalizationMode.VERBATIM)
    on = lemma_residual_exact(one, Rect(0, 1, 0, 1), EvalPoint(0.7, 0.3),
                              NormalizationMode.VERBATIM)
    err_off = abs(off.residual - Fraction(1, 2))
    err_on = abs(on.residual)
    ok = float(err_off) <= tol and float(err_on) <= tol
    detail = (f"off-unit residual {float(off.residual)!r} (want 0.5, err {float(err_off):.1e}); "
              f"unit-square residual {float(on.residual)!r}")
    return CheckResult("c2", "verbatim normalization residual is the predicted constant",
                       PASS if ok else FAIL, detail)


def _battery_lhs_cache(surfaces, rects, cfg) -> dict:
    cache = {}
    for fi, f in enumerate(surfaces):
        for ri, rect in enumerate(rects):
            for pi, pt in enumerate(theorem_battery_points(rect)):
                cache[(fi, ri, pi)] = abs(lemma_lhs(f, rect, pt,
                                                    NormalizationMode.CORRECTED, cfg))
    return cache


def check_c3_theorem_battery(tol_override: float | None = None) -> CheckResult:
    """No violations of t1/t2/t3 across the certified catalog battery."""
    margin_tol = _tol(1e-10, tol_override)
    surfaces = [e.surface for e in catalog() if e.abs_mixed_coordinated]
    rects = theorem_battery_rects()
    s_values = (0.25, 0.5, 0.75, 1.0)
    cfg = QuadConfig(gl_order=32, max_subdiv=24, abs_tol=1e-11)
    lhs_cache = _battery_lhs_cache(surfaces, rects, cfg)
    violations = 0
    worst = np.inf
    reports = 0
    for fi, f in enumerate(surfaces):
        for ri, rect in enumerate(rects):
            for pi, pt in enumerate(theorem_battery_points(rect)):
                lhs = lhs_cache[(fi, ri, pi)]
                for s in s_values:
                    rhss = [t1_rhs(f, rect, pt, s)]
                    rhss += [t2_rhs(f, rect, pt, s, q) for q in (1.5, 2.0, 3.0)]
                    for q in (1.0, 2.0, 4.0):
                        rhss.append(t3_rhs(f, rect, pt, s, q, PrefactorMode.VERBATIM))
                        rhss.append(t3_rhs(f, rect, pt, s, q, PrefactorMode.SHARPENED))
                    for rhs in rhss:
                        reports += 1
                        margin = rhs - lhs
                        worst = min(worst, margin)
                        if margin < -margin_tol:
                            violations += 1
    ok = violations == 0
    detail = f"{reports} bound evaluations; violations {violations}; worst margin {worst:.3e}"
    return CheckResult("c3", "bound batteries hold on the certified catalog",
                       PASS if ok else FAIL, detail)


def check_c4_anchors(tol_override: float | None = None) -> CheckResult:
    """Closed-form anchor values."""
    tol = _tol(1e-12, tol_override)
    uv = catalog_lookup("uv")
    unit = Rect(0, 1, 0, 1)
    mid = EvalPoint(0.5, 0.5)
    errs = []
    for s in (0.25, 0.5, 0.75, 1.0):
        errs.append(abs(t1_rhs(uv, unit, mid, s) - 1.0 / (4.0 * (s + 1.0) ** 2)))
    errs.append(abs(t2_rhs(uv, unit, mid, 1.0, 2.0) - 1.0 / 12.0))
    wide = Rect(0, 2, 0, 1)
    ev = lemma_residual_exact(uv, wide, EvalPoint(0, 0), NormalizationMode.CORRECTED)
    errs.append(abs(abs(float(ev.lhs)) - 0.5))
    errs.append(abs(abs(float(ev.rhs)) - 0.5))
    tight = corner_report(TheoremId.T1, Corner.AC, uv, wide, s=1.0)
    errs.append(abs(tight.margin))
    worst = max(errs)
    ok = worst <= tol
    return CheckResult("c4", "closed-form anchors (midpoint values, both-sides 1/2, tight corner)",
                       PASS if ok else FAIL, f"worst anchor error {worst:.3e} (tol {tol:.1e})")


def check_c5_kernel_constants(tol_override: float | None = None) -> CheckResult:
    """Kernel constants against adaptive quadrature."""
    tol_s = _tol(1e-12, tol_override)
    tol_p = _tol(1e-8, tol_override)
    deep = QuadConfig(gl_order=64, max_subdiv=48, abs_tol=1e-13)
    worst_s = 0.0
    for k in range(1, 11):
        s = k / 10.0
        got = integrate_1d(lambda t: (1.0 - t) * t ** s, 0.0, 1.0, deep).value
        worst_s = max(worst_s, abs(got - kernel_moment(s)))
    worst_p = 0.0
    cfg2 = QuadConfig(gl_order=32, max_subdiv=20, abs_tol=1e-10)
    for p in (1.5, 2.0, 3.0, 4.0):
        raw = integrate_2d(lambda t, l: ((1.0 - t) * (1.0 - l)) ** p,
                           Rect(0, 1, 0, 1), cfg2).value
        worst_p = max(worst_p, abs(raw ** (1.0 / p) - holder_kernel_constant(p)))
    ok = worst_s <= tol_s and worst_p <= tol_p
    detail = (f"moment error {worst_s:.3e} over s=0.1..1.0 (tol {tol_s:.1e}); "
              f"Holder constant error {worst_p:.3e} (tol {tol_p:.1e})")
    return CheckResult("c5", "kernel constants match quadrature",
                       PASS if ok else FAIL, detail)


def _displayed_aggregate(remark: TheoremId, f: Surface, rect: Rect, s: float,
                         q: float | None = None) -> float:
    """A remark aggregate's right side as the paper displays it.

    Written from the displayed formulas alone, so it is an independent
    oracle for remark_aggregate and for the summed corner bounds.
    """
    dac, dad, dbc, dbd = (abs(f.mixed_partial(p.x, p.y)) for p in rect.corners())
    area = rect.area
    s1 = s + 1.0
    if remark is TheoremId.R_C15:
        return area ** 2 / s1 ** 2 * (dac + dad + dbc + dbd)
    if remark is TheoremId.R_METU:
        hp = make_holder_pair(q)
        return (4.0 * area ** 2 * holder_kernel_constant(hp.p) / s1 ** (2.0 / q)
                * sum(val ** q for val in (dac, dad, dbc, dbd)) ** (1.0 / q))
    inners = (
        dac ** q + s1 * (dad ** q + dbc ** q) + s1 ** 2 * dbd ** q,
        dbd ** q + s1 * (dbc ** q + dad ** q) + s1 ** 2 * dac ** q,
        dad ** q + s1 * (dac ** q + dbd ** q) + s1 ** 2 * dbc ** q,
        dbc ** q + s1 * (dbd ** q + dac ** q) + s1 ** 2 * dad ** q,
    )
    return (4.0 * area ** 2 / (2.0 * s1 * (s + 2.0)) ** (2.0 / q)
            * sum(val ** (1.0 / q) for val in inners))


def check_c6_aggregation(tol_override: float | None = None) -> CheckResult:
    """Coefficient identity, plus remark aggregates and area-weighted sums
    of corner bounds against the displayed aggregate formulas."""
    tol = _tol(1e-12, tol_override)
    rng = np.random.default_rng(_BATTERY_SEED)
    worst = 0.0
    for s in rng.uniform(0.01, 1.0, size=100):
        s1, s2 = s + 1.0, s + 2.0
        worst = max(worst, abs((1.0 / s1 ** 2 + 2.0 / s1 + 1.0) / s2 ** 2 - 1.0 / s1 ** 2))
    cfg = QuadConfig()
    surfaces = [catalog_lookup("uv"), catalog_lookup("u2v2.5")]
    families = ((TheoremId.R_C15, TheoremId.T1, (None,)),
                (TheoremId.R_METU, TheoremId.T2, (1.5, 2.0, 3.0)),
                (TheoremId.R_FINAL, TheoremId.T3, (1.0, 2.0, 4.0)))
    for f in surfaces:
        for rect in (Rect(0, 1, 0, 1), Rect(0.5, 2.5, 1, 3)):
            for s in (0.25, 1.0):
                for remark, family, qs in families:
                    for q in qs:
                        want = _displayed_aggregate(remark, f, rect, s, q)
                        agg = remark_aggregate(remark, f, rect, s, q, cfg=cfg)
                        csum = sum(corner_report(family, cn, f, rect, s, q, cfg=cfg).rhs
                                   for cn in Corner)
                        worst = max(worst, abs(agg.rhs - want), abs(rect.area * csum - want))
    ok = worst <= tol
    return CheckResult("c6", "aggregates and summed corner bounds match the displayed "
                       "aggregates; coefficient identity",
                       PASS if ok else FAIL, f"worst error {worst:.3e} (tol {tol:.1e})")


def check_c7_family_relations(tol_override: float | None = None) -> CheckResult:
    """t3 at q=1 collapses onto t1; verbatim constant dominates sharpened."""
    tol = _tol(1e-12, tol_override)
    surfaces = [e.surface for e in catalog() if e.abs_mixed_coordinated]
    rects = theorem_battery_rects()
    worst_collapse = 0.0
    worst_domination = np.inf
    for f in surfaces:
        for rect in rects:
            for pt in theorem_battery_points(rect):
                for s in (0.25, 0.75, 1.0):
                    t1v = t1_rhs(f, rect, pt, s)
                    t3v = t3_rhs(f, rect, pt, s, 1.0, PrefactorMode.VERBATIM)
                    t3s = t3_rhs(f, rect, pt, s, 1.0, PrefactorMode.SHARPENED)
                    worst_collapse = max(worst_collapse, abs(t3v - t1v), abs(t3s - t1v))
                    for q in (2.0, 4.0):
                        hi = t3_rhs(f, rect, pt, s, q, PrefactorMode.VERBATIM)
                        lo = t3_rhs(f, rect, pt, s, q, PrefactorMode.SHARPENED)
                        worst_domination = min(worst_domination, hi - lo)
    ok = worst_collapse <= tol and worst_domination >= -tol
    detail = (f"q=1 collapse error {worst_collapse:.3e} (tol {tol:.1e}); "
              f"min (verbatim - sharpened) {worst_domination:.3e}")
    return CheckResult("c7", "power-mean family collapses to t1 at q=1 and verbatim >= sharpened",
                       PASS if ok else FAIL, detail)


def check_c8_chain(tol_override: float | None = None) -> CheckResult:
    """Chain monotone for the stock families; all five equal for uv on the
    unit square at s=1."""
    tol = _tol(CHAIN_TOL, tol_override)
    eq_tol = _tol(1e-12, tol_override)
    rects = [Rect(0, 1, 0, 1), Rect(0, 2, 0, 3)]
    failures = []
    worst_gap = np.inf
    for s in (0.25, 0.5, 0.75, 1.0):
        surfaces = [catalog_lookup("uv"), catalog_lookup("u2v2"),
                    parse_surface(f"u^{s}*v^{s}", name=f"usvs(s={s})"),
                    catalog_lookup("const")]
        for f in surfaces:
            for rect in rects:
                ev = chain_evaluate(f, rect, s)
                gaps = [ev.values[i + 1] - ev.values[i] for i in range(4)]
                worst_gap = min(worst_gap, min(gaps))
                if min(gaps) < -tol:
                    failures.append((f.name, s, rect, gaps))
    ev = chain_evaluate(catalog_lookup("uv"), Rect(0, 1, 0, 1), 1.0)
    eq_err = max(abs(v - 0.25) for v in ev.values)
    ok = not failures and eq_err <= eq_tol
    detail = (f"worst link gap {worst_gap:.3e} (tol {tol:.1e}); "
              f"bilinear unit-square equality error {eq_err:.3e}")
    return CheckResult("c8", "five-term chain is monotone; bilinear case is five equal values",
                       PASS if ok else FAIL, detail)


def check_c9_determinism(tol_override: float | None = None) -> CheckResult:
    """Same inputs, same bytes: scans and certifier witnesses reproduce."""
    uv = catalog_lookup("uv")
    rect = Rect(0, 2, 0, 1)

    def scan_csv() -> str:
        gap = scan_gap(TheoremId.T1, uv, rect, s=1.0, grid_n=6)
        rows = [tuple(r) for r in gap.grid]
        return rows_to_csv(["x", "y", "lhs", "rhs", "margin"], rows)

    csv_same = scan_csv() == scan_csv()
    neg = lambda t: -np.asarray(t, dtype=float)
    rep1 = certify_s_convex_second_sense(neg, 1.0, 0.0, 1.0, SamplerConfig(seed=7))
    rep2 = certify_s_convex_second_sense(neg, 1.0, 0.0, 1.0, SamplerConfig(seed=7))
    witness_same = (rep1 == rep2 and rep1.verdict is Verdict.COUNTEREXAMPLE
                    and rep1.witness.kind == "negative_value")
    absd = lambda u, v: np.abs(uv.mixed_partial(u, v))
    cert1 = certify_coordinated(absd, rect, 0.5, SamplerConfig(seed=11))
    cert2 = certify_coordinated(absd, rect, 0.5, SamplerConfig(seed=11))
    coord_same = cert1 == cert2 and cert1.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
    ok = csv_same and witness_same and coord_same
    detail = (f"scan csv identical: {csv_same}; negative-witness replay identical: "
              f"{witness_same}; coordinated certification identical: {coord_same}")
    return CheckResult("c9", "repeated runs are byte- and witness-identical",
                       PASS if ok else FAIL, detail)


def check_verbatim_identity_exhibit() -> CheckResult:
    """Expected failure: the verbatim identity off unit-area rectangles.

    The residual must match |k (1 - area) / area| exactly; any other value
    is a real regression rather than the known normalization slip.
    """
    one = catalog_lookup("const")
    rows = []
    ok_known = True
    for rect in (Rect(0, 2, 0, 1), Rect(0.5, 2.5, 1, 3)):
        ev = lemma_residual_exact(one, rect, EvalPoint(rect.midpoint().x, rect.midpoint().y),
                                  NormalizationMode.VERBATIM)
        area = Fraction(rect.b) - Fraction(rect.a)
        area *= Fraction(rect.d) - Fraction(rect.c)
        predicted = abs((1 - area) / area)
        rows.append(float(ev.residual))
        if ev.residual != predicted:
            ok_known = False
    if not ok_known:
        return CheckResult("verbatim_identity", "verbatim identity off unit squares",
                           FAIL, f"residuals {rows} do not match the predicted constant")
    return CheckResult("verbatim_identity", "verbatim identity off unit squares",
                       KNOWN_TYPO, f"fails as expected with residuals {rows}, "
                       "exactly |k(1-area)/area|")


ALL_CHECKS = (
    check_c1_identity,
    check_c2_verbatim_residual,
    check_c3_theorem_battery,
    check_c4_anchors,
    check_c5_kernel_constants,
    check_c6_aggregation,
    check_c7_family_relations,
    check_c8_chain,
    check_c9_determinism,
)


def run_acceptance_suite(tol_override: float | None = None,
                         include_verbatim_identity: bool = False) -> list[CheckResult]:
    results = [check(tol_override) for check in ALL_CHECKS]
    if include_verbatim_identity:
        results.append(check_verbatim_identity_exhibit())
    return results
