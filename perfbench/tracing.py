"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces public functions of hadamard_rect with timing
wrappers in every module namespace that holds them (``integrate_2d`` is
imported by name into identity, bounds and suite, so patching quad alone
would miss calls), patches ``Surface.__call__`` and
``Surface.mixed_partial`` on the class, and hands out surfaces whose ``fn``
is wrapped too. ``uninstall`` puts every original back.

A span is (parent, name, start, end, operation id, points). Spans stay in
memory until ``write``. A layer's self time is its spans' durations minus
the time their direct children cover; spans nest strictly, because the
benchmark runs one thread.
"""
from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import hadamard_rect as hr
from hadamard_rect import cli, identity, serialize, surfaces


def _identity_path(args, kwargs) -> str:
    """Span name of lemma_lhs/lemma_residual: the rational or the quadrature path."""
    use_exact = kwargs.get("use_exact", args[5] if len(args) > 5 else True)
    return "identity.exact" if args[0].poly is not None and use_exact else "identity.quad"


# (module, function names, span name or a namer of (args, kwargs))
TARGETS = (
    (surfaces, ("certify_coordinated",), "surfaces.certify"),
    (hr.quad, ("integrate_1d",), "quad.integrate_1d"),
    (hr.quad, ("integrate_2d",), "quad.integrate_2d"),
    (identity, ("lemma_residual_exact",), "identity.exact"),
    (identity, ("lemma_lhs", "lemma_residual"), _identity_path),
    (hr.bounds, ("t1_rhs", "t2_rhs", "t3_rhs"), "bounds.rhs"),
    (hr.bounds, ("t1_report", "t2_report", "t3_report", "corner_report",
                 "midpoint_report", "remark_aggregate", "chain_evaluate"), "bounds.report"),
    (hr.analysis, ("scan_gap",), "analysis.scan"),
    (cli, ("main",), "cli.main"),
    (serialize, ("build_report", "report_to_json", "rows_to_csv"), "serialize"),
)
# constructors whose surfaces get a traced fn
SURFACE_MAKERS = ("parse_surface", "catalog_lookup", "poly_surface")

# every per-layer metric with its unit; each *_s is self time
UNITS = {
    "bounds.rhs_calls": "count", "bounds.rhs_s": "s",
    "bounds.mixed_points_per_rhs": "points/call", "bounds.report_calls": "count",
    "bounds.report_s": "s",
    "surfaces.mixed_calls": "count", "surfaces.mixed_points": "count",
    "surfaces.fn_calls": "count", "surfaces.fn_points": "count", "surfaces.eval_s": "s",
    "surfaces.certify_calls": "count", "surfaces.certify_samples": "count",
    "surfaces.certify_s": "s",
    "identity.exact_calls": "count", "identity.exact_s": "s",
    "identity.quad_calls": "count", "identity.quad_s": "s", "identity.worst_residual": "abs",
    "quad.integrate_1d_calls": "count", "quad.integrate_1d_s": "s",
    "quad.integrate_2d_calls": "count", "quad.integrate_2d_s": "s",
    "quad.integrand_calls": "count", "quad.integrand_points": "count",
    "quad.max_depth": "count", "quad.tolerance_failures": "count",
    "analysis.scan_calls": "count", "analysis.scan_s": "s", "analysis.points": "count",
    "cli.main_calls": "count", "cli.self_s": "s", "serialize.s": "s", "serialize.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _points(u, v) -> int:
    if isinstance(u, float) and isinstance(v, float):
        return 1
    return int(np.broadcast(np.asarray(u), np.asarray(v)).size)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.max_depth = 0
        self.worst_residual = 0.0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, points=None, hook=None):
        """Span around fn. name may be a function of (args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                n = points(*args) if points else 0
                tracer.spans[sid] = (parent, label, t0, t1, tracer.op, n)
                if hook:
                    hook(args, result, exc)

        return traced

    def _count_integrand(self, g):
        counts = self.counts

        def counted(*xs):
            counts["quad.integrand_calls"] += 1
            counts["quad.integrand_points"] += int(np.size(xs[0]))
            return g(*xs)

        return counted

    def _quad_hook(self, args, result, exc):
        if isinstance(exc, hr.ToleranceNotMet):
            self.counts["quad.tolerance_failures"] += 1
        elif result is not None:
            self.max_depth = max(self.max_depth, result.subdivisions)

    def _residual_hook(self, args, result, exc):
        if result is not None:
            self.worst_residual = max(self.worst_residual, float(result.residual))

    def _hook(self, key, measure):
        counts = self.counts

        def hook(args, result, exc):
            if result is not None:
                counts[key] += measure(result)

        return hook

    def traced_surface(self, surf):
        return dataclasses.replace(
            surf, fn=self.wrap("surfaces.fn", surf.fn, points=_points))

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "hadamard_rect" or name.startswith("hadamard_rect.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        hooks = {"quad.integrate_1d": self._quad_hook, "quad.integrate_2d": self._quad_hook,
                 "analysis.scan": self._hook("analysis.points", lambda r: len(r.grid)),
                 "serialize": self._hook("serialize.bytes",
                                         lambda r: len(r.encode()) if isinstance(r, str) else 0),
                 "surfaces.certify": self._hook("surfaces.certify_samples",
                                                lambda r: r.samples_used)}
        for module, names, label in TARGETS:
            for fname in names:
                original = getattr(module, fname)
                hook = hooks.get(label)
                if fname in ("lemma_residual", "lemma_residual_exact"):
                    hook = self._residual_hook
                traced = self.wrap(label, original, hook=hook)
                if module is hr.quad:
                    traced = self._with_counted_integrand(traced)
                self._patch_everywhere(original, traced)
        for fname in SURFACE_MAKERS:
            original = getattr(surfaces, fname)

            def maker(*args, _original=original, **kwargs):
                return self.traced_surface(_original(*args, **kwargs))

            self._patch_everywhere(original, functools.wraps(original)(maker))
        for method, label in (("__call__", "surfaces.call"), ("mixed_partial", "surfaces.mixed")):
            original = getattr(hr.Surface, method)
            setattr(hr.Surface, method,
                    self.wrap(label, original, points=lambda _surface, u, v: _points(u, v)))
            self._undo.append((hr.Surface, method, original))

    def _with_counted_integrand(self, traced):
        def call(g, *args, **kwargs):
            return traced(self._count_integrand(g), *args, **kwargs)
        return call

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for parent, _, t0, t1, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [t1 - t0 - cov for (_, _, t0, t1, _, _), cov in zip(self.spans, covered)]

    def metrics(self) -> dict:
        spans = self.spans
        selfs = self.self_times()
        calls: Counter = Counter()
        busy: Counter = Counter()
        pts: Counter = Counter()
        mixed_in_rhs = 0
        top_identity: Counter = Counter()
        for (parent, name, _, _, _, n), st in zip(spans, selfs):
            calls[name] += 1
            busy[name] += st
            pts[name] += n
            if name == "surfaces.mixed" and parent >= 0 and spans[parent][1] == "bounds.rhs":
                mixed_in_rhs += n
            if name.startswith("identity.") and (
                    parent < 0 or not spans[parent][1].startswith("identity.")):
                top_identity[name] += 1
        c = self.counts
        return {
            "bounds.rhs_calls": calls["bounds.rhs"],
            "bounds.rhs_s": busy["bounds.rhs"],
            "bounds.mixed_points_per_rhs": mixed_in_rhs / calls["bounds.rhs"] if calls["bounds.rhs"] else 0.0,
            "bounds.report_calls": calls["bounds.report"],
            "bounds.report_s": busy["bounds.report"],
            "surfaces.mixed_calls": calls["surfaces.mixed"],
            "surfaces.mixed_points": pts["surfaces.mixed"],
            "surfaces.fn_calls": calls["surfaces.fn"],
            "surfaces.fn_points": pts["surfaces.fn"],
            "surfaces.eval_s": busy["surfaces.call"] + busy["surfaces.mixed"] + busy["surfaces.fn"],
            "surfaces.certify_calls": calls["surfaces.certify"],
            "surfaces.certify_samples": c["surfaces.certify_samples"],
            "surfaces.certify_s": busy["surfaces.certify"],
            "identity.exact_calls": top_identity["identity.exact"],
            "identity.exact_s": busy["identity.exact"],
            "identity.quad_calls": top_identity["identity.quad"],
            "identity.quad_s": busy["identity.quad"],
            "identity.worst_residual": self.worst_residual,
            "quad.integrate_1d_calls": calls["quad.integrate_1d"],
            "quad.integrate_1d_s": busy["quad.integrate_1d"],
            "quad.integrate_2d_calls": calls["quad.integrate_2d"],
            "quad.integrate_2d_s": busy["quad.integrate_2d"],
            "quad.integrand_calls": c["quad.integrand_calls"],
            "quad.integrand_points": c["quad.integrand_points"],
            "quad.max_depth": self.max_depth,
            "quad.tolerance_failures": c["quad.tolerance_failures"],
            "analysis.scan_calls": calls["analysis.scan"],
            "analysis.scan_s": busy["analysis.scan"],
            "analysis.points": c["analysis.points"],
            "cli.main_calls": calls["cli.main"],
            "cli.self_s": busy["cli.main"],
            "serialize.s": busy["serialize"],
            "serialize.bytes": c["serialize.bytes"],
        }

    def write(self, path: str) -> None:
        """One line per span: id, parent, name, start, end, operation, points."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start,end,op,points\n")
            for sid, (parent, name, t0, t1, op, n) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{t0!r},{t1!r},{op},{n}\n")
