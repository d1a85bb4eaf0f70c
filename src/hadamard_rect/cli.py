"""Command-line interface.

Subcommands: lemma (identity residual at a point), bound (one bound family
or specialization), chain (the five-term mean chain), scan (margin lattice,
s sweep, or family comparison), suite (the acceptance battery).

Exit codes: 0 everything holds, 1 a check or inequality failed (including
quadrature that could not reach tolerance), 2 bad usage or invalid input.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import compare_families, scan_gap, sweep_s
from .bounds import (_POINT_IDS, BOUND_ABS_TOL, CHAIN_TOL, BoundReport, TheoremId,
                     _certify_family, _point_report, chain_evaluate, margin_holds)
from .domain import (BadExponent, DegenerateRect, EvalPoint, NormalizationMode,
                     PrefactorMode, Rect, make_rect)
from .identity import lemma_residual
from .quad import DEEP, QuadConfig, ToleranceNotMet
from .serialize import build_report, report_to_json, rows_to_csv
from .suite import run_acceptance_suite
from .surfaces import (DomainNotNonnegative, EvalError, ParseError,
                       SamplerConfig, Surface, UnknownSurface, catalog_lookup,
                       parse_surface)

__all__ = ["main", "build_parser"]


class UsageError(ValueError):
    """Bad flag combination or malformed value; exit code 2."""


_THEOREMS = (*(tid.value for tid in _POINT_IDS), "mid")     # bound --theorem
_FAMILIES = ("t1", "t2", "t3")                             # scan --theorem
_CERTIFICATION = {True: "no counterexample found", False: "COUNTEREXAMPLE FOUND"}

_NOTE_NORMALIZATION = (
    "verbatim normalization divides the corner combination by the rectangle "
    "area; on non-unit-area rectangles that breaks the identity by "
    "|k (1 - area) / area| already for the constant surface k. the corrected "
    "mode drops that division and the identity is exact.")
_NOTE_T3_CONSTANT = (
    "the power-mean bound is printed with leading constant 2^(2 - 2/q), but "
    "its derivation yields 2^(2/q - 2). both keep the inequality valid (they "
    "agree at q = 1 and the printed constant is larger for q > 1); the "
    "printed constant is the default and the smaller one is 'sharpened'.")


# ---------------------------------------------------------------------------
# config file: flat "key = value" lines, # comments, command line wins
# ---------------------------------------------------------------------------

def _to_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


_CONFIG_CONVERTERS = {
    "fn": str, "catalog": str, "rect": str, "point": str, "s": str,
    "q": float, "theorem": str, "mode": str, "t3-constant": str,
    "grid": int, "seed": int, "tol": float, "scan-kind": str,
    "format": str, "out": str, "certify": _to_bool,
    "include-verbatim-identity": _to_bool,
}


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_CONVERTERS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _CONFIG_CONVERTERS[key](value)
        except UsageError:
            raise
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return out


def apply_config(ns: argparse.Namespace, values: dict) -> None:
    """Fill in options the command line left unset."""
    if ns.fn is not None or ns.catalog is not None:
        values = {k: v for k, v in values.items() if k not in ("fn", "catalog")}
    if "fn" in values and "catalog" in values:
        raise UsageError("config file sets both fn and catalog")
    for key, value in values.items():
        dest = key.replace("-", "_")
        if hasattr(ns, dest) and getattr(ns, dest) is None:
            setattr(ns, dest, value)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _check_choice(name: str, value: str, choices) -> None:
    if value not in choices:
        raise UsageError(f"{name} must be one of: {', '.join(choices)} (got {value!r})")


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _rect_str(rect: Rect) -> str:
    return f"[{_fmt(rect.a)},{_fmt(rect.b)}]x[{_fmt(rect.c)},{_fmt(rect.d)}]"


def _jf(x) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _split_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != n:
        raise UsageError(f"{what} takes {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{what} values must be numeric, got {text!r}")


def _surface(ns) -> tuple[Surface, Rect, dict]:
    """The surface and the rectangle, and the report config that names them."""
    if ns.fn is not None and ns.catalog is not None:
        raise UsageError("--fn and --catalog are mutually exclusive")
    if ns.fn is not None:
        f, config = parse_surface(ns.fn), {"fn": ns.fn}
    else:
        name = ns.catalog if ns.catalog is not None else "uv"
        f, config = catalog_lookup(name), {"catalog": name}
    config["rect"] = ns.rect if ns.rect is not None else "0,1,0,1"
    return f, make_rect(*_split_floats(config["rect"], 4, "--rect")), config


def _inapplicable(ns, dest: str, why: str) -> None:
    """A flag given on the command line that cannot take effect is a usage
    error; the same key from a config file, which may serve several
    commands, is ignored."""
    if dest in ns.given:
        raise UsageError(f"--{dest.replace('_', '-')} {why}")


def _get_point(ns, rect: Rect) -> EvalPoint:
    if ns.point is None:
        return rect.midpoint()
    x, y = _split_floats(ns.point, 2, "--point")
    return EvalPoint(x, y)


def _get_s_list(ns) -> list[float]:
    text = ns.s if ns.s is not None else "1"
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise UsageError("--s needs at least one value")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"--s values must be numeric, got {text!r}")


def _get_single_s(ns) -> float:
    vals = _get_s_list(ns)
    if len(vals) != 1:
        raise UsageError("this command takes a single --s value")
    return vals[0]


def _get_mode(ns) -> NormalizationMode:
    text = ns.mode or "corrected"
    _check_choice("--mode", text, [m.value for m in NormalizationMode])
    return NormalizationMode(text)


def _t3_constants(ns, config: dict, t3: bool, both: bool = False) -> list[PrefactorMode]:
    """The --t3-constant modes to report, checked; "both" only where allowed.

    A family other than t3 takes no constant, and its config does not name one.
    """
    if not t3:
        _inapplicable(ns, "t3_constant", "applies only to the t3 family")
        return [PrefactorMode.VERBATIM]
    text = ns.t3_constant or "verbatim"
    _check_choice("--t3-constant", text,
                  [m.value for m in PrefactorMode] + (["both"] if both else []))
    config["t3-constant"] = text
    return list(PrefactorMode) if text == "both" else [PrefactorMode(text)]


def _notes(mode: NormalizationMode, t3: bool = False) -> list[str]:
    return (([_NOTE_T3_CONSTANT] if t3 else [])
            + ([_NOTE_NORMALIZATION] if mode is NormalizationMode.VERBATIM else []))


def _sampler(ns, config: dict) -> SamplerConfig:
    """The certification sampler; with --certify the config records its seed."""
    if not ns.certify:
        _inapplicable(ns, "seed", "applies only with --certify")
        return SamplerConfig()
    sampler = SamplerConfig(seed=ns.seed) if ns.seed is not None else SamplerConfig()
    config.update(certify=True, seed=sampler.seed)
    return sampler


def _emit(ns, command: str, config: dict, results: list, summary: dict,
          notes: list[str], header: list[str], rows: list, human: list[str],
          ok: bool) -> int:
    """Print or write the report and return the exit code, 0 if ok else 1.

    --format json|csv prints the report; --out writes it (json by default)
    and prints the human lines too; with neither, only those are printed.
    """
    if ns.out or ns.format is not None:
        if ns.format == "csv":
            text = rows_to_csv(header, rows)
        else:
            text = report_to_json(build_report(__version__, command, config, results,
                                               summary, notes))
        if not ns.out:
            sys.stdout.write(text)
            return 0 if ok else 1
        Path(ns.out).write_text(text)
    for line in human:
        print(line)
    for note in notes:
        print(f"note: {note}")
    if ns.out:
        print(f"report written to {ns.out}")
    return 0 if ok else 1


def _tag(r: BoundReport) -> str:
    if "constant" in r.params:
        return f"{r.theorem_id.value}[{r.params['constant']}]"
    return r.theorem_id.value


def _bound_table(key: str, reports, tol: float | None):
    """CSV header and rows, JSON results, human lines and whether all hold,
    of bound reports judged against tol (their own tolerance if None).

    key names the first column: "s" keys each row by its s, any other key
    by the theorem and its constant.
    """
    if tol is not None:
        reports = [dataclasses.replace(r, tol=tol, holds=margin_holds(r.margin, r.rhs, tol))
                   for r in reports]
    by_s = key == "s"
    header = [key, *([] if by_s else ["constant"]), "lhs", "rhs", "margin", "holds"]
    rows, human = [], []
    for r in reports:
        if by_s:
            first, tag = (r.params["s"],), f"  s={_fmt(r.params['s']):8s}"
        else:
            first, tag = (r.theorem_id.value, r.params.get("constant", "")), f"{_tag(r):16s}"
        rows.append((*first, r.lhs, r.rhs, r.margin, r.holds))
        human.append(f"{tag} lhs={_fmt(r.lhs)}  rhs={_fmt(r.rhs)}  "
                     f"margin={_fmt(r.margin)}  {'holds' if r.holds else 'VIOLATED'}")
        if r.hypothesis_certified is not None:
            human.append(f"{'':16s} hypothesis certification: "
                         f"{_CERTIFICATION[r.hypothesis_certified]}")
    results = [{"theorem": r.theorem_id.value, "lhs": r.lhs, "rhs": r.rhs,
                "margin": r.margin, "holds": r.holds, "tol": r.tol,
                "params": r.params, "hypothesis_certified": r.hypothesis_certified}
               for r in reports]
    return header, rows, results, human, all(r.holds for r in reports)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lemma(ns) -> int:
    f, rect, config = _surface(ns)
    pt = _get_point(ns, rect)
    mode = _get_mode(ns)
    tol = ns.tol if ns.tol is not None else 1e-10
    ev = lemma_residual(f, rect, pt, mode, QuadConfig())
    ok = ev.residual <= tol
    config.update(point=ns.point or f"{pt.x},{pt.y}", mode=mode.value, tol=tol)
    results = [{"lhs": ev.lhs, "rhs": ev.rhs, "residual": ev.residual,
                "exact_arithmetic": ev.exact, "corner_term": ev.a_term,
                "quadrant_terms": list(ev.quadrant_terms)}]
    human = [
        f"{f.name} on {_rect_str(rect)} at ({_fmt(pt.x)}, {_fmt(pt.y)}), "
        f"{mode.value} normalization",
        f"  lhs      = {_fmt(ev.lhs)}",
        f"  rhs      = {_fmt(ev.rhs)}",
        f"  residual = {_fmt(ev.residual)}"
        + ("  (rational arithmetic)" if ev.exact else ""),
        "identity holds" if ok else f"residual exceeds tolerance {_fmt(tol)}",
    ]
    return _emit(ns, "lemma", config, results,
                 {"residual": ev.residual, "tol": tol, "ok": ok}, _notes(mode),
                 ["lhs", "rhs", "residual", "exact_arithmetic"],
                 [(ev.lhs, ev.rhs, ev.residual, ev.exact)], human, ok)


def cmd_bound(ns) -> int:
    f, rect, config = _surface(ns)
    mode = _get_mode(ns)
    s = _get_single_s(ns)
    text = (ns.theorem or "t1").lower()
    _check_choice("--theorem", text, _THEOREMS)
    tid = TheoremId("c1_mid" if text == "mid" else text)
    family, where = _POINT_IDS[tid]
    if where is not None:
        _inapplicable(ns, "point", f"does not apply to {tid.value}, which is evaluated at "
                      + ("the midpoint" if where == "mid" else "a corner"))
    config.update(theorem=tid.value, s=ns.s or "1", mode=mode.value)
    if family is TheoremId.T1:
        _inapplicable(ns, "q", f"does not apply to {tid.value}, a first-power bound")
    else:
        if ns.q is None:
            raise UsageError(f"the {tid.value} bound needs --q")
        config["q"] = ns.q
    cmodes = _t3_constants(ns, config, family is TheoremId.T3, both=True)
    pt = _get_point(ns, rect) if where is None else None    # _point_report places it
    sampler = _sampler(ns, config)
    # one certification serves every constant mode
    certified = _certify_family(family, f, rect, s, ns.q, sampler) if ns.certify else None
    reports = [_point_report(tid, f, rect, pt, s, ns.q, cm, mode, QuadConfig(), certified)
               for cm in cmodes]
    header, rows, results, human, all_hold = _bound_table("theorem", reports, ns.tol)
    summary = {"all_hold": all_hold, "worst_margin": min(r.margin for r in reports)}
    return _emit(ns, "bound", config, results, summary,
                 _notes(mode, family is TheoremId.T3), header, rows, human, all_hold)


def cmd_chain(ns) -> int:
    f, rect, config = _surface(ns)
    s = _get_single_s(ns)
    tol = ns.tol if ns.tol is not None else CHAIN_TOL
    config.update(s=ns.s or "1", tol=tol)
    ev = chain_evaluate(f, rect, s, DEEP, bool(ns.certify), _sampler(ns, config))
    gaps = [ev.values[i + 1] - ev.values[i] for i in range(4)]
    monotone = all(g >= -tol for g in gaps)
    labels = ("scaled midpoint value", "scaled mid-section means", "area mean",
              "edge-mean combination", "scaled corner sum")
    rows = [(f"e{i}", labels[i], v) for i, v in enumerate(ev.values)]
    summary = {"monotone": monotone, "min_gap": min(gaps), "tol": tol,
               "hypothesis_certified": ev.hypothesis_certified}
    human = [f"{f.name} on {_rect_str(rect)}, s = {_fmt(s)}"]
    human += [f"  {term}  {label:24s} {_fmt(v)}" for term, label, v in rows]
    human.append("chain is monotone" if monotone
                 else f"chain NOT monotone (min gap {_fmt(min(gaps))})")
    if ev.hypothesis_certified is not None:
        human.append(f"hypothesis certification: {_CERTIFICATION[ev.hypothesis_certified]}")
    header = ["term", "label", "value"]
    return _emit(ns, "chain", config, [dict(zip(header, row)) for row in rows], summary,
                 [], header, rows, human, monotone)


def cmd_scan(ns) -> int:
    kind = ns.scan_kind or "gap"
    _check_choice("--scan-kind", kind, ("gap", "sweep", "compare"))
    f, rect, config = _surface(ns)
    mode = _get_mode(ns)
    # the absolute part: without --tol, margin_holds adds BOUND_REL_TOL * |rhs|
    tol = ns.tol if ns.tol is not None else BOUND_ABS_TOL
    theorem = (ns.theorem or "t1").lower()
    if kind == "compare":
        _inapplicable(ns, "theorem", "does not apply to a family comparison, "
                      "which reports t1, t2 and t3")
        _inapplicable(ns, "t3_constant", "does not apply to a family comparison, "
                      "which shows both constants")
        family = TheoremId.T3              # which brings the t3 note
    else:
        _check_choice("--theorem", theorem, _FAMILIES)
        family = TheoremId(theorem)
    config.update({"scan-kind": kind, "s": ns.s or "1", "mode": mode.value, "tol": tol})
    if family is TheoremId.T1:
        _inapplicable(ns, "q", "does not apply to the t1 family")
    elif ns.q is not None:
        config["q"] = ns.q

    if kind == "gap":
        _inapplicable(ns, "point", "does not apply to a gap scan, which covers the lattice")
        s = _get_single_s(ns)
        grid_n = ns.grid if ns.grid is not None else 8
        config.update(theorem=theorem, grid=grid_n)
        (cmode,) = _t3_constants(ns, config, family is TheoremId.T3)
        gap = scan_gap(family, f, rect, s, ns.q, grid_n, cmode, mode, QuadConfig())
        rows = results = gap.table()     # both writers take the lattice as it is
        header = list(rows.names)
        margins = gap.grid[:, 4]          # each cell by its own rhs, as bound does
        violation = not (margin_holds(margins, gap.grid[:, 3], ns.tol) | np.isnan(margins)).all()
        ok = not violation and not gap.errors
        summary = {"grid_shape": list(gap.grid_shape),
                   "min_margin": _jf(gap.min_margin),
                   "argmin": list(gap.argmin) if gap.argmin else None,
                   "error_cells": len(gap.errors), "violation": violation,
                   "tol": tol}
        human = [f"{theorem} margin on a {gap.grid_shape[0]}x{gap.grid_shape[1]}"
                 f" lattice over {_rect_str(rect)}, s = {_fmt(s)}"]
        if gap.argmin is not None:
            human.append(f"  min margin {_fmt(gap.min_margin)} at "
                         f"({_fmt(gap.argmin[0])}, {_fmt(gap.argmin[1])})")
        evaluated = gap.grid_shape[0] * gap.grid_shape[1] - len(gap.errors)
        if gap.errors:
            human.append(f"  {len(gap.errors)} cells failed to evaluate")
        if violation:
            human.append("VIOLATION on the lattice")
        elif not evaluated:
            human.append("no cell evaluated: nothing decided")
        elif gap.errors:
            human.append(f"no violations on the {evaluated} evaluated cells")
        else:
            human.append("no violations")
    else:
        _inapplicable(ns, "grid", "applies only to gap scans")
        pt = _get_point(ns, rect)
        config["point"] = ns.point or f"{pt.x},{pt.y}"
        at = f"({_fmt(pt.x)}, {_fmt(pt.y)})"
        if kind == "sweep":
            config["theorem"] = theorem
            (cmode,) = _t3_constants(ns, config, family is TheoremId.T3)
            s_values = _get_s_list(ns)
            sweep = sweep_s(family, f, rect, pt, s_values, ns.q, cmode, mode, QuadConfig())
            header, rows, results, table, ok = _bound_table("s", sweep.reports, ns.tol)
            summary = {"rhs_trend": sweep.rhs_trend, "all_hold": ok}
            human = [f"{theorem} sweep over s = {', '.join(_fmt(v) for v in s_values)}"
                     f" at {at}", *table, f"rhs trend: {sweep.rhs_trend}"]
        else:
            s = _get_single_s(ns)
            if ns.q is None:
                raise UsageError("family comparison needs --q")
            reports = compare_families(f, rect, pt, s, ns.q, mode, QuadConfig())
            header, rows, results, table, ok = _bound_table("family", reports, ns.tol)
            tightest = min(reports, key=lambda r: r.rhs)
            summary = {"all_hold": ok, "tightest_family": _tag(tightest),
                       "tightest_rhs": tightest.rhs}
            human = [f"family comparison at {at}, s = {_fmt(s)}, q = {_fmt(ns.q)}",
                     *table, f"tightest: {_tag(tightest)} (rhs {_fmt(tightest.rhs)})"]
    return _emit(ns, "scan", config, results, summary, _notes(mode, family is TheoremId.T3),
                 header, rows, human, ok)


def cmd_suite(ns) -> int:
    include = bool(ns.include_verbatim_identity)
    checks = run_acceptance_suite(ns.tol, include)
    n_fail = sum(c.status == "FAIL" for c in checks)
    n_typo = sum(c.status == "KNOWN_TYPO" for c in checks)
    n_pass = sum(c.status == "PASS" for c in checks)
    human = [f"[{c.status}] {c.check_id}: {c.description} -- {c.detail}"
             for c in checks]
    human.append(f"{len(checks)} checks: {n_pass} passed, {n_fail} failed"
                 + (f", {n_typo} expected-failure exhibits" if n_typo else ""))
    config = {}
    if ns.tol is not None:
        config["tol"] = ns.tol
    if include:
        config["include-verbatim-identity"] = True
    summary = {"checks": len(checks), "passed": n_pass, "failed": n_fail,
               "known_typo": n_typo, "ok": n_fail == 0}
    return _emit(ns, "suite", config, [dataclasses.asdict(c) for c in checks], summary,
                 [_NOTE_NORMALIZATION] if include else [],
                 ["check_id", "status", "description", "detail"],
                 [(c.check_id, c.status, c.description, c.detail) for c in checks],
                 human, n_fail == 0)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadamard-rect",
        description="Check a rectangle integral identity and its bound families.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="defaults file with 'key = value' lines; flags win")
    common.add_argument("--out", metavar="PATH", help="write the report here")
    common.add_argument("--format", metavar="FMT",
                        help="report format: json (default) or csv")
    common.add_argument("--tol", type=float, metavar="T",
                        help="override the acceptance tolerance")

    surface = argparse.ArgumentParser(add_help=False)
    grp = surface.add_mutually_exclusive_group()
    grp.add_argument("--fn", metavar="EXPR",
                     help="surface expression in u and v, e.g. 'u^2*v^2'")
    grp.add_argument("--catalog", metavar="NAME",
                     help="built-in surface (uv, u2v2, u2.5v2.5, sum_square, ...)")
    surface.add_argument("--rect", metavar="A,B,C,D",
                         help="rectangle [a,b]x[c,d] (default 0,1,0,1)")

    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", metavar="M",
                      help="normalization: corrected (default) or verbatim")
    q = argparse.ArgumentParser(add_help=False)
    q.add_argument("--q", type=float, metavar="Q", help="exponent for t2/t3 families")
    certify = argparse.ArgumentParser(add_help=False)
    certify.add_argument("--certify", action="store_true", default=None,
                         help="run the randomized hypothesis search first")
    certify.add_argument("--seed", type=int, metavar="N", help="certification seed")

    p = sub.add_parser("lemma", parents=[common, surface, mode],
                       help="evaluate both sides of the identity at a point")
    p.add_argument("--point", metavar="X,Y", help="evaluation point (default midpoint)")
    p.set_defaults(handler=cmd_lemma)

    p = sub.add_parser("bound", parents=[common, surface, mode, q, certify],
                       help="check one bound family or specialization")
    p.add_argument("--theorem", metavar="ID",
                   help="t1 | t2 | t3 | c1_1..c1_4 | c1_mid | c2_1..c2_5 | "
                        "c3_1..c3_5 | mid (default t1)")
    p.add_argument("--point", metavar="X,Y", help="evaluation point (default midpoint)")
    p.add_argument("--s", metavar="S", help="convexity exponent in (0, 1] (default 1)")
    p.add_argument("--t3-constant", metavar="C", dest="t3_constant",
                   help="verbatim (default), sharpened, or both")
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("chain", parents=[common, surface, certify],
                       help="evaluate the five-term mean chain")
    p.add_argument("--s", metavar="S", help="convexity exponent in (0, 1] (default 1)")
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("scan", parents=[common, surface, mode, q],
                       help="margin lattice, s sweep, or family comparison")
    p.add_argument("--scan-kind", metavar="K", dest="scan_kind",
                   help="gap (default), sweep, or compare")
    p.add_argument("--theorem", metavar="ID", help="t1 (default), t2, or t3")
    p.add_argument("--point", metavar="X,Y",
                   help="evaluation point for sweep/compare (default midpoint)")
    p.add_argument("--s", metavar="S",
                   help="exponent; sweep accepts a comma list (default 1)")
    p.add_argument("--t3-constant", metavar="C", dest="t3_constant",
                   help="verbatim (default) or sharpened")
    p.add_argument("--grid", type=int, metavar="N",
                   help="lattice subdivisions per axis for gap scans (default 8)")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("suite", parents=[common],
                       help="run the acceptance battery")
    p.add_argument("--include-verbatim-identity", action="store_true",
                   default=None, dest="include_verbatim_identity",
                   help="also exhibit the verbatim-normalization failure")
    p.set_defaults(handler=cmd_suite)

    return parser


# main's parser, built on first use: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, int):
            return code
        return 0 if code is None else 2
    try:
        ns.given = {dest for dest, value in vars(ns).items() if value is not None}
        if ns.config:
            apply_config(ns, load_config_file(ns.config))
        if ns.format is not None:
            _check_choice("--format", ns.format, ("json", "csv"))
        if ns.tol is not None and not (math.isfinite(ns.tol) and ns.tol >= 0):
            raise UsageError(f"--tol must be a finite number >= 0, got {ns.tol}")
        # every non-finite value already becomes an EvalError where it is
        # computed, so numpy's own warnings would only repeat it on stderr;
        # a failed certification is in the report, so its warning would too
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return ns.handler(ns)
    except ToleranceNotMet as exc:
        print(f"error: quadrature did not reach tolerance: {exc}", file=sys.stderr)
        return 1
    except (UsageError, DegenerateRect, BadExponent, ParseError, UnknownSurface,
            DomainNotNonnegative, EvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
