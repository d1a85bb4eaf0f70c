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
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import compare_families, scan_gap, sweep_s
from .bounds import (BOUND_ABS_TOL, CHAIN_TOL, BoundReport, Corner, TheoremId,
                     _certify_abs_mixed, chain_evaluate, corner_report,
                     family_report, family_rhs, midpoint_report)
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


_MODES = {"corrected": NormalizationMode.CORRECTED,
          "verbatim": NormalizationMode.VERBATIM}
_CONSTANTS = {"verbatim": PrefactorMode.VERBATIM,
              "sharpened": PrefactorMode.SHARPENED}
_POINT_FAMILIES = {"t1": TheoremId.T1, "t2": TheoremId.T2, "t3": TheoremId.T3}
_FAMILY_OF = {**_POINT_FAMILIES, "c1": TheoremId.T1, "c2": TheoremId.T2, "c3": TheoremId.T3}
_BOUND_THEOREMS = ("t1", "t2", "t3",
                   "c1_1", "c1_2", "c1_3", "c1_4", "c1_mid", "mid",
                   "c2_1", "c2_2", "c2_3", "c2_4", "c2_5",
                   "c3_1", "c3_2", "c3_3", "c3_4", "c3_5")
_SCAN_KINDS = ("gap", "sweep", "compare")
_FORMATS = ("json", "csv")

# part number -> corner, shared by all three families
_CORNER_FOR_PART = {"1": Corner.AC, "2": Corner.BD, "3": Corner.AD, "4": Corner.BC}

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


def _get_rect(ns) -> Rect:
    return make_rect(*_split_floats(ns.rect if ns.rect is not None else "0,1,0,1",
                                    4, "--rect"))


def _get_point(ns, rect: Rect) -> EvalPoint:
    if getattr(ns, "point", None) is None:
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
    text = getattr(ns, "mode", None) or "corrected"
    _check_choice("--mode", text, tuple(_MODES))
    return _MODES[text]


def _resolve_surface(ns) -> Surface:
    if ns.fn is not None and ns.catalog is not None:
        raise UsageError("--fn and --catalog are mutually exclusive")
    if ns.fn is not None:
        return parse_surface(ns.fn)
    return catalog_lookup(ns.catalog if ns.catalog is not None else "uv")


def _surface_config(ns) -> tuple[str, str]:
    if ns.fn is not None:
        return "fn", ns.fn
    return "catalog", ns.catalog if ns.catalog is not None else "uv"


def _sampler(ns) -> SamplerConfig:
    seed = getattr(ns, "seed", None)
    return SamplerConfig(seed=seed) if seed is not None else SamplerConfig()


def _check_format(ns) -> None:
    if ns.format is not None:
        _check_choice("--format", ns.format, _FORMATS)


def _emit(ns, report: dict, header: list[str], rows: list, human: list[str]) -> None:
    fmt = ns.format if ns.format is not None else "json"
    text = report_to_json(report) if fmt == "json" else rows_to_csv(header, rows)
    if ns.out:
        Path(ns.out).write_text(text)
        for line in human:
            print(line)
        for note in report["notes"]:
            print(f"note: {note}")
        print(f"report written to {ns.out}")
    elif ns.format is not None:
        sys.stdout.write(text)
    else:
        for line in human:
            print(line)
        for note in report["notes"]:
            print(f"note: {note}")


def _report_dict(r: BoundReport) -> dict:
    return {"theorem": r.theorem_id.value, "lhs": r.lhs, "rhs": r.rhs,
            "margin": r.margin, "holds": r.holds, "tol": r.tol,
            "params": r.params, "hypothesis_certified": r.hypothesis_certified}


def _apply_tol(reports: list[BoundReport], tol: float | None) -> list[BoundReport]:
    if tol is None:
        return reports
    if tol < 0:
        raise UsageError("--tol must be nonnegative")
    return [dataclasses.replace(r, tol=tol, holds=r.margin >= -tol) for r in reports]


def _bound_rows(reports: list[BoundReport]):
    header = ["theorem", "constant", "lhs", "rhs", "margin", "holds"]
    rows = [(r.theorem_id.value, r.params.get("constant", ""), r.lhs, r.rhs,
             r.margin, r.holds) for r in reports]
    return header, rows


def _bound_human(reports: list[BoundReport]) -> list[str]:
    lines = []
    for r in reports:
        tag = r.theorem_id.value
        if "constant" in r.params:
            tag += f"[{r.params['constant']}]"
        verdict = "holds" if r.holds else "VIOLATED"
        lines.append(f"{tag:16s} lhs={_fmt(r.lhs)}  rhs={_fmt(r.rhs)}  "
                     f"margin={_fmt(r.margin)}  {verdict}")
        if r.hypothesis_certified is not None:
            state = ("no counterexample found" if r.hypothesis_certified
                     else "COUNTEREXAMPLE FOUND")
            lines.append(f"{'':16s} hypothesis certification: {state}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lemma(ns) -> int:
    _check_format(ns)
    f = _resolve_surface(ns)
    rect = _get_rect(ns)
    pt = _get_point(ns, rect)
    mode = _get_mode(ns)
    tol = ns.tol if ns.tol is not None else 1e-10
    if tol < 0:
        raise UsageError("--tol must be nonnegative")
    ev = lemma_residual(f, rect, pt, mode, QuadConfig())
    ok = ev.residual <= tol
    skey, sval = _surface_config(ns)
    config = {skey: sval, "rect": ns.rect or "0,1,0,1",
              "point": ns.point or f"{pt.x},{pt.y}", "mode": mode.value,
              "tol": tol}
    results = [{"lhs": ev.lhs, "rhs": ev.rhs, "residual": ev.residual,
                "exact_arithmetic": ev.exact, "corner_term": ev.a_term,
                "quadrant_terms": list(ev.quadrant_terms)}]
    summary = {"residual": ev.residual, "tol": tol, "ok": ok}
    notes = [_NOTE_NORMALIZATION] if mode is NormalizationMode.VERBATIM else []
    report = build_report(__version__, "lemma", config, results, summary, notes)
    header = ["lhs", "rhs", "residual", "exact_arithmetic"]
    rows = [(ev.lhs, ev.rhs, ev.residual, ev.exact)]
    human = [
        f"{f.name} on {_rect_str(rect)} at ({_fmt(pt.x)}, {_fmt(pt.y)}), "
        f"{mode.value} normalization",
        f"  lhs      = {_fmt(ev.lhs)}",
        f"  rhs      = {_fmt(ev.rhs)}",
        f"  residual = {_fmt(ev.residual)}"
        + ("  (rational arithmetic)" if ev.exact else ""),
        "identity holds" if ok else f"residual exceeds tolerance {_fmt(tol)}",
    ]
    _emit(ns, report, header, rows, human)
    return 0 if ok else 1


def _one_bound(theorem: str, f, rect, pt, s, q, mode, cmode, cfg,
               certified: bool | None) -> BoundReport:
    family = _FAMILY_OF[theorem[:2]]
    part = theorem[3:]
    if theorem in _POINT_FAMILIES:
        rep = family_report(family, f, rect, pt, s, q, cmode, mode, cfg)
    elif part == "mid" or (family is not TheoremId.T1 and part == "5"):
        rep = midpoint_report(family, f, rect, s, q, mode, cmode, cfg)
    else:
        rep = corner_report(family, _CORNER_FOR_PART[part], f, rect, s, q,
                            mode, cmode, cfg)
    return rep if certified is None else dataclasses.replace(rep, hypothesis_certified=certified)


def cmd_bound(ns) -> int:
    _check_format(ns)
    f = _resolve_surface(ns)
    rect = _get_rect(ns)
    mode = _get_mode(ns)
    s = _get_single_s(ns)
    theorem = (ns.theorem or "t1").lower()
    _check_choice("--theorem", theorem, _BOUND_THEOREMS)
    if theorem == "mid":
        theorem = "c1_mid"
    constant_txt = ns.t3_constant or "verbatim"
    _check_choice("--t3-constant", constant_txt, ("verbatim", "sharpened", "both"))
    is_t3_family = theorem == "t3" or theorem.startswith("c3")
    needs_q = theorem in ("t2", "t3") or theorem.startswith(("c2", "c3"))
    if needs_q and ns.q is None:
        raise UsageError(f"the {theorem} bound needs --q")
    if constant_txt == "both":
        cmodes = [PrefactorMode.VERBATIM, PrefactorMode.SHARPENED]
    else:
        cmodes = [_CONSTANTS[constant_txt]]
    pt = _get_point(ns, rect)
    certify = bool(ns.certify)
    sampler = _sampler(ns)
    cfg = QuadConfig()
    loop = cmodes if is_t3_family else [PrefactorMode.VERBATIM]
    certified = None
    if certify:
        family = _FAMILY_OF[theorem[:2]]
        family_rhs(family, s, ns.q)  # checks s and q before any sampling
        power = 1.0 if family is TheoremId.T1 else float(ns.q)
        certified = _certify_abs_mixed(f, rect, s, power, sampler)
    reports = [_one_bound(theorem, f, rect, pt, s, ns.q, mode, cm, cfg, certified)
               for cm in loop]
    reports = _apply_tol(reports, ns.tol)
    skey, sval = _surface_config(ns)
    config = {skey: sval, "rect": ns.rect or "0,1,0,1", "theorem": theorem,
              "s": ns.s or "1", "mode": mode.value}
    if needs_q:
        config["q"] = ns.q
    if is_t3_family:
        config["t3-constant"] = constant_txt
    if certify:
        config["certify"] = True
        config["seed"] = sampler.seed
    all_hold = all(r.holds for r in reports)
    summary = {"all_hold": all_hold,
               "worst_margin": min(r.margin for r in reports)}
    notes = []
    if is_t3_family:
        notes.append(_NOTE_T3_CONSTANT)
    if mode is NormalizationMode.VERBATIM:
        notes.append(_NOTE_NORMALIZATION)
    report = build_report(__version__, "bound", config,
                          [_report_dict(r) for r in reports], summary, notes)
    header, rows = _bound_rows(reports)
    _emit(ns, report, header, rows, _bound_human(reports))
    return 0 if all_hold else 1


def cmd_chain(ns) -> int:
    _check_format(ns)
    f = _resolve_surface(ns)
    rect = _get_rect(ns)
    s = _get_single_s(ns)
    certify = bool(ns.certify)
    sampler = _sampler(ns)
    ev = chain_evaluate(f, rect, s, DEEP, certify, sampler)
    tol = ns.tol if ns.tol is not None else CHAIN_TOL
    gaps = [ev.values[i + 1] - ev.values[i] for i in range(4)]
    monotone = all(g >= -tol for g in gaps)
    labels = ("scaled midpoint value", "scaled mid-section means", "area mean",
              "edge-mean combination", "scaled corner sum")
    results = [{"term": f"e{i}", "label": labels[i], "value": v}
               for i, v in enumerate(ev.values)]
    skey, sval = _surface_config(ns)
    config = {skey: sval, "rect": ns.rect or "0,1,0,1", "s": ns.s or "1",
              "tol": tol}
    if certify:
        config["certify"] = True
        config["seed"] = sampler.seed
    summary = {"monotone": monotone, "min_gap": min(gaps), "tol": tol,
               "hypothesis_certified": ev.hypothesis_certified}
    report = build_report(__version__, "chain", config, results, summary, [])
    header = ["term", "label", "value"]
    rows = [(f"e{i}", labels[i], v) for i, v in enumerate(ev.values)]
    human = [f"{f.name} on {_rect_str(rect)}, s = {_fmt(s)}"]
    human += [f"  e{i}  {labels[i]:24s} {_fmt(v)}" for i, v in enumerate(ev.values)]
    human.append("chain is monotone" if monotone
                 else f"chain NOT monotone (min gap {_fmt(min(gaps))})")
    if ev.hypothesis_certified is not None:
        human.append("hypothesis certification: "
                     + ("no counterexample found" if ev.hypothesis_certified
                        else "COUNTEREXAMPLE FOUND"))
    _emit(ns, report, header, rows, human)
    return 0 if monotone else 1


def cmd_scan(ns) -> int:
    _check_format(ns)
    kind = ns.scan_kind or "gap"
    _check_choice("--scan-kind", kind, _SCAN_KINDS)
    f = _resolve_surface(ns)
    rect = _get_rect(ns)
    mode = _get_mode(ns)
    constant_txt = ns.t3_constant or "verbatim"
    _check_choice("--t3-constant", constant_txt, ("verbatim", "sharpened"))
    cmode = _CONSTANTS[constant_txt]
    tol = ns.tol if ns.tol is not None else BOUND_ABS_TOL
    if tol < 0:
        raise UsageError("--tol must be nonnegative")
    theorem_txt = (ns.theorem or "t1").lower()
    skey, sval = _surface_config(ns)
    config = {skey: sval, "rect": ns.rect or "0,1,0,1", "scan-kind": kind,
              "s": ns.s or "1", "mode": mode.value, "tol": tol}
    if ns.q is not None:
        config["q"] = ns.q
    notes = []
    if mode is NormalizationMode.VERBATIM:
        notes.append(_NOTE_NORMALIZATION)

    if kind == "gap":
        _check_choice("--theorem", theorem_txt, tuple(_POINT_FAMILIES))
        config["theorem"] = theorem_txt
        s = _get_single_s(ns)
        grid_n = ns.grid if ns.grid is not None else 8
        config["grid"] = grid_n
        if theorem_txt == "t3":
            config["t3-constant"] = constant_txt
            notes.insert(0, _NOTE_T3_CONSTANT)
        gap = scan_gap(_POINT_FAMILIES[theorem_txt], f, rect, s, ns.q, grid_n,
                       cmode, mode, QuadConfig())
        rows = [tuple(r) for r in gap.grid]
        header = ["x", "y", "lhs", "rhs", "margin"]
        results = [{"x": r[0], "y": r[1], "lhs": _jf(r[2]), "rhs": _jf(r[3]),
                    "margin": _jf(r[4])} for r in rows]
        violation = ((not math.isnan(gap.min_margin)) and gap.min_margin < -tol)
        summary = {"grid_shape": list(gap.grid_shape),
                   "min_margin": _jf(gap.min_margin),
                   "argmin": list(gap.argmin) if gap.argmin else None,
                   "error_cells": len(gap.errors), "violation": violation,
                   "tol": tol}
        human = [f"{theorem_txt} margin on a {gap.grid_shape[0]}x{gap.grid_shape[1]}"
                 f" lattice over {_rect_str(rect)}, s = {_fmt(s)}"]
        if gap.argmin is not None:
            human.append(f"  min margin {_fmt(gap.min_margin)} at "
                         f"({_fmt(gap.argmin[0])}, {_fmt(gap.argmin[1])})")
        if gap.errors:
            human.append(f"  {len(gap.errors)} cells failed to evaluate")
        human.append("no violations" if not violation else "VIOLATION on the lattice")
        ok = (not violation) and not gap.errors
        report = build_report(__version__, "scan", config, results, summary, notes)
        _emit(ns, report, header, rows, human)
        return 0 if ok else 1

    pt = _get_point(ns, rect)
    config["point"] = ns.point or f"{pt.x},{pt.y}"
    if kind == "sweep":
        _check_choice("--theorem", theorem_txt, tuple(_POINT_FAMILIES))
        config["theorem"] = theorem_txt
        if theorem_txt == "t3":
            config["t3-constant"] = constant_txt
            notes.insert(0, _NOTE_T3_CONSTANT)
        s_values = _get_s_list(ns)
        sweep = sweep_s(_POINT_FAMILIES[theorem_txt], f, rect, pt, s_values,
                        ns.q, cmode, mode, QuadConfig())
        reports = _apply_tol(list(sweep.reports), ns.tol)
        header = ["s", "lhs", "rhs", "margin", "holds"]
        rows = [(r.params["s"], r.lhs, r.rhs, r.margin, r.holds) for r in reports]
        all_hold = all(r.holds for r in reports)
        summary = {"rhs_trend": sweep.rhs_trend, "all_hold": all_hold}
        human = [f"{theorem_txt} sweep over s = {', '.join(_fmt(v) for v in s_values)}"
                 f" at ({_fmt(pt.x)}, {_fmt(pt.y)})"]
        human += [f"  s={_fmt(r.params['s']):8s} lhs={_fmt(r.lhs)}  rhs={_fmt(r.rhs)}"
                  f"  margin={_fmt(r.margin)}  {'holds' if r.holds else 'VIOLATED'}"
                  for r in reports]
        human.append(f"rhs trend: {sweep.rhs_trend}")
        report = build_report(__version__, "scan", config,
                              [_report_dict(r) for r in reports], summary, notes)
        _emit(ns, report, header, rows, human)
        return 0 if all_hold else 1

    # compare
    s = _get_single_s(ns)
    if ns.q is None:
        raise UsageError("family comparison needs --q")
    reports = _apply_tol(list(compare_families(f, rect, pt, s, ns.q, mode,
                                               QuadConfig())), ns.tol)
    notes.insert(0, _NOTE_T3_CONSTANT)
    header = ["family", "constant", "lhs", "rhs", "margin", "holds"]
    rows = [(r.theorem_id.value, r.params.get("constant", ""), r.lhs, r.rhs,
             r.margin, r.holds) for r in reports]
    all_hold = all(r.holds for r in reports)
    tightest = min(reports, key=lambda r: r.rhs)
    tag = tightest.theorem_id.value + (
        f"[{tightest.params['constant']}]" if "constant" in tightest.params else "")
    summary = {"all_hold": all_hold, "tightest_family": tag,
               "tightest_rhs": tightest.rhs}
    human = [f"family comparison at ({_fmt(pt.x)}, {_fmt(pt.y)}), "
             f"s = {_fmt(s)}, q = {_fmt(ns.q)}"]
    human += _bound_human(reports)
    human.append(f"tightest: {tag} (rhs {_fmt(tightest.rhs)})")
    report = build_report(__version__, "scan", config,
                          [_report_dict(r) for r in reports], summary, notes)
    _emit(ns, report, header, rows, human)
    return 0 if all_hold else 1


def cmd_suite(ns) -> int:
    _check_format(ns)
    include = bool(ns.include_verbatim_identity)
    if ns.tol is not None and ns.tol < 0:
        raise UsageError("--tol must be nonnegative")
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
    results = [dataclasses.asdict(c) for c in checks]
    summary = {"checks": len(checks), "passed": n_pass, "failed": n_fail,
               "known_typo": n_typo, "ok": n_fail == 0}
    notes = [_NOTE_NORMALIZATION] if include else []
    report = build_report(__version__, "suite", config, results, summary, notes)
    header = ["check_id", "status", "description", "detail"]
    rows = [(c.check_id, c.status, c.description, c.detail) for c in checks]
    _emit(ns, report, header, rows, human)
    return 0 if n_fail == 0 else 1


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

    p = sub.add_parser("lemma", parents=[common, surface],
                       help="evaluate both sides of the identity at a point")
    p.add_argument("--point", metavar="X,Y", help="evaluation point (default midpoint)")
    p.add_argument("--mode", metavar="M",
                   help="normalization: corrected (default) or verbatim")
    p.set_defaults(handler=cmd_lemma)

    p = sub.add_parser("bound", parents=[common, surface],
                       help="check one bound family or specialization")
    p.add_argument("--theorem", metavar="ID",
                   help="t1 | t2 | t3 | c1_1..c1_4 | c1_mid | c2_1..c2_5 | "
                        "c3_1..c3_5 | mid (default t1)")
    p.add_argument("--point", metavar="X,Y", help="evaluation point (default midpoint)")
    p.add_argument("--s", metavar="S", help="convexity exponent in (0, 1] (default 1)")
    p.add_argument("--q", type=float, metavar="Q", help="exponent for t2/t3 families")
    p.add_argument("--t3-constant", metavar="C", dest="t3_constant",
                   help="verbatim (default), sharpened, or both")
    p.add_argument("--mode", metavar="M",
                   help="normalization: corrected (default) or verbatim")
    p.add_argument("--certify", action="store_true", default=None,
                   help="run the randomized hypothesis search first")
    p.add_argument("--seed", type=int, metavar="N", help="certification seed")
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("chain", parents=[common, surface],
                       help="evaluate the five-term mean chain")
    p.add_argument("--s", metavar="S", help="convexity exponent in (0, 1] (default 1)")
    p.add_argument("--certify", action="store_true", default=None,
                   help="run the randomized hypothesis search first")
    p.add_argument("--seed", type=int, metavar="N", help="certification seed")
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("scan", parents=[common, surface],
                       help="margin lattice, s sweep, or family comparison")
    p.add_argument("--scan-kind", metavar="K", dest="scan_kind",
                   help="gap (default), sweep, or compare")
    p.add_argument("--theorem", metavar="ID", help="t1 (default), t2, or t3")
    p.add_argument("--point", metavar="X,Y",
                   help="evaluation point for sweep/compare (default midpoint)")
    p.add_argument("--s", metavar="S",
                   help="exponent; sweep accepts a comma list (default 1)")
    p.add_argument("--q", type=float, metavar="Q", help="exponent for t2/t3 families")
    p.add_argument("--t3-constant", metavar="C", dest="t3_constant",
                   help="verbatim (default) or sharpened")
    p.add_argument("--grid", type=int, metavar="N",
                   help="lattice subdivisions per axis for gap scans (default 8)")
    p.add_argument("--mode", metavar="M",
                   help="normalization: corrected (default) or verbatim")
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
        if ns.config:
            apply_config(ns, load_config_file(ns.config))
        # every non-finite value already becomes an EvalError where it is
        # computed, so numpy's own warnings would only repeat it on stderr
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
