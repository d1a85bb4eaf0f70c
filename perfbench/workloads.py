"""The three benchmark workloads: seeded inputs, one operation runner each,
and the output gate.

A workload produces its inputs in passes. A pass takes one case from each
of the workload's strata, walking each stratum in a seeded order, so every
pass has the same mix of cases and a run's cost barely depends on the
seed; the timed loop runs whole passes. Pass i depends only on (seed,
workload, i).

Each operation returns an output object. ``summary`` reduces it to the
JSON form stored in reference.json; ``check`` compares a fresh output with
the stored reference and returns "ok" or a failure reason.

The library is imported as a module object and reached through attributes
(``hr.lemma_lhs``), so a tracer that patches the package namespace sees
every call made from here.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from fractions import Fraction

import hadamard_rect as hr
from hadamard_rect import cli

# the 1e-10 residual tolerance of c1 and `lemma`, plus the bounds' relative
# slack, so that a change of summation order never reads as a wrong answer
ABS_BUDGET = 1e-10
REL_BUDGET = hr.BOUND_REL_TOL


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ABS_BUDGET + REL_BUDGET * max(abs(a), abs(b))


def case_key(spec: dict) -> str:
    return json.dumps({k: v for k, v in spec.items() if k != "fmt"}, sort_keys=True)


def touches_axis(rect) -> bool:
    return rect[0] == 0 or rect[2] == 0


def is_dyadic(x: float) -> bool:
    return Fraction(x).denominator <= 1 << 10


def walk_order(seed_text: str, keys: list) -> list[int]:
    """The seeded order in which a stratum is walked, one key per case.

    The n cases of one key sit at the positions (j + u) / n, j = 0..n-1,
    with one random u per key, so every stretch of the walk holds each
    key's share of the stratum to within one case, and a run's mix of
    cases, hence its cost, barely depends on the seed.
    """
    rng = random.Random(seed_text)
    groups: dict = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    slots = []
    for members in groups.values():
        rng.shuffle(members)
        u = rng.random()
        slots += [((j + u) / len(members), rng.random(), i) for j, i in enumerate(members)]
    slots.sort()
    return [i for _, _, i in slots]


def systematic(strata: list[list], orders: list[list[int]], index: int) -> list:
    """One case from each stratum for pass `index`. Each stratum is walked
    in its own order, so a case comes back only after every case of its
    stratum has run."""
    return [stratum[order[index % len(stratum)]] for stratum, order in zip(strata, orders)]


class Workload:
    """Cases come from a finite pool split into strata, each case with a
    recorded reference; a pass takes one case per stratum entry."""

    name = ""
    pooled = True

    def __init__(self, seed: int):
        self.seed = seed
        self._strata = None
        self._orders = None

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def orders(self, strata: list[list]) -> list[list[int]]:
        """The walk order of each stratum, balanced on balance_key."""
        return [walk_order(f"{self.name}/{self.seed}/order/{j}",
                           [self.balance_key(c) for c in stratum])
                for j, stratum in enumerate(strata)]

    def make_pass(self, index: int) -> list[dict]:
        if self._strata is None:
            self._strata = self.strata()
            self._orders = self.orders(self._strata)
        specs = systematic(self._strata, self._orders, index)
        self.rng(index).shuffle(specs)
        return specs

    def strata(self) -> list[list[dict]]:
        raise NotImplementedError

    @staticmethod
    def balance_key(spec):
        """The property whose mix every stretch of a stratum's walk keeps;
        one key for all cases walks a plain seeded shuffle."""
        return None

    def warmup(self) -> list[dict]:
        """A few cheap cases, one per operation kind, run before timing."""
        raise NotImplementedError

    def gate(self, refs: dict, spec: dict, out) -> str:
        """'ok' or the reason the output is wrong."""
        ref = None
        if self.pooled:
            ref = refs.get(case_key(spec))
            if ref is None:
                return "no reference recorded for this case"
        try:
            return self.check(spec, out, ref)
        except Exception as exc:       # a malformed output must not stop the run
            return f"gate raised {exc!r}"

    def pool(self) -> list[dict]:
        seen = {}
        for stratum in self.strata():
            for spec in stratum:
                seen.setdefault(case_key(spec), spec)
        return list(seen.values())

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# battery: one shared left side, forty right sides per point
# ---------------------------------------------------------------------------

# eight rects: a 30 s run walks about three quarters of each surface's
# stratum, so nearly every slow specialization request of the pool is in
# every run, whatever the seed
BATTERY_RECTS = ((0, 1, 0, 1), (0, 2, 0, 1), (0.5, 2.5, 1, 3),
                 (0, 1.5, 0.5, 2), (1, 2, 0, 2), (0.25, 1.25, 0.5, 3),
                 (0, 3, 0, 3), (0.5, 1, 0, 0.5))
BATTERY_S = (0.25, 0.5, 0.75, 1.0)
BATTERY_CFG = hr.QuadConfig(gl_order=32, max_subdiv=24, abs_tol=1e-11)


def battery_points(rect: hr.Rect) -> list[hr.EvalPoint]:
    """The c3 lattice: 5x5 interior points, the corners, the midpoint."""
    pts = [hr.EvalPoint(rect.a + i * (rect.b - rect.a) / 6.0,
                        rect.c + j * (rect.d - rect.c) / 6.0)
           for i in range(1, 6) for j in range(1, 6)]
    pts.extend(rect.corners())
    pts.append(rect.midpoint())
    return pts


class Battery(Workload):
    name = "battery"

    def strata(self):
        # one stratum per surface, holding c3's full battery on it: every
        # lattice point of every rect, and every (rect, s) specialization
        names = [e.name for e in hr.catalog() if e.abs_mixed_coordinated]
        n_pts = len(battery_points(hr.Rect(*BATTERY_RECTS[0])))
        return [[{"kind": "point", "surface": nm, "rect": ri, "point": pi}
                 for ri in range(len(BATTERY_RECTS)) for pi in range(n_pts)]
                + [{"kind": "group", "surface": nm, "rect": ri, "s": s}
                   for ri in range(len(BATTERY_RECTS)) for s in BATTERY_S]
                for nm in names]

    @staticmethod
    def balance_key(spec):
        # every stretch of the walk gives each rect its share of points and
        # of specialization requests, the slowest operations
        return spec["rect"], spec["kind"]

    def warmup(self):
        return [{"kind": "point", "surface": "uv", "rect": 2, "point": 0},
                {"kind": "point", "surface": "u2.5v2.5", "rect": 2, "point": 0},
                {"kind": "group", "surface": "u2.5v2.5", "rect": 2, "s": 0.5}]

    def properties(self, spec):
        f = hr.catalog_lookup(spec["surface"])
        rect = BATTERY_RECTS[spec["rect"]]
        return {"surface": f.kind.value, "coords": "dyadic" if all(map(is_dyadic, rect)) else "decimal",
                "sq_pairs_per_point": 28 if spec["kind"] == "point" else 2,
                "axis": touches_axis(rect)}

    def run(self, spec):
        f = hr.catalog_lookup(spec["surface"])
        rect = hr.Rect(*BATTERY_RECTS[spec["rect"]])
        if spec["kind"] == "point":
            pt = battery_points(rect)[spec["point"]]
            lhs = abs(hr.lemma_lhs(f, rect, pt, cfg=BATTERY_CFG))
            rhss = []
            for s in BATTERY_S:
                rhss.append(hr.t1_rhs(f, rect, pt, s))
                rhss += [hr.t2_rhs(f, rect, pt, s, q) for q in (1.5, 2.0, 3.0)]
                for q in (1.0, 2.0, 4.0):
                    for mode in hr.PrefactorMode:
                        rhss.append(hr.t3_rhs(f, rect, pt, s, q, mode))
            tols = [hr.BOUND_ABS_TOL + hr.BOUND_REL_TOL * abs(r) for r in rhss]
            margins = [r - lhs for r in rhss]
            return {"lhs": lhs, "min_margin": min(margins), "n": len(rhss),
                    "holds": all(m >= -t for m, t in zip(margins, tols))}
        s = spec["s"]
        reports = []
        for corner in hr.Corner:
            reports.append(hr.corner_report(hr.TheoremId.T1, corner, f, rect, s, cfg=BATTERY_CFG))
            reports.append(hr.corner_report(hr.TheoremId.T2, corner, f, rect, s, 2.0, cfg=BATTERY_CFG))
            reports.append(hr.corner_report(hr.TheoremId.T3, corner, f, rect, s, 2.0, cfg=BATTERY_CFG))
        reports.append(hr.midpoint_report(hr.TheoremId.T1, f, rect, s, cfg=BATTERY_CFG))
        reports.append(hr.midpoint_report(hr.TheoremId.T2, f, rect, s, 2.0, cfg=BATTERY_CFG))
        reports.append(hr.midpoint_report(hr.TheoremId.T3, f, rect, s, 2.0, cfg=BATTERY_CFG))
        reports.append(hr.remark_aggregate(hr.TheoremId.R_C15, f, rect, s, cfg=BATTERY_CFG))
        reports.append(hr.remark_aggregate(hr.TheoremId.R_METU, f, rect, s, 2.0, cfg=BATTERY_CFG))
        reports.append(hr.remark_aggregate(hr.TheoremId.R_FINAL, f, rect, s, 2.0, cfg=BATTERY_CFG))
        reports.append(hr.t1_report(f, rect, rect.midpoint(), s, cfg=BATTERY_CFG, certify=True))
        return {"holds": [r.holds for r in reports], "margins": [r.margin for r in reports],
                "certified": reports[-1].hypothesis_certified}

    def summary(self, out):
        return out

    def check(self, spec, out, ref):
        if spec["kind"] == "point":
            if out["holds"] != ref["holds"] or out["n"] != ref["n"]:
                return f"verdict {out['holds']} != reference {ref['holds']}"
            if not (close(out["lhs"], ref["lhs"]) and close(out["min_margin"], ref["min_margin"])):
                return f"lhs/margin {out['lhs']!r}/{out['min_margin']!r} outside budget of reference"
            return "ok"
        if out["holds"] != ref["holds"] or out["certified"] != ref["certified"]:
            return "specialization verdicts differ from reference"
        if not all(map(close, out["margins"], ref["margins"])):
            return "specialization margins outside budget of reference"
        return "ok"


# ---------------------------------------------------------------------------
# identity: the rational oracle alone
# ---------------------------------------------------------------------------

class Identity(Workload):
    name = "identity"
    pooled = False

    def make_pass(self, index):
        # strata: u-degree 1..8, each with dyadic and with decimal
        # coordinates; v-degrees walk 1..8 in a seeded order per stratum
        rng = self.rng(index)
        strata = [(du, coords) for du in range(1, 9) for coords in ("dyadic", "decimal")]
        v_degrees = [list(range(1, 9)) for _ in strata]
        if self._orders is None:
            self._orders = self.orders(v_degrees)
        specs = [self._case(rng, du, dv, coords) for (du, coords), dv in
                 zip(strata, systematic(v_degrees, self._orders, index))]
        rng.shuffle(specs)
        return specs

    def warmup(self):
        rng = random.Random("identity/warmup")
        return [self._case(rng, du, 3, coords) for du, coords in ((2, "dyadic"), (4, "decimal"))]

    @staticmethod
    def _case(rng: random.Random, du: int, dv: int, coords: str) -> dict:
        terms = [[i, j, rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))]
                 for i in range(du + 1) for j in range(dv + 1)
                 if (i, j) == (du, dv) or rng.random() < 0.5]
        # every coordinate is one integer over den (rect) or den**2 (point),
        # divided once, so it is the float nearest that multiple; a sum of
        # floats would carry rounding noise such as 1.2999999999999998
        den = 8 if coords == "dyadic" else 10
        ka, wu = rng.randint(-den, 2 * den), rng.randint(den // 2, 3 * den)
        kc, wv = rng.randint(-den, 2 * den), rng.randint(den // 2, 3 * den)
        x = (ka * den + rng.randint(1, den - 1) * wu) / den ** 2
        y = (kc * den + rng.randint(1, den - 1) * wv) / den ** 2
        rect = [ka / den, (ka + wu) / den, kc / den, (kc + wv) / den]
        return {"terms": terms, "rect": rect, "point": [x, y], "coords": coords}

    def properties(self, spec):
        return {"surface": "polynomial", "coords": spec["coords"], "sq_pairs_per_point": 0,
                "axis": touches_axis(spec["rect"])}

    def run(self, spec):
        poly = hr.Poly2.from_dict({(i, j): c for i, j, c in spec["terms"]})
        f = hr.poly_surface(poly)
        return hr.lemma_residual_exact(f, hr.Rect(*spec["rect"]), hr.EvalPoint(*spec["point"]))

    def check(self, spec, out, ref):
        if isinstance(out.residual, Fraction) and out.residual == 0 and out.lhs == out.rhs:
            return "ok"
        return f"exact residual {out.residual} is not 0"


# ---------------------------------------------------------------------------
# lattice: gap scans through the command line, written out and parsed back
# ---------------------------------------------------------------------------

LATTICE_SURFACES = ("u^2.5*v^2", "u^1.5*v^2.5", "u^2.5*v^2.5",
                    "u^3*v^2.5+u^2.5*v^2", "u^2*v^1.5", "(u+v)^0.5*u")
LATTICE_RECTS = ((0.5, 2.5, 1, 3), (1, 2, 1, 2), (0.5, 1.5, 0.5, 2.5), (1, 3, 0.5, 1.5))
LATTICE_FAMILIES = (("t1", None), ("t2", 1.5), ("t2", 2.0), ("t2", 3.0),
                    ("t3", 1.0), ("t3", 2.0), ("t3", 4.0))
LATTICE_S = (0.25, 0.5, 0.75, 1.0)
LATTICE_GRID = 12


class Lattice(Workload):
    name = "lattice"

    workdir = ".bench_tmp"

    def __init__(self, seed):
        super().__init__(seed)
        os.makedirs(self.workdir, exist_ok=True)
        self.paths = []

    def strata(self):
        return [[{"surface": fn, "rect": ri, "theorem": th, "q": q, "s": s}
                 for ri in range(len(LATTICE_RECTS)) for th, q in LATTICE_FAMILIES
                 for s in LATTICE_S]
                for fn in LATTICE_SURFACES]

    @staticmethod
    def balance_key(spec):
        return spec["rect"], spec["theorem"], spec["q"]

    def make_pass(self, index):
        rng = random.Random(f"{self.name}/{self.seed}/{index}/format")
        return [dict(spec, fmt=rng.choice(("csv", "json"))) for spec in super().make_pass(index)]

    def warmup(self):
        return [dict(self.strata()[0][0], fmt="csv"), dict(self.strata()[-1][0], fmt="json")]

    def properties(self, spec):
        kind = hr.parse_surface(spec["surface"]).kind.value
        rect = LATTICE_RECTS[spec["rect"]]
        return {"surface": kind, "coords": "dyadic" if all(map(is_dyadic, rect)) else "decimal",
                "sq_pairs_per_point": 1, "axis": touches_axis(rect)}

    def run(self, spec):
        fmt = spec.get("fmt", "json")
        path = os.path.join(self.workdir, f"scan.{fmt}")
        if path not in self.paths:
            self.paths.append(path)
        argv = ["scan", "--scan-kind", "gap", "--fn", spec["surface"],
                "--rect", ",".join(map(str, LATTICE_RECTS[spec["rect"]])),
                "--theorem", spec["theorem"], "--s", str(spec["s"]),
                "--grid", str(LATTICE_GRID), "--format", fmt, "--out", path]
        if spec["q"] is not None:
            argv += ["--q", str(spec["q"])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return {"code": code, "path": path, "fmt": fmt}

    def parse(self, out) -> dict:
        """Read a scan report back; margins keyed by lattice coordinates."""
        with open(out["path"]) as fh:
            text = fh.read()
        if out["fmt"] == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["x", "y", "lhs", "rhs", "margin"]:
                raise ValueError(f"unexpected csv header {rows[0]}")
            cells = [(float(r[0]), float(r[1]), float(r[4])) for r in rows[1:]]
            stated = None
        else:
            report = json.loads(text)
            cells = [(r["x"], r["y"], math.nan if r["margin"] is None else r["margin"])
                     for r in report["results"]]
            stated = report["summary"]
        finite = [c for c in cells if not math.isnan(c[2])]
        best = min(finite, key=lambda c: c[2]) if finite else None   # first in scan order
        parsed = {"code": out["code"], "rows": len(cells),
                  "error_cells": len(cells) - len(finite),
                  "min_margin": best[2] if best else math.nan,
                  "argmin": [best[0], best[1]] if best else None,
                  "violation": bool(best and best[2] < -hr.BOUND_ABS_TOL),
                  "margins": {(x, y): m for x, y, m in cells}}
        if stated is not None and (
                stated["violation"] != parsed["violation"]
                or stated["error_cells"] != parsed["error_cells"]
                or (stated["argmin"] or None) != parsed["argmin"]):
            raise ValueError("json summary disagrees with its own rows")
        return parsed

    def summary(self, out):
        parsed = self.parse(out)
        del parsed["margins"]
        return parsed

    def check(self, spec, out, ref):
        try:
            got = self.parse(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"report does not parse: {exc}"
        for key in ("code", "rows", "error_cells", "violation"):
            if got[key] != ref[key]:
                return f"{key} {got[key]!r} != reference {ref[key]!r}"
        if not close(got["min_margin"], ref["min_margin"]):
            return f"min_margin {got['min_margin']!r} outside budget of {ref['min_margin']!r}"
        if got["argmin"] != ref["argmin"]:
            at_ref = got["margins"].get(tuple(ref["argmin"]), math.nan)
            if not close(at_ref, got["min_margin"]):
                return f"argmin {got['argmin']} != reference {ref['argmin']}"
        return "ok"

    def cleanup(self):
        for path in self.paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        with contextlib.suppress(OSError):
            os.rmdir(self.workdir)


WORKLOADS = {cls.name: cls for cls in (Battery, Identity, Lattice)}
