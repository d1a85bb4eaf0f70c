"""Surfaces: the functions f(u, v) the identity and bounds are checked on.

Three kinds, in decreasing order of what we can do exactly:

- POLYNOMIAL: dense rational coefficient grid (Poly2). Exact evaluation,
  exact mixed partial, exact integration. This is the oracle path.
- POWER_PRODUCT: sum of c * u^alpha * v^beta with real alpha, beta >= 0.
  Analytic mixed partial, numeric integration.
- NUMERIC_ONLY: anything else the expression grammar accepts. Mixed
  partial falls back to a central finite difference.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .domain import Rect

__all__ = [
    "EvalError", "ParseError", "UnknownSurface", "DomainNotNonnegative",
    "SurfaceKind", "Poly2", "Surface", "parse_surface", "poly_surface",
    "const_surface", "power_surface", "scaled", "catalog", "catalog_lookup",
    "CatalogEntry", "SamplerConfig", "Witness", "CertificationReport",
    "Verdict", "certify_s_convex_second_sense", "certify_coordinated",
    "replay_witness", "finite_difference_mixed", "powers", "power_integrals",
    "kernel_moments",
]


class EvalError(ArithmeticError):
    """Surface evaluation produced NaN or infinity."""


class ParseError(ValueError):
    """Expression rejected by the grammar; carries position and expectations."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at offset {position}, expected one of {expected}")
        self.position = position
        self.expected = expected


class UnknownSurface(LookupError):
    """Catalog lookup miss."""


class DomainNotNonnegative(ValueError):
    """Certification asked for on a rectangle leaving [0, inf)^2."""


MAX_POLY_DEGREE = 8


class SurfaceKind(Enum):
    POLYNOMIAL = "polynomial"
    POWER_PRODUCT = "power_product"
    NUMERIC_ONLY = "numeric_only"


# ---------------------------------------------------------------------------
# exact bivariate polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly2:
    """Bivariate polynomial sum c[i][j] u^i v^j with rational coefficients."""

    coeffs: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_dict(terms: dict[tuple[int, int], Fraction | int]) -> "Poly2":
        if not terms:
            terms = {(0, 0): Fraction(0)}
        du = max(i for i, _ in terms)
        dv = max(j for _, j in terms)
        if du > MAX_POLY_DEGREE or dv > MAX_POLY_DEGREE:
            raise ValueError(f"polynomial degree limited to {MAX_POLY_DEGREE} per variable")
        grid = [[Fraction(0)] * (dv + 1) for _ in range(du + 1)]
        for (i, j), cval in terms.items():
            if i < 0 or j < 0:
                raise ValueError("monomial exponents must be nonnegative")
            grid[i][j] += Fraction(cval)
        return Poly2(tuple(tuple(row) for row in grid))

    @cached_property
    def _float_grid(self) -> np.ndarray:
        return np.array([[float(cv) for cv in row] for row in self.coeffs])

    @property
    def degree_u(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree_v(self) -> int:
        return len(self.coeffs[0]) - 1

    def __call__(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        out = np.polynomial.polynomial.polyval2d(u, v, self._float_grid)
        return out if out.shape else float(out)

    def eval_exact(self, u: Fraction, v: Fraction) -> Fraction:
        return self.contract(powers(u, self.degree_u), powers(v, self.degree_v))

    def contract(self, alpha, beta) -> Fraction:
        """sum c[i][j] alpha[i] beta[j] over the nonzero coefficients; alpha
        and beta hold at least degree_u + 1 and degree_v + 1 entries. With
        powers of a point it is a value, with power_integrals an integral."""
        total = Fraction(0)
        for ai, row in zip(alpha, self.coeffs):
            inner = sum((cv * bj for cv, bj in zip(row, beta) if cv), Fraction(0))
            if inner:
                total += ai * inner
        return total

    def mixed_partial_poly(self) -> "Poly2":
        """d^2/du dv, exact."""
        du, dv = self.degree_u, self.degree_v
        if du == 0 or dv == 0:
            return Poly2(((Fraction(0),),))
        grid = tuple(
            tuple((i + 1) * (j + 1) * self.coeffs[i + 1][j + 1] for j in range(dv))
            for i in range(du)
        )
        return Poly2(grid)

    def compose_affine(self, pu: Fraction, qu: Fraction, pv: Fraction, qv: Fraction) -> "Poly2":
        """Exact substitution u = pu + qu*t, v = pv + qv*l; result in (t, l)."""
        du, dv = self.degree_u, self.degree_v
        # powers of the two affine maps as 1d coefficient lists
        upow = [[Fraction(1)]]
        for _ in range(du):
            upow.append(_affine_mul(upow[-1], pu, qu))
        vpow = [[Fraction(1)]]
        for _ in range(dv):
            vpow.append(_affine_mul(vpow[-1], pv, qv))
        grid = [[Fraction(0)] * (dv + 1) for _ in range(du + 1)]
        for i in range(du + 1):
            for j in range(dv + 1):
                cij = self.coeffs[i][j]
                if cij == 0:
                    continue
                for it, ct in enumerate(upow[i]):
                    if ct == 0:
                        continue
                    for jl, cl in enumerate(vpow[j]):
                        grid[it][jl] += cij * ct * cl
        return Poly2(tuple(tuple(row) for row in grid))

    def scale(self, k: Fraction) -> "Poly2":
        return Poly2(tuple(tuple(k * cv for cv in row) for row in self.coeffs))


def powers(x: Fraction, n: int) -> tuple[Fraction, ...]:
    """x^k for k = 0..n."""
    out = [Fraction(1)]
    for _ in range(n):
        out.append(out[-1] * x)
    return tuple(out)


def power_integrals(lo: Fraction, hi: Fraction, n: int) -> tuple[Fraction, ...]:
    """integral_lo^hi t^k dt = (hi^(k+1) - lo^(k+1)) / (k+1) for k = 0..n."""
    lo_pow, hi_pow = powers(lo, n + 1), powers(hi, n + 1)
    return tuple((hi_pow[k + 1] - lo_pow[k + 1]) / (k + 1) for k in range(n + 1))


def kernel_moments(n: int) -> tuple[Fraction, ...]:
    """integral_0^1 (1-t) t^k dt = 1 / ((k+1)(k+2)) for k = 0..n."""
    return tuple(Fraction(1, (k + 1) * (k + 2)) for k in range(n + 1))


def _affine_mul(coeffs: list[Fraction], p: Fraction, q: Fraction) -> list[Fraction]:
    # multiply a 1d polynomial (in t) by (p + q t)
    out = [Fraction(0)] * (len(coeffs) + 1)
    for k, cv in enumerate(coeffs):
        out[k] += cv * p
        out[k + 1] += cv * q
    return out


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def finite_difference_mixed(fn: Callable, u, v):
    """Central 4-point cross difference for d^2 f / du dv.

    Step is max(1e-4, 1e-4 |coordinate|) per axis.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    h1 = np.maximum(1e-4, 1e-4 * np.abs(u))
    h2 = np.maximum(1e-4, 1e-4 * np.abs(v))
    with np.errstate(over="ignore", invalid="ignore"):     # inf - inf is NaN
        val = (fn(u + h1, v + h2) - fn(u + h1, v - h2)
               - fn(u - h1, v + h2) + fn(u - h1, v - h2)) / (4.0 * h1 * h2)
    return val if np.ndim(val) else float(val)


@dataclass(frozen=True, eq=False)
class Surface:
    """A function f(u, v), its mixed partial, and whatever exact structure it has.

    fn and mixed_fn accept scalars or numpy arrays. mixed_fn is None for
    NUMERIC_ONLY surfaces, in which case the finite-difference fallback is used.
    A surface compares and hashes by identity, so the memos that key on it
    cost no more than an id().
    """

    name: str
    fn: Callable
    mixed_fn: Callable | None = None
    poly: Poly2 | None = None

    @property
    def kind(self) -> SurfaceKind:
        """Read off poly and mixed_fn, so it cannot disagree with them."""
        if self.poly is not None:
            return SurfaceKind.POLYNOMIAL
        return SurfaceKind.NUMERIC_ONLY if self.mixed_fn is None else SurfaceKind.POWER_PRODUCT

    def __call__(self, u, v):
        out = self.fn(u, v)
        if np.ndim(out) == 0:
            out = float(out)
            if not math.isfinite(out):
                raise EvalError(f"{self.name} evaluated to {out} at ({u}, {v})")
        return out

    def mixed_partial(self, u, v):
        """d^2 f / du dv; EvalError names the first point where it is not finite."""
        if self.mixed_fn is not None:
            out = self.mixed_fn(u, v)
        else:
            out = finite_difference_mixed(self.fn, u, v)
        if np.ndim(out) == 0:
            out = float(out)
            if not math.isfinite(out):
                raise EvalError(f"mixed partial of {self.name} is {out} at ({u}, {v})")
        elif not np.isfinite(out).all():
            k = int(np.flatnonzero(~np.isfinite(out))[0])
            uk = np.broadcast_to(u, out.shape).flat[k]
            vk = np.broadcast_to(v, out.shape).flat[k]
            raise EvalError(f"mixed partial of {self.name} is {out.flat[k]} at ({uk}, {vk})")
        return out


def poly_surface(poly: Poly2, name: str = "poly") -> Surface:
    mixed = poly.mixed_partial_poly()
    return Surface(name=name, fn=poly, mixed_fn=mixed, poly=poly)


def const_surface(k: float = 1.0, name: str | None = None) -> Surface:
    p = Poly2.from_dict({(0, 0): Fraction(k)})
    return poly_surface(p, name or f"const({k:g})")


def _power_sum(terms, u: np.ndarray, v: np.ndarray, acc):
    """acc plus c u^al v^be over terms (c, al, be). A term is 0 where one
    factor is an exact zero and the other's exponent is >= 0, even where
    that other factor overflows; a zero to a negative power stays a pole.
    Only a term that is not finite pays for that check. An overflow, a
    pole or an invalid operation shows as inf or NaN without numpy's
    warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for c, al, be in terms:
            pu, pv = np.power(u, al), np.power(v, be)
            term = c * pu * pv
            if not (math.isfinite(term) if term.ndim == 0 else np.isfinite(term).all()):
                pu = np.where((v == 0.0) & (be > 0.0) & (al >= 0.0) & np.isinf(pu), 0.0, pu)
                pv = np.where((u == 0.0) & (al > 0.0) & (be >= 0.0) & np.isinf(pv), 0.0, pv)
                term = c * pu * pv
            acc = acc + term
    return acc


def power_surface(terms: list[tuple[float, float, float]], name: str = "power") -> Surface:
    """Sum of c * u^alpha * v^beta terms with alpha, beta >= 0."""
    terms = [(float(c), float(al), float(be)) for c, al, be in terms]

    def fn(u, v):
        return _power_sum(terms, np.asarray(u, dtype=float), np.asarray(v, dtype=float), 0.0)

    dterms = [(c * al * be, al - 1.0, be - 1.0)
              for c, al, be in terms if al != 0.0 and be != 0.0]

    def mixed(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        acc = _power_sum(dterms, u, v, np.zeros(np.broadcast_shapes(u.shape, v.shape)))
        return acc if acc.shape else float(acc)

    return Surface(name=name, fn=fn, mixed_fn=mixed)


def scaled(surf: Surface, alpha: float) -> Surface:
    """alpha * f, preserving whatever exact structure f has."""
    poly = surf.poly.scale(Fraction(alpha)) if surf.poly is not None else None
    fn = lambda u, v: alpha * surf.fn(u, v)
    mixed = None if surf.mixed_fn is None else (lambda u, v: alpha * surf.mixed_fn(u, v))
    return Surface(name=f"{alpha:g}*{surf.name}", fn=fn, mixed_fn=mixed, poly=poly)


# ---------------------------------------------------------------------------
# expression grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := number | 'u' | 'v' | factor '^' number | '(' expr ')'
#
# Numbers are positive decimal literals. No unary minus, no division.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([uv+\-*^()]))")

_FACTOR_START = ("number", "'u'", "'v'", "'('")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at, _FACTOR_START)
        if m.group(1) is not None:
            tokens.append(("number", m.group(1), m.start(1)))
        else:
            tokens.append((m.group(2), m.group(2), m.start(2)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, val, pos = self.peek()
        shown = "end of input" if kind == "eof" else repr(val)
        raise ParseError(f"unexpected {shown}", pos, expected)

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "eof":
            self.fail(("'+'", "'-'", "'*'", "'^'", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "number":
            self.advance()
            node = ("num", _parse_number(val))
        elif kind in ("u", "v"):
            self.advance()
            node = ("var", kind)
        elif kind == "(":
            self.advance()
            node = self.expr()
            if self.peek()[0] != ")":
                self.fail(("')'",))
            self.advance()
        else:
            self.fail(_FACTOR_START)
        while self.peek()[0] == "^":
            self.advance()
            ekind, eval_, _ = self.peek()
            if ekind != "number":
                self.fail(("number",))
            self.advance()
            node = ("pow", node, _parse_number(eval_))
        return node


def _parse_number(text: str) -> Fraction:
    return Fraction(text.rstrip(".") or "0")


def _ast_eval(node, u, v):
    op = node[0]
    if op == "num":
        return float(node[1])
    if op == "var":
        return u if node[1] == "u" else v
    if op == "add":
        return _ast_eval(node[1], u, v) + _ast_eval(node[2], u, v)
    if op == "sub":
        return _ast_eval(node[1], u, v) - _ast_eval(node[2], u, v)
    if op == "mul":
        return _ast_eval(node[1], u, v) * _ast_eval(node[2], u, v)
    if op == "pow":
        return np.power(_ast_eval(node[1], u, v), float(node[2]))
    raise AssertionError(op)


def _expand(node) -> dict[tuple[Fraction, Fraction], Fraction] | None:
    """Monomial map {(alpha, beta): coeff} or None when not expandable."""
    op = node[0]
    if op == "num":
        return {(Fraction(0), Fraction(0)): node[1]}
    if op == "var":
        key = (Fraction(1), Fraction(0)) if node[1] == "u" else (Fraction(0), Fraction(1))
        return {key: Fraction(1)}
    if op in ("add", "sub"):
        left = _expand(node[1])
        right = _expand(node[2])
        if left is None or right is None:
            return None
        sign = 1 if op == "add" else -1
        out = dict(left)
        for key, cv in right.items():
            out[key] = out.get(key, Fraction(0)) + sign * cv
        return {k: cv for k, cv in out.items() if cv != 0} or {(Fraction(0), Fraction(0)): Fraction(0)}
    if op == "mul":
        left = _expand(node[1])
        right = _expand(node[2])
        if left is None or right is None:
            return None
        out: dict[tuple[Fraction, Fraction], Fraction] = {}
        for (a1, b1), c1 in left.items():
            for (a2, b2), c2 in right.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return {k: cv for k, cv in out.items() if cv != 0} or {(Fraction(0), Fraction(0)): Fraction(0)}
    if op == "pow":
        base = _expand(node[1])
        exp: Fraction = node[2]
        if base is None:
            return None
        if exp.denominator == 1 and exp >= 0:
            n = int(exp)
            if len(base) > 1 and n > 16:
                return None  # expansion would blow up, leave it numeric
            out = {(Fraction(0), Fraction(0)): Fraction(1)}
            for _ in range(n):
                nxt: dict[tuple[Fraction, Fraction], Fraction] = {}
                for (a1, b1), c1 in out.items():
                    for (a2, b2), c2 in base.items():
                        key = (a1 + a2, b1 + b2)
                        nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
                out = nxt
            return out
        # fractional power: only a single positive monomial can be expanded
        if len(base) != 1:
            return None
        (al, be), cv = next(iter(base.items()))
        if cv < 0:
            return None
        if cv == 1:
            new_c = Fraction(1)
        else:
            new_c = Fraction(float(cv) ** float(exp))
        return {(al * exp, be * exp): new_c}
    raise AssertionError(op)


# (text, name) pairs parse_surface keeps: one Surface per expression, so the
# left-side and stencil memos, which key on the surface, hit across calls.
# It pays only when one process parses the same expression again.
_PARSE_MEMO_SIZE = 128


@lru_cache(maxsize=_PARSE_MEMO_SIZE)
def parse_surface(text: str, name: str | None = None) -> Surface:
    """Parse an expression in u and v into the most structured Surface possible.

    The last _PARSE_MEMO_SIZE (text, name) pairs keep their Surface, which
    is frozen and so safe to share; a ParseError is raised again on every
    call and never kept.
    """
    ast = _Parser(text).parse()
    label = name or text
    mono = _expand(ast)
    if mono is not None:
        all_integer = all(
            al.denominator == 1 and be.denominator == 1 for (al, be) in mono
        )
        max_deg = max((max(al, be) for (al, be) in mono), default=Fraction(0))
        if all_integer and max_deg <= MAX_POLY_DEGREE:
            poly = Poly2.from_dict({(int(al), int(be)): cv for (al, be), cv in mono.items()})
            # not poly_surface: a wrapper around both would wrap this one twice
            return Surface(name=label, fn=poly, mixed_fn=poly.mixed_partial_poly(), poly=poly)
        return power_surface(
            [(float(cv), float(al), float(be)) for (al, be), cv in mono.items()],
            name=label,
        )

    def fn(u, v):
        # an overflow or invalid operation shows as inf or NaN, which the
        # Surface raises as EvalError, without numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            return _ast_eval(ast, np.asarray(u, dtype=float), np.asarray(v, dtype=float))

    return Surface(name=label, fn=fn)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    surface: Surface
    # |mixed partial| has s-convex coordinate sections on [0,inf)^2
    # for every s in (0,1]
    abs_mixed_coordinated: bool
    aliases: tuple[str, ...] = ()


def _build_catalog() -> tuple[CatalogEntry, ...]:
    entries = [
        CatalogEntry("const", const_surface(1.0, name="const"), True),
        CatalogEntry("uv", parse_surface("u*v", name="uv"), True, aliases=("bilinear",)),
        CatalogEntry("u2v2", parse_surface("u^2*v^2", name="u2v2"), True, aliases=("quartic",)),
        CatalogEntry("u3v3", parse_surface("u^3*v^3", name="u3v3"), True, aliases=("sextic",)),
        CatalogEntry("sum_square", parse_surface("(u+v)^2", name="sum_square"), True,
                     aliases=("(u+v)^2",)),
    ]
    for al in ("2", "2.5", "3"):
        for be in ("2", "2.5", "3"):
            nm = f"u{al}v{be}"
            if nm in ("u2v2", "u3v3"):
                continue
            entries.append(CatalogEntry(nm, parse_surface(f"u^{al}*v^{be}", name=nm), True))
    return tuple(entries)


_CATALOG = _build_catalog()


def catalog() -> tuple[CatalogEntry, ...]:
    return _CATALOG


def catalog_lookup(name: str) -> Surface:
    for entry in _CATALOG:
        if name == entry.name or name in entry.aliases:
            return entry.surface
    raise UnknownSurface(f"no catalog surface named {name!r}")


# ---------------------------------------------------------------------------
# sampling certification
#
# A randomized search for violations of the s-convexity inequality
#   g(l x1 + (1-l) x2) <= l^s g(x1) + (1-l)^s g(x2)
# on coordinate sections. Finding nothing proves nothing; the verdict says so.
# ---------------------------------------------------------------------------

class Verdict(Enum):
    NO_COUNTEREXAMPLE_FOUND = "no_counterexample_found"
    COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 20260816

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


_N_PAIRS = 660                 # pairs for a single 1d call
_N_SECTIONS = 22               # sections per orientation (2d call)
_PAIRS_PER_SECTION = 15
_VIOLATION_TOL = 1e-9
_LAMBDA_GRID = np.arange(1, 16) / 16.0


@dataclass(frozen=True)
class Witness:
    x1: float
    x2: float
    lam: float
    lhs: float
    rhs: float
    slack: float
    kind: str                        # "inequality" or "negative_value"
    section: tuple[str, float] | None = None


@dataclass(frozen=True)
class CertificationReport:
    verdict: Verdict
    witness: Witness | None
    samples_used: int
    seed: int
    s: float


def _scan_sections(g, s: float, xs: np.ndarray, tol: float,
                   sections) -> tuple[Witness | None, int]:
    """First witness in scan order over sections xs[k] of (x1, x2) pairs, and
    the samples scanned up to it. One g call takes each section's x1s, x2s and
    lambda-midpoints in turn; a non-finite value raises EvalError."""
    n, m, _ = xs.shape
    lam = _LAMBDA_GRID
    mid = lam * xs[:, :, :1] + (1.0 - lam) * xs[:, :, 1:]
    pts = np.concatenate([xs[:, :, 0], xs[:, :, 1], mid.reshape(n, -1)], axis=1)
    vals = np.asarray(g(pts.ravel()), dtype=float).reshape(pts.shape)
    per = pts.shape[1]
    if not np.isfinite(vals).all():
        k, j = divmod(int(np.flatnonzero(~np.isfinite(vals))[0]), per)
        where = "" if sections[k] is None else " on section %s = %r" % sections[k]
        raise EvalError(f"certification sample is {vals[k, j]} at {float(pts[k, j])!r}{where}")
    g1, g2, lhs = vals[:, :m], vals[:, m:2 * m], vals[:, 2 * m:].reshape(mid.shape)
    rhs = lam ** s * g1[:, :, None] + (1.0 - lam) ** s * g2[:, :, None]
    # the definition lives on nonnegative functions; a negative sample is
    # already a counterexample
    neg = np.minimum(g1, g2) < -tol
    bad = lhs > rhs + tol
    hit = np.flatnonzero(neg.any(axis=1) | bad.any(axis=(1, 2)))
    if not hit.size:
        return None, vals.size
    k = int(hit[0])
    x1, x2 = xs[k, :, 0], xs[k, :, 1]
    if neg[k].any():
        r = int(np.argwhere(neg[k])[0, 0])
        pt = float(x1[r] if g1[k, r] < -tol else x2[r])
        val = float(min(g1[k, r], g2[k, r]))
        return Witness(pt, pt, 0.0, val, 0.0, -val, "negative_value", sections[k]), k * per + 2 * m
    r, j = (int(i) for i in np.argwhere(bad[k])[0])
    return Witness(float(x1[r]), float(x2[r]), float(lam[j]), float(lhs[k, r, j]),
                   float(rhs[k, r, j]), float(lhs[k, r, j] - rhs[k, r, j]),
                   "inequality", sections[k]), (k + 1) * per


def certify_s_convex_second_sense(g, s: float, lo: float, hi: float,
                                  config: SamplerConfig = SamplerConfig()) -> CertificationReport:
    """Randomized counterexample search for s-convexity of g on [lo, hi].

    Deterministic for a fixed seed. NO_COUNTEREXAMPLE_FOUND is not a proof.
    """
    if lo < 0:
        raise DomainNotNonnegative(f"s-convexity in the second sense lives on [0, inf), got lo={lo}")
    rng = np.random.default_rng(config.seed)
    xs = rng.uniform(lo, hi, size=(1, _N_PAIRS, 2))
    witness, used = _scan_sections(g, s, xs, _VIOLATION_TOL, (None,))
    verdict = Verdict.COUNTEREXAMPLE if witness else Verdict.NO_COUNTEREXAMPLE_FOUND
    return CertificationReport(verdict, witness, used, config.seed, s)


def certify_coordinated(f, rect: Rect, s: float,
                        config: SamplerConfig = SamplerConfig()) -> CertificationReport:
    """Counterexample search for coordinated s-convexity of f(u, v) on rect.

    Checks randomly chosen horizontal sections u -> f(u, v0) in one f call,
    then vertical sections v -> f(u0, v) in another. First violation wins.
    """
    if rect.a < 0 or rect.c < 0:
        raise DomainNotNonnegative(
            f"coordinated s-convexity lives on [0, inf)^2, got rect [{rect.a},{rect.b}]x[{rect.c},{rect.d}]")
    rng = np.random.default_rng(config.seed)
    n, m = _N_SECTIONS, _PAIRS_PER_SECTION
    v_cuts = rng.uniform(rect.c, rect.d, size=n)
    u_cuts = rng.uniform(rect.a, rect.b, size=n)
    used = 0
    for axis, cuts, lo, hi in (("v", v_cuts, rect.a, rect.b), ("u", u_cuts, rect.c, rect.d)):
        xs = rng.uniform(lo, hi, size=(n, m, 2))

        def section_fn(x):
            held = np.repeat(cuts, x.size // n)
            return f(x, held) if axis == "v" else f(held, x)

        witness, k = _scan_sections(section_fn, s, xs, _VIOLATION_TOL,
                                    [(axis, float(c)) for c in cuts])
        used += k
        if witness:
            return CertificationReport(Verdict.COUNTEREXAMPLE, witness, used, config.seed, s)
    return CertificationReport(Verdict.NO_COUNTEREXAMPLE_FOUND, None, used, config.seed, s)


def replay_witness(g, s: float, witness: Witness) -> float:
    """Recompute a witness's violation slack against a 1d section function."""
    if witness.kind == "negative_value":
        return -float(g(witness.x1))
    lhs = float(g(witness.lam * witness.x1 + (1.0 - witness.lam) * witness.x2))
    rhs = witness.lam ** s * float(g(witness.x1)) + (1.0 - witness.lam) ** s * float(g(witness.x2))
    return lhs - rhs
