"""Core value types: rectangles, evaluation points, exponent parameters.

Everything here is immutable and validated at construction. The corner
enumeration order (a,c), (a,d), (b,c), (b,d) is fixed once here and every
other module follows it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter


class DegenerateRect(ValueError):
    """Rectangle with a >= b or c >= d, or whose width, height or area is
    not a finite float greater than 0."""


class BadExponent(ValueError):
    """Parameter outside its legal range (s, q, or a Holder pair)."""


class IdentityHashEnum(Enum):
    """An Enum whose members hash by identity, in C.

    Members compare by identity, so object.__hash__ agrees with equality;
    Enum's own __hash__ is a Python function, which every memo key holding
    a member would run on each lookup. The hash changes from process to
    process, so no output may depend on the order of a set of members.
    """

    __hash__ = object.__hash__


# __hash__ of a frozen value type whose hash is computed once, at
# construction, by store_hash: a property whose getter is C code and returns
# the stored int's bound __index__, so hash() of the value runs no Python
# frame and a memo keyed on it costs one C lookup
STORED_HASH = property(attrgetter("_hash"))


def store_hash(obj, fields: tuple) -> None:
    """Store hash(fields) as obj's hash; obj's class sets __hash__ = STORED_HASH."""
    object.__setattr__(obj, "_hash", hash(fields).__index__)


class NormalizationMode(IdentityHashEnum):
    """How the corner term of the identity is normalized.

    VERBATIM divides the corner sum by the rectangle area (dimensionally
    inconsistent: it breaks the identity for constants off unit-area
    rectangles). CORRECTED drops that division and makes the identity exact.
    """

    VERBATIM = "verbatim"
    CORRECTED = "corrected"


class PrefactorMode(IdentityHashEnum):
    """Constant in front of the power-mean bound family.

    VERBATIM is the printed constant 2^(2-2/q). SHARPENED is 2^(2/q-2),
    which is what the power-mean step actually yields (the kernel has
    absolute mass 1/4 on the unit square). VERBATIM >= SHARPENED for
    q >= 1 with equality at q = 1, so both keep the inequality valid.
    """

    VERBATIM = "verbatim"
    SHARPENED = "sharpened"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [a,b] x [c,d] with a < b and c < d, whose
    width b - a, height d - c and area are finite and greater than 0 as
    floats, so dividing by any of them is safe.

    area, (b - a) * (d - c), and the hash, that of (a, b, c, d) as a frozen
    dataclass hashes, are computed once, at construction."""

    a: float
    b: float
    c: float
    d: float

    __hash__ = STORED_HASH

    def __post_init__(self):
        if not (self.a < self.b and self.c < self.d):
            raise DegenerateRect(
                f"need a < b and c < d, got [{self.a},{self.b}]x[{self.c},{self.d}]"
            )
        for val in (self.a, self.b, self.c, self.d):
            if not math.isfinite(val):
                raise DegenerateRect("rectangle coordinates must be finite")
        width, height = self.b - self.a, self.d - self.c
        area = width * height
        if not all(0.0 < v < math.inf for v in (width, height, area)):
            raise DegenerateRect(
                f"width {width}, height {height} and area {area} must be "
                f"finite and greater than 0, got [{self.a},{self.b}]x[{self.c},{self.d}]")
        object.__setattr__(self, "area", area)
        store_hash(self, (self.a, self.b, self.c, self.d))

    def corners(self) -> tuple["EvalPoint", ...]:
        """Corners in the canonical order (a,c), (a,d), (b,c), (b,d)."""
        return (
            EvalPoint(self.a, self.c),
            EvalPoint(self.a, self.d),
            EvalPoint(self.b, self.c),
            EvalPoint(self.b, self.d),
        )

    def midpoint(self) -> "EvalPoint":
        return EvalPoint(0.5 * (self.a + self.b), 0.5 * (self.c + self.d))

    def contains(self, pt: "EvalPoint") -> bool:
        """Closed containment: boundary points count."""
        return self.a <= pt.x <= self.b and self.c <= pt.y <= self.d

    def exact(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coordinates as exact rationals (floats are dyadic rationals)."""
        return (Fraction(self.a), Fraction(self.b), Fraction(self.c), Fraction(self.d))


def make_rect(a: float, b: float, c: float, d: float) -> Rect:
    return Rect(float(a), float(b), float(c), float(d))


@dataclass(frozen=True)
class EvalPoint:
    """A point (x, y) where the identity or a bound is evaluated."""

    x: float
    y: float

    def exact(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.x), Fraction(self.y))


@dataclass(frozen=True)
class SExponent:
    """Convexity exponent s in (0, 1]."""

    s: float

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0):
            raise BadExponent(f"s must lie in (0, 1], got {self.s}")


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents p, q > 1 with 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 1.0 and self.q > 1.0):
            raise BadExponent(f"conjugate exponents must exceed 1, got p={self.p} q={self.q}")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12:
            raise BadExponent(f"1/p + 1/q must equal 1, got p={self.p} q={self.q}")


def make_holder_pair(q: float) -> HolderPair:
    """Build the conjugate pair from q alone (q > 1)."""
    if not q > 1.0:
        raise BadExponent(f"q must exceed 1, got {q}")
    return HolderPair(p=q / (q - 1.0), q=float(q))


@dataclass(frozen=True)
class PowerMeanQ:
    """Power-mean exponent q >= 1 (q = 1 is allowed, unlike a Holder pair)."""

    q: float

    def __post_init__(self):
        if not self.q >= 1.0:
            raise BadExponent(f"q must be >= 1, got {self.q}")
