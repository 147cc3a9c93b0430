"""Exact Gaussian-rational complex numbers (elements of Q(i))."""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .dyadics import format_rational, parse_rational
from .errors import ParseError


@dataclass(frozen=True, slots=True)
class GaussRat:
    """The point (x + y*i)/d of Q(i).

    (x, y, d) is the reduced triple: d > 0 and gcd(x, y, d) = 1, so every
    value has exactly one triple, and equality and hashing compare
    integers.  Build values with `GaussRat.of` (rational parts) or
    `gauss_ratio` (any integer triple), which keep these invariants.
    `re` and `im` are Fraction views of the same value.
    """

    x: int
    y: int
    d: int

    @staticmethod
    def of(re: Fraction | int, im: Fraction | int = 0) -> "GaussRat":
        # Over d = lcm of the reduced denominators no prime divides all
        # of x, y and d, so the triple is already reduced.
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        return GaussRat(re.numerator * (d // re.denominator),
                        im.numerator * (d // im.denominator), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    def __add__(self, other: "GaussRat") -> "GaussRat":
        d1, d2 = self.d, other.d
        return gauss_ratio(self.x * d2 + other.x * d1, self.y * d2 + other.y * d1, d1 * d2)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        d1, d2 = self.d, other.d
        return gauss_ratio(self.x * d2 - other.x * d1, self.y * d2 - other.y * d1, d1 * d2)

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.x, -self.y, self.d)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return gauss_ratio(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self.d * other.d)

    def abs2(self) -> Fraction:
        return Fraction(self.x * self.x + self.y * self.y, self.d * self.d)

    def inverse(self) -> "GaussRat":
        x, y = self.x, self.y
        if x == 0 and y == 0:
            raise ZeroDivisionError("inverse of 0")
        return gauss_ratio(self.d * x, -self.d * y, x * x + y * y)

    def __truediv__(self, other: "GaussRat") -> "GaussRat":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is.
        return complex(self.x / self.d, self.y / self.d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return format_gauss(self)


def gauss_ratio(x: int, y: int, d: int) -> GaussRat:
    """The point (x + y*i)/d for d != 0: the triple is divided by its gcd
    and its sign fixed so that d > 0."""
    if d == 0:
        raise ZeroDivisionError("Gaussian rational with denominator 0")
    g = gcd(x, y, d) if d > 0 else -gcd(x, y, d)
    return GaussRat(x // g, y // g, d // g)


def euclid_sq_parts(a: GaussRat, b: GaussRat) -> tuple[int, int]:
    """|a - b|^2 as integers (num, den), den > 0, not reduced:
    ((x1 d2 - x2 d1)^2 + (y1 d2 - y2 d1)^2) / (d1 d2)^2."""
    ex, ey = a.x * b.d - b.x * a.d, a.y * b.d - b.y * a.d
    return ex * ex + ey * ey, (a.d * b.d) ** 2


G_ZERO = GaussRat(0, 0, 1)
G_I = GaussRat(0, 1, 1)


def format_gauss(z: GaussRat) -> str:
    """Canonical "p/q+r/s*i" form (the sign of r rides on the numerator)."""
    return f"{format_rational(z.re)}+{format_rational(z.im)}*i"


_GAUSS_RE = _re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*(?P<im>[+-]?\d+(?:/\d+)?)"
    r"\s*\*?\s*i\s*$"
)


def parse_gauss(text: str) -> GaussRat:
    """Parse "p/q+r/s*i" (the imaginary numerator may carry its own sign);
    bare rationals and "i"/"-i" are accepted too."""
    t = text.strip()
    m = _GAUSS_RE.match(t)
    if m:
        im = parse_rational(m.group("im"))
        if m.group("sign") == "-":
            im = -im
        return GaussRat.of(parse_rational(m.group("re")), im)
    if t in ("i", "+i"):
        return G_I
    if t == "-i":
        return -G_I
    try:
        return GaussRat.of(Fraction(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a Gaussian rational: {text!r}") from exc
