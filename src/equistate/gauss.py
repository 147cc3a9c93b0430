"""Exact Gaussian-rational complex numbers (elements of Q(i))."""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .dyadics import ZERO, format_rational, round_to_dyadic
from .errors import ParseError


@dataclass(frozen=True)
class GaussRat:
    """a + b*i with exact rational a, b."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: Fraction | int, im: Fraction | int = 0) -> "GaussRat":
        return GaussRat(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRat":
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other: "GaussRat") -> "GaussRat":
        return self * other.inverse()

    def scale(self, q: Fraction | int) -> "GaussRat":
        q = Fraction(q)
        return GaussRat(self.re * q, self.im * q)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def round(self, bits: int) -> "GaussRat":
        return GaussRat(round_to_dyadic(self.re, bits), round_to_dyadic(self.im, bits))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return format_gauss(self)

    def sort_key(self) -> tuple:
        return (self.re, self.im)


G_ZERO = GaussRat(ZERO, ZERO)
G_ONE = GaussRat(Fraction(1), ZERO)
G_I = GaussRat(ZERO, Fraction(1))


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
        im = Fraction(m.group("im"))
        if m.group("sign") == "-":
            im = -im
        return GaussRat(Fraction(m.group("re")), im)
    if t in ("i", "+i"):
        return G_I
    if t == "-i":
        return -G_I
    try:
        return GaussRat(Fraction(t), ZERO)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a Gaussian rational: {text!r}") from exc
