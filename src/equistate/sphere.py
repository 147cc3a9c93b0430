"""The Riemann sphere as a computable metric space.

Points are exact Gaussian rationals plus an explicit point at infinity.
The chordal metric sigma is evaluated through one certified square root of
sigma^2, computed exactly as an integer pair (num, den), so sigma^2
comparisons are exact integer cross-multiplications.
`sphere_order` is the one canonical order of points, on integer keys.

The ideal-point enumeration is a bijection from the positive integers onto
Q(i): rationals are enumerated through the Calkin--Wilf tree (0 first,
then +/- pairs) and coordinate pairs through the Cantor pairing.  Anchor
selection walks it in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .balls import BallReal, sqrt_of_rational
from .dyadics import ZERO, sqrt_lower_numerator, sqrt_upper_numerator
from .gauss import GaussRat


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: finite Gaussian rational or infinity."""

    value: GaussRat | None  # None encodes the point at infinity

    @staticmethod
    def finite(re: Fraction | int, im: Fraction | int = 0) -> "SpherePoint":
        return SpherePoint(GaussRat.of(re, im))

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(None)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def as_gauss(self) -> GaussRat:
        if self.value is None:
            raise ValueError("point at infinity has no finite coordinates")
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "inf" if self.value is None else repr(self.value)


INF = SpherePoint.infinity()


def sphere_order(points: Sequence[SpherePoint]) -> list[int]:
    """The canonical order: the indices of the points by (re, im), infinity
    last.  Over the lcm L of the denominators, z = (x + y*i)/d compares as
    the integers (x L/d, y L/d); the index breaks ties as a stable sort
    would."""
    big = math.lcm(*(p.value.d for p in points if p.value is not None))
    keyed = []
    for i, p in enumerate(points):
        z = p.value
        if z is not None:
            s = big // z.d
            keyed.append((z.x * s, z.y * s, i))
    keyed.sort()
    return [i for *_, i in keyed] + [i for i, p in enumerate(points) if p.value is None]


@dataclass(frozen=True)
class PointBall:
    """Certified chordal disc: sigma(center, x) <= rad for the point x."""

    center: SpherePoint
    rad: Fraction

    def __post_init__(self) -> None:
        if self.rad < 0:
            raise ValueError("disc radius must be nonnegative")


# -- chordal metric ---------------------------------------------------


def chordal_sq_parts(z: SpherePoint, w: SpherePoint) -> tuple[int, int]:
    """sigma(z, w)^2 as integers (num, den), den > 0, not reduced: with
    z = (x1 + y1*i)/d1, w = (x2 + y2*i)/d2 and n = d^2 + x^2 + y^2, it is
    4((x1 d2 - x2 d1)^2 + (y1 d2 - y2 d1)^2) / (n1 n2), and 4 d1^2 / n1
    when w is infinity."""
    a, b = z.value, w.value
    if a is None:
        a, b = b, a
        if a is None:
            return 0, 1
    x1, y1, d1 = a.x, a.y, a.d
    n1 = d1 * d1 + x1 * x1 + y1 * y1
    if b is None:
        return 4 * d1 * d1, n1
    x2, y2, d2 = b.x, b.y, b.d
    ex, ey = x1 * d2 - x2 * d1, y1 * d2 - y2 * d1
    return 4 * (ex * ex + ey * ey), n1 * (d2 * d2 + x2 * x2 + y2 * y2)


def chordal(z: SpherePoint, w: SpherePoint, prec: int = 53) -> BallReal:
    """Ball containing sigma(z, w) with rad <= 2^-prec.

    Exact (rad 0) whenever sigma^2 is a perfect rational square, e.g.
    sigma(0, inf) = 2.
    """
    return sqrt_of_rational(*chordal_sq_parts(z, w), prec)


# -- enumeration of ideal points --------------------------------------


def _calkin_wilf(m: int) -> Fraction:
    """m-th positive rational in the breadth-first Calkin--Wilf order, m >= 1."""
    a, b = 1, 1
    for bit in bin(m)[3:]:  # walk from the root along m's binary digits
        if bit == "0":
            b = a + b
        else:
            a = a + b
    return Fraction(a, b)


def _rat_enumerate(i: int) -> Fraction:
    """Bijection from {1, 2, ...} onto Q with index 1 -> 0."""
    if i == 1:
        return ZERO
    half, odd = divmod(i, 2)
    q = _calkin_wilf(half)
    return -q if odd else q


def _cantor_unpair(k: int) -> tuple[int, int]:
    """The k-th pair (i, j = d + 2 - i), for k = d(d+1)/2 + i and 1 <= i <=
    d + 1: 8k - 7 = (2d+1)^2 + 8(i-1) is in [(2d+1)^2, (2d+3)^2), so
    isqrt(8k - 7) is 2d + 1 or 2d + 2, and it gives d exactly."""
    d = (math.isqrt(8 * k - 7) - 1) // 2
    i = k - d * (d + 1) // 2
    return i, d + 2 - i


def ideal_enumerate(k: int) -> SpherePoint:
    """k-th ideal point (k >= 1); k = 1 gives 0 + 0i."""
    if k < 1:
        raise ValueError("enumeration index must be >= 1")
    i, j = _cantor_unpair(k)
    return SpherePoint(GaussRat.of(_rat_enumerate(i), _rat_enumerate(j)))


def chordal_disc_radius(z: GaussRat, euclid_rad: Fraction, bits: int) -> Fraction:
    """Upper bound on sup {sigma(z, w) : |w - z| <= euclid_rad} (Euclidean).

    Tighter than the crude sigma <= 2|z - w| for large |z|, where the
    chordal metric contracts.  With r = euclid_rad, s <= |z| the floor of
    |z| at b = `bits` bits and m = max(0, s - r), it is
    sqrt(4 r^2 / ((1 + |z|^2)(1 + m^2))) rounded up at b bits, capped at 2.
    On the integers of z = (x + y*i)/d and r = rn/rd, with M = m rd 2^b, the
    radicand is 4 rn^2 d^2 4^b / ((d^2 + x^2 + y^2)(rd^2 4^b + M^2)).
    """
    rn, rd = euclid_rad.numerator, euclid_rad.denominator
    if rn == 0:
        return ZERO
    x, y, d = z.x, z.y, z.d
    n2, d2 = x * x + y * y, d * d
    M = sqrt_lower_numerator(n2, d2, bits) * rd - (rn << bits)
    if M < 0:
        M = 0
    u = sqrt_upper_numerator((rn * rn * d2) << (2 * bits + 2),
                             (d2 + n2) * ((rd * rd << (2 * bits)) + M * M), bits)
    if u >> (bits + 1):
        return Fraction(2)
    return Fraction(u, 1 << bits)
