"""The doubled equilateral triangle (pillow sphere) with exact coordinates.

Points carry a face tag and barycentric coordinates with respect to the
shared corner labels; points on the glued boundary canonicalize to the
front face so that either-face representations compare equal.

The metric: within one face, Euclidean distance for unit side length;
across faces, the minimum over one- and two-edge planar unfoldings.  The
squared distance is always an exact rational, so only one certified square
root is ever taken.  This is the documented bi-Lipschitz stand-in for the
geodesic metric; the discrepancy shows up only as slack in cross-face
Wasserstein bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .balls import BallReal, sqrt_of_rational
from .dyadics import ZERO

FRONT = "front"
BACK = "back"

Coords = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class TilePoint:
    """Barycentric point on one face of the doubled triangle."""

    face: str
    coords: Coords

    def __post_init__(self) -> None:
        if self.face not in (FRONT, BACK):
            raise ValueError("face must be 'front' or 'back'")
        a, b, c = self.coords
        if a < 0 or b < 0 or c < 0:
            raise ValueError("barycentric coordinates must be nonnegative")
        if a + b + c != 1:
            raise ValueError("barycentric coordinates must sum to 1")

    @property
    def on_boundary(self) -> bool:
        return ZERO in self.coords

    def sort_key(self) -> tuple:
        return (0 if self.face == FRONT else 1,) + self.coords

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        a, b, c = self.coords
        return f"TilePoint({self.face}, {a}, {b}, {c})"


def tile_point(face: str, a: Fraction | int, b: Fraction | int, c: Fraction | int) -> TilePoint:
    """Canonical constructor: boundary points always live on the front face."""
    coords = (Fraction(a), Fraction(b), Fraction(c))
    if ZERO in coords:
        face = FRONT
    return TilePoint(face, coords)


def barycenter(points: list[TilePoint]) -> TilePoint:
    faces = {p.face for p in points}
    if len(faces) != 1:
        raise ValueError("barycenter needs points on a single face")
    n = len(points)
    sums = [sum(p.coords[k] for p in points) for k in range(3)]
    return tile_point(points[0].face, *(s / n for s in sums))


def _quad_form(d: tuple[Fraction, Fraction, Fraction]) -> Fraction:
    """|sum d_i V_i|^2 for weights summing to 0 on a unit equilateral triangle."""
    d1, d2, d3 = d
    return -(d1 * d2 + d1 * d3 + d2 * d3)


# Reflections across the three edges, acting on generalized barycentric
# coordinates: the opposite corner maps to the sum of the other two minus
# itself, which keeps all entries rational.
def _reflect_bc(q: Coords) -> Coords:
    a, b, c = q
    return (-a, b + a, c + a)


def _reflect_ca(q: Coords) -> Coords:
    a, b, c = q
    return (a + b, -b, c + b)


def _reflect_ab(q: Coords) -> Coords:
    a, b, c = q
    return (a + c, b + c, -c)


_REFLECTIONS = (_reflect_bc, _reflect_ca, _reflect_ab)


def dist2_tri(p: TilePoint, q: TilePoint) -> Fraction:
    """Exact squared distance in the documented intrinsic stand-in metric."""
    diff = tuple(x - y for x, y in zip(p.coords, q.coords))
    direct = _quad_form(diff)
    if p.face == q.face or p.on_boundary or q.on_boundary:
        return direct
    best = None
    images = []
    for r1 in _REFLECTIONS:
        img1 = r1(q.coords)
        images.append(img1)
        for r2 in _REFLECTIONS:
            if r2 is not r1:
                images.append(r2(img1))
    for img in images:
        d = tuple(x - y for x, y in zip(p.coords, img))
        val = _quad_form(d)
        if best is None or val < best:
            best = val
    return best


def dist_tri(p: TilePoint, q: TilePoint, prec: int = 53) -> BallReal:
    """Certified distance ball (one square root of an exact rational)."""
    return sqrt_of_rational(dist2_tri(p, q), prec)


def tile_point_to_json(p: TilePoint):
    from .dyadics import format_rational

    return {"face": p.face, "coords": [format_rational(c) for c in p.coords]}


def tile_point_from_json(obj) -> TilePoint:
    return tile_point(obj["face"], *(Fraction(c) for c in obj["coords"]))
