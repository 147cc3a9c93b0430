"""The doubled equilateral triangle (pillow sphere) with exact coordinates.

A point is a face tag plus a reduced homogeneous integer triple (a, b, c):
entries >= 0, gcd(a, b, c) = 1, and the barycentric coordinates with
respect to the shared corner labels are (a, b, c)/(a+b+c).  So every point
has exactly one triple, and equality and hashing compare integers.  Points
on the glued boundary (some entry 0) canonicalize to the front face, so
that either-face representations compare equal.

The metric: within one face, Euclidean distance for unit side length;
across faces, the minimum over the three one-edge planar unfoldings.  The
squared distance is always an exact rational, so only one certified square
root is ever taken.  This is the documented bi-Lipschitz stand-in for the
geodesic metric; the discrepancy shows up only as slack in cross-face
Wasserstein bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .balls import BallReal, sqrt_of_rational

FRONT = "front"
BACK = "back"

Coords = tuple[Fraction, Fraction, Fraction]
Triple = tuple[int, int, int]


@dataclass(frozen=True)
class TilePoint:
    """Point (a, b, c)/(a+b+c) on one face of the doubled triangle.

    `abc` is the reduced triple (entries >= 0, gcd 1, front face whenever
    an entry is 0); build points with `tile_point` (rational input) or
    `homogeneous_point` (integer chart outputs), which keep these
    invariants.  `coords` is the cached Fraction view of the same point.
    """

    face: str
    abc: Triple

    @cached_property
    def coords(self) -> Coords:
        s = sum(self.abc)
        return tuple(Fraction(x, s) for x in self.abc)  # type: ignore[return-value]

    @property
    def on_boundary(self) -> bool:
        return 0 in self.abc

    def sort_key(self) -> tuple:
        return (0 if self.face == FRONT else 1,) + self.coords

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        a, b, c = self.coords
        return f"TilePoint({self.face}, {a}, {b}, {c})"


def homogeneous_point(face: str, a: int, b: int, c: int) -> TilePoint:
    """The point (a, b, c)/(a+b+c): entries are divided by their gcd, and a
    boundary point goes to the front face."""
    g = gcd(a, b, c)
    if g == 0 or a < 0 or b < 0 or c < 0:
        raise ValueError("homogeneous coordinates must be nonnegative, not all 0")
    if not (a and b and c):
        face = FRONT
    return TilePoint(face, (a // g, b // g, c // g))


def tile_point(face: str, a: Fraction | int, b: Fraction | int, c: Fraction | int) -> TilePoint:
    """Validating constructor for user and JSON input: nonnegative
    barycentric coordinates summing to exactly 1.  Denominators are cleared
    once, over their lcm; boundary points go to the front face."""
    if face not in (FRONT, BACK):
        raise ValueError("face must be 'front' or 'back'")
    coords = (Fraction(a), Fraction(b), Fraction(c))
    if min(coords) < 0:
        raise ValueError("barycentric coordinates must be nonnegative")
    if sum(coords) != 1:
        raise ValueError("barycentric coordinates must sum to 1")
    d = lcm(*(x.denominator for x in coords))
    return homogeneous_point(face, *(x.numerator * (d // x.denominator) for x in coords))


def barycenter(points: tuple[TilePoint, ...] | list[TilePoint],
               face: str | None = None) -> TilePoint:
    """Barycenter sum_i (L/D_i) V_i of the triples V_i, with D_i = sum(V_i)
    and L = lcm(D_i), on `face` (default: the points' common face)."""
    if face is None:
        faces = {p.face for p in points}
        if len(faces) != 1:
            raise ValueError("barycenter needs points on a single face")
        face = faces.pop()
    big = lcm(*(sum(p.abc) for p in points))
    ws = [(big // sum(p.abc), p.abc) for p in points]
    return homogeneous_point(face, *(sum(w * v[k] for w, v in ws) for k in range(3)))


def _reflect(q: Triple, k: int) -> Triple:
    """Reflection across the edge opposite corner k, on generalized
    barycentric coordinates: corner k maps to the sum of the other two
    minus itself.  The entries stay integers with the same sum."""
    x = q[k]
    return tuple(-x if i == k else y + x for i, y in enumerate(q))  # type: ignore[return-value]


def dist2_tri(p: TilePoint, q: TilePoint) -> Fraction:
    """Exact squared distance in the documented intrinsic stand-in metric.

    With D = sum(P) and E = sum(Q), e = E P - D R is (D E)(p - r) for each
    image R of Q, and |sum e_i V_i|^2 = -(e1 e2 + e1 e3 + e2 e3) on a unit
    equilateral triangle since sum(e) = 0.  The minimum is taken over
    integers; the one division by (D E)^2 comes last.

    Across faces the three one-edge images suffice: a two-edge image is q
    turned by 120 degrees about the corner the two edges share.  With t_p,
    t_q in [0, 60] the angles of p and q there from one of its edges, the
    turned image sits at angle 120 + t_p - t_q (or 120 + t_q - t_p) from
    p, and q reflected across that edge (or the other) at the same radius
    and angle t_p + t_q (or 120 - t_p - t_q), never more; so it is never
    farther.
    """
    P, Q = p.abc, q.abc
    d, e = sum(P), sum(Q)
    if p.face == q.face or p.on_boundary or q.on_boundary:
        images = (Q,)
    else:
        images = (_reflect(Q, 0), _reflect(Q, 1), _reflect(Q, 2))
    best = None
    for r in images:
        e1, e2, e3 = e * P[0] - d * r[0], e * P[1] - d * r[1], e * P[2] - d * r[2]
        val = -(e1 * e2 + e1 * e3 + e2 * e3)
        if best is None or val < best:
            best = val
    return Fraction(best, (d * e) ** 2)


def dist_tri(p: TilePoint, q: TilePoint, prec: int = 53) -> BallReal:
    """Certified distance ball (one square root of an exact rational)."""
    return sqrt_of_rational(dist2_tri(p, q), prec)
