"""The doubled equilateral triangle (pillow sphere) with exact coordinates.

A point is a face tag plus a reduced homogeneous integer triple (a, b, c):
entries >= 0, gcd(a, b, c) = 1, and the barycentric coordinates with
respect to the shared corner labels are (a, b, c)/(a+b+c).  So every point
has exactly one triple, and equality and hashing compare integers.  A
point is the named tuple (face, abc), and equals that plain tuple.  Points
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

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .balls import BallReal, sqrt_of_rational

FRONT = "front"
BACK = "back"

Coords = tuple[Fraction, Fraction, Fraction]
Triple = tuple[int, int, int]


class TilePoint(NamedTuple):
    """Point (a, b, c)/(a+b+c) on one face of the doubled triangle.

    `abc` is the reduced triple (entries >= 0, gcd 1, front face whenever
    an entry is 0); build points with `tile_point` (rational input) or
    `homogeneous_point` (integer triples), which keep these invariants.
    A named tuple, so that hashing and comparing points run in C, and a
    point equals the plain tuple (face, abc).  `coords` is the Fraction
    view of the same point, built on each read.

    The tuple order (face name, then abc) puts "back" before "front", so it
    is not the canonical order of measure atoms, which puts the front face
    first (`tile_order`); sort points by that, not by `sorted`.
    """

    face: str
    abc: Triple

    @property
    def coords(self) -> Coords:
        s = sum(self.abc)
        return tuple(Fraction(x, s) for x in self.abc)  # type: ignore[return-value]

    @property
    def on_boundary(self) -> bool:
        return 0 in self.abc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        a, b, c = self.coords
        return f"TilePoint({self.face}, {a}, {b}, {c})"


def homogeneous_point(face: str, a: int, b: int, c: int) -> TilePoint:
    """The point (a, b, c)/(a+b+c): entries are divided by their gcd, and a
    boundary point goes to the front face.

    Every chart output (`thurston._pullback`, `SubdivisionMap.eval`) is
    built here, so the common case is kept short: no division when the gcd
    is 1, and `tuple.__new__` in place of the named tuple's Python-level
    constructor."""
    g = gcd(a, b, c)
    if g == 0 or a < 0 or b < 0 or c < 0:
        raise ValueError("homogeneous coordinates must be nonnegative, not all 0")
    if not (a and b and c):
        face = FRONT
    if g != 1:
        a, b, c = a // g, b // g, c // g
    return tuple.__new__(TilePoint, (face, (a, b, c)))


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


def barycenter(points: tuple[TilePoint, ...] | list[TilePoint], face: str) -> TilePoint:
    """Barycenter sum_i (L/D_i) V_i of the triples V_i, with D_i = sum(V_i)
    and L = lcm(D_i), on `face`."""
    big = lcm(*(sum(p.abc) for p in points))
    ws = [(big // sum(p.abc), p.abc) for p in points]
    return homogeneous_point(face, *(sum(w * v[k] for w, v in ws) for k in range(3)))


def tile_order(points: Sequence[TilePoint]) -> list[int]:
    """The indices of the points front face first, then by barycentric
    coordinates: the canonical order of measure atoms.  Over the lcm L of
    the sums, (a, b, c)/(a+b+c) compares as the integers (a, b) L/(a+b+c),
    since c follows from a and b; the index breaks ties as a stable sort
    would."""
    big = lcm(*(sum(p.abc) for p in points))
    keyed = []
    for i, p in enumerate(points):
        a, b, c = p.abc
        s = big // (a + b + c)
        keyed.append((p.face != FRONT, a * s, b * s, i))
    keyed.sort()
    return [i for *_, i in keyed]


def dist2_tri_parts(p: TilePoint, q: TilePoint) -> tuple[int, int]:
    """Squared distance in the documented intrinsic stand-in metric, as
    integers (num, den), den > 0, not reduced.

    With D = sum(P) and E = sum(Q), u = E P - D Q is (D E)(p - q), and
    |sum u_i V_i|^2 = f(u) = -(u1 u2 + u1 u3 + u2 u3) on a unit equilateral
    triangle since sum(u) = 0: the distance within one face, or when
    either point is on the shared boundary.  Across faces it is the least
    over the images R of Q reflected across the edge opposite each corner
    k, which sends Q_k to -Q_k and adds Q_k to the other entries.  In
    E P - D R the k-th entry of u grows by 2t and the other two shrink by
    t, with t = D Q_k, so f grows by 3t (u_k + t) = 3 D E P_k Q_k, since
    sum(u) = 0 and u_k + t = E P_k.  All of it is integer arithmetic; the
    one division by (D E)^2 is the caller's.

    The three one-edge images suffice: a two-edge image is q turned by 120
    degrees about the corner the two edges share.  With t_p, t_q in
    [0, 60] the angles of p and q there from one of its edges, the turned
    image sits at angle 120 + t_p - t_q (or 120 + t_q - t_p) from p, and q
    reflected across that edge (or the other) at the same radius and angle
    t_p + t_q (or 120 - t_p - t_q), never more; so it is never farther.
    """
    P, Q = p.abc, q.abc
    d, e = sum(P), sum(Q)
    u1, u2, u3 = e * P[0] - d * Q[0], e * P[1] - d * Q[1], e * P[2] - d * Q[2]
    best = -(u1 * u2 + u1 * u3 + u2 * u3)
    if not (p.face == q.face or p.on_boundary or q.on_boundary):
        best += 3 * d * e * min(P[0] * Q[0], P[1] * Q[1], P[2] * Q[2])
    return best, (d * e) ** 2


def dist_tri(p: TilePoint, q: TilePoint, prec: int = 53) -> BallReal:
    """Certified distance ball (one square root of an exact rational)."""
    return sqrt_of_rational(*dist2_tri_parts(p, q), prec)
