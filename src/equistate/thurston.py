"""Subdivision-rule dynamics on the doubled equilateral triangle.

Two piecewise-affine branched coverings of the pillow sphere are encoded
as rule tables: a degree-6 barycentric rule (each face cuts into six
triangles through the medians) and a degree-8 rule (each face cuts into
eight triangles through the edge midpoints and two interior points on the
A-median).  A rule table lists, per face, the child triangles by vertex
label together with a 3-coloring of the vertex labels; the color of a
vertex is its image corner, each child sees all three colors, and the
face a child maps onto is forced by orientation, so the resulting map is
an orientation-preserving branched covering with postcritical set
{A, B, C}.  Everything downstream (tile complexes, flowers, measures of
maximal entropy, diameters) is exact rational arithmetic over the rule
table; no vertex degree or incidence count is ever hard-coded.

The map locates a point by scanning the level-1 charts in id order: each
chart row is an edge line of its tile, scaled to be positive on the
opposite vertex, so a point lies in the closed tile exactly when its
three row values are >= 0, and then those values are its chart image.
The first tile that holds it, the lowest id, gives its image.  The
preimages of a point are its pullbacks through the level-1 charts onto
its face, and the local degree of each is the number of charts that give
it.  Level-n tiles are pulled back through the level-1 charts, one
pullback per vertex and chart, and each tile's barycenter is built with
it, as the pullback of the barycenter of the tile it maps onto.  The
charts' pullback rows and chart rows are cached on the level-1 complex,
and so is the image of each barycenter built at level >= 2, which `eval`
reads before it locates.  `tile_complex`'s cache owns that complex, so
clearing that cache clears all three; a tile is a named tuple and holds
no cache.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import NamedTuple

from .balls import BallReal, sqrt_of_rational
from .errors import NotAVertex, PrecisionExhausted, RuleMismatch
from .measures import TRI, FiniteMeasure
from .trisphere import (BACK, FRONT, TilePoint, Triple, barycenter, dist2_tri_parts,
                        homogeneous_point, tile_order)

CORNERS = ("A", "B", "C")
# Tiles take about 1 KB each; capped as thermo caps preimage-tree leaves.
_MAX_TILES = 1 << 19


@dataclass(frozen=True)
class RuleTable:
    """Child triangles of one face; vertices are homogeneous integer
    triples, as in `trisphere` ((0, 1, 1) is the midpoint of BC)."""

    name: str
    degree: int
    vertices: dict[str, Triple]
    children: tuple[tuple[str, str, str], ...]
    colors: dict[str, str]

    def validate(self) -> None:
        if len(self.children) != self.degree:
            raise ValueError(f"{self.name}: {len(self.children)} children for "
                             f"degree {self.degree}")
        for tri in self.children:
            cols = {self.colors[v] for v in tri}
            if cols != set(CORNERS):
                raise ValueError(f"{self.name}: child {tri} misses a color")
            if _det3(*(self.vertices[v] for v in tri)) == 0:
                raise ValueError(f"{self.name}: degenerate child {tri}")
        total = sum(Fraction(abs(_det3(*vs)), sum(vs[0]) * sum(vs[1]) * sum(vs[2]))
                    for vs in ([self.vertices[v] for v in tri] for tri in self.children))
        if total != 1:
            raise ValueError(f"{self.name}: children do not tile the face")


def _cross(q, r):
    return (q[1] * r[2] - q[2] * r[1],
            q[2] * r[0] - q[0] * r[2],
            q[0] * r[1] - q[1] * r[0])


def _det3(p, q, r):
    """det(p, q, r); for barycentric rows, the signed area of (p, q, r)
    relative to the face (A, B, C)."""
    return sum(a * b for a, b in zip(p, _cross(q, r)))


# The corners A, B, C and the midpoints D, E, F of the opposite edges.
_EDGE_POINTS = {"A": (1, 0, 0), "B": (0, 1, 0), "C": (0, 0, 1),
                "D": (0, 1, 1), "E": (1, 0, 1), "F": (1, 1, 0)}

_G1 = RuleTable(
    name="g1",
    degree=6,
    vertices={**_EDGE_POINTS, "G": (1, 1, 1)},
    children=(
        ("A", "F", "G"), ("F", "B", "G"), ("B", "D", "G"),
        ("D", "C", "G"), ("C", "E", "G"), ("E", "A", "G"),
    ),
    colors={"A": "A", "B": "A", "C": "A", "D": "B", "E": "B", "F": "B", "G": "C"},
)

_G2 = RuleTable(
    name="g2",
    degree=8,
    vertices={**_EDGE_POINTS, "U": (2, 1, 1), "L": (2, 3, 3)},
    children=(
        ("A", "F", "U"), ("A", "U", "E"), ("F", "L", "U"), ("U", "L", "E"),
        ("F", "B", "L"), ("B", "D", "L"), ("D", "C", "L"), ("C", "E", "L"),
    ),
    colors={"A": "A", "B": "C", "C": "C", "D": "B",
            "E": "B", "F": "B", "U": "C", "L": "A"},
)

RULES = {"g1": _G1, "g2": _G2}
for _rule in RULES.values():
    _rule.validate()


def rule_degree(rule: str) -> int:
    return _get_rule(rule).degree


def _get_rule(rule: str) -> RuleTable:
    if rule not in RULES:
        raise RuleMismatch(f"unknown rule {rule!r}")
    return RULES[rule]


def _face_sign(face: str) -> int:
    return 1 if face == FRONT else -1


def _parity(colors: tuple[str, str, str]) -> int:
    """+1 if the color triple is an even permutation of (A, B, C)."""
    return 1 if colors in (("A", "B", "C"), ("B", "C", "A"), ("C", "A", "B")) else -1


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Tile(NamedTuple):
    """One closed triangle of the level-n cell structure.

    colors[j] names the corner the j-th vertex reaches under n map
    applications; target_face is the face the tile maps onto under them;
    parent_id is the level-(n-1) tile this tile maps onto; bary is the
    barycenter, built with the tile (see `tile_complex`).  A named tuple,
    as `TilePoint` is, so that a level's tiles are built by
    `tuple.__new__`; it holds no cache.
    """

    id: int
    face: str
    verts: tuple[TilePoint, TilePoint, TilePoint]
    colors: tuple[str, str, str]
    target_face: str
    parent_id: int | None
    bary: TilePoint

    @property
    def chart(self) -> tuple[Triple, Triple, Triple]:
        """Integer rows of the chart onto target_face, one per corner A, B, C.

        With V_j the vertex triples and D_j = sum(V_j), the row for the
        color of vertex j is sign(det V) D_j cross(V_{j+1}, V_{j+2}).  This
        is Cramer's rule for the weight of p on vertex j, times the positive
        scale |det V| sum(P) / (D_0 D_1 D_2), which a homogeneous image
        does not see; so nothing is divided.
        """
        v = [p.abc for p in self.verts]
        s = _sign(_det3(*v))
        rows = {c: tuple(s * sum(v[j]) * x for x in _cross(v[(j + 1) % 3], v[(j + 2) % 3]))
                for j, c in enumerate(self.colors)}
        return tuple(rows[c] for c in CORNERS)  # type: ignore[return-value]


def _pullback_rows(t: Tile) -> tuple[Triple, Triple, Triple]:
    """Rows of the integer matrix whose columns are (L/D_k) V_k, for V_k
    the vertex of t of color k (A, B, C), D_k = sum(V_k) and L = lcm(D_k)."""
    by_color = dict(zip(t.colors, t.verts))
    v = [by_color[k].abc for k in CORNERS]
    big = lcm(*(sum(x) for x in v))
    return tuple(zip(*(tuple(big // sum(x) * y for y in x) for x in v)))  # type: ignore


def _pullback(face: str, rows: tuple[Triple, Triple, Triple], q: TilePoint) -> TilePoint:
    """The point on `face` that a chart with pullback rows `rows` sends to
    q: sum_k Q_k (L/D_k) V_k, one integer mat-vec."""
    a, b, c = q.abc
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = rows
    return homogeneous_point(face, x0 * a + y0 * b + z0 * c,
                             x1 * a + y1 * b + z1 * c, x2 * a + y2 * b + z2 * c)


@dataclass
class TileComplex:
    rule: str
    level: int
    tiles: list[Tile]

    def __len__(self) -> int:
        return len(self.tiles)

    @cached_property
    def _incidence(self) -> dict[TilePoint, list[int]]:
        """Vertex -> ascending ids of the tiles that hold it."""
        index: dict[TilePoint, list[int]] = {}
        for t in self.tiles:
            for v in t.verts:
                index.setdefault(v, []).append(t.id)
        return index

    @cached_property
    def _pullbacks(self) -> list[tuple[Triple, Triple, Triple]]:
        """Per tile, in id order, its chart's pullback rows
        (`_pullback_rows`).  Meant for level 1, whose charts pull back
        every level and every preimage."""
        return [_pullback_rows(t) for t in self.tiles]

    @cached_property
    def _charts(self) -> tuple[dict[str, list[tuple]], list[tuple]]:
        """Each tile with its chart rows (`Tile.chart`), as (tile, row_A,
        row_B, row_C), per face and for all faces, in id order.  Meant for
        level 1, whose charts locate every point."""
        charts = [(t, *t.chart) for t in self.tiles]
        return {face: [x for x in charts if x[0].face == face] for face in (FRONT, BACK)}, charts

    @cached_property
    def _images(self) -> dict[TilePoint, TilePoint]:
        """Barycenter of each tile built at level >= 2 -> the barycenter of
        the tile it maps onto, filled by `tile_complex`.  Meant for level 1,
        whose charts pulled those barycenters back."""
        return {}


def _level_one_tiles(table: RuleTable) -> list[Tile]:
    tiles: list[Tile] = []
    for face in (FRONT, BACK):
        for tri in table.children:
            verts = tuple(homogeneous_point(face, *table.vertices[v]) for v in tri)
            colors = tuple(table.colors[v] for v in tri)
            orient = _sign(_det3(*(table.vertices[v] for v in tri)))
            target = FRONT if orient * _face_sign(face) * _parity(colors) == 1 else BACK
            tiles.append(Tile(len(tiles), face, verts, colors, target,
                              0 if target == FRONT else 1, barycenter(verts, face)))
    return tiles


@lru_cache(maxsize=None)
def tile_complex(rule: str, level: int) -> TileComplex:
    """The level-n cell structure, built by pulling level-(n-1) tiles back
    through the rule's twelve/sixteen level-one charts.

    Each chart pulls back every vertex of the tiles on its target face
    once, and each tile's barycenter: affine charts send barycenters to
    barycenters, so that of a pulled-back tile is the pullback of the
    barycenter of the tile it maps onto."""
    table = _get_rule(rule)
    if level < 0:
        raise ValueError("level must be >= 0")
    # 2 deg^level >= 2^(level+1), so the count is formed only below 2^(cap bits).
    if level + 1 >= _MAX_TILES.bit_length() or 2 * table.degree ** level > _MAX_TILES:
        raise PrecisionExhausted(f"the level-{level} {rule} complex of 2*{table.degree}^{level} "
                                 f"tiles exceeds the tile cap")
    if level == 0:
        corners = tuple(homogeneous_point(FRONT, *_EDGE_POINTS[k]) for k in CORNERS)
        return TileComplex(rule, 0, [Tile(i, face, corners, CORNERS, face, None,
                                          barycenter(corners, face))
                                     for i, face in enumerate((FRONT, BACK))])
    if level == 1:
        return TileComplex(rule, 1, _level_one_tiles(table))
    on_face: dict[str, list[Tile]] = {FRONT: [], BACK: []}
    for x in tile_complex(rule, level - 1).tiles:
        on_face[x.face].append(x)
    ones = tile_complex(rule, 1)
    images = ones._images
    new = tuple.__new__
    tiles: list[Tile] = []
    for u, rows in zip(ones.tiles, ones._pullbacks):
        face = u.face
        # Neighbours share vertices, so each is pulled back once.  The
        # tiles on one face hold no two vertices with the same triple.
        pulled: dict[Triple, TilePoint] = {}
        for x in on_face[u.target_face]:
            verts = []
            for v in x.verts:
                y = pulled.get(v.abc)
                if y is None:
                    y = pulled[v.abc] = _pullback(face, rows, v)
                verts.append(y)
            bary = _pullback(face, rows, x.bary)
            images[bary] = x.bary
            tiles.append(new(Tile, (len(tiles), face, tuple(verts), x.colors, x.target_face,
                                    x.id, bary)))
    return TileComplex(rule, level, tiles)


def _locate(ones: TileComplex, p: TilePoint) -> TilePoint:
    """Image of p: locate p in a level-1 tile of `ones` and apply its chart.

    The tiles are tried in id order (`TileComplex._charts`), each by its
    chart rows' values at p, up to the first negative one; the first tile
    where all three are >= 0 holds p, and those values are its image.  An
    interior point tries only the tiles on its face.  The lowest tile id
    that holds p wins; the charts agree on shared edges, so the tie-break
    never changes the value.
    """
    by_face, charts = ones._charts
    a, b, c = p.abc
    tries = charts if p.on_boundary else by_face[p.face]
    for t, (xa, ya, za), (xb, yb, zb), (xc, yc, zc) in tries:
        qa = xa * a + ya * b + za * c
        if qa < 0:
            continue
        qb = xb * a + yb * b + zb * c
        if qb < 0:
            continue
        qc = xc * a + yc * b + zc * c
        if qc >= 0:
            return homogeneous_point(t.target_face, qa, qb, qc)
    raise ValueError(f"point {p!r} not located in any level-1 tile")


@dataclass(frozen=True)
class SubdivisionMap:
    """The piecewise-affine branched covering defined by a rule table."""

    rule: str

    @property
    def degree(self) -> int:
        return rule_degree(self.rule)

    def __call__(self, p: TilePoint) -> TilePoint:
        return self.eval(p)

    def eval(self, p: TilePoint) -> TilePoint:
        """Image of p: the recorded image of a barycenter built at level
        >= 2 (`TileComplex._images`), else `_locate`'s.

        The two agree: such a barycenter is interior to its tile, so to the
        one level-1 tile u it was pulled back through, and u's chart undoes
        that pullback exactly.
        """
        ones = tile_complex(self.rule, 1)
        q = ones._images.get(p)
        return _locate(ones, p) if q is None else q

    def preimages(self, x: TilePoint) -> list[tuple[TilePoint, int]]:
        """All preimages of x with their local degrees, exactly.

        Each level-1 tile mapping onto x's face holds one preimage, its
        chart pullback, and holds y exactly when its chart pulls x back to
        y: each chart is a bijection of closed triangles, and the charts
        agree at shared points.  So the local degree at y is the number of
        those pullbacks that equal y.
        """
        ones = tile_complex(self.rule, 1)
        return list(Counter(_pullback(t.face, rows, x)
                            for t, rows in zip(ones.tiles, ones._pullbacks)
                            if t.target_face == x.face).items())


def vertex_image(rule: str, v: TilePoint) -> TilePoint:
    """Image of a complex vertex under one application of the map."""
    return SubdivisionMap(rule).eval(v)


def vertex_local_degree(rule: str, v: TilePoint) -> Fraction:
    """Local degree at a level-1 vertex, from incidence counts:
    (tiles at v in level 1) / (tiles at the image of v in level 0).  The
    image of a level-1 vertex is a corner, a level-0 vertex."""
    up = flower(tile_complex(rule, 1), v)
    down = flower(tile_complex(rule, 0), vertex_image(rule, v))
    return Fraction(len(up), len(down))


def mme_tile_measure(rule: str, n: int) -> FiniteMeasure:
    """Equal weight (2 deg^n)^-1 on every level-n tile barycenter.

    Affine charts send barycenters to barycenters, so the pushforward of
    this measure under the subdivision map is exactly the level-(n-1)
    measure: the strongest finite-level witness that these approximate
    the measure of maximal entropy.

    The atoms are the stored barycenters in `tile_order`, with nothing to
    merge: a barycenter lies in the interior of its own tile, and the
    tiles of one level have disjoint interiors, so no two coincide.
    """
    tiles = tile_complex(rule, n).tiles
    w = Fraction(1, len(tiles))
    points = [t.bary for t in tiles]
    return FiniteMeasure(TRI, tuple((points[i], w) for i in tile_order(points)))


def flower(c: TileComplex, v: TilePoint) -> set[int]:
    """Ids of the tiles of c whose closure contains the vertex v."""
    ids = c._incidence.get(v)
    if ids is None:
        raise NotAVertex(f"{v!r} is not a vertex of the level-{c.level} complex")
    return set(ids)


def flower_mass(rule: str, v: TilePoint, n: int) -> Fraction:
    """mme_tile_measure(rule, n) mass of the closed n-flower of v."""
    c = tile_complex(rule, n)
    ids = flower(c, v)
    return Fraction(len(ids), len(c.tiles))


def max_tile_diameter(c: TileComplex, prec: int = 40) -> BallReal:
    """Largest tile diameter (longest edge; tiles are flat triangles)."""
    bn, bd = 0, 1
    for t in c.tiles:
        for a, b in ((0, 1), (1, 2), (0, 2)):
            n, d = dist2_tri_parts(t.verts[a], t.verts[b])
            if n * bd > bn * d:
                bn, bd = n, d
    return sqrt_of_rational(bn, bd, prec)
