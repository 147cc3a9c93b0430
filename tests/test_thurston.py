import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equistate import thurston, trisphere
from equistate.errors import NotAVertex
from equistate.measures import TRI, FiniteMeasure, pushforward, wasserstein
from equistate.serialize import measure_to_json, tile_complex_to_json
from equistate.thurston import (
    SubdivisionMap,
    Tile,
    flower,
    flower_mass,
    max_tile_diameter,
    mme_tile_measure,
    rule_degree,
    tile_complex,
    vertex_image,
    vertex_local_degree,
)
from equistate.trisphere import (
    BACK,
    FRONT,
    TilePoint,
    barycenter,
    dist2_tri_parts,
    homogeneous_point,
    tile_point,
)

A = tile_point(FRONT, 1, 0, 0)
B = tile_point(FRONT, 0, 1, 0)
C = tile_point(FRONT, 0, 0, 1)
CENTROID_F = tile_point(FRONT, F(1, 3), F(1, 3), F(1, 3))


def _dist2_tri(p, q):
    return F(*dist2_tri_parts(p, q))


def _vertices(c):
    return {v for t in c.tiles for v in t.verts}


def _image(t, p):
    """Chart image of p by one integer mat-vec, or None when p is not in
    the closed tile t: the per-tile test that location used to scan."""
    if p.face != t.face and not p.on_boundary:
        return None
    a, b, c = p.abc
    q = [ra * a + rb * b + rc * c for ra, rb, rc in t.chart]
    if min(q) < 0:
        return None
    return homogeneous_point(t.target_face, *q)


def _pullback(t, q):
    """The point of the tile t that its chart sends to q."""
    return thurston._pullback(t.face, thurston._pullback_rows(t), q)


def _edges(c):
    """Edge (as a frozen pair of canonical endpoints) -> incident tile ids."""
    edges = {}
    for t in c.tiles:
        for a, b in ((0, 1), (1, 2), (0, 2)):
            edges.setdefault(frozenset((t.verts[a], t.verts[b])), []).append(t.id)
    return edges


# -- tile points and the doubled-triangle metric --------------------------


def test_boundary_canonicalization():
    p = tile_point(BACK, 0, F(1, 2), F(1, 2))
    q = tile_point(FRONT, 0, F(1, 2), F(1, 2))
    assert p == q and p.face == FRONT


def test_interior_points_differ_across_faces():
    p = tile_point(FRONT, F(1, 3), F(1, 3), F(1, 3))
    q = tile_point(BACK, F(1, 3), F(1, 3), F(1, 3))
    assert p != q


def test_metric_same_face_euclidean():
    assert _dist2_tri(A, B) == 1
    assert _dist2_tri(A, A) == 0


def test_metric_cross_face_symmetric_positive():
    p = tile_point(FRONT, F(1, 2), F(1, 4), F(1, 4))
    q = tile_point(BACK, F(1, 6), F(1, 3), F(1, 2))
    assert _dist2_tri(p, q) == _dist2_tri(q, p)
    assert _dist2_tri(p, q) > 0


def test_metric_boundary_consistency():
    edge_pt = tile_point(FRONT, 0, F(1, 2), F(1, 2))
    p_back = tile_point(BACK, F(1, 4), F(1, 2), F(1, 4))
    direct = _dist2_tri(edge_pt, p_back)
    # The boundary point is the "same" from either face: distance within
    # the back chart applies.
    diff = tuple(x - y for x, y in zip(edge_pt.coords, p_back.coords))
    d1, d2, d3 = diff
    assert direct == -(d1 * d2 + d1 * d3 + d2 * d3)


# -- complexes -------------------------------------------------------------


def test_tile_counts():
    assert [len(tile_complex("g1", n)) for n in range(4)] == [2, 12, 72, 432]
    assert [len(tile_complex("g2", n)) for n in range(4)] == [2, 16, 128, 1024]


def test_parent_map_total_and_counts():
    for rule in ("g1", "g2"):
        deg = rule_degree(rule)
        c = tile_complex(rule, 2)
        parents: dict[int, int] = {}
        for t in c.tiles:
            assert t.parent_id is not None
            parents[t.parent_id] = parents.get(t.parent_id, 0) + 1
        assert all(v == deg for v in parents.values())
        assert len(parents) == len(tile_complex(rule, 1))


def test_orientation_consistency():
    """Tiles map onto their dynamical parents preserving the sphere's
    orientation: planar orientation * face sign is invariant."""
    from equistate.thurston import _det3, _face_sign, _parity

    for rule in ("g1", "g2"):
        for level in (1, 2):
            for t in tile_complex(rule, level).tiles:
                o = _det3(*(v.coords for v in t.verts))
                assert o != 0
                lhs = (1 if o > 0 else -1) * _face_sign(t.face)
                rhs = _parity(t.colors) * _face_sign(t.target_face)
                assert lhs == rhs


def test_eval_map_barycenters():
    for rule in ("g1", "g2"):
        g = SubdivisionMap(rule)
        c = tile_complex(rule, 1)
        below = tile_complex(rule, 0)
        for t in c.tiles:
            img = g.eval(t.bary)
            parent = below.tiles[t.parent_id]
            assert img == parent.bary


def test_eval_map_vertices_land_on_corners():
    for rule in ("g1", "g2"):
        g = SubdivisionMap(rule)
        for t in tile_complex(rule, 1).tiles:
            for v in t.verts:
                img = g.eval(v)
                assert img in (A, B, C)


def test_eval_map_edge_continuity():
    """Shared-edge midpoints evaluate identically from either tile."""
    for rule in ("g1", "g2"):
        g = SubdivisionMap(rule)
        c = tile_complex(rule, 1)
        for edge, ids in _edges(c).items():
            if len(ids) < 2:
                continue
            u, v = sorted(edge, key=lambda p: (p.face != FRONT, p.coords))
            for t_id in ids:
                t = c.tiles[t_id]
                mid = tile_point(t.face, *((a + b) / 2 for a, b in zip(u.coords, v.coords)))
                # evaluate through this tile's chart directly
                img = _image(t, mid)
                assert img is not None
                assert img == g.eval(mid)


@pytest.mark.parametrize("rule", ["g1", "g2"])
def test_preimages_round_trip(rule):
    """Every enumerated preimage maps back, local degrees sum to the
    degree, and each level-1 chart inverts its pullback."""
    g = SubdivisionMap(rule)
    c = tile_complex(rule, 2)
    points = _vertices(c) | {t.bary for t in c.tiles}
    for x in points:
        pres = g.preimages(x)
        assert all(g.eval(y) == x for y, _ in pres)
        assert sum(d for _, d in pres) == rule_degree(rule)
    for t in tile_complex(rule, 1).tiles:
        for q in points:
            if q.face == t.target_face or q.on_boundary:
                assert _image(t, _pullback(t, q)) == q


def test_rule_table_validate_raises_on_child_count():
    import dataclasses

    from equistate.thurston import RULES

    bad = dataclasses.replace(RULES["g1"], degree=7)
    with pytest.raises(ValueError):
        bad.validate()


def test_fixed_critical_points_exist():
    """Both rules have a fixed critical point, found from the complex."""
    for rule in ("g1", "g2"):
        c = tile_complex(rule, 1)
        found = False
        for v in _vertices(c):
            if vertex_image(rule, v) == v and vertex_local_degree(rule, v) >= 2:
                found = True
        assert found


def test_postcritical_set_is_corners():
    """Forward orbits of critical values stay in {A, B, C} and cover it."""
    for rule in ("g1", "g2"):
        c = tile_complex(rule, 1)
        post = set()
        for v in _vertices(c):
            if vertex_local_degree(rule, v) >= 2:
                img = vertex_image(rule, v)
                for _ in range(4):
                    post.add(img)
                    img = vertex_image(rule, img)
        assert post == {A, B, C}


# -- measures of maximal entropy -------------------------------------------


def test_mme_level0():
    mu = mme_tile_measure("g1", 0)
    assert len(mu) == 2
    assert all(w == F(1, 2) for _, w in mu.atoms)
    faces = {p.face for p, _ in mu.atoms}
    assert faces == {FRONT, BACK}


def test_mme_level1_weights():
    mu = mme_tile_measure("g1", 1)
    assert len(mu) == 12
    assert all(w == F(1, 12) for _, w in mu.atoms)
    mu2 = mme_tile_measure("g2", 2)
    assert len(mu2) == 128 and all(w == F(1, 128) for _, w in mu2.atoms)


def test_mme_exact_invariance():
    for rule, levels in (("g1", range(1, 5)), ("g2", range(1, 4))):
        g = SubdivisionMap(rule)
        for n in levels:
            assert pushforward(mme_tile_measure(rule, n), g).atoms \
                == mme_tile_measure(rule, n - 1).atoms


def test_mass_exactness():
    for rule in ("g1", "g2"):
        for n in range(4):
            assert mme_tile_measure(rule, n).total == 1


@pytest.mark.parametrize("rule", ["g1", "g2"])
def test_tile_measure_atoms_are_distinct_without_a_merge(rule):
    """One atom per tile, as `from_atoms` finds when it merges the same
    pairs: the invariant that lets `mme_tile_measure` skip the merge."""
    for n in range(5):
        tiles = tile_complex(rule, n).tiles
        mu = mme_tile_measure(rule, n)
        assert len(mu) == len(tiles)
        assert mu == FiniteMeasure.from_atoms(
            TRI, [(t.bary, F(1, len(tiles))) for t in tiles])


def test_tile_work_is_one_pullback_per_vertex_and_chart_and_one_per_tile(monkeypatch):
    """A cold `tile_complex("g2", 3)` builds each point once: the level-1
    vertices and barycenters from the rule table, then per chart each
    distinct vertex it pulls back, and one barycenter per tile.  The
    level-1 rows are built once per chart, and `mme_tile_measure` then
    builds no point and merges nothing.  Lazy barycenters or per-call rows
    would show."""
    counts = Counter()

    def counted(owner, name, wrap=lambda f: f):
        fn = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrap(wrapper))

    counted(thurston, "homogeneous_point")
    counted(trisphere, "homogeneous_point")
    counted(thurston, "_pullback_rows")
    counted(FiniteMeasure, "from_atoms", staticmethod)
    tile_complex.cache_clear()
    tile_complex("g2", 3)
    built = dict(counts)
    levels = [tile_complex("g2", n) for n in range(4)]
    ones = levels[1]
    vertex_pullbacks = sum(len({v.abc for x in levels[n - 1].tiles if x.face == u.target_face
                                for v in x.verts})
                           for n in (2, 3) for u in ones.tiles)
    assert vertex_pullbacks == 752  # of 3 * (128 + 1024) vertex occurrences
    # Level 1: three vertices and a barycenter per tile; level 0 is not built.
    assert built == {"homogeneous_point": 4 * 16 + vertex_pullbacks + 128 + 1024,
                     "_pullback_rows": 16}

    counts.clear()
    mu = mme_tile_measure("g2", 3)
    assert len(mu) == 1024 and not counts
    SubdivisionMap("g2").preimages(mu.atoms[0][0])  # eight charts, no new rows
    assert counts == {"homogeneous_point": 8}


# -- flowers ----------------------------------------------------------------


def test_flower_at_corner():
    ids = flower(tile_complex("g1", 1), A)
    assert len(ids) == 4  # two tiles per face at each corner


def test_flower_at_centroid():
    ids = flower(tile_complex("g1", 1), CENTROID_F)
    assert len(ids) == 6


def test_flower_not_a_vertex():
    with pytest.raises(NotAVertex):
        flower(tile_complex("g1", 1), tile_point(FRONT, F(1, 7), F(2, 7), F(4, 7)))


def test_flower_decay_geometric_law():
    for v in (A, B, C):
        deg_v = vertex_local_degree("g1", v)
        ratios = []
        for k in (1, 2, 3, 4):
            ratios.append(flower_mass("g1", v, k + 1) / flower_mass("g1", v, k))
        assert all(r == deg_v / F(6) for r in ratios)
        # incident-tile growth across levels matches the same ratio
        up = len(flower(tile_complex("g1", 2), v))
        down = len(flower(tile_complex("g1", 1), v))
        assert F(up, down * 6) == ratios[0]


# -- diameters and Cauchy property ------------------------------------------


def test_diameter_level0():
    d = max_tile_diameter(tile_complex("g1", 0), 30)
    assert d.mid == 1 and d.rad == 0


def test_diameters_strictly_decrease():
    for rule in ("g1", "g2"):
        prev = None
        for n in range(6 if rule == "g1" else 5):
            d = max_tile_diameter(tile_complex(rule, n), 40)
            if prev is not None:
                assert d.upper() < prev.lower() or d.mid < prev.mid
            prev = d


def test_wasserstein_cauchy_small_levels():
    """W(mme(n), mme(n+1)) <= max tile diameter at level n (transport each
    child barycenter to its geometric container's barycenter)."""
    from equistate.measures import transport_cost_of_pairing

    for rule in ("g1",):
        for n in (1, 2):
            mu_child = mme_tile_measure(rule, n + 1)
            mu_parent = mme_tile_measure(rule, n)
            fine = tile_complex(rule, n + 1)
            coarse = tile_complex(rule, n)
            child_atoms = {p: i for i, (p, _) in enumerate(mu_child.atoms)}
            parent_atoms = {p: i for i, (p, _) in enumerate(mu_parent.atoms)}
            plan = []
            w = F(1, len(fine.tiles))
            for t in fine.tiles:
                b = t.bary
                # The coarse tile that contains t is the one holding its barycenter.
                container = next(c for c in coarse.tiles if _image(c, b) is not None)
                src, dst = child_atoms[b], parent_atoms[container.bary]
                plan.append((src, dst, w))
            cost = transport_cost_of_pairing(mu_child, mu_parent, plan, 30)
            diam = max_tile_diameter(coarse, 30)
            assert cost.upper() <= diam.upper()
            if n == 1:  # the exact LP stays desk-sized at the first level
                w_exact = wasserstein(mu_child, mu_parent, 25)
                assert w_exact.lower() <= cost.upper()


# -- integer tiles against Fraction references ------------------------------
#
# The references below are the Fraction formulas the integer code replaced:
# the direct quadratic form plus nine reflected images for the metric, and
# Cramer's rule for the charts.


def _ref_quad(p, q):
    d1, d2, d3 = (x - y for x, y in zip(p, q))
    return -(d1 * d2 + d1 * d3 + d2 * d3)


def _ref_reflect_bc(q):
    a, b, c = q
    return (-a, b + a, c + a)


def _ref_reflect_ca(q):
    a, b, c = q
    return (a + b, -b, c + b)


def _ref_reflect_ab(q):
    a, b, c = q
    return (a + c, b + c, -c)


def _ref_dist2(p, q):
    if p.face == q.face or 0 in p.coords or 0 in q.coords:
        return _ref_quad(p.coords, q.coords)
    reflections = (_ref_reflect_bc, _ref_reflect_ca, _ref_reflect_ab)
    images = []
    for r1 in reflections:
        images.append(r1(q.coords))
        images += [r2(r1(q.coords)) for r2 in reflections if r2 is not r1]
    assert len(images) == 9
    return min(_ref_quad(p.coords, img) for img in images)


_points = st.builds(
    lambda face, abc: tile_point(face, *(F(x, sum(abc)) for x in abc)),
    st.sampled_from((FRONT, BACK)),
    st.tuples(*[st.integers(0, 40)] * 3).filter(any))
_interior = _points.filter(lambda p: not p.on_boundary)
_boundary = _points.filter(lambda p: p.on_boundary)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_points, _boundary), st.one_of(_points, _boundary))
def test_dist2_tri_matches_fraction_reference(p, q):
    assert _dist2_tri(p, q) == _ref_dist2(p, q) == _dist2_tri(q, p)


@settings(max_examples=100, deadline=None)
@given(_interior, _interior)
def test_dist2_tri_cross_face_matches_fraction_reference(p, q):
    q = tile_point(BACK if p.face == FRONT else FRONT, *q.coords)
    assert _dist2_tri(p, q) == _ref_dist2(p, q) > 0


def test_dist2_tri_cross_face_grid_matches_fraction_reference():
    """Every pair of interior points with triples in 1..4, on opposite
    faces: the three one-edge images give the nine-image minimum."""
    pts = [tile_point(FRONT, *(F(x, a + b + c) for x in (a, b, c)))
           for a in range(1, 5) for b in range(1, 5) for c in range(1, 5)]
    pts = list({p.abc: p for p in pts}.values())
    for p in pts:
        for q in pts:
            q = tile_point(BACK, *q.coords)
            assert _dist2_tri(p, q) == _ref_dist2(p, q)


def _ref_det(p, q, r):
    return (p[0] * (q[1] * r[2] - q[2] * r[1]) - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _ref_weights(t, p):
    """Barycentric weights of p on t's vertices by Cramer's rule."""
    v = [x.coords for x in t.verts]
    d = _ref_det(*v)
    return [_ref_det(*(p.coords if k == j else v[k] for k in range(3))) / d
            for j in range(3)]


@pytest.mark.parametrize("rule, level", [("g1", 1), ("g1", 2), ("g2", 1), ("g2", 2)])
def test_chart_and_pullback_match_cramer(rule, level):
    rng = random.Random(f"{rule}{level}")
    tiles = tile_complex(rule, level).tiles
    for t in tiles:
        by_color = dict(zip(t.colors, t.verts))
        for _ in range(3):
            ws = [F(rng.randint(1, 50)) for _ in range(3)]
            ws = [w / sum(ws) for w in ws]
            p = tile_point(t.face, *(sum(w * v.coords[k] for w, v in zip(ws, t.verts))
                                     for k in range(3)))
            assert _ref_weights(t, p) == ws
            img = _image(t, p)
            expected = dict(zip(t.colors, ws))
            assert img == tile_point(t.target_face, *(expected[k] for k in "ABC"))
            assert _pullback(t, img) == p
            assert _pullback(t, img).coords == tuple(
                sum(img.coords[i] * by_color[k].coords[j] for i, k in enumerate("ABC"))
                for j in range(3))
            # Any other tile of the level holds p only on its boundary.
            other = tiles[(t.id + 1) % len(tiles)]
            holds = _image(other, p) is not None
            assert holds == ((p.face == other.face or p.on_boundary)
                             and min(_ref_weights(other, p)) >= 0)


def test_a_tile_point_is_the_tuple_of_face_and_triple():
    p = tile_point(BACK, F(1, 2), F(1, 3), F(1, 6))
    assert p == (BACK, (3, 2, 1)) and hash(p) == hash((BACK, (3, 2, 1)))
    assert p.coords == (F(1, 2), F(1, 3), F(1, 6)) and not p.on_boundary
    assert {p: 1}[(BACK, (3, 2, 1))] == 1
    assert type(homogeneous_point(BACK, 6, 4, 2)) is TilePoint
    assert homogeneous_point(BACK, 6, 4, 2) == p


def test_canonical_triples_equal_and_hash_alike():
    u = tile_complex("g2", 1).tiles[0]  # (A, F, U), colors (A, B, C)
    from_chart = _pullback(u, C)
    from_input = tile_point(FRONT, F(2, 4), F(1, 4), F(1, 4))
    assert from_chart == from_input and hash(from_chart) == hash(from_input)
    assert from_input.abc == (2, 1, 1) and from_input.coords == (F(1, 2), F(1, 4), F(1, 4))
    assert homogeneous_point(FRONT, 6, 3, 3) == from_input != homogeneous_point(BACK, 6, 3, 3)
    assert homogeneous_point(BACK, 0, 4, 4) == tile_point(BACK, 0, F(1, 2), F(1, 2))
    for rule in ("g1", "g2"):
        for v in _vertices(tile_complex(rule, 2)):
            assert gcd(*v.abc) == 1 and min(v.abc) >= 0
            assert v == tile_point(v.face, *v.coords)
            if v.on_boundary:
                assert v.face == FRONT


@pytest.mark.parametrize("args", [
    (FRONT, F(-1, 2), 1, F(1, 2)), (FRONT, F(1, 2), F(1, 2), F(1, 2)),
    ("side", F(1, 3), F(1, 3), F(1, 3)), ("side", 0, F(1, 2), F(1, 2)),
])
def test_tile_point_rejects_invalid_input(args):
    with pytest.raises(ValueError):
        tile_point(*args)


@pytest.mark.parametrize("abc", [(0, 0, 0), (-1, 1, 1)])
def test_homogeneous_point_rejects_invalid_triples(abc):
    with pytest.raises(ValueError):
        homogeneous_point(FRONT, *abc)


def test_barycenters_agree_with_fraction_means():
    for t in tile_complex("g2", 2).tiles:
        mean = [sum(v.coords[k] for v in t.verts) / 3 for k in range(3)]
        assert t.bary == tile_point(t.face, *mean)
    pts = [tile_point(BACK, F(1, 3), F(1, 3), F(1, 3)),
           tile_point(BACK, F(1, 2), F(1, 4), F(1, 4))]
    assert barycenter(pts, BACK) == tile_point(BACK, F(5, 12), F(7, 24), F(7, 24))


# SHA-256 of the level-3 tile complex and tile measure JSON, recorded with
# the Fraction implementation of the charts, pullbacks and barycenters.
_GOLDEN = {
    "g1": "454e1465c7a8fa684a1b9159f5e56ab0d1f9ec3a43c238e91ecab5c4481368eb",
    "g2": "d246751e8a290d86fbbe92644cd4cfcf91ad059427ae553bcf9251f1818e71e2",
}


@pytest.mark.parametrize("rule", ["g1", "g2"])
def test_level3_json_matches_golden_hash(rule):
    obj = {"tiles": tile_complex_to_json(tile_complex(rule, 3)),
           "mme": measure_to_json(mme_tile_measure(rule, 3))}
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN[rule]


# -- point location, the pullback build and its caches ------------------------


def _reference_locate(rule, p):
    """(tile id, image) by the id-order scan: each level-1 tile in turn,
    one chart mat-vec per try."""
    for t in tile_complex(rule, 1).tiles:
        img = _image(t, p)
        if img is not None:
            return t.id, img
    raise AssertionError(f"{p!r} is in no level-1 tile")


def _reference_preimages(rule, x):
    """Preimages with local degrees counted by chart images."""
    matching = [t for t in tile_complex(rule, 1).tiles if t.target_face == x.face]
    ys = []
    for t in matching:
        y = _pullback(t, x)
        if y not in ys:
            ys.append(y)
    return [(y, sum(1 for t in matching if _image(t, y) is not None)) for y in ys]


def _location_points(rule):
    """Every level-2 vertex, edge midpoint and barycenter, and seeded
    rational points inside both faces and on the glued boundary."""
    c = tile_complex(rule, 2)
    points = set(_vertices(c))
    for t in c.tiles:
        points.add(t.bary)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            points.add(barycenter([t.verts[a], t.verts[b]], t.face))
    rng = random.Random(f"locate-{rule}")
    for _ in range(300):
        abc = [rng.randint(0, 40) for _ in range(3)]
        if rng.random() < 0.3:
            abc[rng.randrange(3)] = 0
        if any(abc):
            points.add(homogeneous_point(rng.choice((FRONT, BACK)), *abc))
    return sorted(points, key=lambda p: (p.face, p.abc))


@pytest.mark.parametrize("rule", ["g1", "g2"])
def test_sign_location_matches_id_order_scan(rule):
    g = SubdivisionMap(rule)
    points = _location_points(rule)
    assert sum(p.on_boundary for p in points) > 50
    assert {p.face for p in points if not p.on_boundary} == {FRONT, BACK}
    for p in points:
        assert g.eval(p) == _reference_locate(rule, p)[1]
        assert g.preimages(p) == _reference_preimages(rule, p)


def _reference_tiles(rule, prev):
    """The tiles of the next level after `prev`, one pullback per vertex
    occurrence, and each barycenter from the tile's own vertices."""
    tiles = []
    for u in tile_complex(rule, 1).tiles:
        for x in prev:
            if x.face == u.target_face:
                verts = tuple(_pullback(u, v) for v in x.verts)
                tiles.append(Tile(len(tiles), u.face, verts, x.colors, x.target_face, x.id,
                                  barycenter(verts, u.face)))
    return tiles


@pytest.mark.parametrize("rule", ["g1", "g2"])
def test_tile_layer_matches_reference_build(rule):
    g = SubdivisionMap(rule)
    ref = None
    for n in range(5):
        c = tile_complex(rule, n)
        # Levels 0 and 1 come straight from the rule table.
        ref = c.tiles if n <= 1 else _reference_tiles(rule, ref)
        assert c.tiles == ref
        mu = mme_tile_measure(rule, n)
        ref_mu = FiniteMeasure.from_atoms(
            TRI, [(barycenter(t.verts, t.face), F(1, len(ref))) for t in ref])
        assert mu.atoms == ref_mu.atoms
        if n:
            pushed = pushforward(ref_mu, lambda p: _reference_locate(rule, p)[1])
            assert pushforward(mu, g).atoms == pushed.atoms
        if n <= 2:
            for v in _vertices(c):
                assert sorted(flower(c, v)) == [t.id for t in ref if v in t.verts]


# SHA-256 of the result JSON of two CLI calls, recorded before location by
# sign tests, vertex pullbacks once per chart and barycenters by pullback.
_CLI_GOLDEN = {
    ("tiles", "g2"): ("tiles_g2_level3_result.json",
                      "93b8087b9b4759e3ce768fb93533893af36b97e2295aa334e8d3751e3f7ea6c8"),
    ("mme", "g1"): ("mme_g1_level3_result.json",
                    "a33215d961fc64344be36bb55125a3303fdea0bf7cd03a51c38e1128feeb828b"),
}


@pytest.mark.parametrize("command, rule", sorted(_CLI_GOLDEN))
def test_level3_cli_json_matches_golden_hash(command, rule, tmp_path):
    from equistate.cli import main

    assert main([command, "--rule", rule, "--level", "3", "--out", str(tmp_path)]) == 0
    name, digest = _CLI_GOLDEN[command, rule]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 over the g1 and g2 tile measures at levels 0-4 and their
# pushforwards, the level-4 complexes' JSON, and the preimages of every
# level-2 vertex and barycenter; recorded before tiles became named tuples
# that carry their barycenter.
_LEVEL4_PIN = "0afa4bb03807aed47ea1b3bb8ec713d4ea7aac8e4a1e087d3fbd480d24e5ffc1"


def test_tile_measures_pushforwards_and_preimages_match_level4_pin():
    h = hashlib.sha256()

    def feed(*parts):
        h.update(repr(parts).encode())

    for rule in ("g1", "g2"):
        g = SubdivisionMap(rule)
        for n in range(5):
            mu = mme_tile_measure(rule, n)
            for name, nu in (("mme", mu), ("push", pushforward(mu, g))):
                feed(rule, n, name, [(p.face, p.abc, str(w)) for p, w in nu.atoms])
        feed(json.dumps(tile_complex_to_json(tile_complex(rule, 4)), sort_keys=True))
        c = tile_complex(rule, 2)
        for x in sorted(_vertices(c) | {t.bary for t in c.tiles}):
            feed(x, g.preimages(x))
    assert h.hexdigest() == _LEVEL4_PIN


def test_tile_caches_do_not_outlive_cache_clear():
    """The pullback rows, chart rows and vertex index live on the level-1
    complex that tile_complex's cache owns, and a tile, a named tuple,
    holds no cache: a cleared cache rebuilds them all from new objects, as
    a first call in a new process does."""
    g = SubdivisionMap("g2")
    p = tile_point(BACK, F(1, 5), F(2, 5), F(2, 5))
    image, preimages = g.eval(p), g.preimages(p)
    old_ones, old_two = tile_complex("g2", 1), tile_complex("g2", 2)
    flower(old_ones, A)
    caches = {"_pullbacks", "_charts", "_incidence"}
    assert caches <= vars(old_ones).keys()
    assert not any(hasattr(t, "__dict__") for t in old_ones.tiles + old_two.tiles)

    tile_complex.cache_clear()
    assert tile_complex.cache_info().currsize == 0
    ones = tile_complex("g2", 1)
    assert ones is not old_ones and not caches & vars(ones).keys()
    two = tile_complex("g2", 2)  # pulls back through the new complex's rows
    assert two is not old_two and two.tiles == old_two.tiles
    assert caches & vars(ones).keys() == {"_pullbacks"}
    assert ones._pullbacks is not old_ones._pullbacks
    assert ones._pullbacks == old_ones._pullbacks
    assert vars(g) == {"rule": "g2"}  # the map itself holds no cache

    assert g.eval(p) == image and g.preimages(p) == preimages
    assert "_charts" in vars(ones)  # built by eval, on the new complex
    _, charts = ones._charts
    assert all(x[0] is t for x, t in zip(charts, ones.tiles))

    # No other cache in the module survives the clear.
    def holds_tiles(obj):
        if isinstance(obj, (Tile, thurston.TileComplex)):
            return True
        if isinstance(obj, dict):
            obj = obj.values()
        return isinstance(obj, (list, tuple, set, type({}.values()))) and any(map(holds_tiles, obj))

    assert not any(holds_tiles(obj) for obj in vars(thurston).values())
    assert [name for name, obj in vars(thurston).items() if hasattr(obj, "cache_info")] \
        == ["tile_complex"]


def test_recorded_barycenter_images_are_the_located_images(monkeypatch):
    """`eval` answers a barycenter built at level >= 2 from the image the
    tile build recorded, without locating it, so criterion 7 (pushforward
    of mu_n = mu_(n-1)) re-reads the build; this checks every recorded
    image against the located one, over criterion 7's levels.  The table
    holds exactly those barycenters, one per tile, and a cleared cache
    drops it."""
    locate, located = thurston._locate, []
    monkeypatch.setattr(thurston, "_locate", lambda ones, p: located.append(p) or locate(ones, p))
    tile_complex.cache_clear()
    for rule, top in (("g1", 5), ("g2", 4)):
        tile_complex(rule, top)
        ones = tile_complex(rule, 1)
        images = ones._images
        levels = [tile_complex(rule, n).tiles for n in range(2, top + 1)]
        assert len(images) == sum(map(len, levels))
        assert images.keys() == {t.bary for tiles in levels for t in tiles}
        for p, q in images.items():
            assert locate(ones, p) == q
        g = SubdivisionMap(rule)
        assert [g.eval(p) for p in images] == list(images.values()) and not located
    tile_complex.cache_clear()
    assert tile_complex("g1", 1)._images == {} == tile_complex("g2", 1)._images
    tile_complex.cache_clear()


def _eval_digest_points():
    """Seeded points on both faces; per rule, the vertices of levels
    0-4 (g1) or 0-3 (g2), a seeded point on each tile edge, and the
    barycenters of level 5 (g1) or 4 (g2)."""
    rng = random.Random(20261021)
    points = []
    for face in (FRONT, BACK):
        for _ in range(300):
            a, b, c = (rng.randint(0, 10 ** rng.randint(1, 12)) for _ in range(3))
            if a + b + c:
                points.append(homogeneous_point(face, a, b, c))
    per_rule = {}
    for rule, top, fresh in (("g1", 4, 5), ("g2", 3, 4)):
        pts = []
        for n in range(top + 1):
            for t in tile_complex(rule, n).tiles:
                pts += t.verts
                for i in range(3):
                    p, q = t.verts[i].abc, t.verts[(i + 1) % 3].abc
                    sp, sq, k = sum(p), sum(q), rng.randint(1, 7)
                    pts.append(homogeneous_point(
                        t.face, *(x * sq + k * y * sp for x, y in zip(p, q))))
        per_rule[rule] = pts + [t.bary for t in tile_complex(rule, fresh).tiles]
    return points, per_rule


def _eval_digest(points, per_rule):
    h = hashlib.sha256()
    for rule in ("g1", "g2"):
        g = SubdivisionMap(rule)
        for p in points + per_rule[rule]:
            q = g.eval(p)
            h.update(f"{rule}|{p.face}{p.abc}->{q.face}{q.abc};".encode())
    return h.hexdigest()


# SHA-256 over `eval` of `_eval_digest_points`, recorded before `eval`
# read recorded barycenter images.
_EVAL_PIN = "54bf9942e662d4c66fb8b2ef9ee195699e803a4a4e628df34e7fb27f79b1d2cf"


def test_eval_matches_pin_with_and_without_recorded_images():
    points, per_rule = _eval_digest_points()
    tile_complex.cache_clear()  # the fresh levels' barycenters are located
    assert _eval_digest(points, per_rule) == _EVAL_PIN
    tile_complex("g1", 5), tile_complex("g2", 4)  # now they are looked up
    assert _eval_digest(points, per_rule) == _EVAL_PIN
    tile_complex.cache_clear()
