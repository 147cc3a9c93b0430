"""Independent checks of equistate outputs.

Nothing here calls the library's numerics.  Maps, potentials and points
come in as plain coefficient lists, Python callables and Fractions; the
checks recompute what the library claims with mpmath at 60 digits, with
exact Fraction arithmetic, or with scipy's HiGHS solver on float costs
from numpy formulas written out here.  Each check returns a list of
problems: an empty list means the output passed.

mpmath and scipy are imported lazily, so that the harness process does
not carry them while it is being measured.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

DPS = 60


def _mp():
    import mpmath

    mpmath.mp.dps = DPS
    return mpmath


def mpq(q: Fraction):
    """Fraction -> mpf, correctly rounded at the working precision."""
    mp = _mp()
    return mp.mpf(q.numerator) / q.denominator


def mpz(re: Fraction, im: Fraction):
    mp = _mp()
    return mp.mpc(mpq(re), mpq(im))


def chordal_mp(z, w):
    """Chordal distance 2|z-w| / sqrt((1+|z|^2)(1+|w|^2)) of finite points."""
    mp = _mp()
    return 2 * abs(z - w) / mp.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))


# -- preimage trees ----------------------------------------------------


def _preimages(num, den, y, sep):
    """Roots of num - y*den grouped into (root, multiplicity) pairs."""
    mp = _mp()
    deg = max(len(num), len(den)) - 1
    coeffs = []
    for k in range(deg + 1):
        a = num[k] if k < len(num) else 0
        b = den[k] if k < len(den) else 0
        coeffs.append(a - y * b)
    roots = mp.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=2 * DPS)
    groups: list[list] = []
    for r in roots:
        for g in groups:
            if abs(g[0] - r) < sep:
                g[1] += 1
                break
        else:
            groups.append([r, 1])
    return [(r, m) for r, m in groups]


def true_tree_leaves(num, den, anchor, depth, phi=None):
    """Leaves of the depth-level preimage tree of `anchor` under num/den.

    num, den: coefficient lists, lowest degree first (numbers or mpc).
    Returns (point, degree_product, phi_sum) triples, where phi_sum is
    S_depth phi along the leaf's orbit (the anchor itself excluded) when
    phi is given and 0 otherwise.
    """
    mp = _mp()
    sep = mp.mpf(10) ** (-DPS // 2)  # closer roots are one multiple root
    level = [(anchor, 1, mp.mpf(0))]
    for _ in range(depth):
        nxt = []
        for y, dprod, s in level:
            for z, mult in _preimages(num, den, y, sep):
                nxt.append((z, dprod * mult, s + (phi(z) if phi else 0)))
        level = nxt
    return level


def check_tree_atoms(atoms, atom_error: Fraction, leaves) -> list[str]:
    """Each stored atom lies within atom_error (chordal) of a distinct true
    leaf.  Leaves are sorted by real part and matched inside a real-part
    window around each atom, so no all-pairs search is made."""
    if len(atoms) != len(leaves):
        return [f"{len(atoms)} atoms for {len(leaves)} true leaves"]
    mp = _mp()
    err = mpq(atom_error)
    order = sorted(range(len(leaves)), key=lambda k: leaves[k][0].real)
    keys = [leaves[k][0].real for k in order]
    used = [False] * len(order)
    problems = []
    for idx, (re, im) in enumerate(atoms):
        z = mpz(re, im)
        # For small e, sigma(z, w) <= e means |z - w| is about
        # e (1 + |z|^2) / 2; the window is four times wider than that.
        half = err * (2 + 2 * abs(z) ** 2) + mp.mpf(10) ** (-DPS + 5)
        lo = bisect.bisect_left(keys, z.real - half)
        hi = bisect.bisect_right(keys, z.real + half)
        best = None
        for pos in range(lo, hi):
            if used[pos]:
                continue
            d = chordal_mp(z, leaves[order[pos]][0])
            if best is None or d < best[0]:
                best = (d, pos)
        if best is None or best[0] > err:
            problems.append(f"atom {idx} has no unused true leaf within atom_error")
            continue
        used[best[1]] = True
    return problems


def check_tree_weights(weights, leaves, degree: int, depth: int) -> list[str]:
    """Weights are degree_product / degree^depth, in sorted order, and sum
    to exactly 1."""
    expected = sorted(Fraction(d, degree ** depth) for _, d, _ in leaves)
    problems = []
    if sorted(weights) != expected:
        problems.append("weights differ from degree products / degree^depth")
    if sum(weights) != 1:
        problems.append(f"weights sum to {sum(weights)}, not 1")
    return problems


# -- transfer operator and pressure -----------------------------------


def transfer_sum(num, den, x, m, phi):
    """L_phi^m 1(x): sum over the true f^-m-preimages y of x, with local
    degrees, of exp(S_m phi(y))."""
    mp = _mp()
    leaves = true_tree_leaves(num, den, x, m, phi)
    return mp.fsum(d * mp.exp(s) for _, d, s in leaves)


def ball_contains(mid: Fraction, rad: Fraction, value) -> bool:
    return abs(mpq(mid) - value) <= mpq(rad)


# -- exact transport certificate ---------------------------------------


def check_lp_certificate(supplies, demands, cost, plan, u, v, value) -> list[str]:
    """Exact Fraction re-check of a transport optimum.

    plan maps (i, j) to a mass.  The plan must be feasible (nonnegative,
    exact marginals), the duals must price every arc nonnegatively, the
    plan may use only arcs of zero reduced cost, and the primal value must
    equal both the reported value and the dual value sum u.a + sum v.b.
    """
    n, m = len(supplies), len(demands)
    problems = []
    rows = [Fraction(0)] * n
    cols = [Fraction(0)] * m
    primal = Fraction(0)
    for (i, j), mass in plan.items():
        if mass < 0:
            problems.append(f"negative mass on arc {(i, j)}")
        rows[i] += mass
        cols[j] += mass
        primal += mass * cost[i][j]
        if cost[i][j] - u[i] - v[j] != 0:
            problems.append(f"plan uses arc {(i, j)} of nonzero reduced cost")
    if rows != list(supplies):
        problems.append("plan row sums differ from the supplies")
    if cols != list(demands):
        problems.append("plan column sums differ from the demands")
    for i in range(n):
        ui = u[i]
        row = cost[i]
        for j in range(m):
            if row[j] - ui - v[j] < 0:
                problems.append(f"negative reduced cost at {(i, j)}")
                break
    dual = sum(ui * a for ui, a in zip(u, supplies)) + sum(vj * b for vj, b in zip(v, demands))
    if primal != dual:
        problems.append(f"primal {primal} != dual {dual}")
    if primal != value:
        problems.append(f"primal {primal} != reported value {value}")
    return problems


def sphere_cost_matrix(xs, ys):
    """Float chordal costs between finite points given as complex numbers."""
    import numpy as np

    a = np.asarray(xs, dtype=complex)[:, None]
    b = np.asarray(ys, dtype=complex)[None, :]
    return 2 * np.abs(a - b) / np.sqrt((1 + np.abs(a) ** 2) * (1 + np.abs(b) ** 2))


_SQ3 = math.sqrt(3.0)
_CORNERS = ((0.0, _SQ3 / 2), (-0.5, 0.0), (0.5, 0.0))  # A, B, C of the unit triangle
_EDGES = ((1, 2), (2, 0), (0, 1))  # BC, CA, AB


def _planar(coords):
    a, b, c = (float(t) for t in coords)
    return (a * _CORNERS[0][0] + b * _CORNERS[1][0] + c * _CORNERS[2][0],
            a * _CORNERS[0][1] + b * _CORNERS[1][1] + c * _CORNERS[2][1])


def _reflect(p, edge):
    (ux, uy), (vx, vy) = _CORNERS[edge[0]], _CORNERS[edge[1]]
    dx, dy = vx - ux, vy - uy
    t = ((p[0] - ux) * dx + (p[1] - uy) * dy) / (dx * dx + dy * dy)
    fx, fy = ux + t * dx, uy + t * dy
    return (2 * fx - p[0], 2 * fy - p[1])


def pillow_distance(p, q) -> float:
    """The doubled-triangle metric, from planar geometry.

    p, q: (face, (a, b, c)).  Same face, or either point on the glued
    boundary: Euclidean distance in the unit equilateral triangle.  Across
    faces: the shortest of the unfoldings of q across one edge or across
    two distinct edges in turn.
    """
    (fp, cp), (fq, cq) = p, q
    pp, qq = _planar(cp), _planar(cq)
    on_boundary = any(t == 0 for t in cp) or any(t == 0 for t in cq)
    if fp == fq or on_boundary:
        return math.dist(pp, qq)
    images = []
    for e1 in _EDGES:
        once = _reflect(qq, e1)
        images.append(once)
        for e2 in _EDGES:
            if e2 != e1:
                images.append(_reflect(once, e2))
    return min(math.dist(pp, img) for img in images)


def linprog_value(supplies, demands, cost) -> float:
    """Float transport optimum from scipy's HiGHS on a float cost matrix."""
    import numpy as np
    from scipy.optimize import linprog

    n, m = len(supplies), len(demands)
    c = np.asarray(cost, dtype=float).reshape(n * m)
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.array([float(s) for s in supplies] + [float(d) for d in demands])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


# -- tile complexes -----------------------------------------------------


def _det3(p, q, r) -> Fraction:
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _vertex_key(face, coords):
    # Points on the glued boundary are one point whichever face names them.
    return ("front" if 0 in coords else face, tuple(coords))


def check_tile_complex(tiles, degree: int, level: int) -> list[str]:
    """tiles: (face, (v0, v1, v2)) with barycentric vertex triples.

    Checks the tile count 2 deg^n, the Euler characteristic V - E + F = 2
    of the sphere, with edges counted here from the vertex triples, and
    that the |signed areas| on each face sum to 1.
    """
    problems = []
    if len(tiles) != 2 * degree ** level:
        problems.append(f"{len(tiles)} tiles, expected {2 * degree ** level}")
    verts = set()
    edges = set()
    area = {"front": Fraction(0), "back": Fraction(0)}
    for face, tri in tiles:
        keys = [_vertex_key(face, v) for v in tri]
        verts.update(keys)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            edges.add(frozenset((keys[a], keys[b])))
        area[face] += abs(_det3(*tri))
    euler = len(verts) - len(edges) + len(tiles)
    if euler != 2:
        problems.append(f"V - E + F = {euler}, expected 2")
    for face, total in area.items():
        if total != 1:
            problems.append(f"areas on the {face} face sum to {total}")
    return problems


def check_tile_measure(atoms, tiles, degree: int, level: int) -> list[str]:
    """atoms: ((face, coords), weight).  Equal weight 1/(2 deg^n) on the
    barycenter of every tile, computed here from the vertex triples."""
    problems = []
    count = 2 * degree ** level
    if len(atoms) != count:
        problems.append(f"{len(atoms)} atoms, expected {count}")
    if any(w != Fraction(1, count) for _, w in atoms):
        problems.append(f"a weight differs from 1/{count}")
    centers = set()
    for face, tri in tiles:
        bc = tuple(sum(v[k] for v in tri) / 3 for k in range(3))
        centers.add(_vertex_key(face, bc))
    points = {_vertex_key(face, coords) for (face, coords), _ in atoms}
    if points != centers:
        problems.append("atom points differ from the tile barycenters")
    return problems
