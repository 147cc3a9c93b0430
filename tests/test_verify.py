import math
import random
from fractions import Fraction as F

import pytest

from equistate.balls import BallReal, DirectedReal, ball_sum, sqrt_of_rational
from equistate.errors import (
    NonPositiveJacobian,
    NotInjectiveOnPatch,
    NotInjectiveOnSupport,
    SpaceMismatch,
)
from equistate.measures import SPHERE, TRI, FiniteMeasure, TestFunction, squared_distance_parts
from equistate.polynomials import Polynomial
from equistate.potentials import basis, const, scale
from equistate.ratmap import RationalMapRec
from equistate.sphere import INF, SpherePoint
from equistate.thermo import backward_orbit_measure, pressure
from equistate.thurston import SubdivisionMap, mme_tile_measure
from equistate.trisphere import BACK, FRONT, tile_point
from equistate.verify import (
    BallPatch,
    JacobianSpec,
    PatchSystem,
    atomic_jacobian,
    enumerate_preimages,
    invariance_residual,
    jacobian_unitarity,
    membership_residual,
    membership_verdict,
    rokhlin_lower_bound,
    tangent_certificate,
)

S = SpherePoint.finite
Z2 = RationalMapRec(Polynomial.of(0, 0, 1), Polynomial.of(1))
Z2M2 = RationalMapRec(Polynomial.of(-2, 0, 1), Polynomial.of(1))
LOG2 = F(math.log(2)).limit_denominator(10**15)
# log 2 and log 6 truncated to 40 digits: within 1e-40 of the true values,
# far closer than any enclosure tested here (a float is not: log(2) as a
# double misses by 2e-17, outside a 2^-64 ball).
LOG2_40 = F("0.6931471805599453094172321214581765680755")
LOG6_40 = F("1.7917594692280550008124773583807022727229")


def _preimage_patches(f, x, radius=F(1, 4)):
    from equistate.ratmap import preimages

    return PatchSystem(SPHERE, [
        BallPatch(SPHERE, c.center.center, radius) for c in preimages(f, x, 40)
    ])


def _sphere_patches(anchors, radius):
    return PatchSystem(SPHERE, [BallPatch(SPHERE, a, radius) for a in anchors])


# -- jacobian unitarity ----------------------------------------------------


@pytest.mark.parametrize("slack, inside", [
    (F(1, 1 << 60), True), (F(0), False), (-F(1, 1 << 60), False)])
def test_contains_disc_is_exact_at_the_boundary(slack, inside):
    """d(0, 3/4) = 6/5 exactly; a disc of radius 1/8 there lies in the
    patch iff 6/5 + 1/8 < radius, also when they differ by 2^-60.
    Otherwise it touches or straddles the boundary."""
    r = F(1, 8)
    patch = BallPatch(SPHERE, S(0), F(6, 5) + r + slack)
    assert patch.locate(S(F(3, 4)), r) == (-1 if inside else 0)
    assert BallPatch(SPHERE, S(0), r).locate(S(0), r) == 0


@pytest.mark.parametrize("space, center, x, dist", [
    (SPHERE, S(0), S(F(3, 4)), F(6, 5)),
    (SPHERE, S(F(3, 4)), S(F(-3, 4)), F(48, 25)),
    (SPHERE, S(0), INF, F(2)),
    ("tri_sphere", tile_point(FRONT, 1, 0, 0), tile_point(FRONT, 0, 1, 0), F(1)),
])
@pytest.mark.parametrize("disc", [F(0), F(1, 8), F(1, 3)])
def test_locate_is_zero_at_exact_tangency(space, center, x, dist, disc):
    """At the rational distance dist, a disc that touches the patch from
    inside (radius dist + disc) or from outside (radius dist - disc) is
    neither inside nor outside; 2^-90 either way decides it, or makes a
    disc of radius > 0 straddle the boundary."""
    assert F(*squared_distance_parts(space)(center, x)) == dist * dist
    tiny = F(1, 1 << 90)
    for radius, nearer, farther in ((dist + disc, -1, 0 if disc else 1),
                                    (dist - disc, 0 if disc else -1, 1)):
        assert BallPatch(space, center, radius).locate(x, disc) == 0
        assert BallPatch(space, center, radius + tiny).locate(x, disc) == nearer
        assert BallPatch(space, center, radius - tiny).locate(x, disc) == farther


# -- patch decisions against the Fraction reference ---------------------------


def _fraction_verdicts(patch, x, r):
    """contains_point, and whether the disc around x lies inside the patch
    or outside it, as the Fraction comparisons of the squared distance
    decided them."""
    d2 = F(*squared_distance_parts(patch.space)(patch.center, x))
    gap, slack = patch.radius - r, patch.radius + r
    return (d2 < patch.radius * patch.radius, gap > 0 and d2 < gap * gap, d2 > slack * slack)


def _fraction_locate(patch, x, r):
    _, inside, outside = _fraction_verdicts(patch, x, r)
    return -1 if inside else 1 if outside else 0


def _sphere_patch_points(rng):
    # 0 to 3/4, -4/3 and 5i/12, and each of those to inf, are rational.
    pts = [INF, S(0), S(F(3, 4)), S(F(-4, 3)), S(0, F(5, 12)), S(1, -1)]
    pts += [S(F(rng.randint(-40, 40), rng.choice([1, 3, 1 << 70])),
              F(rng.randint(-40, 40), rng.choice([1, 7, 1 << 70]))) for _ in range(8)]
    return pts


def _tile_patch_points(rng):
    pts = [tile_point(face, *abc) for face in (FRONT, BACK) for abc in (
        (1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 2), 0), (F(1, 4), F(1, 4), F(1, 2)),
        (F(1, 3), F(1, 3), F(1, 3)))]
    for _ in range(8):
        a = F(rng.randint(0, 1 << 40), 1 << 40)
        b = (1 - a) * F(rng.randint(0, 12), 12)
        pts.append(tile_point(rng.choice([FRONT, BACK]), a, b, 1 - a - b))
    return pts


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("space, points", [(SPHERE, _sphere_patch_points),
                                           ("tri_sphere", _tile_patch_points)])
def test_patch_decisions_match_the_fraction_reference(space, points, seed):
    """Where dist(center, x) = s is rational, the patch radius also sits at
    s, s + r and s - r, so each strict test meets its exact boundary."""
    rng = random.Random(seed)
    pts = points(rng)
    for center in pts:
        for x in pts:
            mid = sqrt_of_rational(*squared_distance_parts(space)(center, x), 40).mid
            r = F(rng.randint(0, 8), rng.choice([8, 1 << 70]))
            for radius in {mid, mid + r, mid - r, F(rng.randint(1, 16), 8)}:
                if radius <= 0:
                    continue
                patch = BallPatch(space, center, radius)
                assert patch.contains_point(x) == _fraction_verdicts(patch, x, r)[0]
                assert patch.locate(x, r) == _fraction_locate(patch, x, r)


def test_patch_decisions_at_infinity_are_exact():
    """sigma(0, inf) = 2: the boundary is not inside."""
    patch = BallPatch(SPHERE, S(0), F(2))
    assert not patch.contains_point(INF)
    assert patch.locate(INF, F(0)) == 0
    assert BallPatch(SPHERE, S(0), F(2) - F(1, 1 << 80)).locate(INF, F(0)) == 1
    assert BallPatch(SPHERE, S(0), F(2) + F(1, 1 << 80)).locate(INF, F(0)) == -1


def test_unitarity_constant_two():
    """Only preimages inside a patch count: z^2 at x = 4 with one patch
    about the preimage 2 leaves |1/2 - 1|, a patch far from both leaves 1,
    and a g1 tile patch about one preimage with J = 6 leaves 5/6."""
    J, x = JacobianSpec.const(2), S(4)
    res = jacobian_unitarity(Z2, J, x, _preimage_patches(Z2, x))
    assert res.mid == 0 and res.rad == 0
    near, far = (PatchSystem(SPHERE, [BallPatch(SPHERE, S(c), F(1, 4))]) for c in (2, 9))
    assert jacobian_unitarity(Z2, J, x, near) == BallReal.exact(F(1, 2))
    assert jacobian_unitarity(Z2, J, x, far) == BallReal.exact(1)
    g1, bary = SubdivisionMap("g1"), tile_point(FRONT, F(1, 3), F(1, 3), F(1, 3))
    (y, _), *_ = g1.preimages(bary)
    tiles = PatchSystem(TRI, [BallPatch(TRI, y, F(1, 100))])
    assert jacobian_unitarity(g1, JacobianSpec.const(6), bary, tiles) == BallReal.exact(F(5, 6))


def test_unitarity_counts_preimages_on_a_patch_boundary_as_uncertain():
    """Under g1 the corner A has the preimages A, B and C, of local degree
    2 each.  B and C lie at the exact distance 1 from A, so the patch of
    radius 1 about A holds A and has B and C on its boundary: they add
    [0, 4/6], and with J = 6 the residual is |2/6 + [0, 4/6] - 1| =
    [0, 2/3].  2^-90 more or less radius decides them either way."""
    g1, corner = SubdivisionMap("g1"), tile_point(FRONT, 1, 0, 0)
    assert g1.preimages(corner) == [(tile_point(FRONT, *v), 2)
                                    for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    J, tiny = JacobianSpec.const(6), F(1, 1 << 90)
    for radius, want in ((F(1), BallReal.from_endpoints(F(0), F(2, 3))),
                         (1 + tiny, BallReal.exact(0)), (1 - tiny, BallReal.exact(F(2, 3)))):
        patches = PatchSystem(TRI, [BallPatch(TRI, corner, radius)])
        assert jacobian_unitarity(g1, J, corner, patches) == want


def test_unitarity_constant_three_off_by_third():
    res = jacobian_unitarity(Z2, JacobianSpec.const(3), S(1),
                             _preimage_patches(Z2, S(1)))
    assert res.contains(F(1, 3))


def _refuse_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("a preimage was enumerated")

    monkeypatch.setattr("equistate.verify.enumerate_preimages", refuse)


@pytest.mark.parametrize("prec", [-1, -20])
def test_unitarity_refuses_a_negative_prec(prec, monkeypatch):
    """A negative prec is refused, naming prec, before any preimage is
    enumerated: with a patch about the preimage 2 of 4 and with one that
    holds no preimage."""
    _refuse_enumeration(monkeypatch)
    for c in (2, 9):
        patches = PatchSystem(SPHERE, [BallPatch(SPHERE, S(c), F(1, 4))])
        with pytest.raises(ValueError, match=f"precision prec must be nonnegative, got {prec}"):
            jacobian_unitarity(Z2, JacobianSpec.const(2), S(4), patches, prec=prec)


def test_unitarity_point_off_the_patch_space_is_a_space_mismatch(monkeypatch):
    """The FRONT barycenter with a sphere patch, a sphere point with tile
    patches, and a tile patch in a sphere system are refused, naming both
    spaces, before any preimage is enumerated."""
    _refuse_enumeration(monkeypatch)
    bary = tile_point(FRONT, F(1, 3), F(1, 3), F(1, 3))
    sphere = PatchSystem(SPHERE, [BallPatch(SPHERE, S(0), F(1, 2))])
    tiles = PatchSystem(TRI, [BallPatch(TRI, bary, F(1, 8))])
    mixed = PatchSystem(SPHERE, [BallPatch(SPHERE, S(0), F(1, 2)), BallPatch(TRI, bary, F(1, 8))])
    for f, x, patches in ((SubdivisionMap("g1"), bary, sphere), (Z2, S(3), tiles),
                          (Z2, S(3), mixed)):
        with pytest.raises(SpaceMismatch, match=f"(?=.*{SPHERE})(?=.*{TRI})"):
            jacobian_unitarity(f, JacobianSpec.const(6), x, patches)


def test_membership_spaces_must_agree(monkeypatch):
    """A g1 tile measure with a sphere patch and a sphere hat, a sphere
    measure with a tile hat, and a tile patch in a sphere system are
    SpaceMismatches naming both spaces, raised before any preimage is
    enumerated."""
    _refuse_enumeration(monkeypatch)
    tiles = mme_tile_measure("g1", 1)
    sphere_mu = backward_orbit_measure(Z2, None, S(3), 1)
    bary = tile_point(FRONT, F(1, 3), F(1, 3), F(1, 3))
    sphere = PatchSystem(SPHERE, [BallPatch(SPHERE, S(0), F(1, 2))])
    mixed = PatchSystem(SPHERE, [BallPatch(SPHERE, S(0), F(1, 2)), BallPatch(TRI, bary, F(1, 8))])
    sphere_hat = TestFunction(SPHERE, S(0), F(0), F(1, 4))
    tile_hat = TestFunction(TRI, bary, F(0), F(1, 4))
    for mu, T, patches, hats in ((tiles, SubdivisionMap("g1"), sphere, [sphere_hat]),
                                 (sphere_mu, Z2, sphere, [sphere_hat, tile_hat]),
                                 (sphere_mu, Z2, mixed, [sphere_hat])):
        with pytest.raises(SpaceMismatch, match=f"(?=.*{SPHERE})(?=.*{TRI})"):
            membership_residual(mu, T, patches, JacobianSpec.const(2), hats)


def test_unitarity_random_regular_points():
    rng = random.Random(77)
    for f in (Z2, Z2M2):
        for _ in range(10):
            x = S(F(rng.randint(-9, 9), rng.randint(1, 5)),
                  F(rng.randint(-9, 9), rng.randint(1, 5)))
            res = jacobian_unitarity(f, JacobianSpec.const(2), x,
                                     _preimage_patches(f, x))
            assert res.upper() <= F(1, 1 << 20)


# -- atomic jacobians -------------------------------------------------------


def test_atomic_fixed_point():
    mu = FiniteMeasure.dirac(SPHERE, S(1))
    assert atomic_jacobian(mu, Z2) == {S(1): F(1)}


def test_atomic_uniform_cycle():
    # z^2 - 1: 0 <-> -1 two-cycle
    f = RationalMapRec(Polynomial.of(-1, 0, 1), Polynomial.of(1))
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(-1), F(1, 2))])
    assert atomic_jacobian(mu, f) == {S(0): F(1), S(-1): F(1)}


def test_atomic_weighted_cycle():
    f = RationalMapRec(Polynomial.of(-1, 0, 1), Polynomial.of(1))
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(2, 3)), (S(-1), F(1, 3))])
    aj = atomic_jacobian(mu, f)
    assert aj[S(0)] == F(1, 2) and aj[S(-1)] == F(2)


def test_atomic_rejects_collision():
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(1), F(1, 2)), (S(-1), F(1, 2))])
    with pytest.raises(NotInjectiveOnSupport):
        atomic_jacobian(mu, Z2)


# -- Rokhlin lower bound -----------------------------------------------------


def test_rokhlin_constant():
    mu = FiniteMeasure.dirac(SPHERE, S(1))
    r = rokhlin_lower_bound(mu, JacobianSpec.const(2))
    assert r.contains(LOG2_40)


def test_rokhlin_atomic_table():
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(-1), F(1, 2))])
    r = rokhlin_lower_bound(mu, {S(0): F(2), S(-1): F(2)})
    assert r.contains(LOG2_40)


def test_rokhlin_tile_measure_constant_six():
    mu = mme_tile_measure("g1", 3)
    r = rokhlin_lower_bound(mu, JacobianSpec.const(6))
    assert r.contains(LOG6_40)


@pytest.mark.parametrize("prec", [-1, -30])
@pytest.mark.parametrize("J", [JacobianSpec.const(2), {S(1): F(2)}], ids=["const", "table"])
def test_rokhlin_refuses_a_negative_prec(J, prec, monkeypatch):
    """A negative prec is refused, naming prec, before the probability
    check runs."""
    def unreachable(self):
        raise AssertionError("the probability check ran")

    monkeypatch.setattr(FiniteMeasure, "check_probability", unreachable)
    with pytest.raises(ValueError, match=f"precision prec must be nonnegative, got {prec}"):
        rokhlin_lower_bound(FiniteMeasure.dirac(SPHERE, S(1)), J, prec=prec)


def test_rokhlin_nonpositive_rejected():
    mu = FiniteMeasure.dirac(SPHERE, S(1))
    with pytest.raises(NonPositiveJacobian):
        rokhlin_lower_bound(mu, {S(1): F(0)})


def test_rokhlin_bounded_by_pressure():
    """h_mu <= h_top: the Rokhlin integral for the atomic Jacobian of an
    invariant atomic measure stays below the pressure upper bound."""
    f = RationalMapRec(Polynomial.of(-1, 0, 1), Polynomial.of(1))
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(-1), F(1, 2))])
    r = rokhlin_lower_bound(mu, atomic_jacobian(mu, f))
    p = pressure(f, const(0), 8, c0=F(1), R=F(0))
    assert r.lower() <= p.value.upper() + F(1, 1 << 8)


# -- the probability contract -------------------------------------------------


_HALF_AT_ZERO = FiniteMeasure(SPHERE, ((S(0), F(1, 2)),))


@pytest.mark.parametrize("check", [
    lambda mu: rokhlin_lower_bound(mu, JacobianSpec.const(2)),
    lambda mu: rokhlin_lower_bound(mu, {S(0): F(2)}),
    lambda mu: tangent_certificate(mu, const(0), _const_witnesses(LOG2, (F(0),)),
                                   DirectedReal((LOG2,), "lower")),
    lambda mu: membership_residual(mu, Z2, _preimage_patches(Z2, S(1), F(1, 2)),
                                   JacobianSpec.const(2),
                                   [TestFunction(SPHERE, S(0), F(0), F(1, 4))]),
], ids=["rokhlin_constant", "rokhlin_table", "tangent", "membership"])
def test_probability_checks_reject_other_totals(check):
    """Each of these is a statement about probability measures, so a total
    of 1/2 is a ValueError naming it.  The constant-Jacobian Rokhlin bound
    used to return log 2 here whatever the mass, while the table {0: 2}
    gave (log 2)/2."""
    with pytest.raises(ValueError, match="weights sum to 1/2, not 1"):
        check(_HALF_AT_ZERO)


# -- membership residuals -----------------------------------------------------


def test_membership_rejects_repelling_fixed_point():
    mu = FiniteMeasure.dirac(SPHERE, S(1))
    patches = _preimage_patches(Z2, S(1), F(1, 2))
    tests = [TestFunction(SPHERE, S(1), F(0), F(1, 4))]
    entries = membership_residual(mu, Z2, patches, JacobianSpec.const(2), tests)
    by_val = {e.patch: e.residual for e in entries}
    assert any(r.lower() >= F(1) - F(1, 1 << 10) for r in by_val.values())
    assert not membership_verdict(entries)


def test_membership_rejects_a_negative_mesh():
    """mesh is a transport bound: a negative one would turn the slack into
    a deficit and fail measures that the check accepts at mesh 0."""
    mu = FiniteMeasure.dirac(SPHERE, S(1))
    patches = _preimage_patches(Z2, S(1), F(1, 2))
    tests = [TestFunction(SPHERE, S(1), F(0), F(1, 4))]
    with pytest.raises(ValueError, match="mesh must be >= 0, not -1/10"):
        membership_residual(mu, Z2, patches, JacobianSpec.const(2), tests, mesh=F(-1, 10))


def test_membership_rejection_scales():
    """Rejection persists at every hat scale below the support separation."""
    mu = FiniteMeasure.dirac(SPHERE, S(1))
    patches = _preimage_patches(Z2, S(1), F(1, 2))
    for eps in (F(1, 4), F(1, 16), F(1, 64)):
        tests = [TestFunction(SPHERE, S(1), F(0), eps)]
        entries = membership_residual(mu, Z2, patches, JacobianSpec.const(2), tests)
        assert not membership_verdict(entries)


def test_membership_accepts_backward_orbit():
    """The depth-m backward measure passes hats within Lipschitz*mesh slack."""
    from equistate.measures import wasserstein

    depth = 6
    mu = backward_orbit_measure(Z2, None, S(3), depth)
    mu_next = backward_orbit_measure(Z2, None, S(3), depth + 1)
    mesh = wasserstein(mu, mu_next, 20).upper()
    patches = _sphere_patches([S(1), S(-1), S(0, 1), S(0, -1)], F(1, 3))
    tests = [TestFunction(SPHERE, S(1), F(0), F(1, 8)),
             TestFunction(SPHERE, S(0, 1), F(1, 16), F(1, 8))]
    entries = membership_residual(mu, Z2, patches, JacobianSpec.const(2), tests,
                                  mesh=mesh)
    assert membership_verdict(entries)


def test_membership_tile_measure_passes_within_refinement_mesh():
    """Exact tile measures with J = deg: the W side pulls back exactly to
    the next level's atoms, so residuals are bounded by J * Lip * the
    one-step transport bound (tile diameter)."""
    from equistate.thurston import max_tile_diameter, tile_complex

    mu = mme_tile_measure("g1", 3)
    g = SubdivisionMap("g1")
    ones = tile_complex("g1", 1)
    # Patch strictly inside one level-1 tile: injectivity is structural.
    t0 = ones.tiles[0]
    center = t0.bary
    patches = PatchSystem("tri_sphere", [BallPatch("tri_sphere", center, F(1, 8))])
    tests = [TestFunction("tri_sphere", center, F(1, 64), F(1, 32))]
    mesh = max_tile_diameter(tile_complex("g1", 3), 30).upper()
    entries = membership_residual(mu, g, patches, JacobianSpec.const(6), tests,
                                  mesh=mesh)
    assert membership_verdict(entries)


def _ref_membership_residual(mu, T, patches, J, tests, mesh=F(0), prec=40):
    """The residual loop as first written: tests outside the atoms, the
    patch tests recomputed for every test, the patch tests as Fraction
    comparisons and the terms as `BallReal` arithmetic."""
    entries = []
    sup_j = J.constant
    pre_cache = {a: enumerate_preimages(T, a, prec + 8) for a, _ in mu.atoms}
    for k, patch in enumerate(patches.patches):
        for t_idx, tau in enumerate(tests):
            v_terms, w_terms = [], []
            for a, w in mu.atoms:
                if _fraction_verdicts(patch, a, F(0))[0]:
                    v_terms.append((tau(a, prec) * BallReal.exact(J.constant)).scale(w))
                inside, ambiguous = [], []
                for p in pre_cache[a]:
                    where = _fraction_locate(patch, p.point, p.disc_rad)
                    if where == -1:
                        inside.append(tau(p.point, prec).widen(tau.lipschitz * p.disc_rad))
                    elif where == 0:
                        ambiguous.append(tau(p.point, prec).widen(tau.lipschitz * p.disc_rad))
                if len(inside) > 1:
                    raise NotInjectiveOnPatch(f"patch {k}")
                if inside or ambiguous:
                    hi = max(c.upper() for c in inside + ambiguous)
                    lo = max(c.lower() for c in inside) if inside else F(0)
                    w_terms.append(BallReal.from_endpoints(min(lo, hi), hi).scale(w))
            v = ball_sum(v_terms) if v_terms else BallReal.exact(0)
            wv = ball_sum(w_terms) if w_terms else BallReal.exact(0)
            slack = sup_j * tau.lipschitz * mesh + sup_j * tau.lipschitz * mu.atom_error * 2
            entries.append((k, t_idx, v - wv, slack))
    return entries


def _orbit_case():
    """A z^2-2 backward-orbit measure, whose preimages are certified discs
    of radius > 0, with patches and hats at its atoms and mesh > 0."""
    mu = backward_orbit_measure(Z2M2, None, S(3), 4)
    anchors = [p for p, _ in mu.atoms[:6]]
    patches = _sphere_patches(anchors, F(1, 2))
    tests = [TestFunction(SPHERE, p, F(0), eps) for p in anchors[:3]
             for eps in (F(1, 4), F(1, 16))]
    return mu, Z2M2, patches, JacobianSpec.const(2), tests, F(1, 64)


def _tile_case():
    """A level-2 tile measure (72 weights 1/72) under its subdivision map:
    every preimage is exact, so every disc has radius 0.  The patches lie
    inside level-1 tiles; one hat is centred on an atom, so its distances
    there are exact, and one has a width that is not dyadic."""
    from equistate.thurston import max_tile_diameter, tile_complex

    mu = mme_tile_measure("g1", 2)
    centers = [t.bary for t in tile_complex("g1", 1).tiles[:3]]
    patches = PatchSystem("tri_sphere", [BallPatch("tri_sphere", c, F(1, 8)) for c in centers])
    tests = [TestFunction("tri_sphere", centers[0], F(1, 64), F(1, 32)),
             TestFunction("tri_sphere", mu.atoms[5][0], F(0), F(1, 3))]
    mesh = max_tile_diameter(tile_complex("g1", 2), 30).upper()
    return mu, SubdivisionMap("g1"), patches, JacobianSpec.const(6), tests, mesh


def _boundary_case():
    """sigma(3/4, -3/4) = 48/25 exactly, so of the exact preimages +-3/4 of
    9/16 the patch about 3/4 of that radius holds 3/4 and has -3/4 on its
    boundary.  The hat at -3/4 takes its sup there, from the ambiguous
    preimage, and its inf from the inside one.  The weights are not
    dyadic."""
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(F(9, 16)), F(1, 3)), (S(4), F(2, 3))])
    patches = PatchSystem(SPHERE, [BallPatch(SPHERE, S(F(3, 4)), F(48, 25)),
                                   BallPatch(SPHERE, S(0), F(6, 5))])
    tests = [TestFunction(SPHERE, S(F(-3, 4)), F(0), F(1, 2)),
             TestFunction(SPHERE, S(F(3, 4)), F(1, 8), F(1, 3))]
    return mu, Z2, patches, JacobianSpec.const(2), tests, F(1, 5)


def _rescale_case():
    """The g1 preimages of the corner A are A, B and C, each of local
    degree 2; the patch of radius 1 about A holds A and has B and C on
    its boundary.  The hat about the midpoint of BC is higher at B and C,
    at the exact distance 1/2, than at A, at sqrt(3)/2, so the candidates'
    upper and lower ends come over different denominators."""
    corner = tile_point(FRONT, 1, 0, 0)
    mu = FiniteMeasure.dirac(TRI, corner)
    patches = PatchSystem(TRI, [BallPatch(TRI, corner, F(1))])
    tests = [TestFunction(TRI, tile_point(FRONT, 0, F(1, 2), F(1, 2)), F(0), F(3, 2))]
    return mu, SubdivisionMap("g1"), patches, JacobianSpec.const(6), tests, F(0)


def _not_injective_case():
    """The patch of radius 3/2 about 0 holds both preimages +-1/2 of 1/4."""
    mu = FiniteMeasure.dirac(SPHERE, S(F(1, 4)))
    patches = PatchSystem(SPHERE, [BallPatch(SPHERE, S(0), F(3, 2))])
    tests = [TestFunction(SPHERE, S(F(1, 2)), F(0), F(1, 4))]
    return mu, Z2, patches, JacobianSpec.const(2), tests, F(0)


def _entries_or_error(run):
    try:
        return run()
    except NotInjectiveOnPatch:
        return NotInjectiveOnPatch


@pytest.mark.parametrize("case, raises", [
    (_orbit_case, False),
    (_tile_case, False),
    (_boundary_case, False),
    (_rescale_case, False),
    (_not_injective_case, True),
], ids=["J0", "tile_measure", "preimage_on_boundary", "ends_over_two_denominators",
        "not_injective"])
def test_membership_entries_match_per_test_loop(case, raises):
    """The integer assembly gives the same Fractions as the `BallReal`
    reference, entry for entry, or raises where it does."""
    mu, T, patches, J, tests, mesh = case()
    got = _entries_or_error(lambda: [
        (e.patch, e.test, e.residual, e.slack)
        for e in membership_residual(mu, T, patches, J, tests, mesh=mesh)])
    assert got == _entries_or_error(
        lambda: _ref_membership_residual(mu, T, patches, J, tests, mesh))
    if raises:
        assert got is NotInjectiveOnPatch
    else:
        assert len(got) == len(patches.patches) * len(tests)
        assert membership_residual(mu, T, patches, J, []) == []


def test_membership_never_evaluates_the_map_at_atoms(monkeypatch):
    """J is a constant, so only the preimages of the atoms are needed: with
    the map's evaluation refused the entries are the reference loop's."""
    case = _orbit_case()
    want = _ref_membership_residual(*case)

    def refuse(f, p):
        raise AssertionError(f"the map was evaluated at {p!r}")

    monkeypatch.setattr(RationalMapRec, "__call__", refuse)
    got = [(e.patch, e.test, e.residual, e.slack) for e in membership_residual(*case)]
    assert got == want


def test_membership_reads_hats_only_through_their_integer_parts(monkeypatch):
    """The residual reads each hat as integer parts: on a depth-4 z^2
    measure no hat builds a ball."""
    mu = backward_orbit_measure(Z2, None, S(3), 4)
    patches = _sphere_patches([S(1), S(-1), S(0, 1), S(0, -1)], F(1, 3))
    tests = [TestFunction(SPHERE, S(1), F(0), F(1, 8)),
             TestFunction(SPHERE, S(0, 1), F(1, 16), F(1, 8))]
    calls = []
    call = TestFunction.__call__

    def recording(tau, *args):
        calls.append(args)
        return call(tau, *args)

    monkeypatch.setattr(TestFunction, "__call__", recording)
    entries = membership_residual(mu, Z2, patches, JacobianSpec.const(2), tests)
    assert len(entries) == 8 and not calls


def test_membership_entries_with_preimages_on_a_patch_boundary():
    """sigma(0, +-3/4) = 6/5 exactly, so the exact preimages +-3/4 of 9/16
    sit on the boundary of the patch: neither inside nor outside."""
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(F(9, 16)), F(1, 2)), (S(4), F(1, 2))])
    patches = PatchSystem(SPHERE, [BallPatch(SPHERE, S(0), F(6, 5)),
                                   BallPatch(SPHERE, S(2), F(1, 4))])
    tests = [TestFunction(SPHERE, S(F(-3, 4)), F(0), F(1, 2)),
             TestFunction(SPHERE, S(F(1, 2)), F(1, 8), F(1))]
    got = [(e.patch, e.test, e.residual, e.slack)
           for e in membership_residual(mu, Z2, patches, JacobianSpec.const(2), tests)]
    assert got == _ref_membership_residual(mu, Z2, patches, JacobianSpec.const(2), tests)


# -- tangent certificates -----------------------------------------------------


def _const_witnesses(p_of_zero: F, cs):
    return [(const(c), DirectedReal((p_of_zero + c,), "upper")) for c in cs]


def test_tangent_constant_witnesses_pass():
    nu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(1), F(1, 2))])
    wit = _const_witnesses(LOG2, (F(-1), F(0), F(1)))
    res = tangent_certificate(nu, const(0), wit, DirectedReal((LOG2,), "lower"))
    assert res.passed
    assert res.gap.contains(F(0))


def test_tangent_empty_witness_list_raises():
    nu = FiniteMeasure.dirac(SPHERE, S(1))
    with pytest.raises(ValueError, match="at least one witness"):
        tangent_certificate(nu, const(0), [], DirectedReal((LOG2,), "lower"))


def test_tangent_tautological_witness():
    nu = FiniteMeasure.dirac(SPHERE, S(1))
    phi = scale(F(1, 2), basis(S(0)))
    p_est = F(3, 2)  # any consistent pair works for the tautology
    wit = [(phi, DirectedReal((p_est,), "upper"))]
    res = tangent_certificate(nu, phi, wit, DirectedReal((p_est,), "lower"))
    assert res.passed


def test_tangent_failing_witness():
    """A strongly negative witness drives the infimum below the bound."""
    nu = FiniteMeasure.dirac(SPHERE, S(1))
    # psi = -4 * hat-like potential around 1: use -4 * sigma(., 1) which
    # vanishes at 1, so <nu, psi> = 0, and P(psi) <= log 2 (psi <= 0).
    psi = scale(F(-4), basis(S(1)))
    wit = [(psi, DirectedReal((LOG2 - 2,), "upper"))]  # upper bound far below
    res = tangent_certificate(nu, const(0), wit, DirectedReal((LOG2,), "lower"))
    assert not res.passed
    assert res.witness_index == 0
    assert res.gap.upper() < 0


def test_tangent_monotone_in_witness_family():
    nu = FiniteMeasure.dirac(SPHERE, S(1))
    good = _const_witnesses(LOG2, (F(0),))
    bad = [(scale(F(-4), basis(S(1))), DirectedReal((LOG2 - 2,), "upper"))]
    assert tangent_certificate(nu, const(0), good,
                               DirectedReal((LOG2,), "lower")).passed
    assert not tangent_certificate(nu, const(0), good + bad,
                                   DirectedReal((LOG2,), "lower")).passed


# -- invariance residuals ------------------------------------------------------


def test_invariance_fixed_dirac():
    res = invariance_residual(FiniteMeasure.dirac(SPHERE, S(1)), Z2)
    assert res.mid == 0


def test_invariance_symmetric_pair():
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(1), F(1, 2)), (S(-1), F(1, 2))])
    res = invariance_residual(mu, Z2)
    assert res.contains(F(1))


def test_invariance_tile_measures_exact_pushforward():
    """The pushforward is exactly the coarser tile measure, so the
    invariance residual equals the inter-level transport distance and is
    bounded by the coarser diameter."""
    from equistate.measures import wasserstein
    from equistate.thurston import max_tile_diameter, tile_complex

    for rule, n in (("g1", 2), ("g2", 2)):
        mu = mme_tile_measure(rule, n)
        res = invariance_residual(mu, SubdivisionMap(rule), 25)
        direct = wasserstein(mu, mme_tile_measure(rule, n - 1), 25)
        assert res.mid == direct.mid
        assert res.upper() <= max_tile_diameter(tile_complex(rule, n - 1), 30).upper()


def test_invariance_decreases_along_depth():
    vals = []
    for m in (2, 3, 4, 5):
        mu = backward_orbit_measure(Z2, None, S(3), m)
        vals.append(float(invariance_residual(mu, Z2, 20).upper()))
    assert vals[-1] < vals[0]


# -- preimage enumeration (subdivision maps) -----------------------------------


def test_enumerate_preimages_subdivision_degrees():
    g = SubdivisionMap("g1")
    interior = tile_point(FRONT, F(1, 3), F(1, 3), F(1, 3))
    pres = enumerate_preimages(g, interior)
    assert sum(p.local_degree for p in pres) == 6
    corner = tile_point(FRONT, 1, 0, 0)
    pres = enumerate_preimages(g, corner)
    assert sum(p.local_degree for p in pres) == 6
    assert sorted(p.local_degree for p in pres) == [2, 2, 2]


def test_tangent_nonconstant_potential_on_tile_measure_is_a_space_mismatch():
    nu = mme_tile_measure("g1", 1)
    wit = _const_witnesses(LOG2, (F(0),))
    with pytest.raises(SpaceMismatch, match="tri_sphere"):
        tangent_certificate(nu, basis(S(0)), wit, DirectedReal((LOG2,), "lower"))
    with pytest.raises(SpaceMismatch, match="tri_sphere"):
        tangent_certificate(nu, const(0), wit + [(basis(S(1)), DirectedReal((LOG2,), "upper"))],
                            DirectedReal((LOG2,), "lower"))
    assert tangent_certificate(nu, const(0), wit, DirectedReal((LOG2,), "lower")).passed
