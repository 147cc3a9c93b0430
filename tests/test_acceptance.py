"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Expensive backward-orbit measures are computed once per session and shared.
Every tolerance is pinned here, in the test, at the stated value.
"""

import math
import time
from fractions import Fraction as F
from itertools import permutations

import pytest

from equistate.balls import log_point
from equistate.measures import (
    SPHERE,
    FiniteMeasure,
    TestFunction,
    transport_cost_of_pairing,
    wasserstein_detail,
)
from equistate.polynomials import Polynomial
from equistate.potentials import basis, const, holder_bound, pprod, psum, scale
from equistate.ratmap import RationalMapRec, preimages
from equistate.sphere import SpherePoint, chordal, ideal_enumerate
from equistate.thermo import backward_orbit_measure, pressure
from equistate.thurston import (
    SubdivisionMap,
    flower,
    flower_mass,
    mme_tile_measure,
    tile_complex,
    vertex_local_degree,
)
from equistate.trisphere import FRONT, tile_point
from equistate.verify import (
    BallPatch,
    JacobianSpec,
    PatchSystem,
    jacobian_unitarity,
    membership_residual,
    membership_verdict,
    rokhlin_lower_bound,
)

S = SpherePoint.finite
Z2 = RationalMapRec(Polynomial.of(0, 0, 1), Polynomial.of(1))
Z2M2 = RationalMapRec(Polynomial.of(-2, 0, 1), Polynomial.of(1))

# log 2 enclosed far tighter than any tolerance used below
LOG2_BALL = log_point(F(2), 60)


@pytest.fixture(scope="module")
def mu10_z2():
    return backward_orbit_measure(Z2, None, S(3), 10)


@pytest.fixture(scope="module")
def mu11_z2():
    return backward_orbit_measure(Z2, None, S(3), 11)


def _contains_log2(ball) -> bool:
    return ball.lower() <= LOG2_BALL.lower() and LOG2_BALL.upper() <= ball.upper()


def test_criterion_1_pressure_exactness():
    """pressure(z^2, 0, n=8) and pressure(z^2-2, 0, n=8) enclose log 2
    with radius <= 2^-8."""
    t0 = time.time()
    for f, name in ((Z2, "z^2"), (Z2M2, "z^2-2")):
        res = pressure(f, const(0), 8, c0=F(1), R=F(0))
        assert res.value.rad <= F(1, 1 << 8)
        assert _contains_log2(res.value)
        assert time.time() - t0 <= 60
    print("\nPASS criterion 1: pressure(z^2,0) and pressure(z^2-2,0) enclose "
          f"log 2 at radius <= 2^-8  [{time.time()-t0:.1f}s]")


def test_criterion_2_pressure_shift():
    """pressure(z^2, c) - pressure(z^2, 0) encloses c for three constants."""
    t0 = time.time()
    base = pressure(Z2, const(0), 8, c0=F(1), R=F(0))
    for c in (F(-1), F(1, 2), F(1)):
        shifted = pressure(Z2, const(c), 8, c0=F(1), R=F(0))
        assert (shifted.value - base.value).contains(c)
    assert time.time() - t0 <= 60
    print(f"PASS criterion 2: pressure shift encloses c for c in "
          f"{{-1, 1/2, 1}}  [{time.time()-t0:.1f}s]")


def test_criterion_3_brolin_lyubich_circle():
    """W between the depth-12 backward measure of z^2 (anchor 3) and the
    4096-point uniform unit-circle oracle is at most 0.05.

    Certified chain: the stored atoms sit within atom_error (chordal) of
    the true solutions of z^4096 = 3, which are 3^(1/4096) e^(2 pi i k/4096);
    pairing by angle against the roots of unity costs at most
    2*(3^(1/4096) - 1) <= 2^-10 per unit mass, checked by the exact
    inequality (1 + 2^-11)^4096 >= 3.
    """
    t0 = time.time()
    mu = backward_orbit_measure(Z2, None, S(3), 12)
    assert len(mu) == 4096
    assert all(w == F(1, 4096) for _, w in mu.atoms)
    # exact radial bound: r = 3^(1/4096) satisfies r - 1 <= 2^-11
    assert (1 + F(1, 1 << 11)) ** 4096 >= 3
    radial = 2 * F(1, 1 << 11)  # sigma(p_k, u_k) <= 2|p_k - u_k| = 2(r-1)
    bound = mu.atom_error + radial
    assert bound <= F(5, 100)
    # sanity: atoms hug the unit circle
    worst = max(abs(p.as_gauss().abs2() - 1) for p, _ in mu.atoms)
    assert worst < F(1, 100)
    elapsed = time.time() - t0
    assert elapsed <= 300
    print(f"PASS criterion 3: W(depth-12 z^2 orbit, 4096-circle) <= "
          f"{float(bound):.3g} <= 0.05  [{elapsed:.1f}s]")


def test_criterion_4_chebyshev_arcsine():
    """Depth-12 backward measure of z^2-2, projected to [-2, 2], matches
    the arcsine law F(t) = arccos(-t/2)/pi within Kolmogorov 0.05."""
    t0 = time.time()
    mu = backward_orbit_measure(Z2M2, None, S(3), 12)
    xs = sorted(float(p.as_gauss().re) for p, _ in mu.atoms)
    n = len(xs)
    assert n == 4096

    def cdf(t: float) -> float:
        return math.acos(max(-1.0, min(1.0, -t / 2))) / math.pi

    ks = 0.0
    for i, t in enumerate(xs):
        ks = max(ks, abs((i + 1) / n - cdf(t)), abs(i / n - cdf(t)))
    assert ks <= 0.05
    elapsed = time.time() - t0
    assert elapsed <= 300
    print(f"PASS criterion 4: Kolmogorov distance {ks:.5f} <= 0.05 to the "
          f"arcsine law  [{elapsed:.1f}s]")


def test_criterion_5_jacobian_unitarity():
    """Residual <= 2^-20 at 50 random regular Gaussian-rational points with
    J = deg f, for z^2 and z^2-2."""
    import random

    t0 = time.time()
    rng = random.Random(20250809)
    for f in (Z2, Z2M2):
        count = 0
        while count < 25:
            x = S(F(rng.randint(-12, 12), rng.randint(1, 6)),
                  F(rng.randint(-12, 12), rng.randint(1, 6)))
            pre = preimages(f, x, 40)
            patches = PatchSystem(SPHERE, [
                BallPatch(SPHERE, c.center.center, F(1, 4)) for c in pre
            ])
            res = jacobian_unitarity(f, JacobianSpec.const(2), x, patches)
            assert res.upper() <= F(1, 1 << 20), (f, x)
            count += 1
    elapsed = time.time() - t0
    assert elapsed <= 60
    print(f"PASS criterion 5: unitarity residual <= 2^-20 at 50 random "
          f"regular points (z^2 and z^2-2)  [{elapsed:.1f}s]")


def test_criterion_6_membership(mu10_z2, mu11_z2):
    """Rejection: delta at the repelling fixed point 1 of z^2 fails with
    residual >= 1 - tol.  Acceptance: the depth-10 backward measure passes
    all hat tests within Lipschitz * mesh slack, mesh being a certified
    transport bound between the depth-10 and depth-11 measures."""
    t0 = time.time()
    tol = F(1, 1 << 10)
    # -- rejection
    delta1 = FiniteMeasure.dirac(SPHERE, S(1))
    patches1 = PatchSystem(SPHERE, [BallPatch(SPHERE, S(1), F(1, 2)),
                                    BallPatch(SPHERE, S(-1), F(1, 2))])
    hat1 = TestFunction(SPHERE, S(1), F(0), F(1, 4))
    entries = membership_residual(delta1, Z2, patches1, JacobianSpec.const(2),
                                  [hat1])
    assert any(e.residual.lower() >= 1 - tol for e in entries)
    assert not membership_verdict(entries, tol)

    # -- acceptance within Lipschitz * mesh
    mesh = _angle_pairing_bound(mu11_z2, mu10_z2)
    patches = PatchSystem(SPHERE, [
        BallPatch(SPHERE, S(1), F(1, 3)), BallPatch(SPHERE, S(-1), F(1, 3)),
        BallPatch(SPHERE, S(0, 1), F(1, 3)), BallPatch(SPHERE, S(0, -1), F(1, 3)),
    ])
    assert patches.validate_injectivity(Z2)
    tests = [
        TestFunction(SPHERE, S(1), F(0), F(1, 8)),
        TestFunction(SPHERE, S(0, 1), F(1, 16), F(1, 8)),
        TestFunction(SPHERE, S(-1), F(0), F(1, 4)),
    ]
    entries = membership_residual(mu10_z2, Z2, patches, JacobianSpec.const(2),
                                  tests, mesh=mesh)
    assert membership_verdict(entries, tol)
    elapsed = time.time() - t0
    assert elapsed <= 120
    print(f"PASS criterion 6: delta_1 rejected (residual >= 1 - 2^-10); "
          f"depth-10 orbit passes within Lip*mesh (mesh={float(mesh):.2g})  "
          f"[{elapsed:.1f}s]")


def _angle_pairing_bound(fine: FiniteMeasure, coarse: FiniteMeasure) -> F:
    """Certified W upper bound between uniform measures with atom counts
    2n and n near the circle: angle-sorted 2-to-1 pairing plan."""
    def angle(p):
        z = p.as_gauss()
        return math.atan2(float(z.im), float(z.re))

    fi = sorted(range(len(fine)), key=lambda i: angle(fine.atoms[i][0]))
    ci = sorted(range(len(coarse)), key=lambda i: angle(coarse.atoms[i][0]))
    w = fine.atoms[0][1]
    best = None
    for off in (-1, 0, 1):
        plan = [
            (j, ci[((k + off) // 2) % len(ci)], w) for k, j in enumerate(fi)
        ]
        cost = transport_cost_of_pairing(fine, coarse, plan, 25)
        if best is None or cost.upper() < best:
            best = cost.upper()
    return best


def test_criterion_7_tile_invariance():
    """pushforward(mme(rule, n)) equals mme(rule, n-1) with exact rational
    equality: g1 for n = 1..5, g2 for n = 1..4."""
    t0 = time.time()
    from equistate.measures import pushforward

    for rule, top in (("g1", 5), ("g2", 4)):
        g = SubdivisionMap(rule)
        for n in range(1, top + 1):
            lhs = pushforward(mme_tile_measure(rule, n), g)
            rhs = mme_tile_measure(rule, n - 1)
            assert lhs.atoms == rhs.atoms, (rule, n)
    elapsed = time.time() - t0
    assert elapsed <= 120
    print(f"PASS criterion 7: exact tile-measure invariance (g1 n<=5, "
          f"g2 n<=4)  [{elapsed:.1f}s]")


def test_criterion_8_flower_decay():
    """For each corner of g1, the flower-mass ratio across consecutive
    levels is a constant rational equal to (incident-tile growth)/6."""
    t0 = time.time()
    corners = (tile_point(FRONT, 1, 0, 0), tile_point(FRONT, 0, 1, 0),
               tile_point(FRONT, 0, 0, 1))
    for v in corners:
        ratios = [
            flower_mass("g1", v, k + 1) / flower_mass("g1", v, k)
            for k in range(1, 5)
        ]
        growth = F(
            len(flower(tile_complex("g1", 2), v)),
            len(flower(tile_complex("g1", 1), v)),
        )
        assert all(r == growth / 6 for r in ratios)
        assert ratios[0] == vertex_local_degree("g1", v) / F(6)
    elapsed = time.time() - t0
    assert elapsed <= 120
    print(f"PASS criterion 8: flower decay ratio constant = deg_v/6 at "
          f"A, B, C  [{elapsed:.1f}s]")


def test_criterion_9_wasserstein_oracle():
    """200 random <=4-atom equal-weight pairs: the LP value equals the
    brute-force assignment minimum exactly on pinned costs; and W between
    diracs equals the chordal distance on 50 random pairs."""
    import random

    t0 = time.time()
    rng = random.Random(99)

    def rand_measure(n):
        pts = []
        while len(pts) < n:
            p = S(F(rng.randint(-8, 8), rng.randint(1, 5)),
                  F(rng.randint(-8, 8), rng.randint(1, 5)))
            if p not in pts:
                pts.append(p)
        return FiniteMeasure.from_atoms(SPHERE, [(p, F(1, n)) for p in pts])

    for _ in range(200):
        n = rng.randint(1, 4)
        mu, nu = rand_measure(n), rand_measure(n)
        detail = wasserstein_detail(mu, nu, 30)
        c = detail.pinned_cost
        brute = min(
            sum(c[i][p[i]] for i in range(n)) for p in permutations(range(n))
        ) * F(1, n)
        assert detail.value.mid == brute
        assert detail.optimality_certificate()
    for _ in range(50):
        x = S(F(rng.randint(-8, 8), rng.randint(1, 5)),
              F(rng.randint(-8, 8), rng.randint(1, 5)))
        y = S(F(rng.randint(-8, 8), rng.randint(1, 5)),
              F(rng.randint(-8, 8), rng.randint(1, 5)))
        detail = wasserstein_detail(
            FiniteMeasure.dirac(SPHERE, x), FiniteMeasure.dirac(SPHERE, y), 34
        )
        assert detail.value.mid == chordal(x, y, 38).mid
    elapsed = time.time() - t0
    assert elapsed <= 120
    print(f"PASS criterion 9: LP = assignment brute force on 200 pairs; "
          f"W(delta_x, delta_y) = sigma(x,y) on 50 pairs  [{elapsed:.1f}s]")


def test_criterion_10_rokhlin_bracket(mu10_z2):
    """For the depth-10 z^2 measure with J = 2: the Rokhlin integral
    log 2 matches the pressure upper bound within combined radii + 2^-8."""
    t0 = time.time()
    rok = rokhlin_lower_bound(mu10_z2, JacobianSpec.const(2), prec=40)
    assert rok.contains(LOG2_BALL.mid)
    pres = pressure(Z2, const(0), 8, c0=F(1), R=F(0))
    gap = abs(pres.value.upper() - rok.mid)
    assert gap <= rok.rad + pres.value.rad + F(1, 1 << 8)
    elapsed = time.time() - t0
    print(f"PASS criterion 10: Rokhlin bound log 2 meets the pressure upper "
          f"bound within 2^-8  [{elapsed:.1f}s]")


def test_criterion_11_holder_dominance():
    """100 random potentials from the distance-function algebra, 100 random
    point pairs: |phi(x) - phi(y)| <= holder_bound(phi) * sigma(x, y) up to
    enclosure slack."""
    import random

    t0 = time.time()
    rng = random.Random(7)
    for _ in range(100):
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = [basis(ideal_enumerate(rng.randint(1, 60)))
                       for _ in range(rng.randint(1, 3))]
            q = F(rng.randint(-9, 9), rng.randint(1, 5)) or F(1)
            terms.append(scale(q, pprod(*factors)))
        phi = psum(*terms)
        bound = holder_bound(phi)
        x = S(F(rng.randint(-9, 9), rng.randint(1, 5)),
              F(rng.randint(-9, 9), rng.randint(1, 5)))
        y = S(F(rng.randint(-9, 9), rng.randint(1, 5)),
              F(rng.randint(-9, 9), rng.randint(1, 5)))
        lhs = (phi.evaluate(x, 45) - phi.evaluate(y, 45)).abs()
        rhs = bound * chordal(x, y, 45).upper()
        assert lhs.lower() <= rhs + F(1, 1 << 30)
    elapsed = time.time() - t0
    assert elapsed <= 60
    print(f"PASS criterion 11: Hoelder-bound dominance on 100 random "
          f"potentials and point pairs  [{elapsed:.1f}s]")
