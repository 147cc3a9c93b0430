import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from equistate.errors import SpaceMismatch
from equistate.measures import (
    SPHERE,
    TRI,
    FiniteMeasure,
    TestFunction,
    compare_ge,
    integrate,
    pushforward,
    transport_cost_of_pairing,
    wasserstein,
    wasserstein_detail,
)
from equistate.sphere import SpherePoint, chordal
from equistate.transport import min_cost_transport
from equistate.trisphere import FRONT, tile_point

S = SpherePoint.finite


def _square(p):
    z = p.as_gauss()
    return SpherePoint(z * z)


def _random_measure(rng, n):
    pts = []
    while len(pts) < n:
        p = S(F(rng.randint(-6, 6), rng.randint(1, 4)),
              F(rng.randint(-6, 6), rng.randint(1, 4)))
        if p not in pts:
            pts.append(p)
    return FiniteMeasure.from_atoms(SPHERE, [(p, F(1, n)) for p in pts])


# -- integrate ----------------------------------------------------------


def test_integrate_dirac_zero():
    mu = FiniteMeasure.dirac(SPHERE, S(0))
    val = integrate(mu, lambda p: chordal(p, S(0), 40))
    assert val.mid == 0 and val.rad == 0


def test_integrate_linear_combination():
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(1), F(1, 2))])
    val = integrate(mu, lambda p: chordal(p, S(0), 50))
    assert abs(float(val.mid) - math.sqrt(2) / 2) < 1e-12


def test_integrate_normalization():
    from equistate.balls import BallReal

    rng = random.Random(1)
    for n in (1, 3, 5):
        mu = _random_measure(rng, n)
        c = F(7, 3)
        val = integrate(mu, lambda p: BallReal.exact(c))
        assert val.mid == c and val.rad == 0


# -- pushforward --------------------------------------------------------


def test_pushforward_fixed_point():
    mu = FiniteMeasure.dirac(SPHERE, S(1))
    assert pushforward(mu, _square).atoms == mu.atoms


def test_pushforward_merges():
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(1), F(1, 2)), (S(-1), F(1, 2))])
    pf = pushforward(mu, _square)
    assert pf.atoms == ((S(1), F(1)),)


def test_pushforward_fourth_roots():
    mu = FiniteMeasure.from_atoms(
        SPHERE,
        [(S(1), F(1, 4)), (S(-1), F(1, 4)), (S(0, 1), F(1, 4)), (S(0, -1), F(1, 4))],
    )
    pf = pushforward(mu, _square)
    assert pf.atoms == ((S(-1), F(1, 2)), (S(1), F(1, 2)))


# -- wasserstein --------------------------------------------------------


def test_w_identity():
    mu = FiniteMeasure.dirac(SPHERE, S(0))
    w = wasserstein(mu, mu)
    assert w.mid == 0 and w.rad == 0


def test_w_two_diracs_is_distance():
    w = wasserstein(FiniteMeasure.dirac(SPHERE, S(0)),
                    FiniteMeasure.dirac(SPHERE, S(1)), 40)
    d = chordal(S(0), S(1), 44)
    assert w.lower() <= d.upper() and d.lower() <= w.upper()
    assert abs(float(w.mid) - math.sqrt(2)) < 1e-9


def test_w_forced_plan():
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(1), F(1, 2))])
    w = wasserstein(mu, FiniteMeasure.dirac(SPHERE, S(0)), 40)
    assert abs(float(w.mid) - math.sqrt(2) / 2) < 1e-9


def test_w_2x2_brute_force():
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(2), F(1, 2))])
    nu = FiniteMeasure.from_atoms(SPHERE, [(S(1), F(1, 2)), (S(-1), F(1, 2))])
    detail = wasserstein_detail(mu, nu, 40)
    # brute force over the two permutation plans with the same pinned costs
    c = detail.pinned_cost
    best = min(
        F(1, 2) * (c[0][p[0]] + c[1][p[1]]) for p in permutations(range(2))
    )
    assert detail.value.mid == best
    assert detail.optimality_certificate()


def test_w_space_mismatch():
    mu = FiniteMeasure.dirac(SPHERE, S(0))
    nu = FiniteMeasure.dirac(TRI, tile_point(FRONT, 1, 0, 0))
    with pytest.raises(SpaceMismatch):
        wasserstein(mu, nu)


def test_w_assignment_equivalence_random():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 4)
        mu = _random_measure(rng, n)
        nu = _random_measure(rng, n)
        detail = wasserstein_detail(mu, nu, 30)
        c = detail.pinned_cost
        brute = min(
            sum(c[i][p[i]] for i in range(n)) for p in permutations(range(n))
        ) * F(1, n)
        assert detail.value.mid == brute
        assert detail.optimality_certificate()


def test_w_metric_properties_random():
    rng = random.Random(7)
    for _ in range(8):
        a = _random_measure(rng, rng.randint(1, 5))
        b = _random_measure(rng, rng.randint(1, 5))
        c = _random_measure(rng, rng.randint(1, 5))
        wab = wasserstein(a, b, 35)
        wba = wasserstein(b, a, 35)
        assert wab.mid == wba.mid  # symmetry of the exact LP value
        assert wab.upper() <= 2  # chordal diameter bound
        wbc = wasserstein(b, c, 35)
        wac = wasserstein(a, c, 35)
        assert wac.lower() <= wab.upper() + wbc.upper() + 2 * (wab.rad + wbc.rad)


def test_transport_cost_of_pairing_upper_bound():
    rng = random.Random(3)
    mu = _random_measure(rng, 4)
    nu = _random_measure(rng, 4)
    plan = [(i, i, F(1, 4)) for i in range(4)]
    ub = transport_cost_of_pairing(mu, nu, plan, 30)
    w = wasserstein(mu, nu, 30)
    assert w.lower() <= ub.upper() + F(1, 1 << 20)


def test_transport_pairing_validates_marginals():
    mu = _random_measure(random.Random(1), 3)
    nu = _random_measure(random.Random(2), 3)
    with pytest.raises(ValueError):
        transport_cost_of_pairing(mu, nu, [(0, 0, F(1, 3))], 30)


def test_lp_degenerate_supplies():
    # degenerate pivots: many equal weights and colinear costs
    cost = [[F(abs(i - j)) for j in range(5)] for i in range(5)]
    res = min_cost_transport([F(1, 5)] * 5, [F(1, 5)] * 5, cost)
    assert res.value == 0
    assert res.verify_optimal(cost)


def _composition(rng, k, den):
    """k nonnegative multiples of 1/den summing to 1, zeros included."""
    cuts = sorted(rng.randint(0, den) for _ in range(k - 1))
    return [F(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]


def test_transport_exact_certificate_random():
    """Exact marginals, value, strong duality and reduced costs on seeded
    rectangular problems whose masses and costs have unlike denominators."""
    rng = random.Random(4)
    for _ in range(80):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        supplies = _composition(rng, n, rng.choice([3, 5, 7]))
        demands = _composition(rng, m, rng.choice([3, 5, 7]))
        cost = [[F(rng.randint(0, 12), rng.choice([3, 9, 1 << 40])) for _ in range(m)]
                for _ in range(n)]
        res = min_cost_transport(supplies, demands, cost)
        assert all(f > 0 for f in res.plan.values())
        for i in range(n):
            assert sum(res.plan.get((i, j), 0) for j in range(m)) == supplies[i]
        for j in range(m):
            assert sum(res.plan.get((i, j), 0) for i in range(n)) == demands[j]
        assert res.value == sum(f * cost[i][j] for (i, j), f in res.plan.items())
        assert res.value == (sum(u * s for u, s in zip(res.potentials_u, supplies))
                             + sum(v * d for v, d in zip(res.potentials_v, demands)))
        assert res.verify_optimal(cost)


# -- hats and compare_ge --------------------------------------------------


def test_hat_shape():
    tau = TestFunction(SPHERE, S(1), F(0), F(1, 4))
    assert tau(S(1)).mid == 1
    assert tau(S(-1)).mid == 0  # sigma(1,-1) = 2 >> eps
    assert tau.lipschitz == 4


def test_hat_plateau_and_support():
    tau = TestFunction(SPHERE, S(0), F(1, 2), F(1, 4))
    inside = tau(S(F(1, 10)))  # sigma ~ 0.199 < 1/2
    assert inside.mid == 1
    outside = tau(S(5))  # sigma(0,5) ~ 1.96 > 3/4
    assert outside.mid == 0


def test_compare_ge_equal_measures():
    mu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(1), F(1, 2))])
    fam = [TestFunction(SPHERE, S(k), F(0), F(1, 4)) for k in (-1, 0, 1)]
    assert compare_ge(mu, mu, fam).holds


def test_compare_ge_subprobability_dominated():
    mu = FiniteMeasure.dirac(SPHERE, S(0))
    nu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2))])
    fam = [TestFunction(SPHERE, S(0), F(0), F(1, 4))]
    assert compare_ge(mu, nu, fam).holds


def test_compare_ge_separated_supports():
    mu = FiniteMeasure.dirac(SPHERE, S(0))
    nu = FiniteMeasure.dirac(SPHERE, S(1))
    fam = [TestFunction(SPHERE, S(1), F(0), F(1, 4))]
    res = compare_ge(mu, nu, fam)
    assert not res.holds
    a, b = res.witness_integrals
    assert a.mid == 0 and b.mid == 1
