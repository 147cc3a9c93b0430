"""The transport simplex against oracles built apart from it: brute-force
assignment on equal weights, and HiGHS on the demos' sizes."""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from equistate.measures import wasserstein_detail
from equistate.serialize import parse_map
from equistate.sphere import SpherePoint
from equistate.thermo import backward_orbit_measure
from equistate.thurston import mme_tile_measure
from equistate.transport import min_cost_transport


def _check_certificate(res, supplies, demands, cost):
    """Exact marginals, value, strong duality and reduced costs."""
    n, m = len(supplies), len(demands)
    assert all(f > 0 for f in res.plan.values())
    for i in range(n):
        assert sum(res.plan.get((i, j), 0) for j in range(m)) == supplies[i]
    for j in range(m):
        assert sum(res.plan.get((i, j), 0) for i in range(n)) == demands[j]
    assert res.value == sum(f * cost[i][j] for (i, j), f in res.plan.items())
    assert res.value == (sum(u * s for u, s in zip(res.potentials_u, supplies))
                         + sum(v * d for v, d in zip(res.potentials_v, demands)))
    assert res.verify_optimal(cost)


def test_equal_weights_match_brute_force_assignment():
    """Equal weights are the maximally degenerate case: every vertex of the
    assignment polytope is a permutation, so the optimum is the best one."""
    rng = random.Random(11)
    for trial in range(540):
        n = 1 + trial % 6
        den = rng.choice([1, 3, 1 << 30])
        top = rng.choice([1, 3, 20])  # few distinct costs make many ties
        cost = [[F(rng.randint(0, top), den) for _ in range(n)] for _ in range(n)]
        weights = [F(1, n)] * n
        res = min_cost_transport(weights, weights, cost)
        brute = min(sum(cost[i][p[i]] for i in range(n)) for p in permutations(range(n)))
        assert res.value == brute / n, (trial, cost)
        _check_certificate(res, weights, weights, cost)


def _z2_depths():
    f = parse_map("z^2")
    mu = {d: backward_orbit_measure(f, None, SpherePoint.finite(3), d) for d in (6, 8)}
    return mu[6], mu[8]


def _g1_levels():
    return mme_tile_measure("g1", 3), mme_tile_measure("g1", 2)


@pytest.mark.parametrize("pair", [_z2_depths, _g1_levels], ids=["z2_d6_d8", "g1_l3_l2"])
def test_demo_sizes_match_highs(pair):
    """64 x 256 and 432 x 72 equal-weight problems, once 10^4 degenerate
    pivots each: exact certificate, and HiGHS on the same pinned costs."""
    np = pytest.importorskip("numpy")
    linprog = pytest.importorskip("scipy.optimize").linprog
    mu, nu = pair()
    wd = wasserstein_detail(mu, nu)
    supplies, demands = [w for _, w in mu.atoms], [w for _, w in nu.atoms]
    _check_certificate(wd.transport, supplies, demands, wd.pinned_cost)
    n, m = len(supplies), len(demands)
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    lp = linprog(np.array([float(c) for row in wd.pinned_cost for c in row]),
                 A_eq=a_eq, b_eq=np.array([float(w) for w in supplies + demands]),
                 bounds=(0, None), method="highs",
                 options={"primal_feasibility_tolerance": 1e-10,
                          "dual_feasibility_tolerance": 1e-10})
    assert lp.status == 0
    assert abs(lp.fun - float(wd.transport.value)) < 1e-9
