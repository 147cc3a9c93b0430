"""The transport simplex against oracles built apart from it: brute-force
assignment on equal weights, and HiGHS on the demos' sizes."""

import hashlib
import random
from functools import lru_cache
from fractions import Fraction as F
from itertools import combinations, permutations
from math import lcm

import pytest

from equistate.measures import wasserstein_detail
from equistate.serialize import parse_map
from equistate.sphere import SpherePoint
from equistate.thermo import backward_orbit_measure
from equistate.thurston import mme_tile_measure
from equistate.transport import min_cost_transport


def _fraction_transport(supplies, demands, cost):
    """`min_cost_transport` on Fraction data: masses and costs cleared over
    the lcm of their denominators."""
    ms = lcm(*(x.denominator for x in [*supplies, *demands]))
    cs = lcm(*(x.denominator for row in cost for x in row))
    return min_cost_transport([int(x * ms) for x in supplies], [int(x * ms) for x in demands],
                              [[int(x * cs) for x in row] for row in cost], ms, cs)


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
        res = _fraction_transport(weights, weights, cost)
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


# SHA-256 of the repr of (value mid, value rad, sorted plan, duals u and v,
# pinned costs) of `wasserstein_detail` at prec 30, recorded when the
# simplex still took Fraction masses and costs and scaled them itself.
_DETAIL_DIGESTS = {
    ('z2', 1, 2): "a095773cee37fab3f9cdda9710cbc525651a89c08532b26ac73234b9fe04d55e",
    ('z2', 1, 3): "f3bdb9bea4eadb6ee889b2e97e86af7f9e1bf17f9d1fd54c45c13a126e1170c2",
    ('z2', 1, 4): "9b2f6ed35f9b7e54d541806eb1f2145af6c4172f95f3d44dc8954b58afcd2bdf",
    ('z2', 1, 5): "36fa5240e3383a2116f52e44c0045791b212f689eed941cc17bd7e3d0a4cede6",
    ('z2', 1, 6): "26c915e49e5eab2ea9d04005f68411017668431f987aeb70c5193490ef3ea00f",
    ('z2', 1, 7): "6c586e42b96c2b12f9809d91f942094561a9a36ee2c7e5e3cccc5e5fdad3db2f",
    ('z2', 2, 3): "27825fadcd5b41493592952fcabb8de622fa58088551311087a9ec2836f464ca",
    ('z2', 2, 4): "9b3479f7cc7779accd6a43b2984a71bb70d2defd5cd0789dc9f9cfc4bd9c182f",
    ('z2', 2, 5): "52f2d475cb9abb3946712d061e54da139fd8ab4122499c0a1fd3aac4ded3772e",
    ('z2', 2, 6): "6c041c10db7ea21b3153cee7e4980b59790aab8d3f5a2a209c709322f1b5285f",
    ('z2', 2, 7): "7a6e2a78b1a7e1773a50b339b00d0318c4d5e3892c2b8c6711c26e93ac76ff77",
    ('z2', 3, 4): "1a60423fab1217faf9653ecf668bb30f683d7926041e90cb850aa3204d9736cc",
    ('z2', 3, 5): "4cb853e95eda80f646d0569c7b8a4c2e0f4210701ed586fcf84755784c160c33",
    ('z2', 3, 6): "754ed588471b21dcaeb559399955e45c198586d486b961dff3621cd0eb11a4ef",
    ('z2', 3, 7): "48bbb4691eeb9443d260e495ceb69b08671606e2b83c1ed5b719b020e090b446",
    ('z2', 4, 5): "5e01b83e31b013a1e4d76ab1da47de0d6fc5b6b7f3f1fb29b5efcb7294b850ce",
    ('z2', 4, 6): "5cb5b10336cbb5c8dafd4cf0606108e12a5b695826bb024d4a919771b51a9c9c",
    ('z2', 4, 7): "188208a1b8e6d48939a015ae2e1726409f52f4121da5f7a6768fa99ea1d62809",
    ('z2', 5, 6): "c58ee0e630f12103f71a2bbfbc5a9f035948d7842b5d69611217197217974d0c",
    ('z2', 5, 7): "b7b49f94f55ff752056130d15870f4814c49ef273d2797cff6a7adc38ff26090",
    ('z2', 6, 7): "d6cdf1d174ff098241f83db661e43ca0feff6086fefe506b6530398afaabb596",
    ('g1', 0, 1): "02f6cb1216934df79b193a41d6f78a737899c9f023254c7561c83b0c95be306f",
    ('g1', 0, 2): "091a3091dd20f55404f607bc5896a0a90a6a0973d5bf669fbe3e63dc5b4a6ab0",
    ('g1', 1, 2): "503ec6bfe54cf6e5f3003591af56d1cf21fb0290a3e1dfe78fa3ca0a86960d08",
    ('g2', 0, 1): "d775213707cf33490e9c3ba6c111aa0648484057c438d57807d507102e65e01e",
    ('g2', 0, 2): "c642de1a904c834ec2ed545a5ab551cce9e38f5c9c1bd4223435a0ec358e5c00",
    ('g2', 1, 2): "5bf3d90a49aedf7b3ba6674700f3cc514b9e51f587c94cee4785854d30ad20a5",
}


@lru_cache(maxsize=None)
def _pinned_measure(kind, level):
    if kind == "z2":
        return backward_orbit_measure(parse_map("z^2"), None, SpherePoint.finite(3), level)
    return mme_tile_measure(kind, level)


@pytest.mark.parametrize("kind, a, b", sorted(_DETAIL_DIGESTS))
def test_wasserstein_detail_is_pinned(kind, a, b):
    """Every pair of z^2 anchor-3 depths 1-7 and of g1/g2 tile levels 0-2
    gives the recorded value, radius, plan, duals and pinned costs."""
    wd = wasserstein_detail(_pinned_measure(kind, a), _pinned_measure(kind, b))
    parts = (wd.value.mid, wd.value.rad, sorted(wd.plan.items()),
             wd.transport.potentials_u, wd.transport.potentials_v, wd.pinned_cost)
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == _DETAIL_DIGESTS[(kind, a, b)]


def test_pinned_pairs_cover_every_depth_and_level():
    assert set(_DETAIL_DIGESTS) == (
        {("z2", a, b) for a, b in combinations(range(1, 8), 2)}
        | {(rule, a, b) for rule in ("g1", "g2") for a, b in combinations(range(3), 2)})
