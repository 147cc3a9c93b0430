"""The transport simplex against oracles built apart from it: brute-force
assignment on equal weights, and HiGHS on the demos' sizes."""

import hashlib
import random
from functools import lru_cache
from fractions import Fraction as F
from itertools import combinations, permutations
from math import lcm

import pytest

from equistate import transport
from equistate.measures import SPHERE, FiniteMeasure, wasserstein_detail
from equistate.serialize import parse_map
from equistate.sphere import INF, SpherePoint
from equistate.thermo import backward_orbit_measure
from equistate.thurston import mme_tile_measure
from equistate.transport import _least_cost_start, min_cost_transport


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


def _perturbed(supplies, demands):
    """The masses the simplex runs on (see the `transport` docstring)."""
    n, m = len(supplies), len(demands)
    K = 2 * n * m + 1
    demand = [K * b + 1 for b in demands]
    demand[-1] += n * m - m
    return [K * a + m for a in supplies], demand


def _composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def test_least_cost_start_is_a_spanning_tree():
    """The start has n + m - 1 arcs of positive flow that reach every node
    and meet the perturbed marginals.  Zero masses, 1 x m, n x 1 and
    all-equal costs are the cases with the most ties."""
    rng = random.Random(35)
    for trial in range(600):
        shape = trial % 3
        n = 1 if shape == 0 else rng.randint(1, 9)
        m = 1 if shape == 1 else rng.randint(1, 9)
        total = rng.randint(0, 12)
        supply, demand = _perturbed(_composition(rng, total, n), _composition(rng, total, m))
        top = rng.choice([0, 1, 3, 50])
        flat = [rng.randint(-top, top) for _ in range(n * m)]
        arcs = _least_cost_start(supply, demand, flat)
        assert len(arcs) == n + m - 1, (trial, flat)
        assert all(t > 0 for _, _, t in arcs)
        assert [sum(t for i, _, t in arcs if i == r) for r in range(n)] == supply
        assert [sum(t for _, j, t in arcs if j == c) for c in range(m)] == demand
        reached, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for i, j, _ in arcs:
                for a, b in ((i, n + j), (n + j, i)):
                    if a == x and b not in reached:
                        reached.add(b)
                        stack.append(b)
        assert reached == set(range(n + m)), (trial, flat)


def test_least_cost_start_visits_arcs_by_cost_then_row_major():
    supply, demand = _perturbed([1, 1], [1, 1])
    assert _least_cost_start(supply, demand, [0, 0, 0, 0]) == [(0, 0, 10), (0, 1, 1), (1, 1, 11)]
    assert _least_cost_start(supply, demand, [1, 0, 0, 1]) == [(0, 1, 11), (1, 0, 10), (1, 1, 1)]


def test_least_cost_start_keeps_pivots_few(monkeypatch):
    """z^2 anchor 3, depth 3 vs 6 (8 x 64) solves within 20 pivots: the
    least-cost start needs 5, a northwest-corner start took 93."""
    f = parse_map("z^2")
    mu, nu = (backward_orbit_measure(f, None, SpherePoint.finite(3), d) for d in (3, 6))
    monkeypatch.setattr(transport, "_pivot_bound", lambda n, m: 20)
    wd = wasserstein_detail(mu, nu)
    _check_certificate(wd.transport, [w for _, w in mu.atoms], [w for _, w in nu.atoms],
                       wd.pinned_cost)


@pytest.mark.parametrize("args, message", [
    (([3, -1], [1, 1], [[0, 1], [1, 0]], 1, 1), "negative mass"),
    (([1, 1], [-1, 3], [[0, 1], [1, 0]], 1, 1), "negative mass"),
    (([2], [1, 1], [[0, 1]], 0, 1), "denominators must be positive"),
    (([2], [1, 1], [[0, 1]], -1, 1), "denominators must be positive"),
    (([2], [1, 1], [[0, 1]], 1, 0), "denominators must be positive"),
    (([1, 1], [1, 1], [[0, 1], [1]], 1, 1), "2 rows of 2 ints"),
    (([1, 1], [1, 1], [[0, 1]], 1, 1), "2 rows of 2 ints"),
    (([1, 1], [1, 1], [[0, 1], [1, 0], [2, 2]], 1, 1), "2 rows of 2 ints"),
    (([1, 1], [1, 1], [[0, F(1, 2)], [1, 0]], 1, 1), "2 rows of 2 ints"),
    (([1, 1], [1, 1], [[0, 1.0], [1, 0]], 1, 1), "2 rows of 2 ints"),
])
def test_min_cost_transport_checks_its_preconditions(args, message):
    with pytest.raises(ValueError, match=message):
        min_cost_transport(*args)


def _z2_depths():
    f = parse_map("z^2")
    mu = {d: backward_orbit_measure(f, None, SpherePoint.finite(3), d) for d in (6, 8)}
    return mu[6], mu[8]


def _g1_levels():
    return mme_tile_measure("g1", 3), mme_tile_measure("g1", 2)


@pytest.mark.parametrize("pair", [_z2_depths, _g1_levels], ids=["z2_d6_d8", "g1_l3_l2"])
def test_demo_sizes_match_highs(pair):
    """64 x 256 and 432 x 72 equal-weight problems, which take 39 and 356
    pivots from the least-cost start: exact certificate, and HiGHS on the
    same pinned costs."""
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


# SHA-256 of the repr of (value mid, value rad, duals u and v, pinned costs)
# of `wasserstein_detail` at prec 30, and of its sorted plan.  The first
# does not depend on how the simplex starts; the plan does wherever the
# optimum is not unique, as on ten of the z2 pairs, (2, 5) to (5, 7).
_DUAL_DIGESTS = {
    ('g1', 0, 1): "a3baa83c71d21c960013c5e99d8dfbd5e586147c94cf9f4f38c97f7a445243b4",
    ('g1', 0, 2): "e51ebc5f4a09ffee614f796bef8792c07088fc7c198741125f467741320aa748",
    ('g1', 1, 2): "870035c77ef9430e5e9cd82af135aa6a82b3d21ee09fd1f5dac8fbf95edb6db1",
    ('g2', 0, 1): "3dcab458a13d17a0afbc9f94ac99560360f74f1c0aa388e0ed88f3f8949bf9cb",
    ('g2', 0, 2): "884073c46cef19838adc9f6fd25a3794c9aba41bf59496a5eb611e0b0a72e4f0",
    ('g2', 1, 2): "b2734f5a926a29880fae5763c7b517dc2f1bfb6816c14a4f706f8b621119c406",
    ('z2', 1, 2): "dbf9ba8587cc797b5205bacdf953005e718ed5a8ba8ab473131d215da161cec9",
    ('z2', 1, 3): "e5eeb2bc750764f35ec3e29ecf348562b8f235d5d692bd7e9455608b69e5c24e",
    ('z2', 1, 4): "e2f5531f07b7efdc99bed91acf41f8af3110f95098943302fe7563ecea74c64d",
    ('z2', 1, 5): "b7cca1b3c49ad1b806d6cfb55d2e27e5dd8a1a6639660bdd63135df696fe8e33",
    ('z2', 1, 6): "0c51280fc46585e7222d4d2cef3e27ce35f71601a8eb4b503425671796b70096",
    ('z2', 1, 7): "dc94d136d211e1a47425f2861a199a81c3204d1751073e638009b4e338f076fa",
    ('z2', 2, 3): "a538b66a4c3c911a610ef9b27b5371b21910cd00bdda71926147aa7f2444a019",
    ('z2', 2, 4): "c9690e48ec4103c674644bd66dfaa93ab976ca7b7e4255a9f08d228f2cca0e57",
    ('z2', 2, 5): "c35a426fad1c19c5cb68d116a87a38697693eac0357099576933b7ec74d833da",
    ('z2', 2, 6): "3969fe6932f5356b5d4dfbc5aecf114f13d763b9dc19b7b8c4b86f8e836da51a",
    ('z2', 2, 7): "494f70a0c258c0ac2bb47ec4905fdd724f9b4342eeee9c95c1b1dc035a2701bc",
    ('z2', 3, 4): "294856bbab0e04cdd6a92aea9a30f51ce878edb768c05f2f9d2a6b439fe43e7b",
    ('z2', 3, 5): "55156d195b1921c0f5cb270660374034b71dbcf3af0d3c48cf6fc2f044196d51",
    ('z2', 3, 6): "d7584a94a95de61569e264d6ed75846342da15f658a70aa2d5c74c2d822e6f7e",
    ('z2', 3, 7): "26ff508a49242af4272c870660b016dc5b1225297286360564c52cae0a5f43a6",
    ('z2', 4, 5): "80b841c50c286e0f3d9fac8255c666817eae1111261ea267a4c8cb83cc9aaaf6",
    ('z2', 4, 6): "693b25c762e3543b2590c8fd3247f965a379d63f4c54a3eb871c6f9eb0e423c5",
    ('z2', 4, 7): "4154299fb16466e523524f9eeff74213935f8aeb452e4c677374cbd2693684cb",
    ('z2', 5, 6): "eee18722eaff3c39505b7434d77e1f92d667deed6a1941cc5e82b20c194a94a6",
    ('z2', 5, 7): "c60a8973cb08c970a5ae1a38c19f7ddbdc9f405945435c00cce3333c37f340ab",
    ('z2', 6, 7): "a23295b72c4abc19349bf54ec105d7a174a78694db0b4590c0d365872b25c354",
}

_PLAN_DIGESTS = {
    ('g1', 0, 1): "107aa18a29a49f5f0803444c6a4815273f4e5b32291d46ae0a036cde7a68a4f1",
    ('g1', 0, 2): "9c4716df8434c6c009541b23556ced1534c5f92aed600069682a066fed89c80a",
    ('g1', 1, 2): "ea0c8815548b042b1fa225bd88c3a7d1be9f58cb53c172e2f2a2e76c7026f77c",
    ('g2', 0, 1): "294ec0300ca5b2ad5832654d2b4a8d1cc19e9911150831e087d32a4ff82030c2",
    ('g2', 0, 2): "23c18ce019dfdd26612b73caccd58c6869c7495a8441340f91756193b9d2c5a8",
    ('g2', 1, 2): "b9d41492b3bcb4219290dd7457bfd816acb0c11b83b2348dbf1137a7a1ad59f3",
    ('z2', 1, 2): "e969628581fdc7ba070a537c9c895938cd61e1c41ffa70ddaebd44dcdef59086",
    ('z2', 1, 3): "1ebe87d4ef1dd220c3ffbeb2dbba5a82aa05e24dadad148214912cfa5f51613b",
    ('z2', 1, 4): "294ec0300ca5b2ad5832654d2b4a8d1cc19e9911150831e087d32a4ff82030c2",
    ('z2', 1, 5): "c5a2a5e30385d3b5b4af310df933bc7e0b87981d430960fb4c7d17e7998805fe",
    ('z2', 1, 6): "c4c8f6db1ecfbe4fd8a7ecd95085183aff6e7f68f94aef976aa7241505543c28",
    ('z2', 1, 7): "23c18ce019dfdd26612b73caccd58c6869c7495a8441340f91756193b9d2c5a8",
    ('z2', 2, 3): "76c4f546649348967a1c6e40ccd8ae9b7c91748fb8fd4f9b17f4d337a4cae950",
    ('z2', 2, 4): "33fd03e10ae19bb4ae0851e98dab64763bafc3a303d7319db69878dd2b50f636",
    ('z2', 2, 5): "69789f3035e4127c039bb1cc616b1284d22e9b390950753680f74f0dbf696d11",
    ('z2', 2, 6): "235f9e43fcc04a44ff0f48d2c8445c7f4d801904b964552c60466b8a6e8f22f1",
    ('z2', 2, 7): "4a4f442b8feb08c2a2ac903bdd96e453345a87970c14fc0699d3dbe19765f756",
    ('z2', 3, 4): "1e239a7bf5a7e6ce12513f2bad127a6c439606bb7f1fdfc94c259b095b8982aa",
    ('z2', 3, 5): "9b6fb5da3033851706c93bb7fa3b5bc4ff231a23b5297ad3c56fec0bc215fec7",
    ('z2', 3, 6): "eec1160f7a01272d51409b65970f38b68e5031b1acb3119aae9bd4dc2c980b8a",
    ('z2', 3, 7): "4761c335966eb4d959e49a0ca47da549e76f6d8489164d5c9bae8d1844dcd3a9",
    ('z2', 4, 5): "09c1df66df119b012bd285f426ae4a8a9bbded5a51597b585c40cd86d84893c2",
    ('z2', 4, 6): "3b73665cb38cb081f200e5dd1e95ff061f350d6288b20b0ebeb373d57ccdfd38",
    ('z2', 4, 7): "94dab19ed7f74a11079b79af2b901c67e8426a2e3f0fc7ef1c4b62d094463cea",
    ('z2', 5, 6): "5d902a052e3c481085347ca30789578d5dbb55788f0b97637a7ef0cc74e79fca",
    ('z2', 5, 7): "50f5865a2720982df4c619d4ff6c7870421b5ca0f4c461454d968f7b8af88b63",
    ('z2', 6, 7): "4a1f9a56648b28d4d25de83028a1c64885ac8d1b61abbd87d7cf325346ecbfcf",
}


@lru_cache(maxsize=None)
def _pinned_measure(kind, level):
    if kind == "z2":
        return backward_orbit_measure(parse_map("z^2"), None, SpherePoint.finite(3), level)
    return mme_tile_measure(kind, level)


def _sha256(parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("kind, a, b", sorted(_DUAL_DIGESTS))
def test_wasserstein_detail_is_pinned(kind, a, b):
    """Every pair of z^2 anchor-3 depths 1-7 and of g1/g2 tile levels 0-2
    gives the recorded value, radius, duals, pinned costs and plan, and
    the plan passes the exact certificate."""
    mu, nu = _pinned_measure(kind, a), _pinned_measure(kind, b)
    wd = wasserstein_detail(mu, nu)
    assert _sha256((wd.value.mid, wd.value.rad, wd.transport.potentials_u,
                    wd.transport.potentials_v, wd.pinned_cost)) == _DUAL_DIGESTS[(kind, a, b)]
    assert _sha256(sorted(wd.plan.items())) == _PLAN_DIGESTS[(kind, a, b)]
    _check_certificate(wd.transport, [w for _, w in mu.atoms], [w for _, w in nu.atoms],
                       wd.pinned_cost)


def test_pinned_pairs_cover_every_depth_and_level():
    assert set(_DUAL_DIGESTS) == set(_PLAN_DIGESTS) == (
        {("z2", a, b) for a, b in combinations(range(1, 8), 2)}
        | {(rule, a, b) for rule in ("g1", "g2") for a, b in combinations(range(3), 2)})


def _random_sphere_measure(seed, n):
    """n - 1 seeded Gaussian-rational atoms and one at infinity, with
    seeded weights."""
    rng = random.Random(seed)
    points = [SpherePoint.finite(F(rng.randint(-99, 99), rng.randint(1, 30)),
                                 F(rng.randint(-99, 99), rng.randint(1, 30)))
              for _ in range(n - 1)] + [INF]
    weights = [rng.randint(1, 9) for _ in points]
    return FiniteMeasure.from_atoms(SPHERE, [(p, F(w, sum(weights)))
                                             for p, w in zip(points, weights)])


def _sphere_pair(kind, a, b):
    if kind == "random":
        return _random_sphere_measure(a, 9), _random_sphere_measure(b, 14)
    f = parse_map(kind)
    return tuple(backward_orbit_measure(f, None, SpherePoint.finite(3), depth)
                 for depth in (a, b))


# The digests of `_DUAL_DIGESTS` and `_PLAN_DIGESTS`, at the given prec, on
# sphere pairs that the z^2 circles do not reach: other maps' trees at
# anchor 3, and seeded measures with an atom at infinity.
_SPHERE_DIGESTS = {
    ("z^2-2", 4, 5, 30): ("92a36417ff712900d302e77ec82bc51a8aa80d269d826620141ad2ce239c1ec7",
                          "d8f32c2cf69921e1680914804c81b0e297a404fff0523a4c8944f3770ca5ee9c"),
    ("z^2-2", 4, 5, 0): ("9edf07c8e37f4ea967fc1a72493fa02ab60b709f92ec00166e2b27a076decb24",
                         "f1f94c3f1403974a35be031a18d8efccd9515772b4adfa3d56efcbdd9ace3006"),
    ("(z^2+1)/(z^2-1)", 2, 4, 30): (
        "604948d77726e269e6bb8620b026ea2debd5342bc2f9f430f92949638434059c",
        "5b10027c17eb2b22132c249e5c8e9f839a0bfaf68c577f4db2c7689e02f292d0"),
    ("(z^2+1)/(z^2-1)", 3, 4, 30): (
        "a346755e77bcaf7e7c9f5a5c3de5340aeb028024a28b0dd5b5b907f8ea0f0b95",
        "81b3b4a9d6bf6227f46c08ed0306be3e54df2ecf1e81f2c6f59fae1411aecacc"),
    ("(z^2+1)/(z^2-1)", 4, 5, 30): (
        "ab3f0f221946bff5915960764b596306b8d261bb406a3482f7f0a5cf60c9e68c",
        "f22fda7ca9e926305d7bca964528607af85175886a92b8cbb3c927852d812e4f"),
    ("random", 0, 3, 30): ("d58b5c28f7ad4f6edf6c49b7c86c8ff21425f40d49e944fee99499ed822c996d",
                           "4f2fe90985b03e372d6ed16ea037dd1bcc5a9f31a87ac16de4aa7fe72a185e5a"),
    ("random", 0, 3, 0): ("4b3bc2f662b3d8aab8762e68eea3b20e8d660d21e7c2fdedef2886d373927c06",
                          "e5f0727b6284669b7febb5a805d2b45723c0eda8093af6a47c09f996f9afb4ef"),
    ("random", 0, 3, 40): ("5b7b8aee39aa7c7b5da4545cd58912acf9317ba3de00134db3496ee9b326d5e7",
                           "4f2fe90985b03e372d6ed16ea037dd1bcc5a9f31a87ac16de4aa7fe72a185e5a"),
    ("random", 1, 4, 30): ("155007a57e2c2ead355fbcd2bb5d84d0201531bf5815bbc049d4adc061886719",
                           "648000f32b215f6b23e581e44ff722ab05728f1b36050648ac409115a1339448"),
    ("random", 2, 5, 30): ("73a81da2cd8738a886e41fc6a66e4726471c09ed600d4253a243f8558641ef81",
                           "9b9cd3b53ae7b492c225f0798162a71510813bc5f2f1f39b7971e75221b315b5"),
}


@pytest.mark.parametrize("kind, a, b, prec", sorted(_SPHERE_DIGESTS))
def test_wasserstein_detail_is_pinned_beyond_the_circles(kind, a, b, prec):
    mu, nu = _sphere_pair(kind, a, b)
    wd = wasserstein_detail(mu, nu, prec)
    assert (_sha256((wd.value.mid, wd.value.rad, wd.transport.potentials_u,
                     wd.transport.potentials_v, wd.pinned_cost)),
            _sha256(sorted(wd.plan.items()))) == _SPHERE_DIGESTS[(kind, a, b, prec)]
    _check_certificate(wd.transport, [w for _, w in mu.atoms], [w for _, w in nu.atoms],
                       wd.pinned_cost)
