"""Exact optimal transport between finitely supported measures.

Costs are certified distance balls; the simplex runs on their pinned
midpoints with exact rational pivots, so the optimum comes with a dual
certificate and the returned enclosure widens only by the cost
uncertainty.

Run:  python demos/transport_geometry.py
"""

import math
from fractions import Fraction as F
from itertools import permutations

from equistate.measures import (
    SPHERE,
    FiniteMeasure,
    TestFunction,
    compare_ge,
    wasserstein,
    wasserstein_detail,
)
from equistate.sphere import SpherePoint
from equistate.thurston import mme_tile_measure

S = SpherePoint.finite

print("== small closed forms ==")
pairs = [
    ("delta_0 vs delta_1", FiniteMeasure.dirac(SPHERE, S(0)),
     FiniteMeasure.dirac(SPHERE, S(1)), math.sqrt(2)),
    ("uniform{0,1} vs delta_0",
     FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(1), F(1, 2))]),
     FiniteMeasure.dirac(SPHERE, S(0)), math.sqrt(2) / 2),
]
for name, mu, nu, expected in pairs:
    w = wasserstein(mu, nu, 40)
    print(f"  W({name}) = {float(w.mid):.10f}   (closed form {expected:.10f})")

print("\n== the exact LP agrees with brute-force assignment ==")
mu = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(2), F(1, 2))])
nu = FiniteMeasure.from_atoms(SPHERE, [(S(1), F(1, 2)), (S(-1), F(1, 2))])
detail = wasserstein_detail(mu, nu, 40)
c = detail.pinned_cost
brute = min(F(1, 2) * (c[0][p[0]] + c[1][p[1]]) for p in permutations(range(2)))
print(f"  LP value  = {detail.value.mid}")
print(f"  brute min = {brute}")
print(f"  dual certificate verifies: {detail.optimality_certificate()}")
print(f"  optimal plan: { {k: str(v) for k, v in detail.plan.items()} }")

print("\n== transport on the doubled triangle ==")
mu1 = mme_tile_measure("g1", 1)
mu2 = mme_tile_measure("g1", 2)
w = wasserstein(mu2, mu1, 30)
print(f"  W(level-2 tiles, level-1 tiles) = {float(w.mid):.5f} "
      f"+- {float(w.rad):.2g}")

print("\n== hat-function domination tests ==")
mu = FiniteMeasure.dirac(SPHERE, S(0))
nu_half = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2))])
nu_far = FiniteMeasure.dirac(SPHERE, S(1))
family = [TestFunction(SPHERE, S(k), F(0), F(1, 4)) for k in (0, 1)]
print(f"  delta_0 >= (1/2) delta_0 setwise: "
      f"{compare_ge(mu, nu_half, family).holds}")
res = compare_ge(mu, nu_far, family)
a, b = res.witness_integrals
print(f"  delta_0 >= delta_1 setwise: {res.holds} "
      f"(witness integrals {float(a.mid):.0f} vs {float(b.mid):.0f})")
