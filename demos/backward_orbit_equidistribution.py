"""Backward orbits equidistribute toward the maximal-entropy measure.

For z^2 the limit measure is the uniform distribution on the unit circle;
for z^2 - 2 it is the arcsine law on [-2, 2].  Both show up clearly after
a handful of pullback steps.  Atom positions are certified midpoints; the
measure records how far they can sit from the true preimages.

Run:  python demos/backward_orbit_equidistribution.py
Emits backward_orbit_z2.csv with plot-ready atom coordinates.
"""

import math

from equistate.measures import wasserstein
from equistate.serialize import measure_to_csv, parse_map
from equistate.sphere import SpherePoint
from equistate.thermo import backward_orbit_measure

z2 = parse_map("z^2")
z2m2 = parse_map("z^2-2")
anchor = SpherePoint.finite(3)

print("== z^2: atoms of f^-m(3) migrate to the unit circle ==")
mus = {}
for depth in (2, 4, 6, 8):
    mu = mus[depth] = backward_orbit_measure(z2, None, anchor, depth)
    radial = max(abs(float(p.as_gauss().abs2()) - 1.0) for p, _ in mu.atoms)
    print(f"  depth {depth}: {len(mu):4d} atoms,  max | |y|^2 - 1 | = "
          f"{radial:.5f},  displacement <= {float(mu.atom_error):.2g}")

print("\n== consecutive depths form a transport-Cauchy sequence ==")
for a, b in ((2, 4), (4, 6), (6, 8)):
    w = wasserstein(mus[a], mus[b], 25)
    print(f"  W(mu_{a}, mu_{b}) = {float(w.mid):.5f} +- {float(w.rad):.2g}")

with open("backward_orbit_z2.csv", "w", encoding="utf-8") as fh:
    fh.write(measure_to_csv(mus[8]))
print("\n  wrote backward_orbit_z2.csv (256 atoms)")

print("\n== z^2 - 2: projected atoms follow the arcsine law ==")
mu = backward_orbit_measure(z2m2, None, SpherePoint.finite(0), 9)
xs = sorted(float(p.as_gauss().re) for p, _ in mu.atoms)
n = len(xs)


def arcsine_cdf(t: float) -> float:
    return math.acos(max(-1.0, min(1.0, -t / 2))) / math.pi


ks = max(
    max(abs((i + 1) / n - arcsine_cdf(t)), abs(i / n - arcsine_cdf(t)))
    for i, t in enumerate(xs)
)
print(f"  depth 9: {n} atoms, all real, Kolmogorov distance to "
      f"arccos(-t/2)/pi:  {ks:.5f}")

print("\n== histogram of projected atoms (each # ~ 1/64 of mass) ==")
bins = [0] * 16
for t in xs:
    bins[min(15, int((t + 2) / 0.25))] += 1
for k, count in enumerate(bins):
    left = -2 + 0.25 * k
    print(f"  [{left:+.2f}, {left + 0.25:+.2f})  {'#' * (count * 64 // n)}")
