"""Two expanding subdivision maps on the doubled triangle.

The degree-6 rule cuts each face along its medians; the degree-8 rule
refines through the edge midpoints and two interior points.  Everything
here is exact rational arithmetic over the rule tables: tile counts,
local degrees at vertices, flower masses, pushforward identities, and
shrinking diameters.

Run:  python demos/subdivision_tilings.py
Emits tile_measure_g1_level3.csv with barycenter plot data.
"""

from equistate.measures import pushforward
from equistate.serialize import measure_to_csv
from equistate.thurston import (
    SubdivisionMap,
    flower_mass,
    max_tile_diameter,
    mme_tile_measure,
    tile_complex,
    vertex_image,
    vertex_local_degree,
)
from equistate.trisphere import FRONT, tile_point

A = tile_point(FRONT, 1, 0, 0)
B = tile_point(FRONT, 0, 1, 0)
C = tile_point(FRONT, 0, 0, 1)

for rule in ("g1", "g2"):
    g = SubdivisionMap(rule)
    print(f"== rule {rule} (degree {g.degree}) ==")
    counts = [len(tile_complex(rule, n)) for n in range(5)]
    print(f"  tile counts by level: {counts}")

    print("  corner dynamics and local degrees (computed from incidences):")
    for name, v in (("A", A), ("B", B), ("C", C)):
        img = vertex_image(rule, v)
        img_name = {A: "A", B: "B", C: "C"}[img]
        deg = vertex_local_degree(rule, v)
        fixed = "fixed" if img == v else f"-> {img_name}"
        crit = "critical" if deg >= 2 else "regular"
        print(f"    {name}: {fixed:8s} local degree {deg} ({crit})")

    diams = [float(max_tile_diameter(tile_complex(rule, n), 30).mid)
             for n in range(5)]
    print("  max tile diameters:", "  ".join(f"{d:.4f}" for d in diams))

    print("  equal-weight barycenter measures push forward exactly:")
    for n in (1, 2, 3):
        ok = pushforward(mme_tile_measure(rule, n), g).atoms \
            == mme_tile_measure(rule, n - 1).atoms
        print(f"    level {n} -> level {n - 1}: exact = {ok}")
    print()

print("== flower masses at the corners of the degree-6 rule ==")
print("  (closed k-flower: union of level-k tiles at the vertex)")
for name, v in (("A", A), ("B", B), ("C", C)):
    masses = [flower_mass("g1", v, k) for k in range(1, 6)]
    ratios = {masses[i + 1] / masses[i] for i in range(len(masses) - 1)}
    print(f"  {name}: masses {[str(m) for m in masses]}")
    print(f"     constant ratio {[str(r) for r in sorted(ratios)]} "
          f"= local degree / 6")

mu = mme_tile_measure("g1", 3)
with open("tile_measure_g1_level3.csv", "w", encoding="utf-8") as fh:
    fh.write(measure_to_csv(mu))
print(f"\n  wrote tile_measure_g1_level3.csv ({len(mu)} barycenters)")
