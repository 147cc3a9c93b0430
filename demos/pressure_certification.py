"""Topological pressure with certified error bars.

The transfer operator L_phi sums exp(phi) over preimages with local
degrees.  Its N-th iterate at a well-chosen anchor point pins down the
pressure: P = lim (1/N) log L^N(1)(x).  For a potential with an explicit
distortion budget (c0 * R), a finite N already gives a rigorous enclosure;
for a constant potential the truncation term vanishes entirely and the
enclosure is as tight as the evaluation.

Run:  python demos/pressure_certification.py
"""

import math
from fractions import Fraction as F

from equistate.potentials import basis, const
from equistate.serialize import parse_map
from equistate.sphere import SpherePoint
from equistate.thermo import empirical_pressure, pressure, ruelle_apply

z2 = parse_map("z^2")
z2m2 = parse_map("z^2-2")

print("== Certified enclosures for the measure-of-maximal-entropy case ==")
for name, f in (("z^2", z2), ("z^2-2", z2m2)):
    res = pressure(f, const(0), n=12, c0=F(1), R=F(0))
    lo, hi = float(res.value.lower()), float(res.value.upper())
    print(f"  P({name}, 0) in [{lo:.10f}, {hi:.10f}]  "
          f"(N={res.N_used}, anchor={res.anchor})")
print(f"  log 2        =  {math.log(2):.10f}")

print("\n== Constants shift pressure exactly ==")
base = pressure(z2, const(0), n=12, c0=F(1), R=F(0))
for c in (F(-1), F(1, 2), F(1)):
    shifted = pressure(z2, const(c), n=12, c0=F(1), R=F(0))
    diff = shifted.value - base.value
    print(f"  P(z^2, {str(c):>4}) - P(z^2, 0) encloses {str(c):>4}: "
          f"{diff.contains(c)}")

print("\n== A non-constant potential: empirical mode ==")
# sigma(., 0) has Hoelder bound 1; a certified run would need N beyond
# desk scale, so the tool refuses to fake it and offers the uncertified
# stopping rule instead (clearly labeled).
phi = basis(SpherePoint.finite(0))
res = empirical_pressure(z2, phi, n=6)
print(f"  P(z^2, sigma(.,0)) ~ {float(res.value.mid):.6f}  "
      f"[mode=empirical, N={res.N_used}]  <-- NOT certified")

print("\n== Transfer-operator iterates are exact where the data is ==")
for m in (1, 2, 3, 4):
    v = ruelle_apply(z2, None, None, SpherePoint.finite(3), m, 40)
    print(f"  L^{m}(1)(3) = {v.mid} +- {float(v.rad):.2g}   (2^{m} leaves)")
