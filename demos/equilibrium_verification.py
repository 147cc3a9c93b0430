"""Verifying (and refuting) equilibrium-state candidates.

Four independent criteria, all returning certified residuals:
  - Jacobian unitarity: sum of 1/J over preimages must be 1;
  - membership functionals: a prescribed-Jacobian class rejects atomic
    candidates sitting on repelling orbits;
  - the entropy bracket: integral of log J from below, pressure from above;
  - tangent-functional certificates from finite witness families.

Run:  python demos/equilibrium_verification.py
"""

from fractions import Fraction as F

from equistate.balls import DirectedReal, log_point
from equistate.measures import SPHERE, FiniteMeasure, TestFunction
from equistate.potentials import const
from equistate.ratmap import preimages
from equistate.serialize import parse_map
from equistate.sphere import SpherePoint
from equistate.thermo import backward_orbit_measure, pressure
from equistate.verify import (
    BallPatch,
    JacobianSpec,
    PatchSystem,
    atomic_jacobian,
    invariance_residual,
    jacobian_unitarity,
    membership_residual,
    membership_verdict,
    rokhlin_lower_bound,
    tangent_certificate,
)

S = SpherePoint.finite
z2 = parse_map("z^2")

print("== Jacobian unitarity for J = deg f ==")
for x in (S(4), S(F(1, 3), F(2, 5)), S(-7, 2)):
    pre = preimages(z2, x, 40)
    patches = PatchSystem(SPHERE, [
        BallPatch(SPHERE, c.center.center, F(1, 4)) for c in pre
    ])
    r = jacobian_unitarity(z2, JacobianSpec.const(2), x, patches)
    print(f"  | sum 1/J - 1 | at {x}:  {float(r.upper()):.2e}")

print("\n== an atomic impostor is rejected ==")
delta1 = FiniteMeasure.dirac(SPHERE, S(1))
patches = PatchSystem(SPHERE, [BallPatch(SPHERE, S(1), F(1, 2)),
                               BallPatch(SPHERE, S(-1), F(1, 2))])
hat = TestFunction(SPHERE, S(1), F(0), F(1, 4))
entries = membership_residual(delta1, z2, patches, JacobianSpec.const(2), [hat])
worst = max(e.residual.lower() for e in entries)
print(f"  delta at the repelling fixed point 1: residual >= {float(worst):.3f}"
      f"  => member: {membership_verdict(entries)}")

print("\n== the backward-orbit approximant is accepted ==")
mu6 = backward_orbit_measure(z2, None, S(3), 6)
mu7 = backward_orbit_measure(z2, None, S(3), 7)
from equistate.measures import wasserstein

mesh = wasserstein(mu6, mu7, 20).upper()
patches = PatchSystem(SPHERE, [BallPatch(SPHERE, S(1), F(1, 3)),
                               BallPatch(SPHERE, S(0, 1), F(1, 3))])
tests = [TestFunction(SPHERE, S(1), F(0), F(1, 8))]
entries = membership_residual(mu6, z2, patches, JacobianSpec.const(2), tests,
                              mesh=mesh)
print(f"  depth-6 orbit measure, mesh = {float(mesh):.4f}: "
      f"member within slack: {membership_verdict(entries)}")
print(f"  invariance residual W(mu, T_* mu) = "
      f"{float(invariance_residual(mu6, z2, 20).mid):.4f}")

print("\n== entropy bracket at the maximal-entropy point ==")
rok = rokhlin_lower_bound(mu6, JacobianSpec.const(2))
pres = pressure(z2, const(0), 10, c0=F(1), R=F(0))
print(f"  integral log J dmu  >= {float(rok.lower()):.6f}")
print(f"  pressure upper bound = {float(pres.value.upper()):.6f}")
print(f"  gap = {float(pres.value.upper() - rok.lower()):.2e}  "
      "(equality case of the variational principle)")

print("\n== atomic Jacobian of an invariant cycle ==")
f = parse_map("z^2-1")
mu_cycle = FiniteMeasure.from_atoms(SPHERE, [(S(0), F(1, 2)), (S(-1), F(1, 2))])
table = atomic_jacobian(mu_cycle, f)
print("  0 <-> -1 cycle:", {str(k): str(v) for k, v in table.items()})
print(f"  Rokhlin bound: {float(rokhlin_lower_bound(mu_cycle, table).mid):.4f}"
      "  (zero entropy on a periodic orbit)")

print("\n== tangent-functional certificate with constant witnesses ==")
log2 = log_point(F(2), 40).mid
witnesses = [(const(c), DirectedReal((log2 + c,), "upper"))
             for c in (F(-1), F(0), F(1))]
nu = FiniteMeasure.from_atoms(SPHERE, [(S(1), F(1, 2)), (S(-1), F(1, 2))])
res = tangent_certificate(nu, const(0), witnesses,
                          DirectedReal((log2,), "lower"))
print(f"  constant witnesses cancel exactly: pass = {res.passed}, "
      f"gap = {float(res.gap.mid):.2e}")
