"""Self-tests of the benchmark's independent checks.

    python3 perfbench/selftest.py

At tiny sizes, each oracle must accept the library's true output and
reject a corrupted copy of it: an atom moved beyond atom_error, a weight
changed, an LP value off by 1/2^40, a tile weight changed, a tile
dropped, a ball moved off the true value.  This shows that the checks can
fail.  It also checks that BENCHMARK.json lists exactly the metrics the
harness prints.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import run  # pins the BLAS pools before numpy loads

sys.path.insert(0, str(run.SRC))

from equistate import measures, thermo, thurston  # noqa: E402
from equistate.balls import BallReal  # noqa: E402

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import RAT, Z2, Z2M2, S  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, problems: list[str], should_pass: bool) -> None:
    ok = (not problems) == should_pass
    verdict = "ok  " if ok else "FAIL"
    what = "accepts" if should_pass else "rejects"
    print(f"{verdict} {name}: {what}" + ("" if should_pass else f" ({problems[0] if problems else 'nothing found'})"))
    if not ok:
        FAILURES.append(name)


def trees() -> None:
    for spec in (Z2, Z2M2, RAT):
        mu = thermo.backward_orbit_measure(spec.parse(), None, S(3), 3)
        leaves = oracles.true_tree_leaves(spec.num, spec.den, oracles.mpz(F(3), F(0)), 3)
        atoms = workloads._atoms_xy(mu)
        weights = [w for _, w in mu.atoms]
        expect(f"tree atoms {spec.expr}", oracles.check_tree_atoms(atoms, mu.atom_error, leaves), True)
        expect(f"tree weights {spec.expr}", oracles.check_tree_weights(weights, leaves, 2, 3), True)
        # Move atom 0 so that its chordal distance to every true leaf
        # exceeds atom_error: sigma ~ 2|dz| / (1 + |z|^2) = 4 atom_error.
        re, im = atoms[0]
        shift = 2 * mu.atom_error * (1 + re * re + im * im)
        moved = [(re + shift, im)] + atoms[1:]
        expect(f"tree atoms {spec.expr}, one atom moved", oracles.check_tree_atoms(moved, mu.atom_error, leaves), False)
        skewed = [weights[0] + F(1, 1 << 20), weights[1] - F(1, 1 << 20)] + weights[2:]
        expect(f"tree weights {spec.expr}, one weight changed", oracles.check_tree_weights(skewed, leaves, 2, 3), False)


def transport() -> None:
    f = Z2.parse()
    mu = thermo.backward_orbit_measure(f, None, S(3), 2)
    nu = thermo.backward_orbit_measure(f, None, S(3), 3)
    cost = oracles.sphere_cost_matrix(
        [complex(float(x), float(y)) for x, y in workloads._atoms_xy(mu)],
        [complex(float(x), float(y)) for x, y in workloads._atoms_xy(nu)])
    wd = measures.wasserstein_detail(mu, nu)
    expect("LP certificate, sphere", workloads._check_transport(wd, mu, nu, cost), True)
    off = replace(wd, transport=replace(wd.transport, value=wd.transport.value + F(1, 1 << 40)))
    expect("LP certificate, value off by 2^-40", workloads._check_transport(off, mu, nu, cost), False)
    (i, j), mass = next(iter(wd.plan.items()))
    bent = dict(wd.plan)
    bent[(i, j)] = mass - F(1, 1 << 40)
    expect("LP certificate, plan mass off by 2^-40",
           workloads._check_transport(replace(wd, plan=bent), mu, nu, cost), False)
    u = list(wd.transport.potentials_u)
    u[0] += F(1, 1 << 40)
    expect("LP certificate, dual off by 2^-40",
           workloads._check_transport(replace(wd, transport=replace(wd.transport, potentials_u=u)),
                                      mu, nu, cost), False)
    a, b = thurston.mme_tile_measure("g1", 1), thurston.mme_tile_measure("g1", 0)
    pillow = [[oracles.pillow_distance((p.face, p.coords), (q.face, q.coords)) for q, _ in b.atoms]
              for p, _ in a.atoms]
    expect("LP certificate, pillow", workloads._check_transport(measures.wasserstein_detail(a, b), a, b, pillow), True)


def tiles() -> None:
    for rule, deg in (("g1", 6), ("g2", 8)):
        mu = thurston.mme_tile_measure(rule, 2)
        tiles_ = workloads._tiles_of(rule, 2)
        atoms = workloads._tile_atoms(mu)
        expect(f"tile complex {rule}", oracles.check_tile_complex(tiles_, deg, 2), True)
        expect(f"tile measure {rule}", oracles.check_tile_measure(atoms, tiles_, deg, 2), True)
        expect(f"tile complex {rule}, one tile dropped", oracles.check_tile_complex(tiles_[1:], deg, 2), False)
        (p0, w0), (p1, w1) = atoms[0], atoms[1]
        changed = [(p0, w0 + w0 / 2), (p1, w1 - w0 / 2)] + atoms[2:]
        expect(f"tile measure {rule}, one weight changed", oracles.check_tile_measure(changed, tiles_, deg, 2), False)
        push = measures.pushforward(mu, thurston.SubdivisionMap(rule))
        expect(f"pushforward {rule}", workloads._check_tile_measure(push, rule, 1), True)
        expect(f"pushforward {rule}, compared one level off", workloads._check_tile_measure(push, rule, 2), False)


def pressure() -> None:
    mp = oracles._mp()
    ball = thermo.ruelle_apply(Z2M2.parse(), _phi(), None, S(0), 3, 20)
    exact = oracles.transfer_sum(Z2M2.num, Z2M2.den, mp.mpc(0), 3, workloads.phi_mp)
    expect("ruelle ball", [] if oracles.ball_contains(ball.mid, ball.rad, exact) else ["miss"], True)
    moved = ball.mid + 2 * ball.rad + F(1, 1 << 60)
    expect("ruelle ball, moved by its diameter",
           [] if oracles.ball_contains(moved, ball.rad, exact) else ["miss"], False)
    res = thermo.pressure(Z2.parse(), workloads.potentials.const(F(1, 2)), 8, c0=F(1), R=F(0))
    true = mp.log(2) + mp.mpf(1) / 2
    expect("const pressure", [] if oracles.ball_contains(res.value.mid, res.value.rad, true) else ["miss"], True)
    off = BallReal(res.value.mid + 2 * res.value.rad + F(1, 1 << 60), res.value.rad)
    expect("const pressure, moved by its diameter",
           [] if oracles.ball_contains(off.mid, off.rad, true) else ["miss"], False)


def _phi():
    p = workloads.potentials
    return p.psum(p.basis(S(0)), p.scale(F(1, 2), p.pprod(p.basis(S(1)), p.basis(S(0, 1)))))


def benchmark_json() -> None:
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    have_layer = {m: layers.unit_of(m) for m in layers.LAYER_METRICS}
    have_layer.update({m: "s" for m in run.TRACE_EXTRA})
    problems = []
    if want_e2e != run.END_TO_END:
        problems.append(f"end_to_end {want_e2e} != harness {run.END_TO_END}")
    if want_layer != have_layer:
        problems.append(f"per_layer differs: {set(want_layer) ^ set(have_layer)}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ")
    expect("BENCHMARK.json metric names and units", problems, True)


if __name__ == "__main__":
    trees()
    transport()
    tiles()
    pressure()
    benchmark_json()
    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)
