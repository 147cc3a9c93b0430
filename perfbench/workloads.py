"""The three workloads: their inputs, their operations and their checks.

Each operation is a function of a `Segments` timer that runs one call (or
one short chain of calls) into equistate and returns its output.  Inside
it, `with seg(kind):` attributes time to one operation kind: "measure",
"pressure", "distance", "verify" or "cli".  Each operation has a check
that takes the output and returns a list of problems, computed with the
independent methods of `oracles`; the harness runs the checks after the
timed passes.

Operations run in list order, and an operation may take its input from an
earlier one of the same pass through `self.state`, which is emptied
before every pass.  Operations are kept short (under about 1 s here),
because the harness measures the machine's speed between operations.

All calls go through module attributes (`thermo.ruelle_apply`, not a
name imported from it), so the traced run sees them.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

from equistate import (cli, measures, potentials, ratmap, serialize, thermo,
                       thurston, verify)
from equistate.sphere import SpherePoint

import oracles

S = SpherePoint.finite


class Segments:
    """Seconds per operation kind."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, kind: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[kind] = self.seconds.get(kind, 0.0) + time.perf_counter() - t0


@dataclass
class Op:
    name: str
    run: Callable[[Segments], object]
    check: Callable[[object], list[str]]


@dataclass
class MapSpec:
    """A rational map as the CLI reads it, and as integer coefficient
    lists (lowest degree first) for the oracles."""

    expr: str
    num: list[int]
    den: list[int]

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def parse(self):
        return serialize.parse_map(self.expr)


Z2 = MapSpec("z^2", [0, 0, 1], [1])
Z2M2 = MapSpec("z^2-2", [-2, 0, 1], [1])
RAT = MapSpec("(z^2+1)/(z^2-1)", [1, 0, 1], [-1, 0, 1])


def _atoms_xy(mu):
    return [(p.value.re, p.value.im) for p, _ in mu.atoms]


def _check_tree_measure(mu, spec: MapSpec, anchor: int, depth: int) -> list[str]:
    leaves = oracles.true_tree_leaves(spec.num, spec.den, oracles.mpz(F(anchor), F(0)), depth)
    return (oracles.check_tree_atoms(_atoms_xy(mu), mu.atom_error, leaves)
            + oracles.check_tree_weights([w for _, w in mu.atoms], leaves, spec.degree, depth))


def _read_back_measure(path: str):
    return serialize.measure_from_json(serialize.load_json(path))


class Workload:
    name = ""
    why = ""

    def __init__(self) -> None:
        self.state: dict = {}

    def setup(self, seed: int, out_dir: str) -> dict:
        raise NotImplementedError

    def operations(self, inp: dict) -> list[Op]:
        raise NotImplementedError

    def before_pass(self) -> None:
        """Runs untimed before every pass."""
        self.state.clear()


# -- orbit ----------------------------------------------------------------

ORBIT_DEPTH = 6
JACOBIAN_POINTS = 25


class Orbit(Workload):
    name = "orbit"
    why = ("certified preimage trees with a zero potential: roots, ratmap and "
           "thermo dominate; potentials, ball_exp and transport get no calls")

    def setup(self, seed, out_dir):
        rng = random.Random(seed)
        f = Z2M2.parse()
        jac = []
        for _ in range(JACOBIAN_POINTS):
            # Drawn as the CLI's `verify jacobian` draws its points.
            x = S(F(rng.randint(-12, 12), rng.randint(1, 6)),
                  F(rng.randint(-12, 12), rng.randint(1, 6)))
            patches = verify.PatchSystem(measures.SPHERE, [
                verify.BallPatch(measures.SPHERE, c.center.center, F(1, 4))
                for c in ratmap.preimages(f, x, 40)
            ])
            jac.append((x, patches))
        # The patches and hats of acceptance criterion 6.
        patches = verify.PatchSystem(measures.SPHERE, [
            verify.BallPatch(measures.SPHERE, S(1), F(1, 3)),
            verify.BallPatch(measures.SPHERE, S(-1), F(1, 3)),
            verify.BallPatch(measures.SPHERE, S(0, 1), F(1, 3)),
            verify.BallPatch(measures.SPHERE, S(0, -1), F(1, 3)),
        ])
        hats = [
            measures.TestFunction(measures.SPHERE, S(1), F(0), F(1, 8)),
            measures.TestFunction(measures.SPHERE, S(0, 1), F(1, 16), F(1, 8)),
            measures.TestFunction(measures.SPHERE, S(-1), F(0), F(1, 4)),
        ]
        return {"z2m2": f, "z2": Z2.parse(), "rat": RAT.parse(),
                "J": verify.JacobianSpec.const(2), "jacobian": jac, "patches": patches,
                "hats": hats, "cli_out": os.path.join(out_dir, "cli")}

    def operations(self, inp):
        d = ORBIT_DEPTH
        out = inp["cli_out"]
        anchor = S(3)

        def cli_mme(seg):
            with seg("cli"):
                rc = cli.main(["mme", "--map", Z2M2.expr, "--depth", str(d), "--anchor", "3",
                               "--format", "both", "--out", out])
                mu = _read_back_measure(os.path.join(out, f"mme_depth{d}_result.json"))
            return rc, mu

        def check_cli_mme(res):
            rc, mu = res
            if rc != 0:
                return [f"exit code {rc}"]
            problems = _check_tree_measure(mu, Z2M2, 3, d)
            api = thermo.backward_orbit_measure(inp["z2m2"], None, anchor, d)
            if (mu.atoms, mu.atom_error) != (api.atoms, api.atom_error):
                problems.append("the mme JSON differs from the API measure")
            with open(os.path.join(out, f"mme_depth{d}.csv"), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if lines[0] != "point,re,im,weight" or len(lines) != len(mu) + 1:
                problems.append("the mme CSV does not list one row per atom")
            return problems

        def measure_rat(seg):
            with seg("measure"):
                return thermo.backward_orbit_measure(inp["rat"], None, anchor, d)

        def measure_z2(seg):
            with seg("measure"):
                self.state["mu_z2"] = thermo.backward_orbit_measure(inp["z2"], None, anchor, d)
            return self.state["mu_z2"]

        def membership_z2(seg):
            mu = self.state["mu_z2"]
            with seg("verify"):
                entries = verify.membership_residual(mu, inp["z2"], inp["patches"], inp["J"],
                                                     inp["hats"])
                ok = verify.membership_verdict(entries, F(1, 1 << 10))
            return entries, ok

        def check_membership(res):
            _, ok = res
            return [] if ok is True else ["membership_verdict rejects the backward-orbit measure"]

        def jacobian(seg):
            with seg("verify"):
                return [verify.jacobian_unitarity(inp["z2m2"], inp["J"], x, patches)
                        for x, patches in inp["jacobian"]]

        def check_jacobian(residuals):
            worst = max(r.upper() for r in residuals)
            return [] if worst <= F(1, 1 << 20) else [f"residual {float(worst):.3g} > 2^-20"]

        return [
            Op("cli_mme", cli_mme, check_cli_mme),
            Op("measure_rat", measure_rat, lambda mu: _check_tree_measure(mu, RAT, 3, d)),
            Op("measure_z2", measure_z2, lambda mu: _check_tree_measure(mu, Z2, 3, d)),
            Op("membership_z2", membership_z2, check_membership),
            Op("jacobian_z2m2", jacobian, check_jacobian),
        ]


# -- pressure -------------------------------------------------------------

RUELLE_POINTS = (F(0), F(1, 2), F(-1))
RUELLE_M = 5
RUELLE_N = 20
EMPIRICAL_N = 4
CERTIFIED_N = 12
CONST_C = (F(0), F(-1), F(1, 2))
SEEDED_C = 2

PHI_JSON = {
    "op": "sum",
    "children": [
        {"op": "basis", "point": {"re": "0", "im": "0"}},
        {"op": "scale", "value": "1/2", "child": {"op": "prod", "children": [
            {"op": "basis", "point": {"re": "1", "im": "0"}},
            {"op": "basis", "point": {"re": "0", "im": "1"}},
        ]}},
    ],
}


def phi_mp(z):
    """phi = sigma(., 0) + 1/2 sigma(., 1) sigma(., i), in mpmath."""
    mp = oracles._mp()
    sigma = oracles.chordal_mp
    return sigma(z, mp.mpc(0)) + sigma(z, mp.mpc(1)) * sigma(z, mp.mpc(0, 1)) / 2


def phi_potential():
    """The same phi, built with the library's constructors."""
    p = potentials
    return p.psum(p.basis(S(0)), p.scale(F(1, 2), p.pprod(p.basis(S(1)), p.basis(S(0, 1)))))


class Pressure(Workload):
    name = "pressure"
    why = ("transfer-operator iterates under a nonconstant potential: roots at "
           "higher precision plus ball_exp and potentials; no transport or tiles")

    def setup(self, seed, out_dir):
        rng = random.Random(seed)
        phi_path = os.path.join(out_dir, "phi.json")
        with open(phi_path, "w", encoding="utf-8") as fh:
            json.dump(PHI_JSON, fh)
        cs = list(CONST_C) + [F(rng.randint(-16, 16), rng.randint(1, 16)) for _ in range(SEEDED_C)]
        return {"z2m2": Z2M2.parse(), "z2": Z2.parse(), "phi": phi_potential(),
                "phi_path": phi_path, "consts": [(c, potentials.const(c)) for c in cs],
                "cli_out": os.path.join(out_dir, "cli")}

    def operations(self, inp):
        out = inp["cli_out"]
        mp = oracles._mp
        ops = []
        for x in RUELLE_POINTS:
            def ruelle(seg, x=x):
                with seg("pressure"):
                    return thermo.ruelle_apply(inp["z2m2"], inp["phi"], None, S(x), RUELLE_M,
                                               RUELLE_N)

            def check_ruelle(ball, x=x):
                exact = oracles.transfer_sum(Z2M2.num, Z2M2.den, oracles.mpz(x, F(0)), RUELLE_M,
                                             phi_mp)
                problems = []
                if not oracles.ball_contains(ball.mid, ball.rad, exact):
                    problems.append("the ruelle_apply ball misses the mpmath sum")
                if ball.rad > F(1, 1 << RUELLE_N):
                    problems.append("the ruelle_apply radius exceeds 2^-n")
                return problems

            ops.append(Op(f"ruelle_x{x}", ruelle, check_ruelle))

        def cli_pressure(seg):
            with seg("cli"):
                rc = cli.main(["pressure", "--map", Z2M2.expr, "--potential", "@" + inp["phi_path"],
                               "--mode", "empirical", "--n", str(EMPIRICAL_N), "--out", out])
                result = serialize.load_json(os.path.join(out, "pressure_result.json"))
            return rc, result

        def check_cli_pressure(res):
            rc, result = res
            if rc != 0:
                return [f"exit code {rc}"]
            m = mp()
            n_used = result["N_used"]
            anchor = oracles.mpz(F(result["anchor"]["re"]), F(result["anchor"]["im"]))

            def estimate(N):
                return m.log(oracles.transfer_sum(Z2M2.num, Z2M2.den, anchor, N, phi_mp)) / N

            est, prev = estimate(n_used), estimate(n_used - 1)
            problems = []
            if result["mode"] != "empirical" or result["n_bits"] != EMPIRICAL_N:
                problems.append("the result does not echo the empirical request")
            if not oracles.ball_contains(F(result["value"]["mid"]), F(result["value"]["rad"]), est):
                problems.append("the reported ball misses (1/N) log L^N 1(anchor)")
            if abs(est - prev) > oracles.mpq(F(1, 1 << (EMPIRICAL_N + 2))):
                problems.append("the N and N-1 estimates differ by more than 2^-(n+2)")
            return problems

        cases = [(inp[name], c, pot) for name in ("z2", "z2m2") for c, pot in inp["consts"]]

        def certified(seg):
            with seg("pressure"):
                return [thermo.pressure(f, pot, CERTIFIED_N, c0=F(1), R=F(0)) for f, _, pot in cases]

        def check_certified(results):
            m = mp()
            problems = []
            for res, (_, c, _) in zip(results, cases):
                if not oracles.ball_contains(res.value.mid, res.value.rad, m.log(2) + oracles.mpq(c)):
                    problems.append(f"the enclosure misses log 2 + {c}")
                if res.value.rad > F(1, 1 << CERTIFIED_N):
                    problems.append("the radius exceeds 2^-n")
            return problems

        return ops + [Op("cli_pressure", cli_pressure, check_cli_pressure),
                      Op("pressure_const", certified, check_certified)]


# -- transport_tiles ------------------------------------------------------

W_PAIRS = ((4, 5), (3, 6))
W_TILES = ("g1", 2, 1)
TILE_TOPS = (("g1", 3), ("g2", 3))


def _clear_tile_cache() -> None:
    fn = thurston.tile_complex
    while not hasattr(fn, "cache_clear"):  # under the traced wrapper
        fn = fn.__wrapped__
    fn.cache_clear()


def _tiles_of(rule: str, level: int):
    return [(t.face, tuple(v.coords for v in t.verts))
            for t in thurston.tile_complex(rule, level).tiles]


def _tile_atoms(mu):
    return [((p.face, p.coords), w) for p, w in mu.atoms]


def _check_tile_measure(mu, rule: str, level: int) -> list[str]:
    deg = thurston.rule_degree(rule)
    return oracles.check_tile_measure(_tile_atoms(mu), _tiles_of(rule, level), deg, level)


def _check_transport(wd, mu, nu, float_cost) -> list[str]:
    problems = oracles.check_lp_certificate(
        [w for _, w in mu.atoms], [w for _, w in nu.atoms], wd.pinned_cost,
        wd.plan, wd.transport.potentials_u, wd.transport.potentials_v, wd.transport.value)
    if wd.value.mid != wd.transport.value:
        problems.append("the distance ball is not centred on the LP optimum")
    lp = oracles.linprog_value([w for _, w in mu.atoms], [w for _, w in nu.atoms], float_cost)
    if abs(lp - float(wd.transport.value)) > 1e-9:
        problems.append(f"HiGHS finds {lp!r}, the simplex {float(wd.transport.value)!r}")
    return problems


class TransportTiles(Workload):
    name = "transport_tiles"
    why = ("exact transport simplex and subdivision maps: transport, measures, "
           "thurston and trisphere dominate; roots run only in set-up")

    def setup(self, seed, out_dir):
        # No input here depends on the seed: other anchors or atom orders
        # change the simplex's pivot count severalfold.
        f = Z2.parse()
        paths = {}
        for depth in sorted({d for pair in W_PAIRS for d in pair}):
            mu = thermo.backward_orbit_measure(f, None, S(3), depth)
            paths[depth] = os.path.join(out_dir, f"z2_depth{depth}.json")
            serialize.dump_json(serialize.measure_to_json(mu), paths[depth])
        return {"paths": paths, "cli_out": os.path.join(out_dir, "cli"),
                "maps": {rule: thurston.SubdivisionMap(rule) for rule, _ in TILE_TOPS}}

    def before_pass(self):
        super().before_pass()
        # A user's first call in a process builds the tile complexes.
        _clear_tile_cache()

    def operations(self, inp):
        out = inp["cli_out"]
        ops = []
        for da, db in W_PAIRS:
            a_path, b_path = inp["paths"][da], inp["paths"][db]

            def cli_wasserstein(seg, a_path=a_path, b_path=b_path):
                with seg("cli"):
                    rc = cli.main(["wasserstein", "--a", a_path, "--b", b_path, "--out", out])
                    result = serialize.load_json(os.path.join(out, "wasserstein_result.json"))
                return rc, result

            def check_cli_wasserstein(res, a_path=a_path, b_path=b_path):
                rc, result = res
                if rc != 0:
                    return [f"exit code {rc}"]
                mu, nu = _read_back_measure(a_path), _read_back_measure(b_path)
                wd = measures.wasserstein_detail(mu, nu, 30)
                cost = oracles.sphere_cost_matrix(
                    [complex(float(x), float(y)) for x, y in _atoms_xy(mu)],
                    [complex(float(x), float(y)) for x, y in _atoms_xy(nu)])
                problems = _check_transport(wd, mu, nu, cost)
                dist = result["distance"]
                if (F(dist["mid"]), F(dist["rad"])) != (wd.value.mid, wd.value.rad):
                    problems.append("the CLI distance differs from the certified optimum")
                return problems

            ops.append(Op(f"cli_wasserstein_{da}_{db}", cli_wasserstein, check_cli_wasserstein))

        rule, hi, lo = W_TILES

        def wasserstein_tiles(seg):
            with seg("measure"):
                mu = thurston.mme_tile_measure(rule, hi)
                nu = thurston.mme_tile_measure(rule, lo)
            with seg("distance"):
                wd = measures.wasserstein_detail(mu, nu)
            return mu, nu, wd

        def check_wasserstein_tiles(res):
            mu, nu, wd = res
            cost = [[oracles.pillow_distance((p.face, p.coords), (q.face, q.coords))
                     for q, _ in nu.atoms] for p, _ in mu.atoms]
            return (_check_tile_measure(mu, rule, hi) + _check_tile_measure(nu, rule, lo)
                    + _check_transport(wd, mu, nu, cost))

        ops.append(Op(f"wasserstein_{rule}_{hi}_{lo}", wasserstein_tiles, check_wasserstein_tiles))
        for tile_rule, top in TILE_TOPS:
            levels = range(1, top + 1)

            def tile_measures(seg, tile_rule=tile_rule, levels=levels):
                with seg("measure"):
                    self.state[tile_rule] = [thurston.mme_tile_measure(tile_rule, n) for n in levels]
                return self.state[tile_rule]

            def check_tile_measures(mus, tile_rule=tile_rule, levels=levels):
                deg = thurston.rule_degree(tile_rule)
                problems = []
                for mu, n in zip(mus, levels):
                    problems += oracles.check_tile_complex(_tiles_of(tile_rule, n), deg, n)
                    problems += _check_tile_measure(mu, tile_rule, n)
                return problems

            def pushforwards(seg, tile_rule=tile_rule):
                with seg("verify"):
                    return [measures.pushforward(mu, inp["maps"][tile_rule])
                            for mu in self.state[tile_rule]]

            def check_pushforwards(pushed, tile_rule=tile_rule, levels=levels):
                # The pushforward of the level-n measure is the level n-1 one.
                return [p for push, n in zip(pushed, levels)
                        for p in _check_tile_measure(push, tile_rule, n - 1)]

            ops += [Op(f"mme_{tile_rule}", tile_measures, check_tile_measures),
                    Op(f"pushforward_{tile_rule}", pushforwards, check_pushforwards)]
        return ops


WORKLOADS = {w.name: w for w in (Orbit(), Pressure(), TransportTiles())}
