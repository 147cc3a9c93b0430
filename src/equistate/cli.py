"""Command-line surface: certified computations with reproducible artifacts.

Every command writes a result JSON (exact rationals as "p/q" strings, so
outputs are byte-identical across runs) plus a manifest recording the full
parameter set, tool version, tolerances, and timing.  Exit codes:
0 computed, 2 verification FAIL (computed, negative verdict),
3 precondition or parse failure (usage errors included), 4 precision or
iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .balls import DirectedReal
from .dyadics import format_rational
from .errors import (
    EquistateError,
    ExcludedAnchor,
    ExcludedPoint,
    ParseError,
    PrecisionExhausted,
)
from .measures import SPHERE, FiniteMeasure, TestFunction, wasserstein
from .potentials import holder_bound, potential_from_json, potential_to_json
from .ratmap import preimages
from .roots import certified_roots
from .serialize import (
    dump_json,
    load_json,
    map_to_json,
    measure_from_json,
    measure_to_csv,
    measure_to_json,
    parse_map,
    parse_potential,
    parse_sphere_point,
    point_to_json,
)
from .sphere import sphere_point_to_json
from .thermo import backward_orbit_measure, birkhoff_sum, pressure
from .thurston import mme_tile_measure, max_tile_diameter, tile_complex, tile_complex_to_json
from .verify import (
    JacobianSpec,
    jacobian_unitarity,
    membership_residual,
    membership_verdict,
    standard_sphere_patches,
    tangent_certificate,
)

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_PRECONDITION = 3
EXIT_PRECISION = 4


def _out_dir(args) -> str:
    out = args.out or os.environ.get("EQUISTATE_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _ball_json(b):
    return {
        "mid": format_rational(b.mid),
        "rad": format_rational(b.rad),
        "float": float(b.mid),
    }


def _write(args, name: str, result: dict, started: float, extra_outputs=()) -> None:
    out = _out_dir(args)
    result_path = os.path.join(out, f"{name}_result.json")
    dump_json(result, result_path)
    manifest = {
        "command": name,
        "parameters": {k: repr(v) for k, v in sorted(vars(args).items())
                       if k != "func"},
        "tool_version": __version__,
        "seeds": None,
        "timing": {"started": started, "elapsed_s": time.time() - started},
        "outputs": [result_path, *extra_outputs],
    }
    dump_json(manifest, os.path.join(out, f"{name}_manifest.json"))
    print(result_path)


def _missing(what: str, args, *names: str) -> bool:
    """Report the first of the named options that was not given."""
    for name in names:
        if getattr(args, name) is None:
            print(f"{what} requires --{name}", file=sys.stderr)
            return True
    return False


def _below_one(what: str, args, name: str) -> bool:
    """Report a count option that would make the check vacuous."""
    if getattr(args, name) < 1:
        print(f"{what} requires --{name.replace('_', '-')} >= 1", file=sys.stderr)
        return True
    return False


def _parse_jacobian(text: str) -> JacobianSpec:
    if text.startswith("const:"):
        return JacobianSpec.const(Fraction(text.split(":", 1)[1]))
    raise ParseError(f"unsupported Jacobian spec {text!r} (use const:q)")


# -- commands -----------------------------------------------------------


def cmd_pressure(args) -> int:
    started = time.time()
    f = parse_map(args.map)
    phi = parse_potential(args.potential)
    if args.mode == "certified":
        if _missing("pressure: certified mode", args, "c0"):
            return EXIT_PRECONDITION
        c0 = Fraction(args.c0)
        if args.R is not None:
            R = Fraction(args.R)
        else:
            # Default: the potential's explicit chordal bound scaled by the
            # configured visual-metric constant (configuration, not computed).
            R = Fraction(args.visual_c) * holder_bound(phi)
        res = pressure(f, phi, args.n, c0=c0, R=R, mode="certified")
    else:
        res = pressure(f, phi, args.n, mode="empirical")
    result = {
        "value": _ball_json(res.value),
        "n_bits": res.n_bits,
        "N_used": res.N_used,
        "anchor": sphere_point_to_json(res.anchor),
        "c0_used": format_rational(res.c0_used) if res.c0_used is not None else None,
        "R_used": format_rational(res.R_used) if res.R_used is not None else None,
        "mode": res.mode,
        "map": map_to_json(f),
        "potential": potential_to_json(phi),
    }
    _write(args, "pressure", result, started)
    return EXIT_OK


def cmd_mme(args) -> int:
    started = time.time()
    if args.rule:
        if _missing("mme --rule", args, "level"):
            return EXIT_PRECONDITION
        mu = mme_tile_measure(args.rule, args.level)
        name = f"mme_{args.rule}_level{args.level}"
    else:
        if _missing("mme without --rule", args, "map", "depth"):
            return EXIT_PRECONDITION
        f = parse_map(args.map)
        anchor = parse_sphere_point(args.anchor)
        phi = parse_potential(args.potential) if args.potential else None
        mu = backward_orbit_measure(f, phi, anchor, args.depth)
        name = f"mme_depth{args.depth}"
    out = _out_dir(args)
    extra = []
    if args.format in ("csv", "both"):
        csv_path = os.path.join(out, f"{name}.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(measure_to_csv(mu))
        extra.append(csv_path)
    _write(args, name, measure_to_json(mu), started, extra)
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.time()
    if args.check == "jacobian":
        return _verify_jacobian(args, started)
    if args.check == "membership":
        return _verify_membership(args, started)
    if args.check == "tangent":
        return _verify_tangent(args, started)
    print(f"verify: unknown check {args.check!r}", file=sys.stderr)
    return EXIT_PRECONDITION


def _random_regular_points(f, count: int):
    import random

    from .sphere import INF, SpherePoint

    rng = random.Random(20250809)
    out = []
    f_inf = f.apply(INF)
    while len(out) < count:
        re = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        im = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        p = SpherePoint.finite(re, im)
        if p == f_inf:
            continue
        out.append(p)
    return out


def _verify_jacobian(args, started: float) -> int:
    if (_missing("verify jacobian", args, "map", "J")
            or _below_one("verify jacobian", args, "points")):
        return EXIT_PRECONDITION
    f = parse_map(args.map)
    J = _parse_jacobian(args.J)
    tol = Fraction(args.tol) if args.tol else Fraction(1, 1 << 20)
    points = _random_regular_points(f, args.points)
    rows = []
    worst = Fraction(0)
    for x in points:
        pres = preimages(f, x, 40)
        from .verify import BallPatch, PatchSystem

        patches = PatchSystem(SPHERE, [
            BallPatch(SPHERE, c.center.center, Fraction(1, 4)) for c in pres
        ])
        res = jacobian_unitarity(f, J, x, patches, prec=40)
        worst = max(worst, res.upper())
        rows.append({
            "point": sphere_point_to_json(x),
            "residual": _ball_json(res),
        })
    verdict = "PASS" if worst <= tol else "FAIL"
    result = {
        "check": "jacobian",
        "inputs": {"map": map_to_json(f), "J": args.J, "points": args.points},
        "residuals": rows,
        "worst_residual": format_rational(worst),
        "verdict": verdict,
        "tolerances": {"tol": format_rational(tol)},
    }
    _write(args, "verify_jacobian", result, started)
    return EXIT_OK if verdict == "PASS" else EXIT_FAIL


def _default_tests(mu: FiniteMeasure) -> list[TestFunction]:
    """Hats at the measure's heaviest atoms, dyadic scales."""
    heavy = sorted(mu.atoms, key=lambda pw: (-pw[1],) + pw[0].sort_key())[:4]
    return [
        TestFunction(mu.space, p, Fraction(0), eps)
        for p, _ in heavy
        for eps in (Fraction(1, 4), Fraction(1, 16))
    ]


def _verify_membership(args, started: float) -> int:
    if (_missing("verify membership", args, "measure", "map", "J")
            or _below_one("verify membership", args, "max_patches")):
        return EXIT_PRECONDITION
    mu = measure_from_json(load_json(args.measure))
    if mu.space != SPHERE:
        raise ParseError(f"verify membership needs a measure on {SPHERE}, not {mu.space}")
    f = parse_map(args.map)
    J = _parse_jacobian(args.J)
    tol = Fraction(args.tol) if args.tol else Fraction(1, 1 << 10)
    mesh = Fraction(args.mesh) if args.mesh else Fraction(0)
    anchors = [p for p, _ in mu.atoms[: args.max_patches]]
    patches = standard_sphere_patches(f, anchors, Fraction(1, 2))
    tests = _default_tests(mu)
    entries = membership_residual(mu, f, patches, J, tests, mesh=mesh)
    ok = membership_verdict(entries, tol)
    result = {
        "check": "membership",
        "inputs": {"measure": args.measure, "map": map_to_json(f), "J": args.J},
        "residuals": [
            {
                "patch": e.patch,
                "test": e.test,
                "value": format_rational(e.residual.mid),
                "radius": format_rational(e.residual.rad),
                "slack": format_rational(e.slack),
            }
            for e in entries
        ],
        "verdict": "PASS" if ok else "FAIL",
        "tolerances": {"tol": format_rational(tol), "mesh": format_rational(mesh)},
    }
    _write(args, "verify_membership", result, started)
    return EXIT_OK if ok else EXIT_FAIL


def _verify_tangent(args, started: float) -> int:
    if _missing("verify tangent", args, "measure", "phi", "witnesses"):
        return EXIT_PRECONDITION
    mu = measure_from_json(load_json(args.measure))
    phi = parse_potential(args.phi)
    tol = Fraction(args.tol) if args.tol else Fraction(1, 1 << 10)
    spec = load_json(args.witnesses)
    try:
        witnesses = []
        for entry in spec["witnesses"]:
            psi = potential_from_json(entry["psi"])
            upper = DirectedReal(
                tuple(Fraction(t) for t in entry["upper"]), "upper"
            )
            witnesses.append((psi, upper))
        p_lower = DirectedReal(
            tuple(Fraction(t) for t in spec["p_lower"]), "lower"
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad witnesses JSON: {exc}") from exc
    res = tangent_certificate(mu, phi, witnesses, p_lower, tol)
    result = {
        "check": "tangent",
        "inputs": {"measure": args.measure, "phi": potential_to_json(phi),
                   "witnesses": args.witnesses},
        "residuals": [
            {"witness": i, "gap": _ball_json(g)} for i, g in enumerate(res.gaps)
        ],
        "verdict": "PASS" if res.passed else "FAIL",
        "failing_witness": res.witness_index,
        "tolerances": {"tol": format_rational(tol)},
    }
    _write(args, "verify_tangent", result, started)
    return EXIT_OK if res.passed else EXIT_FAIL


def cmd_roots(args) -> int:
    started = time.time()
    f = parse_map(args.poly)
    if f.den.degree > 0:
        print("roots: expected a polynomial, got a rational map", file=sys.stderr)
        return EXIT_PRECONDITION
    clusters = certified_roots(f.num, args.l)
    result = {
        "poly": map_to_json(f)["num"],
        "l": args.l,
        "clusters": [
            {
                "center": point_to_json(c.center.center),
                "chordal_radius": format_rational(c.center.rad),
                "multiplicity": c.multiplicity,
            }
            for c in clusters
        ],
    }
    _write(args, "roots", result, started)
    return EXIT_OK


def cmd_preimages(args) -> int:
    started = time.time()
    f = parse_map(args.map)
    x = parse_sphere_point(args.point)
    clusters = preimages(f, x, args.l)
    result = {
        "map": map_to_json(f),
        "point": sphere_point_to_json(x),
        "l": args.l,
        "preimages": [
            {
                "center": point_to_json(c.center.center),
                "chordal_radius": format_rational(c.center.rad),
                "local_degree": c.multiplicity,
            }
            for c in clusters
        ],
    }
    _write(args, "preimages", result, started)
    return EXIT_OK


def cmd_wasserstein(args) -> int:
    started = time.time()
    mu = measure_from_json(load_json(args.a))
    nu = measure_from_json(load_json(args.b))
    w = wasserstein(mu, nu, args.prec)
    result = {"a": args.a, "b": args.b, "distance": _ball_json(w)}
    _write(args, "wasserstein", result, started)
    return EXIT_OK


def cmd_tiles(args) -> int:
    started = time.time()
    c = tile_complex(args.rule, args.level)
    result = tile_complex_to_json(c)
    result["max_tile_diameter"] = _ball_json(max_tile_diameter(c, 40))
    _write(args, f"tiles_{args.rule}_level{args.level}", result, started)
    return EXIT_OK


def cmd_birkhoff(args) -> int:
    started = time.time()
    f = parse_map(args.map)
    phi = parse_potential(args.potential)
    x = parse_sphere_point(args.point)
    s = birkhoff_sum(f, phi, x, args.steps, args.n)
    result = {
        "map": map_to_json(f),
        "potential": potential_to_json(phi),
        "point": sphere_point_to_json(x),
        "steps": args.steps,
        "sum": _ball_json(s),
    }
    _write(args, "birkhoff", result, started)
    return EXIT_OK


# -- argument wiring ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors become a ParseError, which `main` reports in one line
    with exit 3; argparse's own exit 2 is the code of a FAIL verdict here.
    Subparsers are made from the same class."""

    def error(self, message: str):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="equistate",
        description="Certified thermodynamic quantities of complex dynamics",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory "
                       "(default: $EQUISTATE_OUT_DIR or cwd)")
        p.add_argument("--format", choices=("json", "csv", "both"),
                       default="json")

    p = sub.add_parser("pressure", help="topological pressure to 2^-n")
    p.add_argument("--map", required=True)
    p.add_argument("--potential", required=True)
    p.add_argument("--n", type=int, required=True, help="precision bits")
    p.add_argument("--c0", default=None, help="iterate-distortion constant")
    p.add_argument("--R", default=None, help="Hoelder-seminorm bound")
    p.add_argument("--visual-c", default="1", dest="visual_c",
                   help="configured metric-comparison constant for default R")
    p.add_argument("--mode", choices=("certified", "empirical"),
                   default="certified")
    common(p)
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("mme", help="maximal-entropy measure approximants")
    p.add_argument("--map", default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--anchor", default="3")
    p.add_argument("--potential", default=None)
    p.add_argument("--rule", choices=("g1", "g2"), default=None)
    p.add_argument("--level", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_mme)

    p = sub.add_parser("verify", help="equilibrium-state verification checks")
    p.add_argument("check", choices=("jacobian", "membership", "tangent"))
    p.add_argument("--map", default=None)
    p.add_argument("--J", default=None)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--measure", default=None)
    p.add_argument("--phi", default=None)
    p.add_argument("--witnesses", default=None)
    p.add_argument("--tol", default=None)
    p.add_argument("--mesh", default=None)
    p.add_argument("--max-patches", type=int, default=8, dest="max_patches")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roots", help="certified polynomial roots")
    p.add_argument("--poly", required=True)
    p.add_argument("--l", type=int, default=30, help="chordal precision bits")
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("preimages", help="certified preimages with local degrees")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--l", type=int, default=30)
    common(p)
    p.set_defaults(func=cmd_preimages)

    p = sub.add_parser("wasserstein", help="transport distance between measures")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--prec", type=int, default=30)
    common(p)
    p.set_defaults(func=cmd_wasserstein)

    p = sub.add_parser("tiles", help="subdivision tile complexes")
    p.add_argument("--rule", choices=("g1", "g2"), required=True)
    p.add_argument("--level", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_tiles)

    p = sub.add_parser("birkhoff", help="certified Birkhoff sums")
    p.add_argument("--map", required=True)
    p.add_argument("--potential", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--n", type=int, default=30)
    common(p)
    p.set_defaults(func=cmd_birkhoff)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, ExcludedPoint, ExcludedAnchor, ValueError, OSError) as exc:
        print(f"equistate: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PrecisionExhausted as exc:
        print(f"equistate: precision or iteration budget exhausted: {exc}",
              file=sys.stderr)
        return EXIT_PRECISION
    except EquistateError as exc:
        print(f"equistate: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
