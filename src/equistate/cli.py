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
import functools
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .dyadics import format_rational, parse_rational
from .errors import EquistateError, ParseError, PrecisionExhausted
from .measures import SPHERE, FiniteMeasure, TestFunction, wasserstein
from .potentials import holder_bound
from .ratmap import preimages
from .roots import certified_roots
from .serialize import (
    ball_to_json,
    dump_json,
    load_json,
    map_to_json,
    measure_from_json,
    measure_to_csv,
    measure_to_json,
    parse_jacobian,
    parse_map,
    parse_potential,
    parse_sphere_point,
    point_to_json,
    potential_to_json,
    tile_complex_to_json,
    witnesses_from_json,
)
from .sphere import SpherePoint
from .thermo import backward_orbit_measure, birkhoff_sum, empirical_pressure, pressure
from .thurston import mme_tile_measure, max_tile_diameter, tile_complex
from .verify import (
    BallPatch,
    PatchSystem,
    jacobian_unitarity,
    membership_residual,
    membership_verdict,
    tangent_certificate,
)

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_PRECONDITION = 3
EXIT_PRECISION = 4


def _write(args, name: str, result: dict, started: float, csv=None) -> None:
    """Write the CSV files ({file name: text}), the result JSON and the
    manifest; print the result path."""
    out = args.out or os.environ.get("EQUISTATE_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    extra = []
    for csv_name, text in (csv or {}).items():
        extra.append(os.path.join(out, csv_name))
        with open(extra[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    result_path = os.path.join(out, f"{name}_result.json")
    dump_json(result, result_path)
    manifest = {
        "command": name,
        "parameters": {k: repr(v) for k, v in sorted(vars(args).items())
                       if k != "func"},
        "tool_version": __version__,
        "seeds": None,
        "timing": {"started": started, "elapsed_s": time.time() - started},
        "outputs": [result_path, *extra],
    }
    dump_json(manifest, os.path.join(out, f"{name}_manifest.json"))
    print(result_path)


def _require(what: str, args, *names: str) -> None:
    """Raise for the first of the named options that was not given."""
    for name in names:
        if getattr(args, name) is None:
            raise ParseError(f"{what} requires --{name}")


def _reject(what: str, args, *names: str) -> None:
    """Raise for the first of the named options that was given: the mode
    in use does not read it."""
    for name in names:
        if getattr(args, name) is not None:
            raise ParseError(f"{what} does not read --{name}")


# -- commands: each returns (name, result JSON[, {csv name: text}]) --------


def cmd_pressure(args):
    f = parse_map(args.map)
    phi = parse_potential(args.potential)
    if args.mode == "certified":
        _require("pressure: certified mode", args, "c0")
        # Default R: the potential's explicit chordal Hoelder bound.
        R = holder_bound(phi) if args.R is None else args.R
        res = pressure(f, phi, args.n, c0=args.c0, R=R)
        c0_used, R_used = format_rational(args.c0), format_rational(R)
    else:
        _reject("pressure --mode empirical", args, "c0", "R")
        res = empirical_pressure(f, phi, args.n)
        c0_used = R_used = None
    return "pressure", {
        "value": ball_to_json(res.value),
        "n_bits": args.n,
        "N_used": res.N_used,
        "anchor": point_to_json(res.anchor),
        "c0_used": c0_used,
        "R_used": R_used,
        "mode": args.mode,
        "map": map_to_json(f),
        "potential": potential_to_json(phi),
    }


def cmd_mme(args):
    if args.rule:
        _reject("mme --rule", args, "map", "depth", "anchor", "potential")
        _require("mme --rule", args, "level")
        mu = mme_tile_measure(args.rule, args.level)
        name = f"mme_{args.rule}_level{args.level}"
    else:
        _require("mme without --rule", args, "map", "depth")
        _reject("mme --map", args, "level")
        f = parse_map(args.map)
        anchor = parse_sphere_point("3" if args.anchor is None else args.anchor)
        phi = parse_potential(args.potential) if args.potential else None
        mu = backward_orbit_measure(f, phi, anchor, args.depth)
        name = f"mme_depth{args.depth}"
    csv = {f"{name}.csv": measure_to_csv(mu)} if args.format != "json" else {}
    return name, measure_to_json(mu), csv


def _random_regular_points(f, count: int):
    rng = random.Random(20250809)
    out = []
    while len(out) < count:
        re = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        im = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        p = SpherePoint.finite(re, im)
        if p == f.at_infinity:
            continue
        out.append(p)
    return out


def cmd_verify_jacobian(args):
    f = parse_map(args.map)
    J = parse_jacobian(args.J)
    rows = []
    worst = Fraction(0)
    for x in _random_regular_points(f, args.points):
        patches = PatchSystem(SPHERE, [
            BallPatch(SPHERE, c.center.center, Fraction(1, 4)) for c in preimages(f, x, 40)
        ])
        res = jacobian_unitarity(f, J, x, patches, prec=40)
        worst = max(worst, res.upper())
        rows.append({
            "point": point_to_json(x),
            "residual": ball_to_json(res),
        })
    return "verify_jacobian", {
        "check": "jacobian",
        "inputs": {"map": map_to_json(f), "J": args.J, "points": args.points},
        "residuals": rows,
        "worst_residual": format_rational(worst),
        "verdict": "PASS" if worst <= args.tol else "FAIL",
        "tolerances": {"tol": format_rational(args.tol)},
    }


def _default_tests(mu: FiniteMeasure) -> list[TestFunction]:
    """Hats at the measure's heaviest atoms, dyadic scales; equal weights
    keep the atoms' canonical order (the sort is stable)."""
    heavy = sorted(mu.atoms, key=lambda pw: -pw[1])[:4]
    return [
        TestFunction(mu.space, p, Fraction(0), eps)
        for p, _ in heavy
        for eps in (Fraction(1, 4), Fraction(1, 16))
    ]


def cmd_verify_membership(args):
    mu = measure_from_json(load_json(args.measure))
    if mu.space != SPHERE:
        raise ParseError(f"verify membership needs a measure on {SPHERE}, not {mu.space}")
    f = parse_map(args.map)
    J = parse_jacobian(args.J)
    anchors = [p for p, _ in mu.atoms[: args.max_patches]]
    patches = PatchSystem(SPHERE, [BallPatch(SPHERE, a, Fraction(1, 2)) for a in anchors])
    entries = membership_residual(mu, f, patches, J, _default_tests(mu), mesh=args.mesh)
    return "verify_membership", {
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
        "verdict": "PASS" if membership_verdict(entries, args.tol) else "FAIL",
        "tolerances": {"tol": format_rational(args.tol), "mesh": format_rational(args.mesh)},
    }


def cmd_verify_tangent(args):
    mu = measure_from_json(load_json(args.measure))
    phi = parse_potential(args.phi)
    witnesses, p_lower = witnesses_from_json(load_json(args.witnesses))
    res = tangent_certificate(mu, phi, witnesses, p_lower, args.tol)
    return "verify_tangent", {
        "check": "tangent",
        "inputs": {"measure": args.measure, "phi": potential_to_json(phi),
                   "witnesses": args.witnesses},
        "residuals": [
            {"witness": i, "gap": ball_to_json(g)} for i, g in enumerate(res.gaps)
        ],
        "verdict": "PASS" if res.passed else "FAIL",
        "failing_witness": res.witness_index,
        "tolerances": {"tol": format_rational(args.tol)},
    }


def cmd_roots(args):
    f = parse_map(args.poly)
    if f.den.degree > 0:
        raise ParseError("roots: expected a polynomial, got a rational map")
    clusters = certified_roots(f.num, args.l)
    return "roots", {
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


def cmd_preimages(args):
    f = parse_map(args.map)
    x = parse_sphere_point(args.point)
    clusters = preimages(f, x, args.l)
    return "preimages", {
        "map": map_to_json(f),
        "point": point_to_json(x),
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


def cmd_wasserstein(args):
    mu = measure_from_json(load_json(args.a))
    nu = measure_from_json(load_json(args.b))
    w = wasserstein(mu, nu, args.prec)
    return "wasserstein", {"a": args.a, "b": args.b, "distance": ball_to_json(w)}


def cmd_tiles(args):
    c = tile_complex(args.rule, args.level)
    result = tile_complex_to_json(c)
    result["max_tile_diameter"] = ball_to_json(max_tile_diameter(c, 40))
    return f"tiles_{args.rule}_level{args.level}", result


def cmd_birkhoff(args):
    f = parse_map(args.map)
    phi = parse_potential(args.potential)
    x = parse_sphere_point(args.point)
    s = birkhoff_sum(f, phi, x, args.steps, args.n)
    return "birkhoff", {
        "map": map_to_json(f),
        "potential": potential_to_json(phi),
        "point": point_to_json(x),
        "steps": args.steps,
        "sum": ball_to_json(s),
    }


# -- argument wiring ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors become a ParseError, which `main` reports in one line
    with exit 3; argparse's own exit 2 is the code of a FAIL verdict here.
    Subparsers are made from the same class."""

    def error(self, message: str):
        raise ParseError(message)


def _rational(text: str) -> Fraction:
    """Option type: a rational read by `parse_rational`, so that a bad one
    (such as 1/0) is a usage error naming the option."""
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _nonnegative(text: str) -> Fraction:
    """Option type: a rational >= 0, for a tolerance or a transport bound."""
    q = _rational(text)
    if q < 0:
        raise argparse.ArgumentTypeError(f"expected a rational >= 0, not {text!r}")
    return q


def _count(text: str) -> int:
    """Option type: an integer >= 1, for counts that 0 would make vacuous."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, not {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="equistate",
        description="Certified thermodynamic quantities of complex dynamics",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def command(parent, name, func, summary):
        p = parent.add_parser(name, help=summary)
        p.add_argument("--out", default=None, help="output directory "
                       "(default: $EQUISTATE_OUT_DIR or cwd)")
        p.set_defaults(func=func)
        return p

    p = command(sub, "pressure", cmd_pressure, "topological pressure to 2^-n")
    p.add_argument("--map", required=True)
    p.add_argument("--potential", required=True)
    p.add_argument("--n", type=int, required=True, help="precision bits")
    p.add_argument("--c0", type=_rational, default=None, help="iterate-distortion constant")
    p.add_argument("--R", type=_rational, default=None,
                   help="Hoelder-seminorm bound (default: the potential's structural bound)")
    p.add_argument("--mode", choices=("certified", "empirical"),
                   default="certified")

    p = command(sub, "mme", cmd_mme, "maximal-entropy measure approximants")
    p.add_argument("--map", default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--anchor", default=None)
    p.add_argument("--potential", default=None)
    p.add_argument("--rule", choices=("g1", "g2"), default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")

    verify = sub.add_parser("verify", help="equilibrium-state verification checks")
    checks = verify.add_subparsers(dest="check", required=True)
    p = command(checks, "jacobian", cmd_verify_jacobian, "Jacobian unitarity residuals")
    p.add_argument("--map", required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--points", type=_count, default=25)
    p.add_argument("--tol", type=_nonnegative, default=Fraction(1, 1 << 20))
    p = command(checks, "membership", cmd_verify_membership,
                "prescribed-Jacobian membership residuals")
    p.add_argument("--measure", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--tol", type=_nonnegative, default=Fraction(1, 1 << 10))
    p.add_argument("--mesh", type=_nonnegative, default=Fraction(0))
    p.add_argument("--max-patches", type=_count, default=8, dest="max_patches")
    p = command(checks, "tangent", cmd_verify_tangent, "tangent-functional certificate")
    p.add_argument("--measure", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--witnesses", required=True)
    p.add_argument("--tol", type=_nonnegative, default=Fraction(1, 1 << 10))

    p = command(sub, "roots", cmd_roots, "certified polynomial roots")
    p.add_argument("--poly", required=True)
    p.add_argument("--l", type=int, default=30, help="chordal precision bits")

    p = command(sub, "preimages", cmd_preimages, "certified preimages with local degrees")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--l", type=int, default=30)

    p = command(sub, "wasserstein", cmd_wasserstein, "transport distance between measures")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--prec", type=int, default=30)

    p = command(sub, "tiles", cmd_tiles, "subdivision tile complexes")
    p.add_argument("--rule", choices=("g1", "g2"), required=True)
    p.add_argument("--level", type=int, required=True)

    p = command(sub, "birkhoff", cmd_birkhoff, "certified Birkhoff sums")
    p.add_argument("--map", required=True)
    p.add_argument("--potential", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--n", type=int, default=30)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and kept: parsing
    reads it without changing it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        started = time.time()
        name, result, *csv = args.func(args)
        _write(args, name, result, started, *csv)
        return EXIT_FAIL if result.get("verdict") == "FAIL" else EXIT_OK
    except PrecisionExhausted as exc:
        print(f"equistate: precision or iteration budget exhausted: {exc}",
              file=sys.stderr)
        return EXIT_PRECISION
    except (EquistateError, ValueError, OSError) as exc:
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            print("equistate: the result holds an integer beyond Python's limit of "
                  f"{sys.get_int_max_str_digits()} digits for writing an integer as "
                  "text; ask for a lower --prec", file=sys.stderr)
            return EXIT_PRECISION
        print(f"equistate: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
