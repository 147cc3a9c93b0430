import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equistate import potentials as pot
from equistate.cli import build_parser, main
from equistate.measures import SPHERE, TRI, FiniteMeasure
from equistate.serialize import measure_to_json, parse_sphere_point, potential_to_json
from equistate.sphere import SpherePoint
from equistate.thurston import mme_tile_measure, tile_complex


def run_cli(args, tmp_path, expect=0):
    rc = main([*args, "--out", str(tmp_path)])
    assert rc == expect, f"exit {rc} != {expect} for {args}"


def read_json(tmp_path, name):
    with open(os.path.join(tmp_path, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_pressure_log2(tmp_path):
    run_cli(["pressure", "--map", "z^2", "--potential", "const:0",
             "--n", "8", "--c0", "1", "--R", "0"], tmp_path)
    res = read_json(tmp_path, "pressure_result.json")
    assert abs(res["value"]["float"] - math.log(2)) < 2 ** -8
    assert res["mode"] == "certified"
    assert res["N_used"] == 1


def test_pressure_shift(tmp_path):
    run_cli(["pressure", "--map", "z^2", "--potential", "const:1",
             "--n", "8", "--c0", "1", "--R", "0"], tmp_path)
    res = read_json(tmp_path, "pressure_result.json")
    assert abs(res["value"]["float"] - (math.log(2) + 1)) < 2 ** -8


def test_pressure_missing_c0_usage_error(tmp_path):
    rc = main(["pressure", "--map", "z^2", "--potential", "const:0",
               "--n", "8", "--out", str(tmp_path)])
    assert rc == 3


def test_pressure_z2_chordal_potential(tmp_path):
    run_cli(["pressure", "--map", "z^2", "--potential", "scale:1/8:basis:0,0",
             "--n", "1", "--c0", "1"], tmp_path)
    res = read_json(tmp_path, "pressure_result.json")
    mid, rad = Fraction(res["value"]["mid"]), Fraction(res["value"]["rad"])
    assert abs(mid - Fraction(math.log(2) + math.sqrt(2) / 8)) <= rad


_TANGENT = ["verify", "tangent", "--measure", "{measure}", "--phi", "const:0",
            "--witnesses"]
_BAD_WITNESSES = {
    "no_witnesses": {"p_lower": ["0"]},
    "no_p_lower": {"witnesses": []},
    "no_psi": {"witnesses": [{"upper": ["1"]}], "p_lower": ["0"]},
    "no_upper": {"witnesses": [{"psi": {"op": "const", "value": "1"}}],
                 "p_lower": ["0"]},
    "empty_witnesses": {"witnesses": [], "p_lower": ["0"]},
}


@pytest.mark.parametrize("argv", [
    ["mme"],
    ["mme", "--map", "z^2"],
    ["mme", "--rule", "g1"],
    ["verify", "jacobian"],
    ["verify", "jacobian", "--map", "z^2"],
    ["verify", "membership", "--map", "z^2"],
    ["verify", "membership", "--measure", "{missing}", "--map", "z^2", "--J", "const:2"],
    ["verify", "tangent"],
    ["mme", "--map", "z^2", "--depth", "-1"],
    ["birkhoff", "--map", "z^2", "--potential", "const:3", "--point", "1", "--steps", "-2"],
    ["verify", "jacobian", "--map", "z^2", "--J", "const:2", "--points", "0"],
    ["verify", "jacobian", "--map", "z^2", "--J", "const:2", "--points", "-1"],
    ["verify", "membership", "--measure", "{measure}", "--map", "z^2", "--J", "const:2",
     "--max-patches", "0"],
    ["verify", "membership", "--measure", "{measure}", "--map", "z^2", "--J", "const:2",
     "--max-patches", "-1"],
    *([*_TANGENT, "{%s}" % name] for name in _BAD_WITNESSES),
    ["mme", "--map", "1/0", "--depth", "1"],
    ["verify", "membership", "--measure", "{tri_measure}", "--map", "z^2", "--J", "const:2"],
    ["verify", "membership", "--measure", "{empty_measure}", "--map", "z^2", "--J", "const:2"],
    ["verify", "tangent", "--measure", "{empty_measure}", "--phi", "const:0",
     "--witnesses", "{witnesses}"],
])
def test_missing_or_unreadable_input_exits_3(argv, tmp_path):
    files = {"missing": tmp_path / "absent.json", "measure": tmp_path / "measure.json",
             "tri_measure": tmp_path / "tri_measure.json",
             "empty_measure": tmp_path / "empty_measure.json",
             "witnesses": tmp_path / "witnesses.json"}
    one_atom = FiniteMeasure.from_atoms(SPHERE, [(SpherePoint.finite(1), Fraction(1))])
    files["measure"].write_text(json.dumps(measure_to_json(one_atom)))
    files["tri_measure"].write_text(json.dumps(measure_to_json(mme_tile_measure("g1", 1))))
    files["empty_measure"].write_text(json.dumps(
        {"space": SPHERE, "atoms": [], "atom_error": "0"}))
    files["witnesses"].write_text(json.dumps(
        {"witnesses": [{"psi": {"op": "const", "value": "1"}, "upper": ["2"]}],
         "p_lower": ["0"]}))
    for name, spec in _BAD_WITNESSES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(spec))
    argv = [a.format(**files) for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("argv, name", [
    (["roots", "--poly", "z^2-1", "--l", "-3"], "l"),
    (["preimages", "--map", "z^2", "--point", "2", "--l", "-4"], "l"),
    (["pressure", "--map", "z^2", "--potential", "const:0", "--n", "-1", "--c0", "1",
      "--R", "0"], "n"),
    (["pressure", "--map", "z^2", "--potential", "const:0", "--n", "-2", "--mode",
      "empirical"], "n"),
    (["birkhoff", "--map", "z^2", "--potential", "const:3", "--point", "1", "--steps", "2",
      "--n", "-5"], "n"),
    (["wasserstein", "--a", "{measure}", "--b", "{measure}", "--prec", "-1"], "prec"),
    (["wasserstein", "--a", "{measure}", "--b", "{measure}", "--prec", "-10"], "prec"),
])
def test_negative_precision_exits_3_naming_the_option(argv, name, tmp_path, capsys):
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps(measure_to_json(
        FiniteMeasure.dirac(SPHERE, SpherePoint.finite(1)))))
    argv = [a.format(measure=measure) for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f" {name} must be nonnegative" in err[0], err


_VERIFY_ONE_ATOM = ["--measure", "{measure}", "--map", "z^2", "--J", "const:2"]


@pytest.mark.parametrize("argv, option", [
    (["verify", "jacobian", "--map", "z^2", "--J", "const:2", "--points", "3",
      "--tol=-1/1048576"], "tol"),
    (["verify", "membership", *_VERIFY_ONE_ATOM, "--mesh=-1/10"], "mesh"),
    (["verify", "membership", *_VERIFY_ONE_ATOM, "--tol=-1"], "tol"),
    (["verify", "tangent", "--measure", "{measure}", "--phi", "const:0",
      "--witnesses", "{witnesses}", "--tol=-1/2"], "tol"),
])
def test_negative_tolerance_or_mesh_exits_3(argv, option, tmp_path, capsys):
    """A tolerance and a transport bound are nonnegative; a negative one
    used to give a FAIL verdict."""
    files = {"measure": tmp_path / "m.json", "witnesses": tmp_path / "w.json"}
    files["measure"].write_text(json.dumps({"space": SPHERE, "atoms": [
        {"point": {"re": "1/4", "im": "0"}, "weight": "1"}]}))
    files["witnesses"].write_text(json.dumps({"witnesses": [
        {"psi": {"op": "const", "value": "0"}, "upper": ["1"]}], "p_lower": ["0"]}))
    argv = [a.format(**files) for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"equistate: argument --{option}: "), err


def test_pressure_oversized_N_precision_exit(tmp_path):
    rc = main(["pressure", "--map", "z^2", "--potential", "basis:0,0",
               "--n", "8", "--c0", "1", "--out", str(tmp_path)])
    assert rc == 4


def test_result_beyond_the_integer_digit_limit_exits_4(tmp_path, capsys):
    """At --prec 15000 the distance's radius has a denominator of over 4,500
    digits, past Python's limit for writing an integer as text: one line
    naming the limit and exit 4, with the interpreter's limit unchanged."""
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps(measure_to_json(FiniteMeasure.from_atoms(
        SPHERE, [(SpherePoint.finite(1), Fraction(1, 2)), (SpherePoint.finite(3), Fraction(1, 2))]))))
    limit = sys.get_int_max_str_digits()
    assert main(["wasserstein", "--a", str(measure), "--b", str(measure), "--prec", "15000",
                 "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"limit of {limit} digits" in err[0], err
    assert "set_int_max_str_digits" not in err[0]
    assert sys.get_int_max_str_digits() == limit
    assert main(["wasserstein", "--a", str(measure), "--b", str(measure), "--prec", "1000",
                 "--out", str(tmp_path)]) == 0


def test_mme_tile_rule(tmp_path):
    run_cli(["mme", "--rule", "g1", "--level", "3"], tmp_path)
    res = read_json(tmp_path, "mme_g1_level3_result.json")
    assert len(res["atoms"]) == 432
    assert all(a["weight"] == "1/432" for a in res["atoms"])


def test_mme_g2_level1(tmp_path):
    run_cli(["mme", "--rule", "g2", "--level", "1"], tmp_path)
    res = read_json(tmp_path, "mme_g2_level1_result.json")
    assert len(res["atoms"]) == 16


def test_mme_backward_orbit_near_circle(tmp_path):
    run_cli(["mme", "--map", "z^2", "--depth", "6", "--anchor", "3",
             "--format", "both"], tmp_path)
    res = read_json(tmp_path, "mme_depth6_result.json")
    assert len(res["atoms"]) == 64
    from fractions import Fraction as F

    for a in res["atoms"]:
        re = F(a["point"]["re"])
        im = F(a["point"]["im"])
        r2 = re * re + im * im
        assert abs(float(r2) - 1) < 0.1  # |y|^(2^6) = 3: radius 3^(1/64)
    csv_path = os.path.join(tmp_path, "mme_depth6.csv")
    assert open(csv_path).readline().strip() == "point,re,im,weight"


# The potential of the benchmark's `pressure` workload.
_BENCH_PHI = pot.psum(pot.basis(SpherePoint.finite(0)),
                      pot.scale(Fraction(1, 2), pot.pprod(pot.basis(SpherePoint.finite(1)),
                                                          pot.basis(SpherePoint.finite(0, 1)))))

# SHA-256 of the result JSON of two preimage-tree CLI calls, recorded with
# preimage polynomials built by `Polynomial` arithmetic; the empirical
# pressure's was re-recorded when it grew one tree and tested the leaf
# sum's relative radius (the same N_used and anchor, the mid moved by 4e-11).
_TREE_CLI_GOLDEN = {
    "mme": ("mme_depth6_result.json",
            "e9ea953a3670bbdfda4aebcce54e7162f2fba71887dc2504e7fe8230a036d936"),
    "pressure": ("pressure_result.json",
                 "f83867d4009f50e1745d6a2c1af71faaefc6b4cf06a4253e9e491ab9d45509d9"),
}


@pytest.mark.parametrize("command", sorted(_TREE_CLI_GOLDEN))
def test_tree_cli_json_matches_golden_hash(command, tmp_path):
    if command == "mme":
        args = ["mme", "--map", "(z^2+1)/(z^2-1)", "--depth", "6", "--anchor", "3"]
    else:
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(potential_to_json(_BENCH_PHI)), encoding="utf-8")
        args = ["pressure", "--map", "z^2-2", "--potential", f"@{phi_path}",
                "--mode", "empirical", "--n", "4"]
    out = tmp_path / "out"
    run_cli(args, out)
    name, digest = _TREE_CLI_GOLDEN[command]
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


# SHA-256 of the result JSON of two verify CLI calls, recorded while J still
# had a potential form: the constant-J checks must give these bytes.
_VERIFY_CLI_GOLDEN = {
    # check -> (map of the depth-4 anchor-3 measure, SHA-256 of the result JSON)
    "jacobian": (None, "f28932a4109aee8a1c46abc587da473acfa82157a5cf356ffa6ca9bab87ecb75"),
    "membership": ("(z^2+1)/(z^2-1)",
                   "1332e08eb2a3949767f766fb397db8e7138345fe42d3575f006f6108223ba882"),
    "membership-z^2": ("z^2",
                       "63e0a67c9b3b91236013c60005b6a9b6eb42dc210d71a0440d309661cdc3ddda"),
    "membership-z^2+1/3": ("z^2+1/3",
                           "d7d3937b1ea6d1e8f892e2d3c211f7c668edf0ff83e3c1455b45c4afdca63827"),
    "membership-z^3-3z": ("z^3-3z",
                          "0d4e9a9e0482927a9a6cfb5aba31325fea89756581ac391e794f1c0ad4a8a760"),
}


@pytest.mark.parametrize("check", sorted(_VERIFY_CLI_GOLDEN))
def test_verify_cli_json_matches_golden_hash(check, tmp_path, monkeypatch):
    """The membership result echoes --measure, so the measure path is
    relative to the working directory."""
    from equistate.serialize import dump_json, parse_map
    from equistate.thermo import backward_orbit_measure

    monkeypatch.chdir(tmp_path)
    map_text, digest = _VERIFY_CLI_GOLDEN[check]
    if map_text is None:
        name = "verify_jacobian_result.json"
        args = ["verify", "jacobian", "--map", "z^2-2", "--J", "const:2", "--points", "6"]
    else:
        name = "verify_membership_result.json"
        f = parse_map(map_text)
        dump_json(measure_to_json(backward_orbit_measure(f, None, SpherePoint.finite(3), 4)),
                  "mu.json")
        args = ["verify", "membership", "--measure", "mu.json", "--map", map_text,
                "--J", f"const:{f.degree}", "--mesh", "1/64"]
    out = tmp_path / "out"
    run_cli(args, out)
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_verify_jacobian_pass(tmp_path):
    run_cli(["verify", "jacobian", "--map", "z^2", "--J", "const:2",
             "--points", "6"], tmp_path)
    res = read_json(tmp_path, "verify_jacobian_result.json")
    assert res["verdict"] == "PASS"


def test_verify_membership_rejects_fixed_point(tmp_path):
    # measure file: delta at the repelling fixed point 1
    from equistate.measures import SPHERE, FiniteMeasure
    from equistate.serialize import dump_json, measure_to_json
    from equistate.sphere import SpherePoint

    m_path = os.path.join(tmp_path, "delta1.json")
    dump_json(measure_to_json(FiniteMeasure.dirac(SPHERE, SpherePoint.finite(1))),
              m_path)
    rc = main(["verify", "membership", "--measure", m_path, "--map", "z^2",
               "--J", "const:2", "--out", str(tmp_path)])
    assert rc == 2  # computed, negative verdict
    res = read_json(tmp_path, "verify_membership_result.json")
    assert res["verdict"] == "FAIL"


def test_verify_membership_exits_for_an_infinite_postcritical_orbit():
    """z^2 + 1/3 has an exact critical point with an infinite orbit, whose
    exact iterates square their denominators.  The check computes no
    excluded set, so the orbit is never iterated; it runs and exits by
    the contract."""
    from equistate.serialize import parse_map
    from equistate.thermo import backward_orbit_measure

    mu = backward_orbit_measure(parse_map("z^2+1/3"), None, SpherePoint.finite(3), 3)
    _contract(["verify", "membership", "--measure", "{measure}", "--map", "z^2+1/3",
               "--J", "const:2"], {"measure": measure_to_json(mu)})


def test_verify_tangent_constant_witnesses(tmp_path):
    from equistate.measures import SPHERE, FiniteMeasure
    from equistate.potentials import const
    from equistate.serialize import dump_json, measure_to_json, potential_to_json
    from equistate.sphere import SpherePoint
    from fractions import Fraction as F

    m_path = os.path.join(tmp_path, "circle.json")
    mu = FiniteMeasure.from_atoms(
        SPHERE,
        [(SpherePoint.finite(1), F(1, 2)), (SpherePoint.finite(-1), F(1, 2))],
    )
    dump_json(measure_to_json(mu), m_path)
    log2 = F(693147, 10**6)
    w_path = os.path.join(tmp_path, "witnesses.json")
    dump_json({
        "witnesses": [
            {"psi": potential_to_json(const(c)), "upper": [f"{log2 + c}"]}
            for c in (-1, 0, 1)
        ],
        "p_lower": [f"{log2}"],
    }, w_path)
    run_cli(["verify", "tangent", "--measure", m_path, "--phi", "const:0",
             "--witnesses", w_path], tmp_path)
    res = read_json(tmp_path, "verify_tangent_result.json")
    assert res["verdict"] == "PASS"


_TANGENT_ONE_ATOM = ["verify", "tangent", "--phi", "const:0", "--witnesses", "{witnesses}"]


@pytest.mark.parametrize("argv, weight, expect", [
    (_TANGENT_ONE_ATOM, "1", 2),
    (_TANGENT_ONE_ATOM, "1/1000", 3),
    (_TANGENT_ONE_ATOM, "3/2", 3),
    (["verify", "membership", "--map", "z^2", "--J", "const:2"], "1/1000", 3),
])
def test_verify_needs_a_probability_measure(argv, weight, expect, tmp_path, capsys):
    """Both checks are stated for probability measures: one atom at 1 FAILs
    the tangent check at weight 1 and is rejected at any other total, where
    it used to PASS at weight 1/1000."""
    m_path, w_path = tmp_path / "m.json", tmp_path / "w.json"
    m_path.write_text(json.dumps({"space": SPHERE, "atom_error": "0", "atoms": [
        {"point": {"re": "1/1", "im": "0/1"}, "weight": weight}]}))
    w_path.write_text(json.dumps({"witnesses": [{"psi": {"op": "const", "value": "5"},
                                                 "upper": ["4"]}], "p_lower": ["0"]}))
    argv = [a.format(witnesses=w_path) for a in argv]
    assert main([*argv, "--measure", str(m_path), "--out", str(tmp_path)]) == expect
    if expect == 3:
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("equistate:") and weight in err[0], err


@pytest.mark.parametrize("phi, psi, expect", [
    ("basis:0,0", {"op": "const", "value": "0"}, 3),
    ("const:0", {"op": "basis", "point": {"re": "0/1", "im": "0/1"}}, 3),
    ("const:0", {"op": "const", "value": "0"}, 0),
])
def test_verify_tangent_on_tile_measure(tmp_path, phi, psi, expect):
    """A nonconstant potential on a tile measure exits 3 naming the
    measure's space; constant ones still integrate."""
    m_path, w_path = tmp_path / "tiles.json", tmp_path / "w.json"
    m_path.write_text(json.dumps(measure_to_json(mme_tile_measure("g1", 1))))
    w_path.write_text(json.dumps({"witnesses": [{"psi": psi, "upper": ["1"]}],
                                  "p_lower": ["0"]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["verify", "tangent", "--measure", str(m_path), "--phi", phi,
                   "--witnesses", str(w_path), "--out", str(tmp_path)])
    assert rc == expect
    if expect == 3:
        assert err.getvalue().count("\n") == 1 and TRI in err.getvalue()


def test_roots_command(tmp_path):
    run_cli(["roots", "--poly", "z^2-1", "--l", "12"], tmp_path)
    res = read_json(tmp_path, "roots_result.json")
    assert len(res["clusters"]) == 2
    assert sorted(c["center"]["re"] for c in res["clusters"]) == ["-1/1", "1/1"]


def test_roots_rejects_rational_map(tmp_path):
    rc = main(["roots", "--poly", "(z^2+1)/(z^2-1)", "--out", str(tmp_path)])
    assert rc == 3


def test_preimages_command(tmp_path):
    run_cli(["preimages", "--map", "(z^2+1)/(z^2-1)", "--point", "2",
             "--l", "16"], tmp_path)
    res = read_json(tmp_path, "preimages_result.json")
    assert sum(c["local_degree"] for c in res["preimages"]) == 2


def test_wasserstein_command(tmp_path):
    from equistate.measures import SPHERE, FiniteMeasure
    from equistate.serialize import dump_json, measure_to_json
    from equistate.sphere import SpherePoint

    a = os.path.join(tmp_path, "a.json")
    b = os.path.join(tmp_path, "b.json")
    dump_json(measure_to_json(FiniteMeasure.dirac(SPHERE, SpherePoint.finite(0))), a)
    dump_json(measure_to_json(FiniteMeasure.dirac(SPHERE, SpherePoint.finite(1))), b)
    run_cli(["wasserstein", "--a", a, "--b", b], tmp_path)
    res = read_json(tmp_path, "wasserstein_result.json")
    assert abs(res["distance"]["float"] - math.sqrt(2)) < 1e-6


def test_tiles_command(tmp_path):
    run_cli(["tiles", "--rule", "g2", "--level", "1"], tmp_path)
    res = read_json(tmp_path, "tiles_g2_level1_result.json")
    assert len(res["tiles"]) == 16
    assert len(res["parent"]) == 16


def test_birkhoff_command(tmp_path):
    run_cli(["birkhoff", "--map", "z^2", "--potential", "const:3",
             "--point", "2", "--steps", "5"], tmp_path)
    res = read_json(tmp_path, "birkhoff_result.json")
    assert res["sum"]["mid"] == "15/1"


_ORBIT_ARGS = ["birkhoff", "--potential", "basis:0,0", "--map"]


@pytest.mark.parametrize("fmap, point, steps, total", [
    ("z^2", "1/3", 17, {"float": 0.8783129388284578, "mid": "241428822267/274877906944",
                        "rad": "17/274877906944"}),
    ("(z^2+1)/(z^2-1)", "-1/2,3", 15, {"float": 25.649155835802958,
                                       "mid": "3525193135513/137438953472",
                                       "rad": "15/137438953472"}),
])
def test_birkhoff_runs_up_to_the_orbit_bit_cap(fmap, point, steps, total, tmp_path):
    """The longest orbits the bit cap lets through, ending at 1/3^(2^16)
    of 104K bits and at a point whose parts have about 70K bits, give
    the sums recorded before the cap existed."""
    run_cli([*_ORBIT_ARGS, fmap, f"--point={point}", "--steps", str(steps)], tmp_path)
    assert read_json(tmp_path, "birkhoff_result.json")["sum"] == total


@pytest.mark.parametrize("fmap, point, last", [
    ("z^2", "1/3", 17), ("z^2-2", "-1/2,3", 16), ("(z^2+1)/(z^2-1)", "-1/2,3", 15)])
@pytest.mark.parametrize("steps", [40, 1 << 30])
def test_birkhoff_refuses_an_orbit_past_the_bit_cap(fmap, point, last, steps, tmp_path,
                                                    capsys):
    """Under these maps the denominator squares at every step, and so do
    the numerators off the real line, so an exact orbit cannot go on: the
    point after the last the cap allows is refused with exit 4 and one
    line, within a second of CPU time, however many steps are asked."""
    start = time.process_time()
    run_cli([*_ORBIT_ARGS, fmap, f"--point={point}", "--steps", str(steps)], tmp_path, expect=4)
    assert time.process_time() - start < 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"orbit point {last} would pass" in err[0], err


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        main(["mme", "--rule", "g1", "--level", "2", "--out", str(out)])
        main(["pressure", "--map", "z^2-2", "--potential", "const:0",
              "--n", "8", "--c0", "1", "--R", "0", "--out", str(out)])
    for name in ("mme_g1_level2_result.json", "pressure_result.json"):
        h1 = hashlib.sha256(open(out1 / name, "rb").read()).hexdigest()
        h2 = hashlib.sha256(open(out2 / name, "rb").read()).hexdigest()
        assert h1 == h2


def test_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("EQUISTATE_OUT_DIR", str(tmp_path))
    rc = main(["roots", "--poly", "z^2-1", "--l", "8"])
    assert rc == 0
    assert os.path.exists(tmp_path / "roots_result.json")


def test_console_script_entry():
    # The `equistate` executable exists only after `pip install`, and the
    # suite also runs from the source tree (PYTHONPATH=src).  So resolve the
    # entry point that pyproject.toml declares and start it in a fresh
    # interpreter the way pip's generated wrapper does.
    tomllib = pytest.importorskip("tomllib")
    import equistate

    import_root = Path(equistate.__file__).resolve().parent.parent
    pyproject = import_root.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["equistate"]
    mod, attr = target.split(":")
    assert getattr(importlib.import_module(mod), attr) is main

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(import_root), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {mod} import {attr}; sys.exit({attr}())",
         "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == equistate.__version__


_IMPORT_EVERY_MODULE = """
import sys
before = set(sys.modules)
import importlib, pkgutil
import equistate
for info in pkgutil.iter_modules(equistate.__path__):
    importlib.import_module("equistate." + info.name)
import equistate.cli
print(" ".join(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_runtime_needs_only_the_standard_library():
    """Importing every equistate module loads no third-party module, and
    pyproject.toml declares no runtime dependency.  The probe compares
    against the modules loaded at start-up, which site hooks may extend."""
    tomllib = pytest.importorskip("tomllib")
    import equistate

    import_root = Path(equistate.__file__).resolve().parent.parent
    with open(import_root.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
    env = dict(os.environ, PYTHONPATH=str(import_root))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_EVERY_MODULE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "equistate" in loaded
    assert loaded - {"equistate"} <= set(sys.stdlib_module_names), sorted(
        loaded - {"equistate"} - set(sys.stdlib_module_names))


# -- the pressure path keeps the exit-code contract on fuzzed argv ------------

_POINTS = ("0", "1", "0,1", "-1/2,3")
_SCALES = (Fraction(1, 8), Fraction(-1, 2), Fraction(0))
_factors = st.sampled_from(_POINTS).map(lambda p: pot.basis(parse_sphere_point(p))).flatmap(
    lambda b: st.one_of(st.just(b), st.sampled_from(_SCALES).map(lambda q: pot.scale(q, b))))
_terms = st.one_of(_factors, st.tuples(_factors, _factors).map(lambda t: pot.pprod(*t)))
# Constants stay at the top: a large constant inside a product makes the
# empirical mode iterate for tens of seconds.
_potentials = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-3))).map(pot.const),
    _terms,
    st.tuples(st.sampled_from(_SCALES), _terms).map(lambda t: pot.scale(*t)),
)
# Values of --c0 and --R: None, which leaves the option out, in about half
# the draws, so that empirical runs (which reject both) still compute.
_MAYBE_RATIONALS = st.one_of(st.none(), st.sampled_from(("0", "-1", "1/8", "100", "1/0")))
# Text potentials with a zero denominator, given on the command line.
_BAD_POTENTIALS = ("const:1/0", "scale:1/0:basis:0", "basis:1/0,0")


def _contract(argv, files=None):
    """Run argv in a fresh output directory and check the exit-code
    contract.  Each entry name -> obj of `files` is written there as JSON,
    and "{name}" in argv becomes its path."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        paths = {}
        for name, obj in (files or {}).items():
            paths[name] = os.path.join(out, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        rc = main([*(a.format(**paths) for a in argv), "--out", out])
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if rc in (3, 4):
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("equistate: "), err.getvalue()
    return rc


def _exit_contract(argv, phi):
    """Run argv with --potential phi: a text spec as it is, a Potential
    written to a file."""
    if isinstance(phi, str):
        return _contract([*argv, f"--potential={phi}"])
    return _contract([*argv, "--potential", "@{phi}"], {"phi": potential_to_json(phi)})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("z^2", "z^2-2")),
       st.one_of(_potentials, st.sampled_from(_BAD_POTENTIALS)), st.integers(-3, 4),
       st.sampled_from(("certified", "empirical")),
       _MAYBE_RATIONALS, _MAYBE_RATIONALS)
def test_pressure_command_exit_codes(fmap, phi, n, mode, c0, R):
    argv = ["pressure", "--map", fmap, "--n", str(n), "--mode", mode]
    _exit_contract(argv + _opt("c0", c0) + _opt("R", R), phi)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("z^2", "z^2-2", "(z^2+1)/(z^2-1)")),
       st.one_of(_potentials, st.sampled_from(_BAD_POTENTIALS)),
       st.sampled_from(_POINTS + ("inf", "1/0,0")), st.integers(-3, 64), st.integers(-5, 40))
def test_birkhoff_command_exit_codes(fmap, phi, point, steps, n):
    _exit_contract(["birkhoff", "--map", fmap, f"--point={point}", "--steps", str(steps),
                    "--n", str(n)], phi)


# -- usage errors and the remaining commands keep the contract too -----------


def _rejected(argv, capsys):
    """stderr of argv, which must exit 3 with one `equistate: ` line."""
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("equistate: "), err
    return err[0]


@pytest.mark.parametrize("argv", [
    ["roots", "--poly", "z^2-1", "--l", "abc"],
    ["birkhoff", "--map", "z^2", "--potential", "const:1", "--point", "-1/2,3", "--steps", "2"],
    ["tiles", "--rule", "g3", "--level", "1"],
    ["mme", "--depth", "2.5"],
    ["bogus"],
    [],
    ["roots"],
    ["roots", "--poly", "z^2-1", "--frobnicate"],
    ["pressure", "--map", "z^2", "--potential", "const:0", "--n", "8", "--c0", "1",
     "--visual-c", "2"],
])
def test_usage_errors_exit_3_with_one_line(argv, tmp_path, capsys):
    _rejected([*argv, "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("content, argv", [
    ({"space": SPHERE, "atoms": [{"point": {"re": float("inf"), "im": "0"}, "weight": "1"}]},
     ["wasserstein", "--a", "{file}", "--b", "{file}"]),
    ({"space": SPHERE, "atoms": [{"point": {"re": "1/4", "im": "0"}, "weight": float("-inf")}]},
     ["wasserstein", "--a", "{file}", "--b", "{file}"]),
    ({"op": "const", "value": float("inf")},
     ["pressure", "--map", "z^2", "--potential", "@{file}", "--n", "4", "--mode", "empirical"]),
])
def test_json_infinity_exits_3_with_one_line(content, argv, tmp_path, capsys):
    """Python's json reads `Infinity`, which no Fraction holds."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    _rejected([*(a.format(file=path) for a in argv), "--out", str(tmp_path)], capsys)


def test_one_parser_serves_a_usage_error_and_the_next_call(tmp_path, capsys, monkeypatch):
    """`main` builds its parser once per process.  A usage error (exit 3)
    and then a valid call in the same process write the result bytes of
    the valid call made alone, on a fresh parser."""
    from equistate import cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    valid = ["birkhoff", "--map", "z^2-2", "--potential", "const:1/3", "--point", "1/2",
             "--steps", "3"]
    cli._parser.cache_clear()
    run_cli(valid, tmp_path / "alone")
    cli._parser.cache_clear()
    _rejected([*valid[:-1], "three", "--out", str(tmp_path / "bad")], capsys)
    run_cli(valid, tmp_path / "after")
    assert len(built) == 2
    name = "birkhoff_result.json"
    assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


_VERIFY = {
    "jacobian": ["--map", "z^2", "--J", "const:2", "--points", "1"],
    "membership": ["--measure", "m.json", "--map", "z^2", "--J", "const:2"],
    "tangent": ["--measure", "m.json", "--phi", "const:0", "--witnesses", "w.json"],
}
_VERIFY_VALUES = {"--map": "z^2", "--J": "const:2", "--points": "2", "--tol": "0",
                  "--measure": "m.json", "--mesh": "0", "--max-patches": "2",
                  "--phi": "const:0", "--witnesses": "w.json"}
_VERIFY_OPTIONS = {"jacobian": {"--map", "--J", "--points", "--tol"},
                   "membership": {"--measure", "--map", "--J", "--tol", "--mesh",
                                  "--max-patches"},
                   "tangent": {"--measure", "--phi", "--witnesses", "--tol"}}


@pytest.mark.parametrize("check, option", [
    (check, option) for check in _VERIFY
    for option in sorted(set(_VERIFY_VALUES) - _VERIFY_OPTIONS[check])])
def test_verify_rejects_the_options_of_other_checks(check, option, tmp_path, capsys):
    argv = ["verify", check, *_VERIFY[check], option, _VERIFY_VALUES[option],
            "--out", str(tmp_path)]
    assert f"unrecognized arguments: {option}" in _rejected(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["pressure", "--map", "z^2", "--potential", "const:0", "--n", "8", "--c0", "1"],
    *(["verify", check, *opts] for check, opts in _VERIFY.items()),
    ["roots", "--poly", "z^2-1"],
    ["preimages", "--map", "z^2", "--point", "2"],
    ["wasserstein", "--a", "a.json", "--b", "b.json"],
    ["tiles", "--rule", "g1", "--level", "1"],
    ["birkhoff", "--map", "z^2", "--potential", "const:3", "--point", "2", "--steps", "1"],
], ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")))
def test_format_belongs_to_mme_only(argv, tmp_path, capsys):
    err = _rejected([*argv, "--format", "csv", "--out", str(tmp_path)], capsys)
    assert "unrecognized arguments: --format" in err


@pytest.mark.parametrize("argv", [
    ["verify", "jacobian", "--map", "z^2", "--J", "const:2", "--tol", "1/0"],
    ["verify", "jacobian", "--map", "z^2", "--J", "const:1/0", "--points", "1"],
    ["verify", "membership", "--measure", "m.json", "--map", "z^2", "--J", "const:2",
     "--mesh", "1/0"],
    ["pressure", "--map", "z^2", "--potential", "const:0", "--n", "8", "--c0", "1/0"],
    ["pressure", "--map", "z^2", "--potential", "const:0", "--n", "8", "--c0", "1",
     "--R", "1/0"],
    ["pressure", "--map", "z^2", "--potential", "const:1/0", "--n", "8", "--c0", "1"],
    ["birkhoff", "--map", "z^2", "--potential", "const:3", "--point=1/0,0", "--steps", "1"],
    ["mme", "--map", "z^2", "--depth", "1", "--anchor=1/0,0"],
])
def test_zero_denominator_exits_3(argv, tmp_path, capsys):
    assert "1/0" in _rejected([*argv, "--out", str(tmp_path)], capsys)


def _atom(re, weight):
    return {"point": {"re": re, "im": "0"}, "weight": weight}


@pytest.mark.parametrize("atoms, atom_error, message", [
    ([_atom("0", "1/2"), _atom("1", "1/2"), _atom("0", "-1/2")], "0", "weights must be positive"),
    ([_atom("0", "-1/2"), _atom("1", "3/2")], "0", "weights must be positive"),
    ([_atom("0", "1")], "-1/1024", "atom_error must be nonnegative"),
], ids=["cancelling-duplicate", "negative-weight", "negative-atom-error"])
def test_wasserstein_rejects_measures_breaking_the_weight_contract(
        atoms, atom_error, message, tmp_path, capsys):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps({"space": SPHERE, "atoms": atoms, "atom_error": atom_error}))
    good.write_text(json.dumps({"space": SPHERE, "atoms": [_atom("1", "1")]}))
    for a, b in ((bad, good), (good, bad)):
        err = _rejected(["wasserstein", "--a", str(a), "--b", str(b),
                         "--out", str(tmp_path / "out")], capsys)
        assert message in err


_EMPIRICAL = ["pressure", "--map", "z^2", "--potential", "const:0", "--n", "4",
              "--mode", "empirical"]


@pytest.mark.parametrize("argv, option", [
    ([*_EMPIRICAL, "--c0", "7"], "--c0"),
    ([*_EMPIRICAL, "--R", "9"], "--R"),
    (["mme", "--rule", "g1", "--level", "1", "--map", "z^2"], "--map"),
    (["mme", "--rule", "g1", "--level", "1", "--depth", "2"], "--depth"),
    (["mme", "--rule", "g1", "--level", "1", "--anchor", "5"], "--anchor"),
    (["mme", "--rule", "g1", "--level", "1", "--potential", "const:1"], "--potential"),
    (["mme", "--map", "z^2", "--depth", "2", "--level", "7"], "--level"),
])
def test_mode_foreign_options_exit_3(argv, option, tmp_path, capsys):
    """An option that the chosen mode does not read is a usage error."""
    assert f"does not read {option}" in _rejected([*argv, "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("argv", [
    ["tiles", "--rule", "g1", "--level", "7"],
    ["mme", "--rule", "g2", "--level", "7"],
])
def test_tile_cap_exits_4(argv, tmp_path, capsys):
    """2 deg^level tiles above 2^19 are refused before anything is built:
    the one call of `tile_complex` makes no call for a lower level."""
    before = tile_complex.cache_info()
    assert main([*argv, "--out", str(tmp_path)]) == 4
    after = tile_complex.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("equistate: ") and "tile cap" in err[0], err


def _readme_command_line_section():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    lines = [line for line in _readme_command_line_section().splitlines()
             if line.startswith("equistate ")]
    assert len(lines) >= 12
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def _subparsers(parser):
    """{command name: parser}, with `verify` spelled out per check."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = _subparsers(sub)
                out.update({f"{name} {k}": v for k, v in nested.items()} or {name: sub})
    return out


def test_readme_option_table_matches_the_parser():
    rows = re.findall(r"^\| `([a-z ]+)` \|(.*)$", _readme_command_line_section(), re.M)
    documented = {name: set(re.findall(r"--[A-Za-z0-9-]+", rest)) for name, rest in rows}
    declared = {name: {o for a in p._actions for o in a.option_strings
                       if o.startswith("--") and o not in ("--help", "--out")}
                for name, p in _subparsers(build_parser()).items()}
    assert documented == declared


@pytest.mark.parametrize("argv", [["--version"], ["-h"], ["roots", "-h"], ["verify", "--help"]])
def test_version_and_help_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_simplex_iteration_bound_exits_4(tmp_path, monkeypatch, capsys):
    from equistate import transport
    from equistate.errors import PrecisionExhausted
    from equistate.serialize import dump_json

    monkeypatch.setattr(transport, "_pivot_bound", lambda n, m: 0)
    with pytest.raises(PrecisionExhausted, match="bound of 0 pivots on a 1 x 2 problem"):
        transport.min_cost_transport([2], [1, 1], [[0, 1]], 2, 1)
    half = Fraction(1, 2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(measure_to_json(FiniteMeasure.dirac(SPHERE, SpherePoint.finite(0))), str(a))
    dump_json(measure_to_json(FiniteMeasure.from_atoms(
        SPHERE, [(SpherePoint.finite(1), half), (SpherePoint.finite(-1), half)])), str(b))
    assert main(["wasserstein", "--a", str(a), "--b", str(b), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "iteration budget" in err[0] and "0 pivots" in err[0], err


def _mostly(valid, bad=()):
    """A valid value in most draws, else a bad one (or None, a left-out
    option), so that most drawn command lines get past parsing."""
    valid = st.sampled_from(tuple(valid))
    if not bad:
        return valid
    return st.tuples(st.integers(0, 5), valid, st.sampled_from(tuple(bad))).map(
        lambda t: t[2] if t[0] == 0 else t[1])


def _opt(name, value):
    """argv for an option that may be left out; values may start with '-'."""
    return [] if value is None else [f"--{name}={value}"]


_MAPS = _mostly(("z^2", "z^2-2", "(z^2+1)/(z^2-1)"), ("z^", "1/0", "(z"))
_SPHERE_POINTS = _mostly(("0", "1", "-1/2,3", "inf", "1/2+3*i"),
                         ("x", "1/0", "1,", "1/0,0", "1/0+1*i"))
_FORMATS = st.sampled_from(("json", "csv", "both"))


# Options that only `mme --map` reads; `mme --rule` and `tiles` reject them.
_MAP_MODE_OPTIONS = (("--map=z^2",), ("--depth=2",), ("--anchor=5",), ("--potential=const:1",))


@settings(max_examples=30, deadline=None)
@given(_MAPS, _mostly(range(4), (None, -1, -2)), _SPHERE_POINTS, _FORMATS,
       _mostly((None,), (1,)))
def test_mme_map_command_exit_codes(fmap, depth, anchor, fmt, level):
    _contract(["mme", "--map", fmap, *_opt("depth", depth), f"--anchor={anchor}",
               "--format", fmt, *_opt("level", level)])


@settings(max_examples=30, deadline=None)
@given(_mostly(("g1", "g2"), ("g3",)), _mostly(range(4), (None, -1, -2)), _FORMATS,
       st.sampled_from(("mme", "tiles")), _mostly(((),), _MAP_MODE_OPTIONS))
def test_rule_commands_exit_codes(rule, level, fmt, command, foreign):
    # Only mme writes CSV, so only mme takes --format.
    _contract([command, "--rule", rule, *_opt("level", level),
               *(["--format", fmt] if command == "mme" else []), *foreign])


@settings(max_examples=30, deadline=None)
@given(_MAPS, _SPHERE_POINTS, _mostly((0, 1, 8, 24), (-1, -2, "x")))
def test_preimages_command_exit_codes(fmap, point, l):
    _contract(["preimages", "--map", fmap, f"--point={point}", f"--l={l}"])


@pytest.mark.parametrize("argv, expect", [
    pytest.param(["preimages", "--map", "z^3", "--point={H}"], 0, id="preimages-z^3-at-H"),
    pytest.param(["roots", "--poly", "z^3+{H}z+1"], 0, id="z^3+Hz+1"),
    pytest.param(["roots", "--poly", "{H}z^3+1"], 0, id="Hz^3+1"),
    # roots near -10^400, +-10^-200 i and -10^-400: one power-of-two scale
    # puts the float seeds of the three small ones all at 0, and the
    # retries run out
    pytest.param(["roots", "--poly", "z^4+{H}z^3+z+1/{H}"], 4, id="z^4+Hz^3+z+1/H"),
])
def test_coefficients_beyond_float_range_keep_the_exit_contract(argv, expect):
    """H = 10^400: these monic coefficients overflow a float, or underflow
    to 0, where the float seeds once raised OverflowError or read a
    nonzero coefficient as an exact root 0."""
    assert _contract([a.format(H=10 ** 400) for a in argv]) == expect


_GOOD_POINTS = {
    SPHERE: ("inf", {"re": "1", "im": "0"}, {"re": "-1/2", "im": "3"}, {"re": "0", "im": "0"}),
    TRI: ({"face": "front", "coords": ["1/3", "1/3", "1/3"]},
          {"face": "back", "coords": ["1/2", "1/4", "1/4"]},
          {"face": "back", "coords": ["0", "1/2", "1/2"]},
          {"face": "front", "coords": ["1", "0", "0"]}),
}
# A zero denominator, a sum other than 1, a negative entry, two entries, a
# face that is not one; and for the sphere a zero denominator and a missing
# part.
_BAD_POINTS = {
    SPHERE: ({"re": "1/0", "im": "0"}, {"re": "1"}, "x"),
    TRI: tuple({"face": f, "coords": c} for f, c in (
        ("front", ["1/0", "0", "1"]), ("back", ["1/2", "1/2", "1/2"]),
        ("front", ["-1/2", "1", "1/2"]), ("back", ["1/2", "1/2"]),
        ("side", ["1/3", "1/3", "1/3"]))),
}


@st.composite
def _measure_json(draw, space):
    """A probability measure on 1-3 valid points, sometimes with one bad
    point, one bad weight or no atoms at all."""
    points = draw(st.lists(st.sampled_from(_GOOD_POINTS[space]), min_size=1, max_size=3))
    weights = [f"1/{len(points)}"] * len(points)
    flaw = draw(st.integers(0, 6))
    if flaw == 0:
        points[0] = draw(st.sampled_from(_BAD_POINTS[space]))
    elif flaw == 1:
        weights[0] = draw(st.sampled_from(("0", "-1/2", "2", "x")))
    elif flaw == 2:
        points, weights = [], []
    return {"space": space, "atom_error": "0",
            "atoms": [{"point": p, "weight": w} for p, w in zip(points, weights)]}


_SPACES = st.sampled_from((SPHERE, TRI))
_measures = _SPACES.flatmap(_measure_json)


@settings(max_examples=40, deadline=None)
@given(st.one_of(_SPACES.flatmap(lambda s: st.tuples(_measure_json(s), _measure_json(s))),
                 st.tuples(_measures, _measures)),
       _mostly((0, 8, 30), (-2, "x")))
def test_wasserstein_command_exit_codes(ab, prec):
    _contract(["wasserstein", "--a", "{a}", "--b", "{b}", f"--prec={prec}"],
              dict(zip("ab", ab)))


@pytest.mark.parametrize("space, point", [
    *((space, p) for space in (SPHERE, TRI) for p in _BAD_POINTS[space]),
    (TRI, {"coords": ["1", "0", "0"]}),
])
def test_wasserstein_names_a_malformed_point_in_either_space(tmp_path, capsys, space, point):
    """A malformed point of either space exits 3 with one line naming the
    point as given: `bad sphere point: ...` or `bad tile point: ...`."""
    paths = []
    for name, p in (("a", point), ("b", _GOOD_POINTS[space][0])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"space": space, "atoms": [{"point": p, "weight": "1"}]}))
        paths.append(str(path))
    err = _rejected(["wasserstein", "--a", paths[0], "--b", paths[1], "--out", str(tmp_path)],
                    capsys)
    assert err == f"equistate: bad {'sphere' if space == SPHERE else 'tile'} point: {point!r}"


@pytest.mark.parametrize("command", [["jacobian", "--points", "1"], ["membership"]])
@pytest.mark.parametrize("J, message", [
    ("const:1/0", "not a rational: '1/0'"),
    ("foo", "unsupported Jacobian spec 'foo' (use const:q)"),
])
def test_bad_jacobian_spec_exits_3(tmp_path, capsys, command, J, message):
    measure = tmp_path / "delta.json"
    measure.write_text(json.dumps({"space": SPHERE,
                                   "atoms": [{"point": {"re": "1", "im": "0"}, "weight": "1"}]}))
    argv = ["verify", command[0], "--map", "z^2", "--J", J, *command[1:], "--out", str(tmp_path)]
    if command[0] == "membership":
        argv += ["--measure", str(measure)]
    assert _rejected(argv, capsys) == f"equistate: {message}"


_J = _mostly(("const:2", "const:1", "const:1/2"), ("const:x", "exp:2", None, "const:1/0"))
_TOLS = _mostly((None, "0", "1/1024", "-1"), ("x", "1/0"))


@settings(max_examples=25, deadline=None)
@given(_MAPS, _J, _mostly((1, 2, 3), (0, -1)), _TOLS)
def test_verify_jacobian_exit_codes(fmap, J, points, tol):
    _contract(["verify", "jacobian", "--map", fmap, *_opt("J", J), f"--points={points}",
               *_opt("tol", tol)])


@settings(max_examples=25, deadline=None)
@given(st.one_of(_measure_json(SPHERE), _measures), _MAPS, _J, _TOLS,
       _mostly((None, "0", "1/8"), ("-1", "x", "1/0")),
       _mostly((1, 2, 3), (0, -1)))
def test_verify_membership_exit_codes(measure, fmap, J, tol, mesh, max_patches):
    _contract(["verify", "membership", "--measure", "{measure}", "--map", fmap,
               *_opt("J", J), *_opt("tol", tol), *_opt("mesh", mesh),
               f"--max-patches={max_patches}"], {"measure": measure})


_witness_specs = _mostly((
    {"witnesses": [{"psi": {"op": "const", "value": "1"}, "upper": ["2"]}], "p_lower": ["0"]},
    {"witnesses": [{"psi": {"op": "const", "value": "0"}, "upper": ["1", "2"]}],
     "p_lower": ["1"]},
), (
    {"witnesses": [{"psi": {"op": "const", "value": "1/0"}, "upper": ["2"]}],
     "p_lower": ["0"]},
    {"witnesses": [{"psi": {"op": "nope"}, "upper": ["2"]}], "p_lower": ["0"]},
    {"witnesses": [{"psi": {"op": "const", "value": "0"}, "upper": []}], "p_lower": ["0"]},
    {"witnesses": "x", "p_lower": ["0"]},
    [],
    *_BAD_WITNESSES.values(),
))


@settings(max_examples=25, deadline=None)
@given(_measures, _mostly(("const:0", "const:1/2", "basis:0,0"), ("basis:x", "y")),
       _witness_specs, _TOLS)
def test_verify_tangent_exit_codes(measure, phi, witnesses, tol):
    _contract(["verify", "tangent", "--measure", "{measure}", "--phi", phi,
               "--witnesses", "{witnesses}", *_opt("tol", tol)],
              {"measure": measure, "witnesses": witnesses})
