from fractions import Fraction as F

import pytest

from equistate.dyadics import format_rational, parse_rational
from equistate.errors import ParseError
from equistate.gauss import format_gauss, parse_gauss
from equistate.measures import SPHERE, TRI, FiniteMeasure
from equistate.potentials import basis, pprod, scale
from equistate.serialize import (
    _ratio_parts,
    map_to_json,
    measure_from_json,
    measure_to_csv,
    measure_to_json,
    parse_jacobian,
    parse_map,
    parse_potential,
    parse_sphere_point,
    point_from_json,
    point_to_json,
    potential_to_json,
)
from equistate.sphere import INF, SpherePoint
from equistate.trisphere import FRONT, tile_point
from equistate.verify import JacobianSpec

S = SpherePoint.finite


def test_rational_strings():
    assert format_rational(F(-3, 6)) == "-1/2"
    assert parse_rational("22/7") == F(22, 7)
    with pytest.raises(ParseError):
        parse_rational("one half")


@pytest.mark.parametrize("parse, text", [
    (parse_rational, "1/0"),
    (parse_gauss, "1/0+1*i"),
    (parse_gauss, "1-1/0*i"),
    (parse_sphere_point, "1/0,0"),
    (parse_sphere_point, "0,-3/0"),
    (parse_potential, "const:1/0"),
    (parse_potential, "scale:1/0:basis:0"),
    (parse_potential, "scale:1/2:const:2/0"),
])
def test_zero_denominator_is_a_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def test_gauss_strings():
    z = parse_gauss("1/2+-3/4*i")
    assert z.re == F(1, 2) and z.im == F(-3, 4)
    assert parse_gauss(format_gauss(z)) == z
    assert parse_gauss("-i").im == -1
    assert parse_gauss("5").re == 5


def test_sphere_point_json():
    for p in (S(F(1, 3), F(-2, 7)), INF):
        assert point_from_json(point_to_json(p), SPHERE) == p


def _outcome(f):
    try:
        return f()
    except Exception as exc:  # the type and wording are what is compared
        return type(exc), str(exc)


_RATIO_TABLE = [
    "3/4", "-3/4", "0/1", "-0/5", "6/8", "007/010", "-12345678901234567890/3",
    "5", "-5", "0", " 3/4", "3/4 ", "\t3/4\n", "3 /4", "3/ 4", "+3/4", "--3/4", "-/4",
    "3/", "/4", "3/0", "0/0", "-5/000", "-3/-4", "3/+4", "1_000/3", "1__0/3", "1/1_0",
    "1.5", "1.5/2", "-.5", "1e3", "1E-3", "\u0663/\u0664", "3/\u0664", "\u00b2/3",
    "\uff13/4", "", "-", "/", "3/4/5", "inf", "nan", "0x10/3", "1/2j",
    "1" * 5000 + "/3", "-" + "1" * 4301 + "/3", "3/" + "1" * 5000,
    3, -7, 0, 1.5, -0.25, float("nan"), float("inf"), float("-inf"), True, None, [], {"re": 1}, F(-2, 6),
]


@pytest.mark.parametrize("x", _RATIO_TABLE, ids=range(len(_RATIO_TABLE)))
def test_json_rationals_read_as_fraction_does(x):
    """The ASCII "p/q" fast path accepts, rejects and words its errors
    exactly as `Fraction` does, alone and inside points and measures."""
    want = _outcome(lambda: F(x))
    assert _outcome(lambda: F(*_ratio_parts(x))) == want
    point = _outcome(lambda: point_from_json({"re": x, "im": x}, SPHERE))
    weight = _outcome(lambda: measure_from_json(
        {"space": SPHERE, "atoms": [{"point": {"re": "1/2", "im": "0/1"}, "weight": x}]}))
    if isinstance(want, F):
        assert point == S(want, want)
        if want > 0:
            assert weight.atoms == ((S(F(1, 2)), want),)
    else:
        assert point == (ParseError, f"bad sphere point: {({'re': x, 'im': x})!r}")
        assert weight == (ParseError, f"bad measure JSON: {want[1]}")


def test_sphere_points_write_as_their_fractions():
    points = [S(F(a, b), F(c, d)) for a in (-7, 0, 3, 10**30) for b in (1, 6, 2**70)
              for c in (-1, 0, 5) for d in (1, 9, 3**40)]
    mu = FiniteMeasure.from_atoms(SPHERE, [(p, F(1, len(points))) for p in points])
    for p in points:
        z = p.as_gauss()
        assert point_to_json(p) == {"re": format_rational(z.re), "im": format_rational(z.im)}
    rows = measure_to_csv(mu).splitlines()[1:]
    for row, (p, w) in zip(rows, mu.atoms):
        z = p.as_gauss()
        assert row.split(",")[1:] == [repr(float(z.re)), repr(float(z.im)), repr(float(w))]


def test_parse_sphere_point_forms():
    assert parse_sphere_point("inf") == INF
    assert parse_sphere_point("3") == S(3)
    assert parse_sphere_point("1/2,-2/3") == S(F(1, 2), F(-2, 3))
    assert parse_sphere_point("1+2*i") == S(1, 2)


def test_measure_json_roundtrip_sphere():
    mu = FiniteMeasure.from_atoms(
        SPHERE, [(S(0), F(1, 3)), (S(1, -2), F(2, 3))], atom_error=F(1, 1024)
    )
    again = measure_from_json(measure_to_json(mu))
    assert again.atoms == mu.atoms
    assert again.atom_error == mu.atom_error


def test_measure_json_roundtrip_tri():
    mu = FiniteMeasure.from_atoms(
        TRI,
        [(tile_point(FRONT, F(1, 3), F(1, 3), F(1, 3)), F(1, 2)),
         (tile_point("back", F(1, 2), F(1, 4), F(1, 4)), F(1, 2))],
    )
    again = measure_from_json(measure_to_json(mu))
    assert again.atoms == mu.atoms


def test_map_expression_parser():
    f = parse_map("z^2-2")
    assert f.degree == 2
    assert f.apply(S(3)) == S(7)
    g = parse_map("(z^2+1)/(z^2-1)")
    assert g.degree == 2
    assert g.apply(S(0)) == S(-1)
    h = parse_map("2z + 1/2")
    assert h.apply(S(1)) == S(F(5, 2))
    k = parse_map("z^2 + i")
    assert k.apply(S(0)) == S(0, 1)


def test_map_parser_reduces_common_factors():
    f = parse_map("(z^2-1)/(z-1)")
    assert f.degree == 1
    assert f.apply(S(0)) == S(1)


def test_map_parser_errors():
    with pytest.raises(ParseError):
        parse_map("z^^2")
    with pytest.raises(ParseError):
        parse_map("w + 1")


def test_map_json_roundtrip():
    f = parse_map("(z^2+i)/(3z-1/2)")
    obj = map_to_json(f)
    assert tuple(parse_gauss(c) for c in obj["num"]) == f.num.coeffs
    assert tuple(parse_gauss(c) for c in obj["den"]) == f.den.coeffs


def test_potential_cli_specs(tmp_path):
    assert parse_potential("const:3/4").constant_value() == F(3, 4)
    phi = parse_potential("basis:1,0")
    assert phi.op == "basis"
    phi2 = parse_potential("scale:-2:basis:inf")
    assert phi2.op == "scale" and phi2.value == -2
    # @file form
    import json

    tree = potential_to_json(scale(F(1, 2), pprod(basis(S(0)), basis(S(1)))))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(tree))
    phi3 = parse_potential(f"@{path}")
    assert potential_to_json(phi3) == tree
    with pytest.raises(ParseError):
        parse_potential("hat:1")


def test_jacobian_spec():
    assert parse_jacobian("const:3/6") == JacobianSpec.const(F(1, 2))
    for text, message in (("const:1/0", "not a rational"), ("foo", "unsupported Jacobian spec")):
        with pytest.raises(ParseError, match=message):
            parse_jacobian(text)


def test_malformed_tile_point():
    bad = {"face": "front", "coords": ["1/2", "1/2", "1/2"]}
    with pytest.raises(ParseError, match="bad tile point: "):
        point_from_json(bad, TRI)
    with pytest.raises(ParseError, match="bad tile point: "):
        point_from_json({"coords": ["1", "0", "0"]}, TRI)
