"""JSON/CSV interchange and textual parsers for points, measures, maps,
potentials, Jacobians, tile complexes and balls.

JSON carries every rational as an exact "p/q" string so measures and maps
round-trip with no loss; CSV is for plot data only and uses decimals.
This is the one module that knows these formats.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .balls import BallReal, DirectedReal
from .dyadics import format_rational, parse_rational
from .errors import ParseError
from .gauss import GaussRat, format_gauss, gauss_ratio, parse_gauss
from .measures import SPHERE, TRI, FiniteMeasure
from .polynomials import Polynomial, poly_gcd
from .potentials import Potential, basis, const, scale
from .ratmap import RationalMapRec
from .sphere import INF, SpherePoint
from .trisphere import TilePoint, tile_point
from .verify import JacobianSpec

# OverflowError: Fraction of a JSON Infinity.
_BAD_INPUT = (KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError)


# -- points and balls ---------------------------------------------------


def _format_ratio(x: int, d: int) -> str:
    """`format_rational(Fraction(x, d))` for d > 0."""
    g = gcd(x, d)
    return f"{x // g}/{d // g}"


def _ratio_parts(obj) -> tuple[int, int]:
    """(p, q) with q > 0 and p/q the value `Fraction(obj)` reads, not
    reduced.  A "p/q" string of ASCII digits, p with an optional leading
    "-", is read straight to ints; anything else goes through Fraction,
    which accepts, rejects and words its errors as it always has."""
    if type(obj) is str and obj.isascii():
        p, slash, q = obj.partition("/")
        if slash and q.isdigit() and (p[1:] if p[:1] == "-" else p).isdigit():
            try:
                num, den = int(p), int(q)
            except ValueError:  # past int's digit limit
                pass
            else:
                if den:
                    return num, den
    f = Fraction(obj)
    return f.numerator, f.denominator


def point_to_json(p):
    """A sphere point as {"re", "im"} or "inf"; a tile point as its face
    and barycentric coordinates."""
    if isinstance(p, SpherePoint):
        if p.is_infinity:
            return "inf"
        z = p.as_gauss()
        return {"re": _format_ratio(z.x, z.d), "im": _format_ratio(z.y, z.d)}
    if isinstance(p, TilePoint):
        return {"face": p.face, "coords": [format_rational(c) for c in p.coords]}
    raise TypeError(f"not a point: {p!r}")


def point_from_json(obj, space: str):
    if space == SPHERE:
        if obj == "inf":
            return INF
        try:
            a, b = _ratio_parts(obj["re"])
            c, d = _ratio_parts(obj["im"])
            return SpherePoint(gauss_ratio(a * d, c * b, b * d))
        except _BAD_INPUT as exc:
            raise ParseError(f"bad sphere point: {obj!r}") from exc
    if space == TRI:
        try:
            return tile_point(obj["face"], *(Fraction(c) for c in obj["coords"]))
        except _BAD_INPUT as exc:
            raise ParseError(f"bad tile point: {obj!r}") from exc
    raise ParseError(f"unknown space {space!r}")


def ball_to_json(b: BallReal):
    return {
        "mid": format_rational(b.mid),
        "rad": format_rational(b.rad),
        "float": float(b.mid),
    }


def parse_sphere_point(text: str) -> SpherePoint:
    """Accepts "inf", "re,im", or Gaussian-rational syntax like "1/2+3*i"."""
    t = text.strip()
    if t in ("inf", "oo", "infinity"):
        return INF
    if "," in t:
        re_s, im_s = t.split(",", 1)
        return SpherePoint.finite(parse_rational(re_s), parse_rational(im_s))
    return SpherePoint(parse_gauss(t))


# -- measures -----------------------------------------------------------


def measure_to_json(mu: FiniteMeasure):
    return {
        "space": mu.space,
        "atoms": [
            {"point": point_to_json(p), "weight": format_rational(w)}
            for p, w in mu.atoms
        ],
        "atom_error": format_rational(mu.atom_error),
    }


def measure_from_json(obj) -> FiniteMeasure:
    try:
        space = obj["space"]
        atoms = [
            (point_from_json(a["point"], space), Fraction(*_ratio_parts(a["weight"])))
            for a in obj["atoms"]
        ]
        err = Fraction(obj.get("atom_error", 0))
    except _BAD_INPUT as exc:
        raise ParseError(f"bad measure JSON: {exc}") from exc
    mu = FiniteMeasure.from_atoms(space, atoms, atom_error=err)
    if not mu.atoms:
        # Every check on a measure with no atoms would pass vacuously.
        raise ParseError("bad measure JSON: no atom of positive weight")
    return mu


def measure_to_csv(mu: FiniteMeasure) -> str:
    """Plot-data CSV; decimals only (exact values live in the JSON)."""
    lines = []
    if mu.space == SPHERE:
        lines.append("point,re,im,weight")
        for idx, (p, w) in enumerate(mu.atoms):
            if p.is_infinity:
                lines.append(f"{idx},inf,inf,{float(w)!r}")
            else:
                # int / int rounds correctly: the float of the Fraction.
                z = p.as_gauss()
                lines.append(f"{idx},{z.x / z.d!r},{z.y / z.d!r},{float(w)!r}")
    else:
        lines.append("point,x,y,face,weight")
        for idx, (p, w) in enumerate(mu.atoms):
            a, b, c = (float(x) for x in p.coords)
            x = -0.5 * b + 0.5 * c
            y = 0.8660254037844386 * a
            lines.append(f"{idx},{x!r},{y!r},{p.face},{float(w)!r}")
    return "\n".join(lines) + "\n"


# -- rational maps ------------------------------------------------------


def map_to_json(f: RationalMapRec):
    return {
        "num": [format_gauss(c) for c in f.num.coeffs],
        "den": [format_gauss(c) for c in f.den.coeffs],
    }


_TOKEN = re.compile(r"\s*(z|i\b|\d+/\d+|\d+|\^|\+|-|\*|/|\(|\))")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad map expression near {text[pos:pos+8]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _RatFun:
    """Rational-function value for expression parsing: num/den pair."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        self.num, self.den = num, den

    @staticmethod
    def const(c: GaussRat) -> "_RatFun":
        return _RatFun(Polynomial.of(c), Polynomial.of(1))

    def __add__(self, o):
        return _RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return _RatFun(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return _RatFun(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        if o.num.is_zero():
            raise ParseError("division by zero in map expression")
        return _RatFun(self.num * o.den, self.den * o.num)

    def pow(self, k: int) -> "_RatFun":
        out = _RatFun.const(GaussRat.of(1))
        for _ in range(k):
            out = out * self
        return out


class _ExprParser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self) -> _RatFun:
        v = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens in map expression: {self.toks[self.pos:]}")
        return v

    def expr(self) -> _RatFun:
        if self.peek() in ("+", "-"):
            sign = self.next()
            v = self.term()
            if sign == "-":
                v = _RatFun.const(GaussRat.of(0)) - v
        else:
            v = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self) -> _RatFun:
        v = self.power()
        while True:
            t = self.peek()
            if t in ("*", "/"):
                self.next()
                rhs = self.power()
                v = v * rhs if t == "*" else v / rhs
            elif t in ("z", "i", "(") or (t is not None and t[0].isdigit()):
                v = v * self.power()  # implicit multiplication, e.g. "2z"
            else:
                return v

    def power(self) -> _RatFun:
        v = self.atom()
        while self.peek() == "^":
            self.next()
            t = self.next()
            if t is None or not t.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            v = v.pow(int(t))
        return v

    def atom(self) -> _RatFun:
        t = self.next()
        if t == "(":
            v = self.expr()
            if self.next() != ")":
                raise ParseError("unbalanced parentheses in map expression")
            return v
        if t == "z":
            return _RatFun(Polynomial.of(0, 1), Polynomial.of(1))
        if t == "i":
            return _RatFun.const(GaussRat.of(0, 1))
        if t is not None and (t[0].isdigit()):
            return _RatFun.const(GaussRat.of(parse_rational(t), 0))
        raise ParseError(f"unexpected token {t!r} in map expression")


def parse_map(text: str) -> RationalMapRec:
    """Parse expressions like "z^2", "z^2-2", "(z^2+1)/(z^2-1)"."""
    rf = _ExprParser(_tokenize(text)).parse()
    num, den = rf.num, rf.den
    g = poly_gcd(num, den)
    if g.degree >= 1:
        num, _ = num.divmod(g)
        den, _ = den.divmod(g)
    return RationalMapRec(num, den)


# -- potentials and witnesses -------------------------------------------


def potential_to_json(phi: Potential):
    if phi.op == "const":
        return {"op": "const", "value": format_rational(phi.value)}
    if phi.op == "basis":
        return {"op": "basis", "point": point_to_json(phi.point)}
    if phi.op == "scale":
        return {"op": "scale", "value": format_rational(phi.value),
                "child": potential_to_json(phi.children[0])}
    return {"op": phi.op, "children": [potential_to_json(c) for c in phi.children]}


def potential_from_json(obj) -> Potential:
    try:
        op = obj["op"]
        if op == "const":
            return const(Fraction(obj["value"]))
        if op == "basis":
            return basis(point_from_json(obj["point"], SPHERE))
        if op == "scale":
            return scale(Fraction(obj["value"]), potential_from_json(obj["child"]))
        if op in ("sum", "prod"):
            children = tuple(potential_from_json(c) for c in obj["children"])
            return Potential(op, children=children)
    except _BAD_INPUT as exc:
        raise ParseError(f"bad potential: {obj!r}") from exc
    raise ParseError(f"bad potential op: {obj!r}")


def witnesses_from_json(obj) -> tuple[list[tuple[Potential, DirectedReal]], DirectedReal]:
    """The tangency witnesses {"witnesses": [{"psi": potential, "upper":
    [terms]}], "p_lower": [terms]}: each psi with the upper directed real
    of its pressure, and the lower directed real of the pressure at phi."""
    try:
        witnesses = [(potential_from_json(entry["psi"]),
                      DirectedReal(tuple(Fraction(t) for t in entry["upper"]), "upper"))
                     for entry in obj["witnesses"]]
        p_lower = DirectedReal(tuple(Fraction(t) for t in obj["p_lower"]), "lower")
    except _BAD_INPUT as exc:
        raise ParseError(f"bad witnesses JSON: {exc}") from exc
    return witnesses, p_lower


def parse_potential(text: str) -> Potential:
    """CLI potential syntax: "const:q", "basis:re,im" (or basis:inf),
    "scale:q:inner", or "@file.json" for a full expression tree."""
    t = text.strip()
    if t.startswith("@"):
        with open(t[1:], "r", encoding="utf-8") as fh:
            return potential_from_json(json.load(fh))
    if t.startswith("const:"):
        return const(parse_rational(t.split(":", 1)[1]))
    if t.startswith("basis:"):
        return basis(parse_sphere_point(t.split(":", 1)[1]))
    if t.startswith("scale:"):
        _, q, inner = t.split(":", 2)
        return scale(parse_rational(q), parse_potential(inner))
    raise ParseError(f"bad potential spec {text!r}")


def parse_jacobian(text: str) -> JacobianSpec:
    """CLI Jacobian syntax: "const:q" for the constant Jacobian q > 0."""
    if text.startswith("const:"):
        return JacobianSpec.const(parse_rational(text.split(":", 1)[1]))
    raise ParseError(f"unsupported Jacobian spec {text!r} (use const:q)")


# -- tile complexes -----------------------------------------------------


def tile_complex_to_json(c):
    """Tiles of a `thurston.TileComplex` by face and vertex coordinates,
    with each tile's parent id.  A vertex is shared by several tiles, so
    its coordinates are formatted once, and its tiles share the list."""
    coords = {}

    def vertex(v):
        if v not in coords:
            coords[v] = [format_rational(x) for x in v.coords]
        return coords[v]

    return {
        "rule": c.rule,
        "level": c.level,
        "tiles": [{"id": t.id, "face": t.face, "verts": [vertex(v) for v in t.verts]}
                  for t in c.tiles],
        "parent": [t.parent_id for t in c.tiles],
    }


# -- generic json io ----------------------------------------------------


def dump_json(obj, path: str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
