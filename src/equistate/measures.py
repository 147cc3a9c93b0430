"""Finitely supported rational measures and their comparisons.

A measure is any finite positive measure: exact positive rational weights
with an exact `total`.  The checks stated for probability measures
(membership residuals, tangent certificates, the Rokhlin bound) call
`check_probability`; domination tests take any totals and transport
needs equal ones.  Atom points are exact sphere or doubled-triangle
points; measures built from certified preimage trees additionally carry
`atom_error`, a bound on how far each stored atom may sit from the true
point it stands for.  Wasserstein enclosures widen by that displacement,
so downstream bounds stay honest.

Both layers under the transport run on integers.  `from_atoms` merges
weights as numerators over one common denominator and orders points by
integer keys over one common denominator per measure: sphere points by
the canonical `sphere.sphere_order` ((re, im), infinity last) and tile
points by `trisphere.tile_order` (front face first, then barycentric
coordinates).
`wasserstein_detail` pins each cost to the `sqrt_bracket_parts` of the
integer radicand of the squared distance, decided on the sphere from
floats where a written bound proves them (see `wasserstein_detail`), and
hands the simplex the weights and the costs as integers over one
denominator each; Fractions are built only for its result, and for
`pinned_cost` when it is read.
`atoms` stays a tuple of (point, Fraction) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, ldexp, log2, sqrt
from typing import Callable, Iterable, Union

from .balls import SQUARE_MODULI, BallReal, ball_sum, may_be_square, sqrt_bracket_parts
from .dyadics import ZERO, format_rational
from .errors import EvaluationFailure, InexactImage, SpaceMismatch
from .gauss import GaussRat
from .sphere import SpherePoint, chordal, chordal_sq_parts, sphere_order
from .transport import TransportResult, min_cost_transport
from .trisphere import TilePoint, dist2_tri_parts, dist_tri, tile_order

SPHERE = "riemann_sphere"
TRI = "tri_sphere"

Point = Union[SpherePoint, TilePoint]


def space_distance(space: str, x: Point, y: Point, prec: int) -> BallReal:
    if space == SPHERE:
        return chordal(x, y, prec)
    if space == TRI:
        return dist_tri(x, y, prec)
    raise SpaceMismatch(f"unknown space {space!r}")


def squared_distance_parts(space: str) -> Callable[[Point, Point], tuple[int, int]]:
    """The integer (num, den) form of the squared metric `space_distance`
    takes the root of."""
    if space == SPHERE:
        return chordal_sq_parts
    if space == TRI:
        return dist2_tri_parts
    raise SpaceMismatch(f"unknown space {space!r}")


@dataclass(frozen=True)
class FiniteMeasure:
    """Finitely supported measure with exact positive rational weights."""

    space: str
    atoms: tuple[tuple[Point, Fraction], ...]
    atom_error: Fraction = ZERO

    def __post_init__(self) -> None:
        for _, w in self.atoms:
            if w.numerator <= 0:
                raise ValueError("atom weights must be positive")
        if self.atom_error < 0:
            raise ValueError("atom_error must be nonnegative")

    @staticmethod
    def from_atoms(space: str, pairs: Iterable[tuple[Point, Fraction]],
                   atom_error: Fraction = ZERO) -> "FiniteMeasure":
        """Drop zero weights, merge coinciding points and sort them
        canonically.  Weights merge as integer numerators over the lcm of
        their denominators, and equal weights share one Fraction; a merged
        weight <= 0 raises ValueError."""
        parts = []
        for p, w in pairs:
            if not isinstance(w, Fraction):
                w = Fraction(w)
            if w:
                parts.append((p, w.numerator, w.denominator))
        big = lcm(*(d for _, _, d in parts))
        merged: dict[Point, int] = {}
        for p, n, d in parts:
            merged[p] = merged.get(p, 0) + n * (big // d)
        weight = {n: Fraction(n, big) for n in set(merged.values())}
        points = list(merged)
        order = tile_order if space == TRI else sphere_order
        atoms = tuple((points[i], weight[merged[points[i]]]) for i in order(points))
        return FiniteMeasure(space, atoms, Fraction(atom_error))

    @staticmethod
    def dirac(space: str, p: Point) -> "FiniteMeasure":
        return FiniteMeasure.from_atoms(space, [(p, Fraction(1))])

    @cached_property
    def total(self) -> Fraction:
        big = lcm(*(w.denominator for _, w in self.atoms))
        return Fraction(sum(w.numerator * (big // w.denominator) for _, w in self.atoms), big)

    def check_probability(self) -> None:
        """Raise ValueError naming the total unless it is exactly 1."""
        if self.total != 1:
            raise ValueError(f"weights sum to {format_rational(self.total)}, not 1, "
                             "and the check needs a probability measure")

    def __len__(self) -> int:
        return len(self.atoms)


def integrate(mu: FiniteMeasure, f: Callable[[Point], BallReal]) -> BallReal:
    """Ball enclosing sum w_i f(p_i); weights are exact so only the
    integrand's enclosure widths enter the radius."""
    terms = []
    for p, w in mu.atoms:
        try:
            val = f(p)
        except Exception as exc:  # surface the atom, keep the cause
            raise EvaluationFailure(f"integrand failed at atom {p!r}: {exc}") from exc
        terms.append(val.scale(w))
    return ball_sum(terms)


def pushforward(mu: FiniteMeasure, T: Callable[[Point], Point]) -> FiniteMeasure:
    """Exact image measure; coinciding images merge with exact weight sums.

    The map must return exact points; raise InexactImage inside T when the
    image is not exactly representable (approximate maps belong in
    verification residuals instead).
    """
    pairs = []
    for p, w in mu.atoms:
        q = T(p)
        if q is None:
            raise InexactImage(f"image of atom {p!r} is not exactly representable")
        pairs.append((q, w))
    return FiniteMeasure.from_atoms(mu.space, pairs, mu.atom_error)


# -- Wasserstein ------------------------------------------------------


@dataclass
class WassersteinResult:
    """The distance ball, the optimal plan and the simplex's result.  The
    costs are kept as integers over one denominator; `pinned_cost`, their
    Fraction view, is built on first read."""

    value: BallReal
    plan: dict[tuple[int, int], Fraction]
    transport: TransportResult
    _cost: list[list[int]] = field(repr=False)
    _cost_den: int = field(repr=False)

    @cached_property
    def pinned_cost(self) -> list[list[Fraction]]:
        return [[Fraction(c, self._cost_den) for c in row] for row in self._cost]

    def optimality_certificate(self) -> bool:
        return self.transport.verify_optimal(self.pinned_cost)


# -- float-first chordal costs -------------------------------------------
#
# A non-exact cost is 2 floor(t) + 1 over 2^(prec+6), t = sigma 2^B, B =
# prec + 5 (`sqrt_bracket_parts`).  Hypotheses: IEEE binary64 rounded to
# nearest, u = 2^-53; int / int, +, -, *, / and sqrt correctly rounded, so
# each returns r(1 + delta) + eta, |delta| <= u, |eta| <= 2^-1075 (from
# underflow; 0 for + and -).  Atoms: z = X + iY = (x + iy)/d, U = fl(x/d),
# V = fl(y/d), P = 1 + X^2 + Y^2 and K = fl(1/fl(fl(1 + fl(U^2)) +
# fl(V^2))) = (1 + theta)/P, |theta| <= gamma_7 (gamma_k = k u/(1 - k u))
# up to underflow, once |U|, |V| <= 2^500; other atoms and infinity take
# the exact path.  Entries: dX = X1 - X2, dY alike, N = dX^2 + dY^2,
# sigma^2 = 4N/(P1 P2), du = fl(U1 - U2), dv alike and S =
# fl(fl(fl(fl(du^2) + fl(dv^2)) 4 K1) K2).  Then
#   - |du - dX| <= u|dX| + u(1 + u)(|X1| + |X2|) + 3 * 2^-1075;
#   - (|X1| + |X2|)^2 + (|Y1| + |Y2|)^2 <= 2(P1 + P2 - 2) < 2 P1 P2, so
#     4(|dX|(|X1| + |X2|) + |dY|(|Y1| + |Y2|))/(P1 P2) <= 2 sqrt(2) sigma
#     by Cauchy-Schwarz;
#   - S = 4(du^2 + dv^2)(1 + rho)/(P1 P2), |rho| <= gamma_18.
# So |S - sigma^2| <= gamma_18 sigma^2 + (1 + gamma_18)(2u sigma^2 +
# 4 sqrt(2) u(1 + u) sigma + 36u^2) + 2^-1060 < 92u, as sigma <= 2: E =
# 2^-46 = 128u bounds it.  With W = 2E and S > W, fl(sqrt(fl(S - W))) 2^B
# <= t <= fl(sqrt(fl(S + W))) 2^B: the spare E covers the 3.01u(S + W) <
# 12.1u that those roundings move the square.  Equal floors of the two
# ends give floor(t).  The two ends are about 2^B W/sigma >= 2^(B-1) W
# apart, so from B = 46 on (prec > 40) every entry takes the exact path.
# So does an entry whose n d, (n, d) = `chordal_sq_parts`, may be a square
# by `may_be_square` on residues built from the atoms', so exact costs
# stay exact.

_E = 2.0 ** -46
_W = 2 * _E
_MAX_BITS = 1 - int(log2(_W))  # the first B with 2^(B-1) W >= 1
_COORD_MAX = 2.0 ** 500


def _float_atom(z: GaussRat | None) -> tuple | None:
    """(U, V, K, residues mod SQUARE_MODULI[0], residues mod
    SQUARE_MODULI[1]) of a sphere atom as above, the residues being those
    of (x, y, d, d^2 + x^2 + y^2); None for infinity and for an atom whose
    quotient overflows or passes 2^500, which take the exact path."""
    if z is None:
        return None
    x, y, d = z.x, z.y, z.d
    try:
        u, v = x / d, y / d
    except OverflowError:
        return None
    if abs(u) > _COORD_MAX or abs(v) > _COORD_MAX:
        return None
    n = d * d + x * x + y * y
    m0, m1 = SQUARE_MODULI
    return (u, v, 1 / (1 + u * u + v * v),
            (x % m0, y % m0, d % m0, n % m0), (x % m1, y % m1, d % m1, n % m1))


def _nd_residue(a: tuple[int, ...], b: tuple[int, ...], m: int) -> int:
    """n d mod m for the `chordal_sq_parts` (n, d) of two finite atoms,
    from their (x, y, d, d^2 + x^2 + y^2) mod m."""
    x1, y1, d1, n1 = a
    x2, y2, d2, n2 = b
    ex, ey = x1 * d2 - x2 * d1, y1 * d2 - y2 * d1
    return 4 * (ex * ex + ey * ey) * n1 * n2 % m


def wasserstein_detail(mu: FiniteMeasure, nu: FiniteMeasure, prec: int = 30
                       ) -> WassersteinResult:
    """Exact transport optimum over pinned rational costs.

    Each cost is the `sqrt_bracket_parts` midpoint of the exact squared
    chordal (or doubled-triangle) distance at prec + 4 bits, the ball
    `space_distance` gives; the simplex runs on the midpoints, so the
    combinatorial optimum is exact and the returned ball widens only by
    the worst bracket radius plus the measures' atom displacements.

    On the sphere a cost is decided from floats where a written bound
    proves it: the float sigma^2 is within E = 2^-46 of the true one, for
    IEEE binary64 rounded to nearest with correctly rounded int / int
    division and sqrt (derived above `_float_atom`).  Every other cost,
    every one that may be exact and every cost at prec > 40 comes from
    `sqrt_bracket_parts`, so the costs are its costs.  Tile costs all do:
    their small integer triples made the float path slower.

    The simplex takes integers: the weights as numerators over the lcm of
    their denominators, and the midpoints as numerators over the lcm of
    theirs, which is 2^(prec+6) unless an entry is exact (an exact entry
    is first reduced).
    """
    if prec < 0:
        raise ValueError(f"precision prec must be nonnegative, got {prec}")
    if mu.space != nu.space:
        raise SpaceMismatch(f"{mu.space} vs {nu.space}")
    if mu.total != nu.total:
        raise ValueError("wasserstein needs equal total masses")
    squared = squared_distance_parts(mu.space)
    cost_prec = prec + 4
    bits = cost_prec + 1
    if mu.space == SPHERE and bits < _MAX_BITS:
        rows = [_float_atom(p.value) for p, _ in mu.atoms]
        cols = [_float_atom(q.value) for q, _ in nu.atoms]
        scale = ldexp(1.0, bits)
    else:
        rows, cols, scale = [None] * len(mu), [None] * len(nu), 0.0
    den = 1 << (cost_prec + 2)
    m0, m1 = SQUARE_MODULI
    # An entry goes in as an int over den, unless it is exact and its
    # reduced denominator does not divide den: then it goes in as that
    # Fraction.  exact_den is the lcm of the exact entries' denominators,
    # and after the loop the rows are rewritten over the lcm of all
    # denominators if that is not den.
    cost: list[list] = []
    exact_den = 1
    worst = 0
    for (p, _), a in zip(mu.atoms, rows):
        if a:
            u1, v1, k1, a0, a1 = a
            k1 *= 4
        row = []
        for (q, _), b in zip(nu.atoms, cols):
            if a and b:
                u2, v2, k2, b0, b1 = b
                if not (may_be_square(_nd_residue(a0, b0, m0), 0)
                        and may_be_square(_nd_residue(a1, b1, m1), 1)):
                    du, dv = u1 - u2, v1 - v2
                    s = (du * du + dv * dv) * k1 * k2
                    if s > _W:
                        t = int(sqrt(s - _W) * scale)
                        if sqrt(s + _W) * scale < t + 1:
                            row.append(2 * t + 1)
                            worst = 1
                            continue
            m, e, d = sqrt_bracket_parts(*squared(p, q), cost_prec)
            if e:
                worst = e
                row.append(m)
                continue
            x = Fraction(m, d)
            exact_den = lcm(exact_den, x.denominator)
            row.append(x if den % x.denominator else x.numerator * (den // x.denominator))
        cost.append(row)
    cost_den = lcm(den, exact_den) if worst else exact_den
    if cost_den != den:
        for row in cost:
            row[:] = [x * cost_den // den if type(x) is int
                      else x.numerator * (cost_den // x.denominator) for x in row]
    # The masses of mu and nu over the lcm of their distinct denominators.
    n = len(mu.atoms)
    weights = [w for measure in (mu, nu) for _, w in measure.atoms]
    mass_den = lcm(*{w.denominator for w in weights})
    masses = [w.numerator * (mass_den // w.denominator) for w in weights]
    res = min_cost_transport(masses[:n], masses[n:], cost, mass_den, cost_den)
    max_rad = Fraction(worst, 1 << (cost_prec + 2))
    slack = max_rad * mu.total + mu.atom_error + nu.atom_error
    return WassersteinResult(BallReal(res.value, slack), res.plan, res, cost, cost_den)


def wasserstein(mu: FiniteMeasure, nu: FiniteMeasure, prec: int = 30) -> BallReal:
    """Ball enclosing the transport distance W(mu, nu)."""
    return wasserstein_detail(mu, nu, prec).value


def transport_cost_of_pairing(mu: FiniteMeasure, nu: FiniteMeasure,
                              plan: Iterable[tuple[int, int, Fraction]],
                              prec: int = 30) -> BallReal:
    """Cost of an explicit feasible plan: a certified upper bound on W.

    The plan's marginals are verified exactly; any feasible plan's cost
    dominates the optimum, which is how desk-scale upper bounds for large
    atom counts stay rigorous without solving the full LP.
    """
    if prec < 0:
        raise ValueError(f"precision prec must be nonnegative, got {prec}")
    if mu.space != nu.space:
        raise SpaceMismatch(f"{mu.space} vs {nu.space}")
    plan = list(plan)
    row_sums: dict[int, Fraction] = {}
    col_sums: dict[int, Fraction] = {}
    for i, j, mass in plan:
        if mass < 0:
            raise ValueError("plan masses must be nonnegative")
        row_sums[i] = row_sums.get(i, ZERO) + mass
        col_sums[j] = col_sums.get(j, ZERO) + mass
    for idx, (_, w) in enumerate(mu.atoms):
        if row_sums.get(idx, ZERO) != w:
            raise ValueError(f"plan row {idx} does not match the source marginal")
    for idx, (_, w) in enumerate(nu.atoms):
        if col_sums.get(idx, ZERO) != w:
            raise ValueError(f"plan column {idx} does not match the target marginal")
    terms = [
        space_distance(mu.space, mu.atoms[i][0], nu.atoms[j][0], prec).scale(mass)
        for i, j, mass in plan
        if mass > 0
    ]
    return ball_sum(terms).widen(mu.atom_error + nu.atom_error)


# -- test functions and setwise comparison ------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Hat function: 1 on the closed r-ball, 0 outside the (r+eps)-ball,
    linear in between; (1/eps)-Lipschitz with values in [0, 1].

    A call brackets the distance rho as a/D with a in [m - e, m + e] from
    the `sqrt_bracket_parts` (m, e, D) of the squared distance, the bracket
    `space_distance` gives.  With r = rn/rd and eps = en/ed, the hat at a/D
    is (C - clamp(u, 0, C))/C for C = D rd en and u = (a rd - rn D) ed,
    which is 1 - max(0, a/D - r)/eps clamped to [0, 1] multiplied out; both
    ends share C, so the ball is one pair of integers over 2C.  Its values
    are those of the hat on the rational ends of the distance ball, so the
    ball equals the one that arithmetic on those Fractions gives.
    """

    __test__ = False  # not a pytest collectable despite the name

    space: str
    center: Point
    r: Fraction
    eps: Fraction

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError("hat radius r must be >= 0")
        if self.eps <= 0:
            raise ValueError("hat width eps must be > 0")

    @cached_property
    def lipschitz(self) -> Fraction:
        """1/eps, computed once per hat."""
        return 1 / self.eps

    def _parts(self, x: Point, prec: int = 40) -> tuple[int, int, int]:
        """(lo, hi, c) with the hat's ball at x equal to [lo/c, hi/c] and
        0 <= lo <= hi <= c."""
        if prec < 0:
            raise ValueError(f"precision prec must be nonnegative, got {prec}")
        m, e, den = sqrt_bracket_parts(*squared_distance_parts(self.space)(self.center, x), prec)
        rn, rd = self.r.numerator, self.r.denominator
        en, ed = self.eps.numerator, self.eps.denominator
        c = den * rd * en
        lo = c - min(max((m + e) * rd - rn * den, 0) * ed, c)
        hi = c - min(max((m - e) * rd - rn * den, 0) * ed, c)
        return lo, hi, c

    def __call__(self, x: Point, prec: int = 40) -> BallReal:
        lo, hi, c = self._parts(x, prec)
        return BallReal(Fraction(lo + hi, 2 * c), Fraction(hi - lo, 2 * c))


@dataclass
class ComparisonResult:
    holds: bool
    witness_integrals: tuple[BallReal, BallReal] | None = None


def compare_ge(mu: FiniteMeasure, nu: FiniteMeasure,
               family: list[TestFunction]) -> ComparisonResult:
    """Setwise domination test: violated only on a certified witness with
    <mu, tau+> < <nu, tau+> - 2^-10; holds otherwise.  Either measure may
    have any total, e.g. a subprobability nu."""
    for tau in family:
        a = integrate(mu, lambda p: tau(p, 40))
        b = integrate(nu, lambda p: tau(p, 40))
        if a.upper() < b.lower() - Fraction(1, 1024):
            return ComparisonResult(False, (a, b))
    return ComparisonResult(True)
