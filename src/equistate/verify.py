"""Equilibrium-state verification: Jacobian criteria, membership residuals,
tangent-functional certificates, and invariance residuals.

A prescribed Jacobian is a positive constant J (`JacobianSpec.const`), as
for the measure of maximal entropy, where J is the degree; a measure's own
Jacobian on its atoms is the exact table of `atomic_jacobian`.  The
checks test on a `PatchSystem`, open balls on which the map is injective;
patches carry no excluded set, since a constant J is finite everywhere.

Finitely supported approximants never satisfy the exact invariance and
Jacobian identities, so every check returns a signed residual ball
together with the slack the test family is entitled to (Lipschitz constant
times a caller-quantified mesh).  "Pass" always means: residual below
slack plus tolerance; a certified violation means the residual's lower
bound clears the slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .balls import BallReal, DirectedReal, add_parts, ball_sum, log_point
from .dyadics import ZERO, compare_square, discs_apart
from .errors import (
    NonPositiveJacobian,
    NotInjectiveOnPatch,
    NotInjectiveOnSupport,
    SpaceMismatch,
)
from .gauss import GaussRat
from .measures import (
    SPHERE,
    TRI,
    FiniteMeasure,
    Point,
    TestFunction,
    integrate,
    pushforward,
    squared_distance_parts,
    wasserstein,
)
from .potentials import Potential
from .ratmap import RationalMapRec, preimages
from .sphere import SpherePoint
from .thurston import SubdivisionMap

MapLike = Union[RationalMapRec, SubdivisionMap, Callable[[Point], Point]]


# -- patches -----------------------------------------------------------


@dataclass(frozen=True)
class BallPatch:
    """Open metric ball used as an admissible (injectivity) patch."""

    space: str
    center: Point
    radius: Fraction

    def contains_point(self, x: Point) -> bool:
        return compare_square(*squared_distance_parts(self.space)(self.center, x),
                              self.radius) < 0

    def locate(self, x: Point, disc_rad: Fraction) -> int:
        """Where the disc of radius disc_rad around x lies: -1 inside the
        patch (dist + disc_rad < radius), 1 outside it (dist > radius +
        disc_rad), 0 when it straddles the boundary or touches it.  One
        squared distance n/d decides both on the integers: with radius =
        a/b and disc_rad = p/q, inside is n (bq)^2 < (aq - pb)^2 d with
        aq > pb, and outside is `discs_apart`."""
        n, d = squared_distance_parts(self.space)(self.center, x)
        a, b = self.radius.numerator, self.radius.denominator
        p, q = disc_rad.numerator, disc_rad.denominator
        gap = a * q - p * b
        if gap > 0 and n * (b * q) ** 2 < gap * gap * d:
            return -1
        return 1 if discs_apart(n, d, self.radius, disc_rad) else 0


@dataclass
class PatchSystem:
    """Open patches on which the map is injective.  They carry no excluded
    set: a constant J needs none, and `membership_residual` checks
    injectivity itself (NotInjectiveOnPatch)."""

    space: str
    patches: list[BallPatch]

    def validate_injectivity(self, f: MapLike) -> bool:
        """Sample-grid injectivity check (exact comparisons on exact points).

        A failure is definitive; a pass is desk-scale evidence, not proof.
        """
        for patch in self.patches:
            pts = _sample_points(patch)
            images = [f(p) for p in pts]
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if pts[i] != pts[j] and images[i] == images[j]:
                        return False
        return True


def _sample_points(patch: BallPatch) -> list[Point]:
    if patch.space != SPHERE or patch.center.is_infinity:
        return [patch.center]
    z = patch.center.as_gauss()
    out = [patch.center]
    # Dyadic offsets shrinking into the patch; sigma <= 2|dz| keeps them in.
    step = patch.radius / 4
    offsets = [(step, ZERO), (ZERO, step), (-step, ZERO), (ZERO, -step),
               (step, step), (-step, -step), (step / 2, -step / 2),
               (-step / 4, step / 4)]
    for dx, dy in offsets:
        cand = SpherePoint(z + GaussRat.of(dx / 2, dy / 2))
        if patch.contains_point(cand):
            out.append(cand)
    return out


def _check_spaces(patches: PatchSystem, named: list[tuple[str, str]]) -> None:
    """Raise SpaceMismatch, naming both spaces, unless every (name, space)
    pair and every patch lies on the patch system's space."""
    for name, space in named + [("a patch", p.space) for p in patches.patches]:
        if space != patches.space:
            raise SpaceMismatch(f"{name} is on {space}, the patches are on {patches.space}")


# -- Jacobian specifications -------------------------------------------


@dataclass(frozen=True)
class JacobianSpec:
    """A prescribed Jacobian: one positive constant on the patches."""

    constant: Fraction

    @staticmethod
    def const(d: Fraction | int) -> "JacobianSpec":
        d = Fraction(d)
        if d <= 0:
            raise NonPositiveJacobian("constant Jacobian must be positive")
        return JacobianSpec(d)


# -- preimage enumeration across map kinds ------------------------------


@dataclass
class PreimagePoint:
    point: Point
    disc_rad: Fraction  # chordal/metric displacement bound (0 means exact)
    local_degree: int


def enumerate_preimages(f: MapLike, x: Point, l: int = 40) -> list[PreimagePoint]:
    """All preimages of x with local degrees; exact for subdivision maps,
    certified discs for rational maps."""
    if isinstance(f, RationalMapRec):
        return [
            PreimagePoint(c.center.center, c.center.rad, c.multiplicity)
            for c in preimages(f, x, l)
        ]
    if isinstance(f, SubdivisionMap):
        return [PreimagePoint(y, ZERO, deg) for y, deg in f.preimages(x)]
    raise TypeError("unsupported map type for preimage enumeration")


# -- checks -------------------------------------------------------------


def jacobian_unitarity(f: MapLike, J: JacobianSpec, x: Point,
                       patches: PatchSystem, prec: int = 40) -> BallReal:
    """Residual | sum over f^-1(x) in the patch union of deg(y) / J  -  1 |.

    Preimages whose certified discs straddle a patch boundary contribute
    an honest [0, deg(y) / J] uncertainty instead of a guess.  prec must
    be nonnegative, and x and every patch must lie on the patch system's
    space; both are checked before any preimage is enumerated.
    """
    if prec < 0:
        raise ValueError(f"precision prec must be nonnegative, got {prec}")
    _check_spaces(patches, [("the point", SPHERE if isinstance(x, SpherePoint) else TRI)])
    certain = ambiguous = 0  # summed local degrees
    for p in enumerate_preimages(f, x, prec + 8):
        where = [patch.locate(p.point, p.disc_rad) for patch in patches.patches]
        if -1 in where:
            certain += p.local_degree
        elif 0 in where:
            ambiguous += p.local_degree
    lo = certain / J.constant - 1
    return BallReal.from_endpoints(lo, lo + ambiguous / J.constant).abs()


def atomic_jacobian(mu: FiniteMeasure, T: MapLike) -> dict[Point, Fraction]:
    """J(a) = mu({T a}) / mu({a}) on atoms; requires exact images and
    injectivity of T on the support."""
    weights = dict(mu.atoms)
    images = {a: T(a) for a, _ in mu.atoms}
    if len(set(images.values())) != len(images):
        raise NotInjectiveOnSupport("atom images collide")
    return {a: weights.get(images[a], ZERO) / w for a, w in mu.atoms}


def rokhlin_lower_bound(mu: FiniteMeasure,
                        J: JacobianSpec | dict[Point, Fraction],
                        prec: int = 40) -> BallReal:
    """Enclosure of the entropy lower bound integral log J d mu, for a
    probability measure mu: log J itself for a constant J, else the
    mu-average of the table's logs.  prec must be nonnegative."""
    if prec < 0:
        raise ValueError(f"precision prec must be nonnegative, got {prec}")
    mu.check_probability()
    if isinstance(J, JacobianSpec):
        return log_point(J.constant, prec)
    terms = []
    for a, w in mu.atoms:
        val = J.get(a, ZERO)
        if val <= 0:
            raise NonPositiveJacobian(f"J({a!r}) = {val} is not positive")
        terms.append(log_point(val, prec).scale(w))
    return ball_sum(terms)


@dataclass
class ResidualEntry:
    patch: int
    test: int
    residual: BallReal
    slack: Fraction


def membership_residual(mu: FiniteMeasure, T: MapLike, patches: PatchSystem,
                        J: JacobianSpec, tests: list[TestFunction],
                        mesh: Fraction = ZERO) -> list[ResidualEntry]:
    """Per-(patch, test) residual of the prescribed-Jacobian membership
    functionals:

        residual =  integral of J . tau+ . 1_patch  d mu
                  - integral of sup {tau+(y) : y in T^-1(x), y in patch} d mu(x).

    A residual certifiably above the entry's slack rejects mu from the
    prescribed-Jacobian class at this scale.  slack = J * Lip(tau) *
    mesh, where mesh is the caller's transport bound between mu and its
    one-step refinement (0 when no refinement argument is intended).
    J is a constant, so the map is never evaluated at the atoms; the
    patch tests run once per (patch, atom), with the tests looped over
    inside.  mu must be a probability measure, and mesh, being a distance
    bound, nonnegative.  mu, every patch and every test must lie on the
    patch system's space (SpaceMismatch otherwise, raised before any
    preimage is enumerated).

    Each side of an entry is one integer accumulation (mid, rad, den) of
    the ball terms over the lcm of their denominators, read from the hat
    parts [lo/c, hi/c] and the weight w = wn/wd:
    - V, per atom a in the patch, with the exact J = jm/q: the ball
      tau(a) * J, mid (lo + hi) jm/2cq and radius (hi - lo) jm/2cq, times w;
    - W, per atom with a preimage y in or on the patch: each candidate's
      hat ball widened by Lip(tau) * disc_rad, the max of their uppers
      (hi) and the lower end of the one inside (lo, else 0), then the ball
      [lo, hi] times w.  lo <= hi holds, as hi is at least that
      candidate's upper end and every upper end is >= 0.
    Every step is exact, so the Fractions built at the end equal those of
    the `BallReal` arithmetic on the same hat balls; Fractions are
    canonical, so the entries are the same values, digit for digit.
    """
    if mesh < 0:
        raise ValueError(f"mesh must be >= 0, not {mesh}")
    _check_spaces(patches, [("the measure", mu.space)] + [("a test", tau.space) for tau in tests])
    mu.check_probability()
    prec = 40
    entries: list[ResidualEntry] = []
    if not tests:
        return entries
    pre_cache = {a: enumerate_preimages(T, a, prec + 8) for a, _ in mu.atoms}
    jm, q = J.constant.numerator, J.constant.denominator
    for k, patch in enumerate(patches.patches):
        v_acc = [(0, 0, 1)] * len(tests)
        w_acc = [(0, 0, 1)] * len(tests)
        for a, w in mu.atoms:
            wn, wd = w.numerator, w.denominator
            # V side: atoms of mu inside the patch.
            if patch.contains_point(a):
                for i, tau in enumerate(tests):
                    lo, hi, c = tau._parts(a, prec)
                    v_acc[i] = add_parts(*v_acc[i], (lo + hi) * jm * wn, (hi - lo) * jm * wn,
                                         2 * c * q * wd)
            # W side: the (at most one) preimage inside the patch.
            inside: list[PreimagePoint] = []
            ambiguous: list[PreimagePoint] = []
            for p in pre_cache[a]:
                where = patch.locate(p.point, p.disc_rad)
                if where < 0:
                    inside.append(p)
                elif where == 0:
                    ambiguous.append(p)
            if len(inside) > 1:
                raise NotInjectiveOnPatch(
                    f"patch {k} holds {len(inside)} preimages of one point"
                )
            candidates = inside + ambiguous
            if not candidates:
                continue
            for i, tau in enumerate(tests):
                ln, ld = tau.lipschitz.numerator, tau.lipschitz.denominator
                ends = []  # (lower, upper, den) of each widened hat ball
                for p in candidates:
                    lo, hi, c = tau._parts(p.point, prec)
                    scale = ld * p.disc_rad.denominator
                    widen = ln * p.disc_rad.numerator * c
                    ends.append((lo * scale - widen, hi * scale + widen, c * scale))
                _, hi, den = ends[0]
                for _, hi2, den2 in ends[1:]:
                    if hi2 * den > hi * den2:
                        hi, den = hi2, den2
                lo = 0
                if inside:
                    lo, lo_den = ends[0][0], ends[0][2]
                    if lo_den != den:
                        lo, hi, den = lo * den, hi * lo_den, den * lo_den
                w_acc[i] = add_parts(*w_acc[i], (lo + hi) * wn, (hi - lo) * wn,
                                     2 * den * wd)
        for t_idx, (tau, v, (wm, wr, w_den)) in enumerate(zip(tests, v_acc, w_acc)):
            m, r, d = add_parts(*v, -wm, wr, w_den)
            slack = J.constant * tau.lipschitz * mesh \
                + J.constant * tau.lipschitz * mu.atom_error * 2
            entries.append(ResidualEntry(k, t_idx, BallReal(Fraction(m, d), Fraction(r, d)),
                                         slack))
    return entries


def membership_verdict(entries: list[ResidualEntry],
                       tol: Fraction = Fraction(1, 1 << 10)) -> bool:
    """True (member at this scale) unless some residual certifiably
    exceeds its slack plus the tolerance."""
    return all(e.residual.lower() <= e.slack + tol for e in entries)


@dataclass
class TangentResult:
    passed: bool
    witness_index: int | None
    gap: BallReal
    gaps: list[BallReal]


def tangent_certificate(nu: FiniteMeasure, phi: Potential,
                        witnesses: list[tuple[Potential, DirectedReal]],
                        p_lower: DirectedReal, tol: Fraction = Fraction(1, 1 << 10)
                        ) -> TangentResult:
    """Tangency test at phi: every witness psi with upper pressure bound P
    must satisfy  P - <nu, psi> + <nu, phi>  >=  p_lower - tol.

    Upper bounds use the witnesses' current terms; enlarging the witness
    family can only lower the minimum, so a fail is monotone under
    refinement.  An empty witness family tests nothing and is a ValueError.
    Nonconstant potentials are functions on the sphere, so with any of
    them a measure on another space is a SpaceMismatch.  nu must be a
    probability measure.
    """
    nu.check_probability()
    if p_lower.direction != "lower":
        raise ValueError("p_lower must be a lower directed real")
    if not witnesses:
        raise ValueError("a tangency test needs at least one witness")
    potentials = [phi] + [psi for psi, _ in witnesses]
    if nu.space != SPHERE and any(q.constant_value() is None for q in potentials):
        raise SpaceMismatch(f"nonconstant potentials live on {SPHERE}; "
                            f"the measure is on {nu.space}")
    phi_int = integrate(nu, lambda p: phi.evaluate(p, 40))
    gaps: list[BallReal] = []
    for psi, p_upper in witnesses:
        if p_upper.direction != "upper":
            raise ValueError("witness pressures must be upper directed reals")
        psi_int = integrate(nu, lambda p: psi.evaluate(p, 40))
        gaps.append(BallReal.exact(p_upper.current) - psi_int + phi_int
                    - BallReal.exact(p_lower.current))
    idx = min(range(len(gaps)), key=lambda k: gaps[k].lower())  # first minimum
    if gaps[idx].lower() >= -tol:
        return TangentResult(True, None, gaps[idx], gaps)
    return TangentResult(False, idx, gaps[idx], gaps)


def invariance_residual(mu: FiniteMeasure, T: MapLike, prec: int = 30) -> BallReal:
    """W(mu, T_* mu): how far mu is from exact invariance, in transport
    distance.  Requires exact images (InexactImage otherwise)."""
    return wasserstein(mu, pushforward(mu, T), prec)
