"""Certified complex polynomial root clusters.

The certificate: for any polynomial q of degree d, every z has a root of
q within Euclidean distance d*|q(z)/q'(z)|.  When d discs so produced are
pairwise disjoint, each holds exactly one root, which also proves q
square-free.

So `certified_roots` is one ladder, whose rung 0 is p itself.  Each rung
solves a list of square-free factors with their multiplicities, draws one
`RootCluster` per root of each factor, and accepts when
`_clusters_disjoint` finds the clusters pairwise apart.  Rung 0 solves p
as its own simple factor at the first working precision; nearly every
node of a preimage tree stops there.  When it fails, the later rungs
split p once by exact square-free decomposition (Yun) and solve each
factor the same way: first at the same precision, unless Yun finds p
square-free and rung 1 would repeat rung 0, then at doubling precision.

Disjointness is decided in the chordal metric alone.  A cluster's
chordal radius bounds sigma over its whole Euclidean disc, so clusters
whose Euclidean discs share a point have chordal discs that meet:
chordally apart clusters are Euclid-apart as well (`_clusters_disjoint`
gives the argument).  A cluster draws its chordal radius on the first
read of `center`, and a pair far enough apart, decided on the integers
of sigma^2, never reads it.

A linear factor is solved exactly, and so is a quadratic whose
discriminant is a square in Z[i], the one case in which it has a root in
Q(i): its closed form on integers (`_quadratic_seeds`) then gives both
roots as exact quotients.  Any other quadratic starts Newton from that
closed form, with no floats.  Any other factor starts from float seeds
computed with the standard library alone: at most 40 Aberth-Ehrlich sweeps
(Aberth 1973, Math. Comp. 27) from Bini's Newton-polygon start (Bini 1996,
Numer. Algorithms 13), on the monic coefficients of p(2^s w) for the power
of two that brings every root within modulus 4, each seed rounded onto the
2^-60 grid as a Newton step rounds.  From each seed it runs Newton on
Gaussian integers: the coefficients of the polynomial's integer form
C = m*p (see `polynomials`, which says why no result depends on m), and z
as integer numerators over one denominator (2^bits after the first step,
which rounds each step to the nearest multiple of 2^-bits).  A step is a
function of z alone, so the iteration stops at the first step that
returns its input, or the iterate from two steps back: at a rounding tie
the rounded map can cycle between two grid points, and Newton then stops
at the one of smaller residual.

Certification is integer arithmetic end to end.  The residual bound
comes from the same integer evaluation, its square root and the chordal
radius from integer square roots at a fixed scale.  A root of a factor of
degree 3 or more is then snapped to an exact root when there is one
nearby: each part of z goes to its closest fraction of denominator at most
b (`Fraction.limit_denominator`), for each b in `_SNAP_DENOMS`, and the
candidate counts when it lies in the disc and `horner_int` vanishes there.
Floats only ever propose seeds.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .dyadics import ZERO, compare_square, discs_apart, dyadic_numerator, sqrt_upper_numerator
from .errors import PrecisionExhausted
from .gauss import G_ZERO, GaussRat, euclid_sq_parts, gauss_ratio
from .polynomials import IntPairs, Polynomial, horner_int, square_free_decomposition
from .sphere import PointBall, SpherePoint, chordal_disc_radius, chordal_sq_parts, sphere_order

_SNAP_DENOMS = (1, 2, 3, 4, 6, 8, 16, 64, 256)

# A Newton iterate (a, b, c), z = (a + b*i)/c, with `horner_int` there.
_Iterate = tuple[int, int, int, tuple[int, int, int, int]]
# c and `horner_int` at a point written over the denominator c.
_Horner = tuple[int, tuple[int, int, int, int]]


class RootCluster:
    """A certified disc containing exactly `multiplicity` roots.

    `point` is the (finite) midpoint and `euclid_rad` bounds the Euclidean
    distance from it to each enclosed root, which downstream displacement
    accounting uses.  `center` is the chordal disc of the public contract:
    about `point`, of radius `chordal_disc_radius(midpoint, euclid_rad,
    chordal_bits)`, drawn on its first read, so that a caller who never
    reads it (the preimage tree) never pays for it.  `horner` is rung 0's
    (c, `horner_int` of p's own integer form at the midpoint written over
    c), and None on later rungs, whose factors have forms of their own.
    Equality and hashing compare `center`, `multiplicity` and `euclid_rad`.
    """

    __slots__ = ("point", "multiplicity", "euclid_rad", "horner", "_chordal_bits", "_center")

    def __init__(self, point: SpherePoint, multiplicity: int, euclid_rad: Fraction,
                 chordal_bits: int, horner: _Horner | None):
        self.point = point
        self.multiplicity = multiplicity
        self.euclid_rad = euclid_rad
        self.horner = horner
        self._chordal_bits = chordal_bits
        self._center: PointBall | None = None

    @property
    def center(self) -> PointBall:
        if self._center is None:
            self._center = PointBall(self.point, chordal_disc_radius(
                self.point.value, self.euclid_rad, self._chordal_bits))
        return self._center

    @property
    def midpoint(self) -> GaussRat:
        return self.point.as_gauss()

    def _key(self) -> tuple[PointBall, int, Fraction]:
        return self.center, self.multiplicity, self.euclid_rad

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootCluster):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"RootCluster(center={self.center!r}, multiplicity={self.multiplicity!r}, "
                f"euclid_rad={self.euclid_rad!r})")


def _int_newton_step(coeffs: IntPairs, a: int, b: int, c: int, bits: int
                     ) -> tuple[int, int, tuple[int, int, int, int]]:
    """One Newton step for q = sum coeffs[k] z^k from z = (a + b*i)/c.

    Returns the numerators over 2^bits of (z - q(z)/q'(z)).round(bits), or
    at a critical point of (z + 2^-(bits//2)).round(bits), together with
    `horner_int` at z.  With N, M its values and w = a + b*i,
    z - q/q' = (w*M - N)/(c*M), whose parts share the denominator c*|M|^2.
    """
    at = nr, ni, mr, mi = horner_int(coeffs, a, b, c)
    m2 = mr * mr + mi * mi
    if m2 == 0:
        # Nudge off the critical point; certification decides acceptance.
        h = bits // 2
        return (dyadic_numerator((a << h) + c, c << h, bits),
                dyadic_numerator(b, c, bits), at)
    pr, pi = a * mr - b * mi - nr, a * mi + b * mr - ni
    den = c * m2
    return (dyadic_numerator(pr * mr + pi * mi, den, bits),
            dyadic_numerator(pi * mr - pr * mi, den, bits), at)


def _newton(coeffs: IntPairs, a: int, b: int, c: int, bits: int, steps: int) -> _Iterate:
    """Newton from (a + b*i)/c for at most `steps` steps; (a, b, c) of the
    point it stops at and `horner_int` there.

    It stops at the first step that returns its input, and at the first
    step that returns the iterate from two steps back: the rounded map then
    cycles between two grid points (at a rounding tie, as `_quadratic_seeds`
    says), and Newton stops at the one `_smaller_residual` picks, whichever
    of the two it met first and whatever the budget's parity.
    """
    one = 1 << bits
    prev = None
    for _ in range(steps):
        a2, b2, at = _int_newton_step(coeffs, a, b, c, bits)
        if a2 * c == a * one and b2 * c == b * one:
            return a, b, c, at
        if prev is not None and a2 * prev[2] == prev[0] * one and b2 * prev[2] == prev[1] * one:
            return _smaller_residual(prev, (a, b, c, at))
        prev = a, b, c, at
        a, b, c = a2, b2, one
    return a, b, c, horner_int(coeffs, a, b, c)


def _smaller_residual(u: _Iterate, v: _Iterate) -> _Iterate:
    """Of two points (a, b, c, `horner_int` there), the one where
    |q/q'| = |N|/(c |M|) is smaller, compared as |N_u|^2 c_v^2 |M_v|^2
    against |N_v|^2 c_u^2 |M_u|^2 (a critical point with q != 0 loses);
    on a tie, the first in `sphere_order`."""
    ua, ub, uc, (unr, uni, umr, umi) = u
    va, vb, vc, (vnr, vni, vmr, vmi) = v
    lu = (unr * unr + uni * uni) * vc * vc * (vmr * vmr + vmi * vmi)
    lv = (vnr * vnr + vni * vni) * uc * uc * (umr * umr + umi * umi)
    if lu != lv:
        return u if lu < lv else v
    return u if (ua * vc, ub * vc) <= (va * uc, vb * uc) else v


def _quadratic_seeds(coeffs: IntPairs, bits: int
                     ) -> tuple[list[GaussRat] | list[tuple[int, int, int]], bool]:
    """For q = c2 z^2 + c1 z + c0, whether the discriminant D = c1^2 -
    4 c2 c0 is a square in Z[i], and with it q's two roots as exact
    `GaussRat`s when it is, else seeds (x, y, 2^bits) for them.

    With k = bits + 16, S ~ sqrt(D) 2^k comes from two integer square
    roots: m = isqrt(|D|^2 16^k) ~ |D| 4^k, then w = isqrt((m + |Re D|
    4^k)/2), the larger part of S; the other part is Im D 4^k/(2w), a
    quotient in which nothing cancels.  Q = -(c1 2^k +- S), with the sign
    making |Q| the larger, gives the roots Q/(2 c2 2^k) and 2 c0 2^k/Q
    (both 0 when Q = 0, which happens only for q = c2 z^2).  S is within a
    few units of sqrt(D) 2^k, and |Q| >= max(|c1| 2^k, |S|), so each
    quotient is within about 2^-(bits+14) of its root; a seed rounds each
    part to the nearest multiple of 2^-bits.

    D is a square in Z[i] exactly when q has a root in Q(i): a root w
    gives sqrt(D) = 2 c2 w + c1 in Q(i), and Z[i] is integrally closed.
    The test reads the two square roots above: D = 0, or m^2 = |D|^2 16^k
    (so |D| = n is an integer) and w^2 is (n + |Re D|)/2 4^k, a square
    exactly when (n + |Re D|)/2 is; its root t gives the other part
    Im D/(2t), an integer because its square (n - |Re D|)/2 is.  Then S is
    sqrt(D) 2^k exactly, and so the quotients are the roots.

    Newton from a seed stops where it stops from any other seed near the
    root, a float approximation included.  With r' the other root and
    e = z - r, a Newton step from z lands exactly at r + e^2/(2e + r - r'),
    so from a grid point next to r, |e| <= 2^-bits sqrt 2, it lands within
    about 2 4^-bits/|r - r'| of r.  Unless r lies that close to a midline
    between grid points, the rounded step sends every grid point next to r
    to the grid point nearest r.  That point is then the only fixed point
    next to r, and Newton stops there from any seed close enough to reach
    a grid point next to r: from a float seed after one step, from this
    seed at once.  A root closer than that to a midline (a part at an odd
    multiple of 2^-(bits+1), the other part irrational) can have two fixed
    points across the midline, and there the grid point Newton stops at
    depends on the seed, or a 2-cycle, which `_newton` ends at the point
    of smaller residual whatever the seed.  The residual certificate holds
    at either point.
    """
    (c0r, c0i), (c1r, c1i), (c2r, c2i) = coeffs
    dr = c1r * c1r - c1i * c1i - 4 * (c2r * c0r - c2i * c0i)
    di = 2 * c1r * c1i - 4 * (c2r * c0i + c2i * c0r)
    k = bits + 16
    n2 = dr * dr + di * di
    if n2 == 0:
        sr = si = 0
        square = True
    else:
        m = math.isqrt(n2 << (4 * k))
        x = (m + (abs(dr) << (2 * k))) >> 1
        w = math.isqrt(x)
        t = (di << (2 * k)) // (2 * w)
        sr, si = (w, t) if dr >= 0 else (t, w)
        square = m * m == n2 << (4 * k) and w * w == x
    ar, ai = c1r << k, c1i << k
    if c1r * sr + c1i * si >= 0:
        qr, qi = -(ar + sr), -(ai + si)
    else:
        qr, qi = sr - ar, si - ai
    q2 = qr * qr + qi * qi
    if q2 == 0:
        return [G_ZERO] * 2, True
    lead = (c2r * c2r + c2i * c2i) << (k + 1)
    x1, y1 = qr * c2r + qi * c2i, qi * c2r - qr * c2i
    x2, y2 = (c0r * qr + c0i * qi) << (k + 1), (c0i * qr - c0r * qi) << (k + 1)
    if square:
        return [gauss_ratio(x1, y1, lead), gauss_ratio(x2, y2, q2)], True
    one = 1 << bits
    return [(dyadic_numerator(x1, lead, bits), dyadic_numerator(y1, lead, bits), one),
            (dyadic_numerator(x2, q2, bits), dyadic_numerator(y2, q2, bits), one)], False


def _float_seeds(coeffs: IntPairs) -> list[tuple[int, int, int]]:
    """Seeds (x, y, d) for the roots of the polynomial with these integer
    coefficients, one per root counted with multiplicity: 2^s w for float
    approximations w to the roots of p(2^s w), with s = `_root_scale`, each
    part of w rounded to the nearest multiple of 2^-60 by
    `dyadic_numerator`, the rule a Newton step rounds by (a non-finite w
    goes to 0).

    The floats are the monic coefficients a_k 2^(s(k-n)) of p(2^s w),
    each rounded from its exact value (int / int rounds correctly); they
    are at most 2 in modulus, so none overflows, and one that underflows to
    0 only puts a seed at w = 0.  They run at most 40 Aberth-Ehrlich sweeps
    (Aberth 1973) from Bini's Newton-polygon start (Bini 1996): for each
    edge (i, j) of the upper convex hull of the points (k, log|a_k|), j - i
    points on the circle of radius (|a_i|/|a_j|)^(1/(j - i)).  An iterate
    stops once |p| there is within the rounding error of Horner's rule.
    """
    s = _root_scale(coeffs)
    seeds = []
    for w in _aberth(_monic_floats(coeffs, s)):
        if not cmath.isfinite(w):
            w = 0j
        x, y = (dyadic_numerator(*part.as_integer_ratio(), 60) for part in (w.real, w.imag))
        seeds.append((x << s, y << s, 1 << 60) if s >= 0 else (x, y, 1 << (60 - s)))
    return seeds


def _monic_floats(coeffs: IntPairs, s: int) -> list[complex]:
    """The monic coefficients of p(2^s w), a_k 2^(s(k-n)), each part
    rounded to a float from its exact value."""
    lr, li = coeffs[-1]
    n2 = lr * lr + li * li
    n = len(coeffs) - 1
    out = []
    for k, (qr, qi) in enumerate(coeffs):
        e = s * (k - n)
        xr, xi, d = qr * lr + qi * li, qi * lr - qr * li, n2
        if e >= 0:
            xr, xi = xr << e, xi << e
        else:
            d <<= -e
        out.append(complex(xr / d, xi / d))
    return out


def _root_scale(coeffs: IntPairs) -> int:
    """The largest ceil(log2|a_k| / (n - k)) over the nonzero monic
    coefficients a_k below the leading one, with log2|c| read off the bit
    length of |c|^2, within 1/2.  So |a_k 2^(s(k-n))| <= 2 for k < n, and
    by Fujiwara's bound every root of p(2^s w) has |w| <= 4."""
    n = len(coeffs) - 1
    lead = (coeffs[-1][0] ** 2 + coeffs[-1][1] ** 2).bit_length() // 2
    return max((-((lead - (x * x + y * y).bit_length() // 2) // (n - k))
                for k, (x, y) in enumerate(coeffs[:-1]) if x or y), default=0)


def _aberth(a: list[complex]) -> list[complex]:
    """Float roots of sum a[k] z^k, for a monic a, as `_float_seeds` says."""
    zeros = next(k for k, c in enumerate(a) if c)
    a = a[zeros:]
    n = len(a) - 1
    if n < 2:
        return [0j] * zeros + [-a[0]] * n
    logs = {k: math.log(abs(c)) for k, c in enumerate(a) if c}
    hull: list[int] = []
    for k in logs:
        while len(hull) > 1 and ((logs[hull[-1]] - logs[hull[-2]]) * (k - hull[-2])
                                 <= (logs[k] - logs[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(k)
    z = [cmath.rect(math.exp((logs[i] - logs[j]) / (j - i)),
                    2 * math.pi * (t / (j - i) + i / n) + 0.7)
         for i, j in zip(hull, hull[1:]) for t in range(j - i)]
    moving = set(range(n))
    for _sweep in range(40):
        for r in sorted(moving):
            x = z[r]
            p = dp = 0j
            err = 0.0
            for c in reversed(a):
                p, dp, err = p * x + c, dp * x + p, err * abs(x) + abs(c)
            den = dp - p * sum(1 / (x - y) for y in z if y != x)
            if abs(p) <= n * err * 2 ** -50 or not den:
                moving.discard(r)
            else:
                z[r] = x - p / den
        if not moving:
            break
    return [0j] * zeros + z


def _residual_numerator(degree: int, c: int, at: tuple[int, int, int, int], bits: int
                        ) -> int | None:
    """The numerator over 2^bits of an upper bound on degree * |q(z)/q'(z)|
    from `horner_int` at z = w/c, where |q/q'| = |N|/(c*|M|), rounded up
    at `bits` bits; None at a critical point.  N and M scale alike with q,
    so the bound does not depend on the multiplier of q's integer form."""
    nr, ni, mr, mi = at
    num2 = nr * nr + ni * ni
    if num2 == 0:
        return 0
    den2 = mr * mr + mi * mi
    if den2 == 0:
        return None
    return sqrt_upper_numerator(degree * degree * num2, c * c * den2, bits)


def _snap_to_exact_root(coeffs: IntPairs, z: GaussRat, rad: Fraction
                        ) -> GaussRat | None:
    """Small-denominator Gaussian rational in the disc that is an exact root
    of the polynomial with these integer coefficients.

    Each part of z is rounded to the closest fraction with denominator at
    most b (`Fraction.limit_denominator`), for b in `_SNAP_DENOMS`; the
    candidate counts when it lies in the disc and `horner_int` there is 0.
    The distance to z only shrinks as b grows: if the candidate of the
    largest b misses the disc, so do all the others.
    """
    def candidate(b: int) -> GaussRat | None:
        w = GaussRat.of(z.re.limit_denominator(b), z.im.limit_denominator(b))
        return w if compare_square(*euclid_sq_parts(w, z), rad) <= 0 else None

    if candidate(_SNAP_DENOMS[-1]) is None:
        return None
    for b in _SNAP_DENOMS:
        w = candidate(b)
        if w is not None and horner_int(coeffs, w.x, w.y, w.d)[:2] == (0, 0):
            return w
    return None


def _exact_root(coeffs: IntPairs, z: GaussRat) -> tuple[SpherePoint, Fraction, _Horner]:
    """An exact root z as `_solve_square_free` returns it: radius 0."""
    return SpherePoint(z), ZERO, (z.d, horner_int(coeffs, z.x, z.y, z.d))


def _solve_square_free(q: Polynomial, e: int, bits: int
                       ) -> list[tuple[SpherePoint, Fraction, _Horner]] | None:
    """One (midpoint, euclid radius <= 2^-e, c and `horner_int` of q's
    integer form at the midpoint written over c) per root of q counted with
    multiplicity, for e <= bits; each disc holds a root, and one root each
    once the caller has checked the discs pairwise disjoint.  None when a
    residual bound exceeds 2^-e or degenerates."""
    coeffs = q.C
    if q.degree == 1:
        (x0, y0), (x1, y1) = coeffs
        return [_exact_root(coeffs, gauss_ratio(-x0 * x1 - y0 * y1, x0 * y1 - y0 * x1,
                                                x1 * x1 + y1 * y1))]
    if q.degree == 2:
        seeds, exact = _quadratic_seeds(coeffs, bits)
        if exact:
            return [_exact_root(coeffs, z) for z in seeds]
    else:
        seeds = _float_seeds(coeffs)
    steps = max(6, bits.bit_length() + 2)
    out = []
    for seed in seeds:
        a, b, c, at = _newton(coeffs, *seed, bits, steps)
        u = _residual_numerator(q.degree, c, at, bits)
        if u is None or u > 1 << (bits - e):
            return None
        z = gauss_ratio(a, b, c)
        r = Fraction(u, 1 << bits)
        snapped = _snap_to_exact_root(coeffs, z, r) if q.degree > 2 else None
        out.append((SpherePoint(z), r, (c, at)) if snapped is None
                   else _exact_root(coeffs, snapped))
    return out


def _first_bits(l: int) -> int:
    """The working precision of rungs 0 and 1 at chordal precision l."""
    return max(2 * (l + 8), 64)


def _solve_factors(factors: list[tuple[Polynomial, int]], l: int, rung: int
                   ) -> list[RootCluster] | None:
    """The clusters of one rung of `certified_roots`, or None when a solve
    fails or two clusters meet.

    Rung k >= 1 solves at 2^(k-1) times the first working precision, with
    Euclidean radii at most 2^-(l+1+k) and chordal radii rounded up at
    l + 4 bits plus the bits it adds; rung 0 is rung 1 on p itself, and
    keeps each root's `horner`."""
    first = _first_bits(l)
    k = max(rung - 1, 0)
    bits = first << k
    chordal_bits = l + 4 + bits - first
    clusters = []
    for q, mult in factors:
        got = _solve_square_free(q, l + 2 + k, bits)
        if got is None:
            return None
        for pt, r, at in got:
            clusters.append(RootCluster(pt, mult, r, chordal_bits, None if rung else at))
    return clusters if _clusters_disjoint(clusters, l) else None


def certified_roots(p: Polynomial, l: int) -> list[RootCluster]:
    """All roots of p as certified clusters of chordal radius <= 2^-l, in
    `sphere_order` of their midpoints.

    Multiplicities sum to deg p; distinct clusters have disjoint chordal
    discs (and Euclidean ones, which follows).  Rung 0 solves p as one
    simple factor; when that fails, Yun's factors are solved on rungs 1 to
    10 (2 to 10 when p is square-free), and PrecisionExhausted is raised
    if none of them certifies.

    Chordal radii are rounded up at l + 4 bits, plus the bits each rung
    past the first adds to the working precision: roots chordally closer
    than about 2^-(l+3) then separate once Newton has resolved them.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    if l < 0:
        raise ValueError(f"chordal precision l must be nonnegative, got {l}")
    clusters = _solve_factors([(p, 1)], l, 0)
    if clusters is None:
        factors = square_free_decomposition(p)
        # A square-free p is its own one factor, which rung 1 would solve
        # exactly as rung 0 did.
        first = 2 if [m for _, m in factors] == [1] else 1
        for rung in range(first, 11):
            clusters = _solve_factors(factors, l, rung)
            if clusters is not None:
                break
        else:
            raise PrecisionExhausted(f"certified_roots at 2^-{l}")
    return [clusters[i] for i in sphere_order([c.point for c in clusters])]


def _clusters_disjoint(clusters: list[RootCluster], l: int) -> bool:
    """Whether the clusters of a rung at chordal precision l are pairwise
    chordally apart, which implies Euclid-apart.

    A cluster's chordal radius rho, from `chordal_disc_radius`, bounds
    sup sigma(z, w) over its Euclidean disc |w - z| <= r.  If the
    Euclidean discs of two clusters share a point w, then sigma(z1, z2) <=
    sigma(z1, w) + sigma(w, z2) <= rho1 + rho2 and their chordal discs
    meet too; so a Euclidean test could never change the answer.

    On every rung r <= 2^-(l+2) and rho is rounded up at b >= l + 4 bits,
    so rho <= 2r + 2^-b <= 9 * 2^-(l+4).  A pair at chordal distance sigma
    is therefore apart when sigma^2 > (18 * 2^-(l+4))^2, tested as
    n 2^(2l+8) > 324 d on sigma^2 = n/d; only a pair that fails that reads
    the clusters' exact radii (`discs_apart`).
    """
    shift = 2 * l + 8
    for i, a in enumerate(clusters):
        for b in clusters[i + 1:]:
            n, d = chordal_sq_parts(a.point, b.point)
            if n << shift > 324 * d:
                continue
            if not discs_apart(n, d, a.center.rad, b.center.rad):
                return False
    return True
