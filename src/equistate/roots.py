"""Certified complex polynomial root clusters.

The certificate: for any polynomial q of degree d, every z has a root of
q within Euclidean distance d*|q(z)/q'(z)|.  When d discs so produced are
pairwise disjoint, each holds exactly one root, which also proves q
square-free.

So `certified_roots` first solves p directly, as one simple factor.
Only when that certificate fails does it split p by exact square-free
decomposition (Yun) and solve each factor the same way: first at the
same precision, then at doubling precision.

A linear factor is solved exactly.  Any other starts from numpy.roots
seeds and runs Newton on Gaussian integers: the coefficients with their
denominators cleared, and z as integer numerators over one denominator
(2^bits after the first step, which rounds each step to the nearest
multiple of 2^-bits).  A step is a function of z alone, so the iteration
stops at the first step that returns its input.  The residual bound
comes from the same integer evaluation.  All certification arithmetic is
exact; floats only ever propose candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadics import ZERO, dyadic_numerator, sqrt_upper
from .errors import PrecisionExhausted
from .gauss import GaussRat, gauss_ratio
from .polynomials import Polynomial, horner_int, integer_coeffs, square_free_decomposition
from .sphere import PointBall, SpherePoint, chordal_disc_radius, chordal_sq

_SNAP_DENOMS = (1, 2, 3, 4, 6, 8, 16, 64, 256)


@dataclass(frozen=True)
class RootCluster:
    """A certified disc containing exactly `multiplicity` roots.

    `center` is the chordal disc of the public contract; `euclid_rad`
    bounds the Euclidean distance from the (finite) midpoint to each
    enclosed root, which downstream displacement accounting uses.
    """

    center: PointBall
    multiplicity: int
    euclid_rad: Fraction

    @property
    def midpoint(self) -> GaussRat:
        return self.center.center.as_gauss()


def _int_newton_step(coeffs: list[tuple[int, int]], a: int, b: int, c: int, bits: int
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


def _newton(coeffs: list[tuple[int, int]], a: int, b: int, c: int, bits: int,
            steps: int) -> tuple[int, int, int, tuple[int, int, int, int]]:
    """Newton from (a + b*i)/c for at most `steps` steps, stopping at the
    first step that returns its input; (a, b, c) of the last iterate and
    `horner_int` there."""
    one = 1 << bits
    for _ in range(steps):
        a2, b2, at = _int_newton_step(coeffs, a, b, c, bits)
        if a2 * c == a * one and b2 * c == b * one:
            return a, b, c, at
        a, b, c = a2, b2, one
    return a, b, c, horner_int(coeffs, a, b, c)


def _float_seeds(coeffs: list[tuple[int, int]]) -> list[complex]:
    """numpy.roots on the monic polynomial with these coefficients, each
    rounded to floats from its exact value (int / int rounds correctly)."""
    lr, li = coeffs[-1]
    n2 = lr * lr + li * li
    monic = [complex((qr * lr + qi * li) / n2, (qi * lr - qr * li) / n2)
             for qr, qi in reversed(coeffs)]
    return [complex(r) for r in np.roots(monic)]


def _gauss_from_complex(z: complex, bits: int) -> GaussRat:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        z = 0j
    return GaussRat.of(Fraction(z.real).limit_denominator(1 << bits),
                       Fraction(z.imag).limit_denominator(1 << bits))


def _residual_radius(degree: int, c: int, at: tuple[int, int, int, int], bits: int
                     ) -> Fraction | None:
    """Upper bound on degree * |q(z)/q'(z)| from `horner_int` at z = w/c,
    where |q/q'| = |N|/(c*|M|); None at a critical point."""
    nr, ni, mr, mi = at
    num2 = nr * nr + ni * ni
    if num2 == 0:
        return ZERO
    den2 = mr * mr + mi * mi
    if den2 == 0:
        return None
    return sqrt_upper(Fraction(degree * degree * num2, c * c * den2), bits)


def _snap_to_exact_root(q: Polynomial, z: GaussRat, rad: Fraction) -> GaussRat | None:
    """Small-denominator Gaussian rational in the disc that is an exact root.

    `limit_denominator` returns the closest fraction within its bound, so
    the distance to z only shrinks as the bound grows: if the candidate of
    the largest bound misses the disc, so do all the others.
    """
    r2 = rad * rad
    d = _SNAP_DENOMS[-1]
    if (GaussRat.of(z.re.limit_denominator(d), z.im.limit_denominator(d)) - z).abs2() > r2:
        return None
    for d in _SNAP_DENOMS:
        cand = GaussRat.of(z.re.limit_denominator(d), z.im.limit_denominator(d))
        if (cand - z).abs2() <= r2 and q(cand).is_zero():
            return cand
    return None


def _solve_square_free(q: Polynomial, target: Fraction, bits: int
                       ) -> list[tuple[GaussRat, Fraction]] | None:
    """(midpoint, euclid radius <= target) pairs, one per root of q counted
    with multiplicity; each disc holds a root, and one root each once the
    caller has checked the discs pairwise disjoint."""
    if q.degree == 1:
        return [(-q.coeffs[0] / q.coeffs[1], ZERO)]
    coeffs = integer_coeffs(q)
    steps = max(6, bits.bit_length() + 2)
    out: list[tuple[GaussRat, Fraction]] = []
    for seed in _float_seeds(coeffs):
        z0 = _gauss_from_complex(seed, 60)
        a, b, c, at = _newton(coeffs, z0.x, z0.y, z0.d, bits, steps)
        r = _residual_radius(q.degree, c, at, bits)
        if r is None or r > target:
            return None
        z = gauss_ratio(a, b, c)
        snapped = _snap_to_exact_root(q, z, r)
        out.append((z, r) if snapped is None else (snapped, ZERO))
    return out


def _solve_factors(factors: list[tuple[Polynomial, int]], target: Fraction, bits: int,
                   chordal_bits: int) -> list[RootCluster] | None:
    """Certified clusters of all factors, or None when a solve fails or two
    discs meet.  Chordal radii are rounded up at `chordal_bits`."""
    clusters: list[RootCluster] = []
    for q, mult in factors:
        got = _solve_square_free(q, target, bits)
        if got is None:
            return None
        clusters.extend(
            RootCluster(PointBall(SpherePoint(z), chordal_disc_radius(z, r, chordal_bits)),
                        mult, r)
            for z, r in got
        )
    return clusters if _clusters_disjoint(clusters) else None


def certified_roots(p: Polynomial, l: int) -> list[RootCluster]:
    """All roots of p as certified clusters of chordal radius <= 2^-l.

    Multiplicities sum to deg p; distinct clusters have disjoint chordal
    discs.  Raises PrecisionExhausted if the internal precision cap is
    reached before certification.

    Chordal radii are rounded up at l + 4 bits, plus the bits each retry
    adds to the working precision: roots chordally closer than about
    2^-(l+3) then separate once Newton has resolved them.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    if l < 0:
        raise ValueError(f"chordal precision l must be nonnegative, got {l}")
    euclid_target = Fraction(1, 1 << (l + 2))
    bits = first_bits = max(2 * (l + 8), 64)
    clusters = _solve_factors([(p, 1)], euclid_target, bits, l + 4)
    if clusters is None:
        factors = square_free_decomposition(p)
        for _attempt in range(10):
            clusters = _solve_factors(factors, euclid_target, bits, l + 4 + bits - first_bits)
            if clusters is not None:
                break
            bits *= 2
            euclid_target /= 2
        else:
            raise PrecisionExhausted(f"certified_roots at 2^-{l}")
    clusters.sort(key=lambda c: c.midpoint.sort_key())
    return clusters


def _clusters_disjoint(clusters: list[RootCluster]) -> bool:
    """Euclidean and chordal disjointness across all clusters."""
    for i, a in enumerate(clusters):
        for b in clusters[i + 1:]:
            if (a.midpoint - b.midpoint).abs2() <= (a.euclid_rad + b.euclid_rad) ** 2:
                return False
            if chordal_sq(a.center.center, b.center.center) <= (a.center.rad + b.center.rad) ** 2:
                return False
    return True
