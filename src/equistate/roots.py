"""Certified complex polynomial root clusters.

Strategy: exact square-free decomposition splits multiplicities, floating
seeds (the linear formula or numpy.roots) start a dyadic Newton iteration,
and an exact a-posteriori bound certifies containment: for a square-free
polynomial q of degree d, every z has a root of q within Euclidean
distance d*|q(z)/q'(z)|.  When the d discs so produced are pairwise
disjoint, each contains exactly one root.  All certification arithmetic is
exact rational; floats only ever propose candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadics import ZERO, sqrt_upper
from .errors import PrecisionExhausted
from .gauss import GaussRat
from .polynomials import Polynomial, square_free_decomposition
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


def _eval_abs2(p: Polynomial, z: GaussRat) -> Fraction:
    return p(z).abs2()


def _newton_step(q: Polynomial, dq: Polynomial, z: GaussRat, bits: int) -> GaussRat:
    d = dq(z)
    if d.is_zero():
        # Nudge off the critical point; certification decides acceptance.
        return (z + GaussRat.of(Fraction(1, 1 << (bits // 2)), 0)).round(bits)
    return (z - q(z) / d).round(bits)


def _float_seeds(q: Polynomial) -> list[complex]:
    if q.degree == 1:
        return [complex(-q.coeffs[0] / q.coeffs[1])]
    coeffs = [complex(c) for c in reversed(q.coeffs)]
    return [complex(r) for r in np.roots(coeffs)]


def _gauss_from_complex(z: complex, bits: int) -> GaussRat:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        z = 0j
    return GaussRat(Fraction(z.real).limit_denominator(1 << bits),
                    Fraction(z.imag).limit_denominator(1 << bits))


def _residual_radius(q: Polynomial, dq: Polynomial, z: GaussRat, bits: int) -> Fraction | None:
    """Upper bound on deg(q) * |q(z)/q'(z)|, or None at a critical point."""
    num2 = _eval_abs2(q, z)
    if num2 == 0:
        return ZERO
    den2 = _eval_abs2(dq, z)
    if den2 == 0:
        return None
    ratio2 = Fraction(q.degree * q.degree) * num2 / den2
    return sqrt_upper(ratio2, bits)


def _snap_to_exact_root(q: Polynomial, z: GaussRat, rad: Fraction) -> GaussRat | None:
    """Small-denominator Gaussian rational in the disc that is an exact root."""
    for d in _SNAP_DENOMS:
        cand = GaussRat(z.re.limit_denominator(d), z.im.limit_denominator(d))
        if (cand - z).abs2() <= rad * rad and q(cand).is_zero():
            return cand
    return None


def _solve_square_free(q: Polynomial, target: Fraction, bits: int
                       ) -> list[tuple[GaussRat, Fraction]] | None:
    """(midpoint, euclid radius <= target) pairs for square-free q; each
    disc holds a root, and one root each once the caller has checked the
    discs pairwise disjoint."""
    if q.degree == 1:
        return [(-q.coeffs[0] / q.coeffs[1], ZERO)]
    dq = q.derivative()
    approx = [_gauss_from_complex(z, 60) for z in _float_seeds(q)]
    steps = max(6, bits.bit_length() + 2)
    for _ in range(steps):
        approx = [_newton_step(q, dq, z, bits) for z in approx]
    out: list[tuple[GaussRat, Fraction]] = []
    for z in approx:
        r = _residual_radius(q, dq, z, bits)
        if r is None or r > target:
            return None
        snapped = _snap_to_exact_root(q, z, r)
        if snapped is not None:
            out.append((snapped, ZERO))
        else:
            out.append((z, r))
    return out


def certified_roots(p: Polynomial, l: int) -> list[RootCluster]:
    """All roots of p as certified clusters of chordal radius <= 2^-l.

    Multiplicities sum to deg p; distinct clusters have disjoint chordal
    discs.  Raises PrecisionExhausted if the internal precision cap is
    reached before certification.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    factors = square_free_decomposition(p)
    euclid_target = Fraction(1, 1 << (l + 2))
    bits = max(2 * (l + 8), 64)
    for _attempt in range(10):
        solved: list[tuple[GaussRat, Fraction, int]] = []
        ok = True
        for q, mult in factors:
            got = _solve_square_free(q, euclid_target, bits)
            if got is None:
                ok = False
                break
            solved.extend((z, r, mult) for z, r in got)
        if ok and _clusters_disjoint(solved, l):
            clusters = [
                RootCluster(
                    center=PointBall(SpherePoint(z), chordal_disc_radius(z, r, l + 4)),
                    multiplicity=mult,
                    euclid_rad=r,
                )
                for z, r, mult in solved
            ]
            clusters.sort(key=lambda c: c.midpoint.sort_key())
            return clusters
        bits *= 2
        euclid_target /= 2
    raise PrecisionExhausted(f"certified_roots at 2^-{l}")


def _clusters_disjoint(solved: list[tuple[GaussRat, Fraction, int]], l: int) -> bool:
    """Euclidean and chordal disjointness across all clusters."""
    n = len(solved)
    for i in range(n):
        zi, ri, _ = solved[i]
        ci = chordal_disc_radius(zi, ri, l + 4)
        for j in range(i + 1, n):
            zj, rj, _ = solved[j]
            if (zi - zj).abs2() <= (ri + rj) * (ri + rj):
                return False
            cj = chordal_disc_radius(zj, rj, l + 4)
            if chordal_sq(SpherePoint(zi), SpherePoint(zj)) <= (ci + cj) * (ci + cj):
                return False
    return True
