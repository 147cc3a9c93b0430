"""Certified roots: the integer Newton kernel, identity with the Fraction
algorithm it replaced, an mpmath oracle, and the `roots` exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import tempfile
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equistate.balls import sqrt_of_rational
from equistate.cli import main
from equistate.dyadics import ZERO, discs_apart
from equistate.errors import PrecisionExhausted
from equistate.gauss import GaussRat, euclid_sq_parts, gauss_ratio
from equistate.polynomials import Polynomial, horner_int, square_free_decomposition
from equistate.ratmap import RationalMapRec
from equistate import roots
from equistate.roots import (RootCluster, _clusters_disjoint, _float_seeds, _int_newton_step,
                             _quadratic_seeds, _snap_to_exact_root, certified_roots)
from equistate.serialize import map_to_json, parse_map
from equistate.sphere import SpherePoint, chordal_disc_radius, chordal_sq_parts

from test_measures import _fraction_sort_key

G = GaussRat.of


def _round(z: GaussRat, bits: int) -> GaussRat:
    """Both parts at the nearest multiple of 2^-bits; ties go away from zero."""
    def part(q):
        m = math.floor(abs(q) * (1 << bits) + F(1, 2))
        return F(m if q >= 0 else -m, 1 << bits)
    return G(part(z.re), part(z.im))


def _sqrt_upper(q: F, bits: int) -> F:
    """The least multiple of 2^-bits at or above sqrt(q), on Fractions."""
    scaled = q * (1 << (2 * bits))
    top = -((-scaled.numerator) // scaled.denominator)
    r = math.isqrt(top)
    return F(r + (r * r < top), 1 << bits)


def poly_from_roots(roots: list[GaussRat]) -> Polynomial:
    p = Polynomial.of(1)
    for r in roots:
        p = p * Polynomial.of(-r, 1)
    return p


# -- the Fraction algorithm as first written: Yun first, then a fixed
# number of Newton steps per root, the residual, the snap and the
# disjointness check --------------------------------------------------------

_SNAP_DENOMS = (1, 2, 3, 4, 6, 8, 16, 64, 256)


def _ref_newton_step(q, dq, z, bits):
    d = dq(z)
    if d.is_zero():
        return _round(z + G(F(1, 1 << (bits // 2))), bits)
    return _round(z - q(z) / d, bits)


def _ref_seed(z):
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        z = 0j
    return G(F(z.real).limit_denominator(1 << 60), F(z.imag).limit_denominator(1 << 60))


def _ref_solve(q, target, bits):
    if q.degree == 1:
        return [(-q.coeffs[0] / q.coeffs[1], ZERO)]
    dq = q.derivative()
    approx = [_ref_seed(complex(r)) for r in np.roots([complex(c) for c in reversed(q.coeffs)])]
    for _ in range(max(6, bits.bit_length() + 2)):
        approx = [_ref_newton_step(q, dq, z, bits) for z in approx]
    out = []
    for z in approx:
        num2 = q(z).abs2()
        if num2 == 0:
            r = ZERO
        else:
            den2 = dq(z).abs2()
            if den2 == 0:
                return None
            r = _sqrt_upper(q.degree * q.degree * num2 / den2, bits)
        if r > target:
            return None
        for d in _SNAP_DENOMS:
            cand = G(z.re.limit_denominator(d), z.im.limit_denominator(d))
            if (cand - z).abs2() <= r * r and q(cand).is_zero():
                out.append((cand, ZERO))
                break
        else:
            out.append((z, r))
    return out


def _ref_disjoint(solved, l):
    for i, (zi, ri, _) in enumerate(solved):
        ci = chordal_disc_radius(zi, ri, l + 4)
        for zj, rj, _ in solved[i + 1:]:
            if (zi - zj).abs2() <= (ri + rj) * (ri + rj):
                return False
            cj = chordal_disc_radius(zj, rj, l + 4)
            if F(*chordal_sq_parts(SpherePoint(zi), SpherePoint(zj))) <= (ci + cj) * (ci + cj):
                return False
    return True


def _ref_certified_roots(p, l):
    factors = square_free_decomposition(p)
    target = F(1, 1 << (l + 2))
    bits = max(2 * (l + 8), 64)
    for _ in range(10):
        solved = []
        for q, mult in factors:
            got = _ref_solve(q, target, bits)
            if got is None:
                solved = None
                break
            solved.extend((z, r, mult) for z, r in got)
        if solved is not None and _ref_disjoint(solved, l):
            out = [(z, m, r, chordal_disc_radius(z, r, l + 4)) for z, r, m in solved]
            return sorted(out, key=lambda t: _fraction_sort_key(SpherePoint(t[0])))
        bits *= 2
        target /= 2
    raise PrecisionExhausted(f"certified_roots at 2^-{l}")


# -- the bounded-denominator search on integers ----------------------------------


def _triple(z: GaussRat) -> tuple[int, int, int]:
    return z.x, z.y, z.d


def _ref_snap(q: Polynomial, z: GaussRat, rad: F):
    """The snap on Fractions and `Polynomial` evaluation."""
    for d in _SNAP_DENOMS:
        cand = G(z.re.limit_denominator(d), z.im.limit_denominator(d))
        if (cand - z).abs2() <= rad * rad and q(cand).is_zero():
            return cand
    return None


def test_snap_and_seeds_match_the_fraction_forms(monkeypatch):
    """The snap finds the same exact root as the Fraction search, or none,
    near planted roots with denominators up to 300 and off them.  Each
    float seed is 2^s times the multiple of 2^-60 nearest a float root w
    of p(2^s w), s = `_root_scale` (ties away from zero, as a Newton step
    rounds), and a non-finite w seeds 0."""
    rng = random.Random(15)
    found = 0
    for _ in range(300):
        planted = [G(F(rng.randint(-40, 40), rng.randint(1, 300)),
                   F(rng.randint(-40, 40), rng.randint(1, 300)))
                 for _ in range(rng.randint(1, 3))]
        q = poly_from_roots(planted)
        if rng.randrange(3) == 0:
            q = q + Polynomial.of(G(F(1, 1 << rng.randint(10, 40))))
        coeffs = q.C
        bits = rng.choice([64, 96, 128])
        for r in planted:
            z = G(F(round(r.re * (1 << bits)) + rng.randint(-3, 3), 1 << bits),
                  F(round(r.im * (1 << bits)) + rng.randint(-3, 3), 1 << bits))
            rad = rng.choice([F(0), F(1, 1 << (bits - 4)), F(1, 1 << rng.randint(2, 30))])
            got = _snap_to_exact_root(coeffs, z, rad)
            assert got == _ref_snap(q, z, rad), (q, z, rad)
            found += got is not None
        q = q * Polynomial.of(G(F(1, 1 << rng.randint(0, 90)), rng.randint(0, 9)))
        s = roots._root_scale(q.C)
        scale = G(F(2) ** s)
        want = [_round(G(F(w.real), F(w.imag)), 60) * scale
                for w in roots._aberth(roots._monic_floats(q.C, s))]
        assert [gauss_ratio(*t) for t in _float_seeds(q.C)] == want, q
    assert found >= 100
    monkeypatch.setattr(roots, "_aberth", lambda a: [complex(math.inf, 1), complex(2, math.nan)])
    assert [gauss_ratio(*t) for t in _float_seeds(Polynomial.of(-3, 0, 1).C)] == [G(0)] * 2


# -- seeded polynomials --------------------------------------------------------


def _chordal(a: complex, b: complex) -> float:
    return 2 * abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


def _separated(zs) -> bool:
    # Roots chordally closer than about 2^-(l+3) are never separated at
    # l = 10 (the chordal radii are rounded at l + 4 bits), and both
    # algorithms then spend all ten attempts before giving up.
    zs = [complex(z) for z in zs]
    return all(_chordal(a, b) > 2 ** -9 for i, a in enumerate(zs) for b in zs[i + 1:])


def _float_roots(p):
    return np.roots([complex(c) for c in reversed(p.coeffs)])


def _seeded_polynomials():
    """About 200 polynomials of four kinds: planted double and triple roots,
    exact roots with denominators 1 to 256, perturbed (irrational) roots,
    and non-dyadic Gaussian coefficients."""
    rng = random.Random(5)
    out = []

    def root(den):
        return G(F(rng.randint(-12, 12), den), F(rng.randint(-12, 12), den))

    while len(out) < 200:
        kind = len(out) % 4
        if kind == 0:  # planted double and triple roots
            roots = [root(rng.choice((1, 2, 3, 4, 7, 12, 16, 256))) for _ in range(rng.randint(1, 3))]
            mults = [rng.choice((1, 2, 3)) for _ in roots]
            mults[0] = rng.choice((2, 3))
            p = poly_from_roots([r for r, m in zip(roots, mults) for _ in range(m)])
            ok = len(set(roots)) == len(roots) and _separated(roots)
        elif kind == 1:  # exact simple roots, denominators 1 to 256
            roots = [root(rng.randint(1, 256)) for _ in range(rng.randint(2, 4))]
            p = poly_from_roots(roots)
            ok = len(set(roots)) == len(roots) and _separated(roots)
        elif kind == 2:  # planted clusters perturbed off the rationals
            roots = [root(rng.choice((1, 2, 3, 5))) for _ in range(rng.randint(1, 2))]
            p = poly_from_roots([r for r in roots for _ in range(2)])
            p = p + Polynomial.of(G(F(rng.choice((1, -1, 3)), 1 << rng.randint(3, 8)),
                                    F(rng.randint(-1, 1), 7)))
            ok = len(set(roots)) == len(roots) and _separated(_float_roots(p))
        else:  # non-dyadic Gaussian coefficients
            coeffs = [G(F(rng.randint(-9, 9), rng.choice((1, 3, 5, 7))),
                        F(rng.randint(-9, 9), rng.choice((1, 3, 9))))
                      for _ in range(rng.randint(2, 5))]
            p = Polynomial.of(*coeffs, G(F(rng.randint(1, 5), rng.choice((1, 3))),
                                         F(rng.randint(-2, 2), 5)))
            ok = _separated(_float_roots(p))
        if ok:
            out.append(p)
    return out


_POLYS = _seeded_polynomials()

# Seed edge cases: b = c = 0, exact double roots, moduli 10^6 apart, and
# two with one root near 2*10^3 beside eight near the unit circle.  Aberth
# sweeps started on one circle about -a_8/9 instead of the Newton-polygon
# circles exhaust the precision cap on the last one.
_EDGE_POLYS = [
    Polynomial.of(0, 0, 1),
    poly_from_roots([G(1), G(1)]),
    poly_from_roots([G(F(1, 3), F(1, 5))] * 2),
    poly_from_roots([G(10 ** 6), G(F(1, 10 ** 6))]) + Polynomial.of(F(1, 10 ** 9)),
    poly_from_roots([G(1999, -12)] + [G(F(k, 7), F(8 - k, 9)) for k in range(8)])
    + Polynomial.of(G(F(1, 3), F(1, 7))),
    poly_from_roots([G(2484, 32)] + [G(F(x, 63), F(y, 63)) for x, y in (
        (43, -69), (64, 2), (-76, 27), (27, 64), (15, 59), (69, -5), (50, -27), (57, -20))])
    + Polynomial.of(G(F(1, 6), F(1, 4))),
]


def _summary(clusters):
    return [(c.midpoint, c.multiplicity, c.euclid_rad, c.center.rad) for c in clusters]


@pytest.mark.parametrize("l", [10, 30, 60])
def test_certified_roots_match_fraction_reference(l):
    multiple = exact = 0
    for p in [*_POLYS, *_EDGE_POLYS]:
        got = _summary(certified_roots(p, l))
        assert got == _ref_certified_roots(p, l), (p, l)
        multiple += any(m > 1 for _, m, _, _ in got)
        exact += any(r == 0 for _, _, r, _ in got)
    assert multiple >= 50 and exact >= 100  # the planted kinds took effect


# -- pins on quadratics: the seeds changed, the clusters did not ------------------


def _clusters_digest(polys, l):
    """SHA-256 of every cluster's midpoint triple, radii and multiplicity,
    and the count of exact (radius 0) clusters."""
    h = hashlib.sha256()
    exact = 0
    for p in polys:
        for c in certified_roots(p, l):
            z = c.midpoint
            h.update(f"{z.x} {z.y} {z.d} {c.euclid_rad} {c.center.rad} {c.multiplicity}\n"
                     .encode())
            exact += c.euclid_rad == 0
        h.update(b"\n")
    return h.hexdigest(), exact


def _pin_quadratics():
    """3,000 quadratics with a real or non-real leading coefficient: half
    with two planted roots in Q(i), of denominators up to 4, 16 or 300,
    half with random coefficients."""
    rng = random.Random(28)

    def gq(num, den):
        return G(F(rng.randint(-num, num), rng.randint(1, den)),
                 F(rng.randint(-num, num), rng.randint(1, den)))

    out = []
    for i in range(3000):
        lead = G(rng.randint(1, 9), rng.choice((0, 0, rng.randint(-9, 9))))
        if i % 2 == 0:
            r1, r2 = gq(40, rng.choice((4, 16, 300))), gq(40, rng.choice((4, 16, 300)))
            out.append(Polynomial.of(lead * r1 * r2, -lead * (r1 + r2), lead))
        else:
            out.append(Polynomial.of(gq(99, 9), gq(99, 9), lead))
    return out


# Every root of a quadratic whose discriminant is a square in Z[i] is
# exact: 3,000 of the 6,000.
_QUADRATIC_PINS = {
    10: "4453bac7ed8b4224227124e6ec07cd14b8920f26813cde6fbd71de7274b2b6e4",
    48: "9077d0d751cf012bdfd64000091cb0a465e16510c7a36dc98fa5879433d7dc52",
}


@pytest.mark.parametrize("l", sorted(_QUADRATIC_PINS))
def test_quadratic_clusters_match_the_pin(l):
    assert _clusters_digest(_pin_quadratics(), l) == (_QUADRATIC_PINS[l], 3000)


def _spread_polynomials():
    """440 polynomials of degree 3 to 6 with simple roots whose parts run
    from about 2^-30 to 50: planted roots in Q(i) with small, large or
    dyadic denominators, and the same moved off Q(i) by a small constant,
    with a real or non-real leading coefficient.  Their float roots are
    chordally more than 2^-9 apart: in a tighter cluster Newton can spend
    its step budget before it reaches a fixed point, and where it stops
    then depends on the float seed."""
    rng = random.Random(33)

    def part():
        kind = rng.randrange(3)
        if kind == 0:
            return F(rng.randint(-50, 50), rng.choice((1, 3, 7, 8)))
        if kind == 1:
            return F(rng.choice((1, -1)) * rng.randint(1, 999), 1 << rng.randint(10, 30))
        return F(rng.randint(-50 * 997, 50 * 997), 997)

    out = []
    while len(out) < 440:
        planted = [G(part(), part()) for _ in range(rng.randint(3, 6))]
        lead = G(rng.randint(1, 9), rng.choice((0, 0, rng.randint(-9, 9))))
        p = poly_from_roots(planted) * Polynomial.of(lead)
        if rng.randrange(3) == 0:
            p = p + Polynomial.of(G(F(rng.choice((1, -1)), 1 << rng.randint(8, 40))))
        zs = _float_roots(p)
        if all(_chordal(a, b) > 2 ** -9 for i, a in enumerate(zs) for b in zs[i + 1:]):
            out.append(p)
    return out


# Recorded with float seeds rounded by a continued-fraction search, from an
# unscaled first attempt, and the snap on integers; the scaled seeds on the
# 2^-60 grid and the snap on `Fraction.limit_denominator` give the same
# clusters.
_SPREAD_PINS = {
    10: ("3fc445d773253171ac913e14b4ad47498898dd99944ef51ad082c7402dda147c", 464),
    40: ("d00923105b5c4c3cd7f0d0abbfb769ab11f43ef19d8ab9b5940f760c2b382b65", 464),
}


@pytest.mark.parametrize("l", sorted(_SPREAD_PINS))
def test_spread_clusters_match_the_pin(l):
    assert _clusters_digest(_spread_polynomials(), l) == _SPREAD_PINS[l]


def _tie_quadratics(l, on_grid):
    """Quadratics with one root r1 planted on a rounding tie of the first
    attempt's grid: one part of r1 is an odd multiple of 2^-(bits+1).  Its
    other part lies on the grid or on a tie too (`on_grid`), or off both,
    at k/3 or k/100003.  Returns (q, r1, r2) triples."""
    rng = random.Random(l + 100 * on_grid)
    bits = max(2 * (l + 8), 64)
    one = 1 << bits
    out = []
    for _ in range(300 if on_grid else 100):
        tie = F(2 * rng.randint(-8 * one, 8 * one) + 1, 2 * one)
        if on_grid:
            other = rng.choice((F(rng.randint(-8 * one, 8 * one), one),
                                F(2 * rng.randint(-8 * one, 8 * one) + 1, 2 * one)))
        else:
            other = rng.choice((F(rng.randint(-9, 9), 3),
                                F(rng.randint(-10 ** 6, 10 ** 6), 10 ** 5 + 3)))
        r1 = G(tie, other) if rng.randrange(2) else G(other, tie)
        r2 = G(F(rng.randint(-50, 50), rng.randint(1, 9)), F(rng.randint(-50, 50), rng.randint(1, 9)))
        lead = G(rng.randint(1, 5), rng.randint(-5, 5))
        out.append((Polynomial.of(lead * r1 * r2, -lead * (r1 + r2), lead), r1, r2))
    return out


# Both roots are in Q(i), so both are exact.
_TIE_PINS = {
    10: "3fcafef7f750cb85b48f215c5a2eb5f893fcb8b6b1032699542b7e677d7e5961",
    20: "b556cacfa78ca0ca5264504906185bc1050dc5cbd36620e1c95c797712cca2e2",
    30: "835e181d27a653806b1d81712f33eb8ebdc4f4dfd2bd12f7c405234fc24398c3",
}


@pytest.mark.parametrize("l", sorted(_TIE_PINS))
def test_tie_clusters_match_the_pin(l):
    """Roots planted on a rounding tie are in Q(i), so a quadratic finds
    them exactly, with no Newton step to stop on either side."""
    polys = [q for q, _, _ in _tie_quadratics(l, True)]
    assert _clusters_digest(polys, l) == (_TIE_PINS[l], 600)


def _tie_neighbours(r1, bits):
    """The two grid points next to r1 across its tie, as G values: the tie
    part's two neighbours at spacing 2^-bits, with the other part rounded."""
    one = 1 << bits
    tie_re = (r1.re * 2 * one).denominator == 1
    tie, other = (r1.re, r1.im) if tie_re else (r1.im, r1.re)
    low = F(math.floor(tie * one), one)
    near = F(round(other * one), one)
    return [G(t, near) if tie_re else G(near, t) for t in (low, low + F(1, one))]


@pytest.mark.parametrize("l", [10, 20, 30])
def test_off_grid_ties_stop_next_to_the_root(l):
    """With r1's other part off the grid, the rounded Newton map can hold
    two fixed points or a 2-cycle across the tie.  With two fixed points
    the grid point Newton stops at depends on where it started; a 2-cycle
    stops at its point of smaller |q/q'|, from either neighbour and with
    either budget parity (9 or 10 steps), where the whole budget used to
    run out on whichever point its parity left.  `certified_roots` needs
    no Newton step here: both roots are in Q(i) and come out exact."""
    bits = max(2 * (l + 8), 64)
    kinds = {"two fixed points": 0, "2-cycle": 0, "one fixed point": 0}
    for q, r1, r2 in _tie_quadratics(l, False):
        clusters = certified_roots(q, l)
        assert {c.midpoint for c in clusters} == {r1, r2}
        assert all(c.multiplicity == 1 and c.euclid_rad == 0 for c in clusters)

        pair = _tie_neighbours(r1, bits)
        images = [_kernel_step(q, w, bits) for w in pair]
        stops = {}
        for w in pair:
            for steps in (9, 10):
                a, b, c, at = roots._newton(q.C, w.x, w.y, w.d, bits, steps)
                assert at == horner_int(q.C, a, b, c)
                stops[w, steps] = gauss_ratio(a, b, c)
            assert stops[w, 9] == stops[w, 10]
        if images == pair:
            kinds["two fixed points"] += 1
            assert [stops[w, 9] for w in pair] == pair
            continue
        z = stops[pair[0], 9]
        assert stops[pair[1], 9] == z
        assert abs(z.re - r1.re) <= F(1, 1 << bits) and abs(z.im - r1.im) <= F(1, 1 << bits)
        if images == pair[::-1]:
            kinds["2-cycle"] += 1
            dq = q.derivative()
            residual = [(q(w) / dq(w)).abs2() for w in pair]
            best = pair[residual[1] < residual[0] or
                        (residual[1] == residual[0] and (pair[1].re, pair[1].im) < (pair[0].re, pair[0].im))]
            assert z == best
        else:
            kinds["one fixed point"] += 1
    assert min(kinds.values()) >= 15, kinds


def _tie_cubics(l, on_grid):
    """The tie quadratics times z - r3, for an r3 of denominators 1 to 4
    apart from r2: (p, r1, r2, r3) quadruples.  Their roots are seeded by
    floats, so Newton meets the tie."""
    rng = random.Random(l + 100 * on_grid + 7)
    out = []
    for q, r1, r2 in _tie_quadratics(l, on_grid):
        r3 = r2
        while r3 == r2:
            r3 = G(F(rng.randint(-20, 20), rng.randint(1, 4)), F(rng.randint(-20, 20), rng.randint(1, 4)))
        out.append((q * Polynomial.of(-r3, 1), r1, r2, r3))
    return out


# Recorded with float seeds rounded by a continued-fraction search, from an
# unscaled first attempt; the scaled seeds on the 2^-60 grid give the same
# clusters.
_TIE_CUBIC_PINS = {
    10: "20b1615d49ca288124c7fab913bfeb283cf489f9e6e3c4096d474ee084938f66",
    20: "587228028228cd0e9da9392c9b73021a17921c6fa147f4c177babbd81c84bb16",
    30: "7baaa0120c68b929bae5076c95fb2001ac6c725cc065f8d2b575ff3004431b7b",
}


@pytest.mark.parametrize("l", sorted(_TIE_CUBIC_PINS))
def test_tie_cubic_clusters_match_the_pin(l):
    """With r1's other part on the grid or on a tie, the rounded Newton map
    has one fixed point next to r1, so every seed ends there; r2 and r3
    are snapped."""
    polys = [p for p, _, _, _ in _tie_cubics(l, True)]
    assert _clusters_digest(polys, l) == (_TIE_CUBIC_PINS[l], 600)


@pytest.mark.parametrize("l", [10, 20, 30])
def test_off_grid_tie_cubics_stop_next_to_the_root(l):
    """With r1's other part off the grid, every cluster is still
    certified: r1's midpoint is a grid point next to r1 whose disc holds
    r1, and r2 and r3 are found exactly."""
    bits = max(2 * (l + 8), 64)
    for p, r1, r2, r3 in _tie_cubics(l, False):
        clusters = certified_roots(p, l)
        assert [c.multiplicity for c in clusters] == [1, 1, 1]
        assert {c.midpoint for c in clusters if c.euclid_rad == 0} == {r2, r3}
        near = [c for c in clusters if c.euclid_rad > 0]
        assert len(near) == 1
        z, rad = near[0].midpoint, near[0].euclid_rad
        assert (z - r1).abs2() <= rad * rad
        assert abs(z.re - r1.re) <= F(1, 1 << bits) and abs(z.im - r1.im) <= F(1, 1 << bits)
        assert near[0].center.rad <= F(1, 1 << l)


# -- the multiplier of the integer form changes no root ----------------------------


def _multiplier_polys():
    """Seeded quadratics, quadratics with an exact double root (which take
    the Yun path) and the degree 3-9 edge cases."""
    rng = random.Random(20)

    def coeff():
        return G(F(rng.randint(-9, 9), rng.randint(1, 8)), F(rng.randint(-9, 9), rng.randint(1, 8)))

    out = []
    for _ in range(12):
        out.append(Polynomial.of(coeff(), coeff(), G(F(rng.randint(1, 9), rng.randint(1, 4)))))
        out.append(poly_from_roots([coeff()] * 2))
    return out + [p for p in _EDGE_POLYS if p.degree >= 3]


@pytest.mark.parametrize("l", [10, 40])
def test_certified_roots_ignore_a_constant_factor(l):
    """certified_roots of lambda*p, for nonzero Gaussian integers lambda,
    are those of p: the same centres, radii, multiplicities and order.  A
    polynomial built from p's form (C, m) scaled to (k*C, k*m), with
    trailing zero pairs or without, is p by value: the same ==, hash,
    coeffs and clusters, and maps of such forms serialize as the maps they
    scale.  Polynomial((), m) is the zero polynomial for every m > 0."""
    rng = random.Random(l)

    def scaled(h, k, zeros=0):
        return Polynomial(tuple((k * x, k * y) for x, y in h.C) + ((0, 0),) * zeros, k * h.m)

    doubles = 0
    for p in _multiplier_polys():
        want = certified_roots(p, l)
        doubles += any(c.multiplicity == 2 for c in want)
        for _ in range(2):
            lam = G(rng.randint(1, 50) * rng.choice((1, -1)), rng.randint(-50, 50))
            assert certified_roots(p * Polynomial.of(lam), l) == want, (p, lam)
        k = rng.randint(2, 1 << 40)
        q = scaled(p, k, rng.randint(1, 2))
        assert certified_roots(q, l) == want
        assert q.C == tuple((k * x, k * y) for x, y in p.C) and q.m == k * p.m
        assert q == p and hash(q) == hash(p) and q.coeffs == p.coeffs
        zero = Polynomial(((0, 0),) * rng.randint(0, 2), rng.randint(1, 1 << 40))
        assert zero == Polynomial.zero() and hash(zero) == hash(Polynomial.zero())
        assert zero.C == () and zero.degree == -1
    assert doubles == 12
    for expr in ("(2*z^2+1)/(z^2+3)", "z^2+i", "1/z^2", "z^3-3/4*z", "(z^2+1)/(z^2-1)"):
        f = parse_map(expr)
        g = RationalMapRec(scaled(f.num, rng.randint(2, 1 << 40)),
                           scaled(f.den, rng.randint(2, 1 << 40)))
        assert g == f and map_to_json(g) == map_to_json(f), expr


# -- the integer Newton kernel ---------------------------------------------------


def _kernel_step(q, z, bits):
    a2, b2, _ = _int_newton_step(q.C, z.x, z.y, z.d, bits)
    return gauss_ratio(a2, b2, 1 << bits)


@pytest.mark.parametrize("bits", [8, 64, 97])
@pytest.mark.parametrize("q, z", [
    # non-dyadic coefficients and seeds, negative parts
    (Polynomial.of(G(F(-2, 7), F(1, 3)), G(F(1, 3), F(-1, 5)), 1), G(F(-5, 3), F(-7, 11))),
    (Polynomial.of(G(F(9, 5)), 0, 0, G(F(3, 7), F(2, 3))), G(F(1, 3), F(2, 7))),
    (Polynomial.of(-2, 0, 1), G(F(-10, 7), F(-1, 1 << 70))),
    (Polynomial.of(G(1, 1), 0, 0, 0, 1), G(F(-3, 5), F(4, 9))),
])
def test_int_newton_step_matches_fraction_step(q, z, bits):
    assert _kernel_step(q, z, bits) == _ref_newton_step(q, q.derivative(), z, bits)


@pytest.mark.parametrize("bits", [8, 64])
@pytest.mark.parametrize("t", [
    G(F(3, 1 << 9), F(-5, 1 << 9)),
    G(F(-7, 1 << 9), F(1, 1 << 9)),
    G(F(1, 1 << 65), F(-1, 1 << 65)),
    G(F(-(2 ** 66 + 1), 1 << 65), F(2 ** 66 + 3, 1 << 65)),
])
def test_int_newton_step_rounds_exact_ties_like_round_to_dyadic(t, bits):
    """q = z - t sends every z to t in one step; these t sit exactly halfway
    between two multiples of 2^-bits for bits = 8 or 64."""
    q = Polynomial.of(-t, 1)
    for z in (G(F(1, 3), F(-2, 3)), G(F(-5, 1 << 90), F(0))):
        got = _kernel_step(q, z, bits)
        assert got == _ref_newton_step(q, q.derivative(), z, bits) == _round(t, bits)


@pytest.mark.parametrize("bits", [8, 63, 64])
@pytest.mark.parametrize("q, z", [
    (Polynomial.of(-2, 0, 1), G(0)),
    (poly_from_roots([G(F(1, 3), 1), G(F(1, 3), 1)]) + Polynomial.of(-5), G(F(1, 3), 1)),
    (Polynomial.of(G(F(1, 7), F(-2, 3)), 0, 0, 1), G(0)),
])
def test_int_newton_step_nudges_off_a_critical_point(q, z, bits):
    dq = q.derivative()
    assert dq(z).is_zero()
    expected = _round(z + G(F(1, 1 << (bits // 2))), bits)
    assert _kernel_step(q, z, bits) == expected == _ref_newton_step(q, dq, z, bits)


# -- the integer closed form for quadratics ---------------------------------------


def _quadratic_cases():
    """Integer forms of quadratics: planted roots in Q(i) and the same
    perturbed off them, with real and non-real leading coefficients and
    coefficients from 1 to 2^90 in size, then the edge cases D = 0 with
    c0 != 0, c0 = 0, c0 = c1 = 0 and real D of both signs."""
    rng = random.Random(29)

    def gq(num, den):
        return G(F(rng.randint(-num, num), rng.randint(1, den)),
                 F(rng.randint(-num, num), rng.randint(1, den)))

    out = []
    for i in range(400):
        size = rng.choice((9, 99, 1 << 30, 1 << 90))
        lead = G(rng.randint(1, size), rng.choice((0, rng.randint(-size, size))))
        r1, r2 = gq(size, rng.choice((1, 7, 60))), gq(size, rng.choice((1, 7, 60)))
        q = Polynomial.of(lead * r1 * r2, -lead * (r1 + r2), lead)
        if i % 2:
            q = q + Polynomial.of(gq(3, 5))
        out.append(q.C)
    for r in (G(F(5, 3), F(-1, 7)), G(2), G(0, -3)):  # D = 0, c0 != 0
        out.append(poly_from_roots([r, r]).C)
        out.append(poly_from_roots([r, G(0)]).C)  # c0 = 0
    out += [Polynomial.of(0, 0, G(3, -2)).C, Polynomial.of(0, 0, 1).C,  # c0 = c1 = 0
            Polynomial.of(-2, 0, 1).C, Polynomial.of(2, 0, 1).C,  # D = 8 and -8
            Polynomial.of(-4, 0, 1).C, Polynomial.of(4, 0, 1).C,  # D = 16 and -16
            Polynomial.of(0, 2, 1).C, Polynomial.of(G(0, 1), 0, 1).C]
    return out


def _discriminant(C):
    c0, c1, c2 = (G(x, y) for x, y in C)
    return c1 * c1 - G(4) * c2 * c0


def _mp_quadratic_roots(mpmath, C):
    """Both roots (-c1 +- sqrt(D))/(2 c2) at mpmath's working precision."""
    c0, c1, c2 = (mpmath.mpc(x, y) for x, y in C)
    s = mpmath.sqrt(c1 * c1 - 4 * c2 * c0)
    return [(-c1 + s) / (2 * c2), (-c1 - s) / (2 * c2)]


def test_quadratic_square_flag_is_a_root_in_q_i():
    """The flag is True exactly when q has a root in Q(i).  The oracle
    rounds each part of mpmath's 100-digit roots to the nearest fraction
    with denominator at most |c2|^2 (a root u/v in lowest terms has v | c2)
    and evaluates q there exactly."""
    mpmath = pytest.importorskip("mpmath")
    seen = set()
    with mpmath.workdps(100):
        for C in _quadratic_cases():
            q = Polynomial(C, 1)
            bound = C[2][0] ** 2 + C[2][1] ** 2
            rational = False
            for w in _mp_quadratic_roots(mpmath, C):
                cand = G(F(mpmath.nstr(w.real, 100)).limit_denominator(bound),
                         F(mpmath.nstr(w.imag, 100)).limit_denominator(bound))
                rational |= q(cand).is_zero()
            for bits in (64, 97):
                assert _quadratic_seeds(C, bits)[1] == rational, C
            d = _discriminant(C)
            seen.add((rational, d.re < 0, (d.im > 0) - (d.im < 0), C[2][1] != 0))
    assert {(r, neg, sign, nonreal) for r in (True, False) for neg in (True, False)
            for sign in (-1, 1) for nonreal in (True, False)} <= seen


@pytest.mark.parametrize("bits", [64, 97, 200])
def test_quadratic_seeds_lie_near_mpmath_roots(bits):
    """When D is a square in Z[i] the two values are q's exact roots: q
    vanishes at both, and they are distinct unless D = 0.  Otherwise each
    seed is within 2^-(bits-4) of a 100-digit mpmath root, and the two
    seeds sit near different roots when the roots are farther apart."""
    mpmath = pytest.importorskip("mpmath")
    tol = mpmath.mpf(2) ** -(bits - 4)
    exacts = 0
    with mpmath.workdps(100):
        for C in _quadratic_cases():
            seeds, exact = _quadratic_seeds(C, bits)
            if exact:
                q = Polynomial(C, 1)
                assert all(q(z).is_zero() for z in seeds), C
                assert (seeds[0] == seeds[1]) == _discriminant(C).is_zero(), C
                exacts += 1
                continue
            assert all(d == 1 << bits for _, _, d in seeds)
            want = _mp_quadratic_roots(mpmath, C)
            got = [mpmath.mpc(x, y) / (1 << bits) for x, y, _ in seeds]
            near = [[abs(z - r) <= tol for r in want] for z in got]
            assert all(any(row) for row in near), C
            if abs(want[0] - want[1]) > 2 * tol:
                assert near[0] != near[1], C
    assert exacts >= 200


def test_snap_runs_only_for_degree_three_and_up(monkeypatch):
    """A snap that raises is never reached by a quadratic, at any precision
    or on the Yun path, whether its discriminant is a square in Z[i] (z^2 -
    4, planted roots in Q(i), a double root) or not; a cubic with an exact
    root reaches it."""
    def refuse(*args):
        raise AssertionError("snap reached")

    rng = random.Random(30)
    # roots 1.4e-6 apart: the first attempt fails and the retries run
    close = poly_from_roots([G(F(1, 3)), G(F(1, 3))]) - Polynomial.of(F(1, 2 * 10 ** 12))
    polys = [Polynomial.of(-2, 0, 1), Polynomial.of(-4, 0, 1), Polynomial.of(G(0, 1), 0, 1),
             Polynomial.of(1, 1, 1), Polynomial.of(G(F(1, 3), F(-2, 7)), G(0, 5), G(2, 1)), close,
             poly_from_roots([G(F(1, 3), 2)] * 2)]
    polys += [Polynomial.of(G(rng.randint(-99, 99), rng.randint(-99, 99)),
                            G(rng.randint(-99, 99), rng.randint(-99, 99)), G(rng.randint(1, 9)))
              for _ in range(100)]
    polys += [poly_from_roots([G(F(rng.randint(-99, 99), rng.randint(1, 999)), F(rng.randint(-99, 99), 7))
                               for _ in range(2)]) for _ in range(50)]
    assert sum(_quadratic_seeds(p.C, 64)[1] for p in polys) >= 52
    want = [[certified_roots(p, l) for l in (10, 40)] for p in polys]
    monkeypatch.setattr(roots, "_snap_to_exact_root", refuse)
    assert [[certified_roots(p, l) for l in (10, 40)] for p in polys] == want
    with pytest.raises(AssertionError, match="snap reached"):
        certified_roots(poly_from_roots([G(F(1, 3))]) * Polynomial.of(2, 0, 1), 10)


@pytest.mark.parametrize("l", [10, 30, 60])
def test_quadratic_roots_in_q_i_are_exact_at_any_denominator(l):
    """22999/1000 + 13993/500 i, beside 3/257 - 5/263 i: denominators
    beyond any bounded search, yet both roots come out exact, with radius
    0, where q vanishes."""
    r1, r2 = G(F(22999, 1000), F(13993, 500)), G(F(3, 257), F(-5, 263))
    q = poly_from_roots([r1, r2]) * Polynomial.of(G(3, -2))
    clusters = certified_roots(q, l)
    assert {c.midpoint for c in clusters} == {r1, r2}
    assert all(c.euclid_rad == 0 and c.multiplicity == 1 for c in clusters)
    assert all(q(c.midpoint).is_zero() for c in clusters)


def test_a_square_free_p_skips_the_repeated_rung(monkeypatch):
    """z^2 - (2^96 + 1) at l = 42, the preimage level of
    `test_siblings_near_infinity_fall_back_to_the_reference`: rung 0
    fails, Yun runs once and finds p square-free, and rung 1, which would
    solve p again at the same precision, is skipped for rung 2.  A p with
    a repeated root still takes rung 1."""
    rungs, yun = [], []
    solve, decompose = roots._solve_factors, roots.square_free_decomposition
    monkeypatch.setattr(roots, "_solve_factors",
                        lambda factors, l, rung: rungs.append(rung) or solve(factors, l, rung))
    monkeypatch.setattr(roots, "square_free_decomposition", lambda p: yun.append(p) or decompose(p))
    clusters = certified_roots(Polynomial.of(-(2 ** 96 + 1), 0, 1), 42)
    assert rungs == [0, 2] and len(yun) == 1
    assert [c.midpoint.d.bit_length() for c in clusters] == [148, 148]
    rungs.clear()
    assert [c.multiplicity for c in certified_roots(poly_from_roots([G(1), G(1)]), 10)] == [2]
    assert rungs == [0, 1]


# -- chordally close roots ------------------------------------------------------


@pytest.mark.parametrize("p, roots", [
    # two roots 1.2e-4 apart near -11/3 + 35/3 i (chordal distance 1.6e-6)
    (poly_from_roots([G(F(-11, 3), F(35, 3))] * 2) - Polynomial.of(F(3601, 10 ** 12)),
     [complex(-11 / 3 - 3601e-12 ** 0.5, 35 / 3), complex(-11 / 3 + 3601e-12 ** 0.5, 35 / 3)]),
    # 22.999 + 27.986 i and 22.988 + 28.008 i, chordal distance 3.7e-5
    (poly_from_roots([G(F(22999, 1000), F(27986, 1000)), G(F(22988, 1000), F(28008, 1000)),
                      G(1), G(-2, 1), G(0, 3)]),
     [22.999 + 27.986j, 22.988 + 28.008j, 1, -2 + 1j, 3j]),
])
def test_chordally_close_roots_separate_on_retry(p, roots):
    """Chordal radii rounded at l + 4 bits on every attempt could never
    separate these at l = 10; the retries' extra bits do."""
    clusters = certified_roots(p, 10)
    assert [c.multiplicity for c in clusters] == [1] * p.degree
    for r in roots:
        assert sum(abs(complex(c.midpoint) - r) <= float(c.euclid_rad) + 1e-12
                   for c in clusters) == 1
    assert all(c.center.rad <= F(1, 1 << 10) for c in clusters)


# -- disjointness on integers against the Fraction test ---------------------------


def _fraction_clusters_disjoint(clusters):
    """Disjointness as Fraction comparisons in both metrics: Euclidean
    discs about the midpoints and chordal discs about the centers."""
    for i, a in enumerate(clusters):
        for b in clusters[i + 1:]:
            if (a.midpoint - b.midpoint).abs2() <= (a.euclid_rad + b.euclid_rad) ** 2:
                return False
            if (F(*chordal_sq_parts(a.center.center, b.center.center))
                    <= (a.center.rad + b.center.rad) ** 2):
                return False
    return True


def _pair(z, w, ra, rb, l):
    """Two rung-0 clusters at chordal precision l about z and w."""
    return [RootCluster(SpherePoint(z), 1, ra, l + 4, None),
            RootCluster(SpherePoint(w), 1, rb, l + 4, None)]


def _chordal_boundary(z, w, l, t):
    """The largest r on the 2^-(l+40) grid, at most 2^-(l+2), for which
    the pair's chordal discs, of Euclidean radii 2rt and 2r(1 - t), are
    apart; None when they meet at r = 0 or are apart at 2^-(l+2)."""
    n, d = chordal_sq_parts(SpherePoint(z), SpherePoint(w))

    def apart(k):
        r = F(k, 1 << (l + 40))
        return discs_apart(n, d, chordal_disc_radius(z, 2 * r * t, l + 4),
                           chordal_disc_radius(w, 2 * r * (1 - t), l + 4))

    lo, hi = 0, 1 << 38
    if not apart(lo) or apart(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if apart(mid) else (lo, mid)
    return F(lo, 1 << (l + 40))


@pytest.mark.parametrize("seed", range(3))
def test_clusters_disjoint_matches_the_fraction_test(seed):
    """The chordal test alone decides as the Fraction test in both
    metrics, so chordally apart clusters are Euclid-apart, on clusters
    whose chordal radii are drawn from Euclidean radii r <= 2^-(l+2), as
    on every rung.  Each pair, near 0 or far out where the chordal metric
    contracts, gets radii that sum to the Euclidean distance (exactly where
    it is rational), to 2^-80 less, to a random share of the cap, and to
    either side of the chordal boundary on the 2^-(l+40) grid."""
    rng = random.Random(seed)
    tiny = F(1, 1 << 80)
    seen = {"apart": 0, "meet": 0, "euclid meet": 0, "prefilter": 0, "exact radii": 0}
    for _ in range(100):
        l = rng.choice([0, 5, 20])
        cap = F(1, 1 << (l + 2))
        z = G(F(rng.randint(-9, 9), rng.choice([8, 7])), F(rng.randint(-9, 9), 6))
        z = rng.choice([z, z * G(1 << rng.randint(4, 20))])
        s = rng.choice([40, 160])
        w = z + G(F(rng.randint(-s, s), 16), F(rng.randint(-s, s), 16)) * G(cap)
        if w == z:
            continue
        t = F(rng.randint(1, 3), 4)
        e = sqrt_of_rational(*euclid_sq_parts(z, w), 40).mid
        totals = [e, e - tiny] + [cap * F(rng.randint(1, 16), 8) for _ in range(2)]
        r = _chordal_boundary(z, w, l, t)
        if r is not None:
            totals += [2 * r, 2 * r + F(2, 1 << (l + 40))]
        n, d = chordal_sq_parts(SpherePoint(z), SpherePoint(w))
        for total in totals:
            ra, rb = total * t, total * (1 - t)
            if not (0 <= ra <= cap and 0 <= rb <= cap):
                continue
            pair = _pair(z, w, ra, rb, l)
            got = _clusters_disjoint(pair, l)
            assert got == _fraction_clusters_disjoint(pair), (z, w, ra, rb, l)
            seen["apart" if got else "meet"] += 1
            seen["euclid meet"] += (z - w).abs2() <= total * total
            seen["prefilter" if n << (2 * l + 8) > 324 * d else "exact radii"] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("l", [0, 7, 30])
def test_clusters_disjoint_draws_radii_below_the_prefilter_only(monkeypatch, l):
    """Radii are drawn for a pair with sigma^2 <= (18 * 2^-(l+4))^2 and
    for no other.  No two points of Q(i) lie at that distance exactly
    (from 0, 4 - sigma^2 would be a sum of two rational squares, and
    2^(2l+8) - 81 = 3 mod 4 is not), so the pairs (0, t 2^-(l+30)) sit one
    unit of t to either side, within a 324th of the threshold; both have
    radii 2^-(l+2), the most a rung allows, and are apart."""
    drawn = []
    monkeypatch.setattr(roots, "chordal_disc_radius",
                        lambda z, r, bits: drawn.append(bits) or chordal_disc_radius(z, r, bits))
    shift, bits = 2 * l + 8, l + 30
    t = math.isqrt((81 << (2 * bits)) // ((1 << shift) - 81))
    cap = F(1, 1 << (l + 2))
    for t, side, draws in ((t, -1, 2), (t + 1, 1, 0)):
        pair = _pair(G(0), G(F(t, 1 << bits)), cap, cap, l)
        n, d = chordal_sq_parts(pair[0].point, pair[1].point)
        assert (n << shift > 324 * d) == (side > 0)
        assert 323 * d < n << shift < 325 * d
        drawn.clear()
        assert _clusters_disjoint(pair, l)
        assert drawn == [l + 4] * draws


# -- mpmath oracle ---------------------------------------------------------------


def test_clusters_hold_mpmath_roots():
    """At 50 digits, each cluster's Euclidean disc holds exactly
    `multiplicity` of the roots mpmath finds.  The coefficients are
    scaled to Gaussian integers, which mpmath holds exactly, so even
    triple roots come out within 1e-50 or so of the true ones; discs are
    widened by 1e-25, far less than the clusters' spacing."""
    mpmath = pytest.importorskip("mpmath")
    slack = mpmath.mpf(10) ** -25
    with mpmath.workdps(50):
        for p in _POLYS[::5]:
            den = math.lcm(*(c.re.denominator * c.im.denominator for c in p.coeffs))
            coeffs = [mpmath.mpc(int(c.re * den), int(c.im * den)) for c in reversed(p.coeffs)]
            # Near a multiple root the iteration stalls at about the cube
            # root of its working precision; 600 extra bits keep that far
            # below mpmath's 50-digit stopping test.
            true_roots = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=600)
            clusters = certified_roots(p, 30)
            assert sum(c.multiplicity for c in clusters) == p.degree
            for c in clusters:
                mid = mpmath.mpc(mpmath.mpf(c.midpoint.re.numerator) / c.midpoint.re.denominator,
                                 mpmath.mpf(c.midpoint.im.numerator) / c.midpoint.im.denominator)
                rad = mpmath.mpf(c.euclid_rad.numerator) / c.euclid_rad.denominator
                inside = sum(1 for r in true_roots if abs(r - mid) <= rad + slack)
                assert inside == c.multiplicity, (p, c)


@pytest.mark.parametrize("e", [200, 300])
def test_roots_below_the_seed_grid_are_scaled(e):
    """The roots of z^3 + 2^-e have modulus 2^-(e/3), below the 60-bit
    grid that rounds unscaled float seeds: all three seeds once sat at 0
    and the solve ran out of precision after seconds.  Now the seeds are
    scaled, and three clusters come back in well under a second, each
    disc holding one mpmath root."""
    mpmath = pytest.importorskip("mpmath")
    start = time.perf_counter()
    clusters = certified_roots(Polynomial.of(F(1, 1 << e), 0, 0, 1), 30)
    assert time.perf_counter() - start < 1
    assert [c.multiplicity for c in clusters] == [1, 1, 1]
    with mpmath.workdps(2 * e // 3):
        true_roots = mpmath.polyroots([1, 0, 0, mpmath.mpf(2) ** -e], maxsteps=200)
        for c in clusters:
            mid = mpmath.mpc(mpmath.mpf(c.midpoint.re.numerator) / c.midpoint.re.denominator,
                             mpmath.mpf(c.midpoint.im.numerator) / c.midpoint.im.denominator)
            rad = mpmath.mpf(c.euclid_rad.numerator) / c.euclid_rad.denominator
            assert sum(1 for r in true_roots if abs(r - mid) <= rad) == 1, c


# -- the `roots` command keeps the exit-code contract ------------------------------


def _factor(r: int) -> str:
    return "z" if r == 0 else f"(z{-r:+d})"


_int_polys = st.one_of(
    # expanded integer coefficients, degree 0 to 5 (possibly the zero polynomial)
    st.lists(st.integers(-30, 30), min_size=1, max_size=6).map(
        lambda cs: ("+".join(f"({c})*z^{k}" for k, c in enumerate(cs)),
                    max((k for k, c in enumerate(cs) if c), default=-1))),
    # products with repeated integer roots, degree 1 to 5
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), min_size=1, max_size=3)
    .filter(lambda fs: sum(m for _, m in fs) <= 5)
    .flatmap(lambda fs: st.integers(1, 9).map(
        lambda lead: (f"{lead}*" + "*".join(f"{_factor(r)}^{m}" for r, m in fs),
                      sum(m for _, m in fs)))),
)


@settings(max_examples=60, deadline=None)
@given(_int_polys, st.integers(-3, 40))
def test_roots_command_exit_codes(poly, k):
    text, degree = poly
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(["roots", "--poly", text, "--l", str(k), "--out", out])
        if rc == 0:
            with open(os.path.join(out, "roots_result.json"), encoding="utf-8") as fh:
                clusters = json.load(fh)["clusters"]
            assert sum(c["multiplicity"] for c in clusters) == degree
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if rc in (3, 4):
        assert len(err.getvalue().strip().splitlines()) == 1


@pytest.mark.parametrize("form", ["z^2+{H}", "{H}z^2+1", "z^3+{H}z+1", "{H}z^3+1"])
def test_roots_command_beyond_float_range(form, tmp_path):
    """H = 10^400.  Monic coefficients that overflow a float once raised
    OverflowError from the float seeds, and one that underflowed to 0 was
    read as an exact root 0 and ran out of precision.  Each now exits 0,
    and each root mpmath finds lies in exactly one chordal disc.  mpmath
    finds roots of modulus >= 1 from the polynomial and the others as 1/w
    for the roots w of modulus > 1 of the reversed polynomial."""
    mpmath = pytest.importorskip("mpmath")
    text = form.format(H=10 ** 400)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["roots", "--poly", text, "--out", str(tmp_path)])
    assert rc == 0 and "Traceback" not in err.getvalue()
    with open(tmp_path / "roots_result.json", encoding="utf-8") as fh:
        clusters = json.load(fh)["clusters"]
    coeffs = [int(c.re) for c in parse_map(text).num.coeffs]
    assert all(c["multiplicity"] == 1 for c in clusters) and len(clusters) == len(coeffs) - 1

    def mp(q):
        return mpmath.mpf(F(q).numerator) / F(q).denominator

    def chordal(a, b):
        return 2 * abs(a - b) / mpmath.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))

    with mpmath.workdps(50):
        found = [r for r in mpmath.polyroots(coeffs[::-1], maxsteps=500, extraprec=3000)
                 if abs(r) >= 1]
        found += [1 / w for w in mpmath.polyroots(coeffs, maxsteps=500, extraprec=3000)
                  if abs(w) > 1]
        assert len(found) == len(clusters)
        for r in found:
            inside = [c for c in clusters
                      if chordal(r, mpmath.mpc(mp(c["center"]["re"]), mp(c["center"]["im"])))
                      <= mp(c["chordal_radius"]) * (1 + mpmath.mpf(10) ** -30)]
            assert len(inside) == 1, (text, r)
