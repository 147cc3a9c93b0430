"""Rational maps on the Riemann sphere as coprime polynomial pairs.

Evaluation and preimages with local degrees.  Preimages of x are the
roots of num - x*den (or den - num/x when |x| > 1, which keeps
coefficients small); the excluded value x = f(inf) is the one point where
that polynomial's degree collapses, and is rejected.  The same chart rule
gives `preimage_perturbation`: how far the polynomial can move when x is
only known to within a Euclidean distance.

A map keeps num and den as Gaussian-integer coefficient tuples N, D of
one length over one common denominator F (`integer_terms`), so that
f(inf) is read from their top pairs like any value.  The preimage
polynomial g of x = (a + b*i)/c is then one integer pass, and is built
as the integer form it comes from:
c F g = c N - (a + b*i) D when |x| <= 1, and
F (a^2 + b^2) g = (a^2 + b^2) D - c (a - b*i) N otherwise.  The
multiplier c F or F (a^2 + b^2) need not be the smallest one, which
changes no result (see `polynomials`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dyadics import ZERO, sqrt_lower_numerator
from .errors import ExcludedPoint, PrecisionExhausted
from .gauss import GaussRat, gauss_ratio
from .polynomials import IntPairs, Polynomial, horner_value, poly_gcd
from .roots import RootCluster, certified_roots
from .sphere import INF, SpherePoint

# `orbit` refuses a step whose image would pass this many bits in a
# numerator or denominator.  The bits grow deg(f)-fold per step, and the
# gcd that reduces an image is quadratic in them: for (z^2+1)/(z^2-1) from
# -1/2+3i the orbit up to 2^17 bits takes 0.18 s, up to 2^22 minutes.
_MAX_ORBIT_BITS = 1 << 17

@dataclass(frozen=True)
class RationalMapRec:
    """f = num/den with coprime Gaussian-rational polynomials."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ValueError("denominator is the zero polynomial")
        if self.num.is_zero():
            raise ValueError("numerator is the zero polynomial")
        g = poly_gcd(self.num, self.den)
        if g.degree >= 1:
            raise ValueError("num and den share a root (not coprime)")

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    @cached_property
    def integer_terms(self) -> tuple[IntPairs, IntPairs, int]:
        """(N, D, F): num = N/F and den = D/F, with N and D tuples of (re, im)
        integer pairs, lowest first, of one length deg f + 1 (the shorter
        padded with (0, 0) at the top), over F > 0, the lcm of the
        multipliers of num and den."""
        n, d = self.num.m, self.den.m
        F = math.lcm(n, d)
        pad = ((0, 0),) * self.degree
        return (tuple((x * (F // n), y * (F // n)) for x, y in self.num.C)
                + pad[self.num.degree:],
                tuple((x * (F // d), y * (F // d)) for x, y in self.den.C)
                + pad[self.den.degree:], F)

    @cached_property
    def at_infinity(self) -> SpherePoint:
        """f(inf)."""
        return self.apply(INF)

    def __call__(self, p: SpherePoint) -> SpherePoint:
        return self.apply(p)

    def apply(self, p: SpherePoint) -> SpherePoint:
        # c^d N(z) and c^d D(z), d = deg f, are Gaussian integers, and at
        # inf N and D read as their top pairs; F cancels, and
        # f(z) = N conj(D) / |D|^2 is reduced once.
        N, D, _ = self.integer_terms
        z = p.value
        if z is None:
            (nr, ni), (dr, di) = N[-1], D[-1]
        else:
            nr, ni = horner_value(N, z.x, z.y, z.d)
            dr, di = horner_value(D, z.x, z.y, z.d)
        n2 = dr * dr + di * di
        if n2 == 0:
            return INF
        return SpherePoint(gauss_ratio(nr * dr + ni * di, ni * dr - nr * di, n2))

    def orbit(self, p: SpherePoint, n: int) -> list[SpherePoint]:
        """[p, f(p), ..., f^(n-1)(p)] computed exactly, [] for n = 0.  Raises
        PrecisionExhausted rather than apply f to a point with b bits in a
        numerator or denominator where deg(f) b > `_MAX_ORBIT_BITS`."""
        out = [p][:n]
        for k in range(1, n):
            z = p.value
            if z is not None and max(abs(z.x), abs(z.y), z.d).bit_length() * self.degree \
                    > _MAX_ORBIT_BITS:
                raise PrecisionExhausted(f"orbit point {k} would pass {_MAX_ORBIT_BITS} bits")
            p = self.apply(p)
            out.append(p)
        return out

    def infinity_orbit(self, n: int) -> list[SpherePoint]:
        """[f(inf), ..., f^n(inf)], collapsing once a repeat occurs."""
        out: list[SpherePoint] = []
        seen: set = set()
        x = INF
        for _ in range(n):
            x = self.apply(x)
            if x in seen:
                break
            seen.add(x)
            out.append(x)
        return out


def preimage_polynomial(f: RationalMapRec, x: SpherePoint) -> Polynomial:
    """Degree-deg(f) polynomial whose roots (with multiplicity) are f^-1(x).

    Raises ExcludedPoint when x = f(inf), where the degree collapses; at
    any other x it cannot.  At x = inf, g = den falls short of degree
    d = deg f only when deg num > deg den, and then f(inf) = inf; in the
    finite charts the top coefficient N_d - x D_d (or D_d - N_d/x) vanishes
    only at x = N_d/D_d, which is f(inf), including x = 0 = f(inf) when
    deg num < deg den.
    """
    if x == f.at_infinity:
        raise ExcludedPoint("x equals f(inf); preimage polynomial degenerates")
    if x.is_infinity:
        return f.den
    N, D, F = f.integer_terms
    z = x.as_gauss()
    a, b, c = z.x, z.y, z.d
    if _num_chart(z):
        return Polynomial(_combine(c, N, -a, -b, D), c * F)
    n2 = a * a + b * b
    return Polynomial(_combine(n2, D, -c * a, c * b, N), F * n2)


def _combine(r: int, P: IntPairs, u: int, v: int, Q: IntPairs) -> IntPairs:
    """The coefficients of r*P + (u + v*i)*Q, lowest first, for P and Q
    of one length."""
    return tuple((r * pr + u * qr - v * qi, r * pi + u * qi + v * qr)
                 for (pr, pi), (qr, qi) in zip(P, Q))


def _num_chart(z: GaussRat) -> bool:
    """The chart rule: num - z*den for |z| <= 1, den - num/z otherwise."""
    return z.x * z.x + z.y * z.y <= z.d * z.d


def preimage_perturbation(f: RationalMapRec, x: SpherePoint, delta: Fraction,
                          bits: int) -> tuple[Polynomial, Fraction] | None:
    """(P, eps) such that for every x' within Euclidean distance delta of
    x, the polynomial of x' in the chart `preimage_polynomial` uses for x
    is preimage_polynomial(f, x) + c*P with |c| <= eps.

    In the num - x*den chart, c = x - x' and P = den, so eps = delta.  In
    the den - num/x chart, c = 1/x - 1/x' = (x' - x)/(x x') and P = num;
    with L = floor(|x| 2^bits)/2^bits <= |x| and |x'| >= L - delta this gives
    eps = delta / (L (L - delta)), rounded up to a multiple of 2^-(2 bits)
    so that errors derived from it do not double their denominators from
    one tree level to the next; None when L <= delta, where x' may be 0.
    An exactly stored x (delta = 0, the only way infinity is stored) gets
    the zero polynomial.

    On integers, with L = low/2^bits and delta = dn/dd: L - delta is
    gap/(2^bits dd) for gap = low dd - dn 2^bits, and eps 4^bits rounded up
    is the ceiling of dn 16^bits / (low gap).
    """
    if delta == 0:
        return Polynomial.zero(), ZERO
    z = x.as_gauss()
    if _num_chart(z):
        return f.den, delta
    dn, dd = delta.numerator, delta.denominator
    low = sqrt_lower_numerator(z.x * z.x + z.y * z.y, z.d * z.d, bits)
    gap = low * dd - (dn << bits)
    if gap <= 0:
        return None
    return f.num, Fraction(-((-dn << (4 * bits)) // (low * gap)), 1 << (2 * bits))


def preimages(f: RationalMapRec, x: SpherePoint, l: int) -> list[RootCluster]:
    """Certified preimage discs of x; each multiplicity is a local degree.

    Local degrees sum to deg f.  Chordal disc radii are <= 2^-l.
    """
    return certified_roots(preimage_polynomial(f, x), l)
