"""Univariate polynomials with exact Gaussian-rational coefficients.

Supports the exact algebra the dynamics needs: Horner evaluation,
derivatives, Euclidean division, monic gcd, and Yun square-free
decomposition (characteristic zero, so gcd-based multiplicity splitting
is exact).  Coefficients and points are `GaussRat` integer triples, so
every operation is integer arithmetic with one gcd per result.  Newton's
hot loop skips even those gcds: `horner_int` evaluates the coefficients
with their denominators cleared (`integer_coeffs`) at a point given by
the numerators x, y over the denominator d of its triple.

The cleared form is made once per polynomial and kept: `integer_form` is
(C, m), Gaussian-integer coefficients C = m*p over a positive integer
multiplier m.  A polynomial built by `from_integers` keeps the form it
was built from, which need not have the smallest m; any other clears its
denominators with their lcm on first use.  Which m a form carries changes
no result: C has the roots of p with their multiplicities, every ratio
of values such as C(z)/C'(z) is that of p, and every bound that reads
|C(z)|^2 divides m^2 back out (see `roots` and `thermo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .gauss import G_ZERO, GaussRat, gauss_ratio


def _strip(coeffs: tuple[GaussRat, ...]) -> tuple[GaussRat, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero():
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class Polynomial:
    """coeffs[k] multiplies z^k; the zero polynomial has empty coeffs."""

    coeffs: tuple[GaussRat, ...]

    @staticmethod
    def of(*coeffs: GaussRat | Fraction | int) -> "Polynomial":
        lifted = tuple(
            c if isinstance(c, GaussRat) else GaussRat.of(c) for c in coeffs
        )
        return Polynomial(_strip(lifted))

    @staticmethod
    def from_integers(coeffs: list[tuple[int, int]], mult: int) -> "Polynomial":
        """The polynomial sum (re + im*i) z^k / mult over the (re, im) pairs
        of `coeffs`, lowest first, for mult > 0; it keeps `coeffs` (without
        trailing zeros) and `mult` as its `integer_form`."""
        n = len(coeffs)
        while n > 0 and coeffs[n - 1] == (0, 0):
            n -= 1
        coeffs = coeffs[:n]
        p = Polynomial(tuple(gauss_ratio(x, y, mult) for x, y in coeffs))
        p.__dict__["integer_form"] = coeffs, mult
        return p

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @cached_property
    def integer_form(self) -> tuple[list[tuple[int, int]], int]:
        """(C, m): the coefficients of m*p as (re, im) integer pairs, lowest
        first, and the multiplier m > 0, here the lcm of the coefficients'
        denominators.  Computed once; `from_integers` sets it instead."""
        m = math.lcm(*(c.d for c in self.coeffs))
        return [(c.x * (m // c.d), c.y * (m // c.d)) for c in self.coeffs], m

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussRat:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, z: GaussRat) -> GaussRat:
        acc = G_ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (G_ZERO,) * (n - len(self.coeffs))
        b = other.coeffs + (G_ZERO,) * (n - len(other.coeffs))
        return Polynomial(_strip(tuple(x + y for x, y in zip(a, b))))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [G_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(_strip(tuple(out)))

    def scale(self, c: GaussRat) -> "Polynomial":
        return Polynomial(_strip(tuple(c * a for a in self.coeffs)))

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial.zero()
        return Polynomial(
            _strip(tuple(self.coeffs[k].scale(k) for k in range(1, len(self.coeffs))))
        )

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        if dq < 0:
            return Polynomial.zero(), self
        quot = [G_ZERO] * (dq + 1)
        inv_lead = other.leading().inverse()
        for k in range(dq, -1, -1):
            c = rem[other.degree + k] * inv_lead
            quot[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[j + k] = rem[j + k] - c * b
        return Polynomial(_strip(tuple(quot))), Polynomial(_strip(tuple(rem)))

def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm (exact over Q(i))."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def square_free_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: [(q_1, 1), (q_2, 2), ...] with p ~ prod q_k^k.

    Each q_k is monic and square-free; factors of multiplicity k collect
    into q_k.  Constant p yields an empty list.
    """
    if p.degree < 1:
        return []
    p = p.monic()
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b, _ = p.divmod(a)
    c, _ = dp.divmod(a)
    out: list[tuple[Polynomial, int]] = []
    k = 1
    while b.degree >= 1:
        d = c - b.derivative()
        q = poly_gcd(b, d)
        if q.degree >= 1:
            out.append((q.monic(), k))
        b, _ = b.divmod(q) if q.degree >= 0 else (b, Polynomial.zero())
        c, _ = d.divmod(q) if q.degree >= 0 else (d, Polynomial.zero())
        k += 1
    return out


def integer_coeffs(p: Polynomial) -> list[tuple[int, int]]:
    """The coefficients of p's `integer_form`: m*p as (re, im) integer
    pairs, lowest first, for its positive multiplier m."""
    return p.integer_form[0]


def horner_int(coeffs: list[tuple[int, int]], a: int, b: int, c: int
               ) -> tuple[int, int, int, int]:
    """Homogeneous Horner for P(z) = sum coeffs[k] z^k at z = (a + b*i)/c.

    Returns (re, im) of c^d * P(z) and then of c^(d-1) * P'(z), all
    integers, where d = len(coeffs) - 1 >= 0.
    """
    nr, ni = coeffs[-1]
    mr = mi = 0
    scale = 1
    for qr, qi in reversed(coeffs[:-1]):
        mr, mi = mr * a - mi * b + nr, mr * b + mi * a + ni
        scale *= c
        nr, ni = nr * a - ni * b + qr * scale, nr * b + ni * a + qi * scale
    return nr, ni, mr, mi
