"""Univariate polynomials with exact Gaussian-rational coefficients.

A `Polynomial` p is its integer form (C, m): Gaussian-integer
coefficients C = m*p, as (re, im) pairs lowest first with no trailing
zeros, over a positive integer multiplier m.  `Polynomial.of` clears the
denominators of Gaussian-rational coefficients with their lcm; the
preimage tree builds forms directly, whose m need not be the smallest.
Two forms with the same p are equal and hash alike.

Which m a form carries changes no result.  C has the roots of p with
their multiplicities, and every ratio of values, such as the Newton step
C(z)/C'(z), is that of p.  So neither the root certificate d|p/p'|, the
float seeds (computed from the monic coefficients), the snap's test
p(w) = 0 nor Yun's monic factors depend on m, and every bound that reads
|C(z)|^2 divides m^2 back out.  `roots`, `ratmap` and `thermo` rely on
this.

Every operation reads and builds forms alone.  `horner_int` evaluates C
and C' at a point given by the numerators x, y over the denominator d of
its triple, `horner_value` C alone; `__call__` divides once.
Division is pseudo-division over Z[i] and the monic gcd runs Euclid on
primitive parts; Yun's square-free decomposition (exact in characteristic
zero) rests on both.
Only equality, hashing and serialization read the `GaussRat` view `coeffs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .gauss import G_ZERO, GaussRat, gauss_ratio

# Gaussian integers as (re, im) pairs, lowest degree first.
IntPairs = tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class Polynomial:
    """p = sum (re + im*i) z^k / m over the pairs (re, im) of C, lowest
    first, for m > 0; construction strips trailing zero pairs, so the
    zero polynomial has empty C."""

    C: IntPairs
    m: int

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError(f"the multiplier must be positive, got {self.m}")
        C = self.C
        n = len(C)
        while n > 0 and C[n - 1] == (0, 0):
            n -= 1
        if n < len(C):
            object.__setattr__(self, "C", C[:n])

    @staticmethod
    def of(*coeffs: GaussRat | Fraction | int) -> "Polynomial":
        lifted = [c if isinstance(c, GaussRat) else GaussRat.of(c) for c in coeffs]
        m = math.lcm(*(c.d for c in lifted))
        return Polynomial(tuple((c.x * (m // c.d), c.y * (m // c.d)) for c in lifted), m)

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((), 1)

    @property
    def coeffs(self) -> tuple[GaussRat, ...]:
        """The reduced coefficients, coeffs[k] multiplying z^k; built on
        each read."""
        return tuple(gauss_ratio(x, y, self.m) for x, y in self.C)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.C) - 1

    def is_zero(self) -> bool:
        return not self.C

    def __call__(self, z: GaussRat) -> GaussRat:
        if self.is_zero():
            return G_ZERO
        nr, ni = horner_value(self.C, z.x, z.y, z.d)
        return gauss_ratio(nr, ni, self.m * z.d ** self.degree)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.m, other.m
        m = math.lcm(a, b)
        sa, sb = m // a, m // b
        n = max(len(self.C), len(other.C))
        A = self.C + ((0, 0),) * (n - len(self.C))
        B = other.C + ((0, 0),) * (n - len(other.C))
        return Polynomial(tuple((x * sa + u * sb, y * sa + v * sb)
                                for (x, y), (u, v) in zip(A, B)), m)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple((-x, -y) for x, y in self.C), self.m)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        n = len(self.C) + len(other.C) - 1
        re, im = [0] * n, [0] * n
        for i, (x, y) in enumerate(self.C):
            for j, (u, v) in enumerate(other.C):
                re[i + j] += x * u - y * v
                im[i + j] += x * v + y * u
        return Polynomial(tuple(zip(re, im)), self.m * other.m)

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple((k * x, k * y) for k, (x, y) in enumerate(self.C) if k), self.m)

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lr, li = self.C[-1]
        return Polynomial(*_reduced(tuple((x * lr + y * li, y * lr - x * li) for x, y in self.C),
                                    lr * lr + li * li))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        Q, R, s = _pseudo_divmod(self.C, other.C)
        Q = tuple((x * other.m, y * other.m) for x, y in Q)
        return Polynomial(*_reduced(Q, self.m * s)), Polynomial(*_reduced(R, self.m * s))


def _reduced(C: IntPairs, m: int) -> tuple[IntPairs, int]:
    """(C/g, m/g) for g the gcd of m and every integer of C (1 if all are
    0): the lcm form of C/m for m > 0, the primitive part of C for m = 0."""
    g = math.gcd(m, *(v for pair in C for v in pair)) or 1
    return tuple((x // g, y // g) for x, y in C), m // g


def _pseudo_divmod(A: IntPairs, B: IntPairs) -> tuple[IntPairs, IntPairs, int]:
    """(Q, R, s), s*A = Q*B + R over Z[i] with deg R < deg B: each step
    scales every pair by n = |lead B|^2, then cancels the top pair t by c z^k B
    and stores c = t*conj(lead B) there, so s = n^max(deg A - deg B + 1, 0)."""
    (br, bi), nb = B[-1], len(B) - 1
    n = br * br + bi * bi
    re, im = [x for x, _ in A], [y for _, y in A]
    for k in range(len(A) - len(B), -1, -1):
        tr, ti = re[nb + k], im[nb + k]
        re, im = [x * n for x in re], [y * n for y in im]
        re[nb + k], im[nb + k] = cr, ci = tr * br + ti * bi, ti * br - tr * bi
        for j, (ur, ui) in enumerate(B[:-1], k):
            re[j] -= cr * ur - ci * ui
            im[j] -= cr * ui + ci * ur
    pairs = tuple(zip(re, im))
    return pairs[nb:], pairs[:nb], n ** max(len(A) - nb, 0)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid over Z[i], each remainder divided by the gcd of
    its integers (its primitive part); exact over Q(i)."""
    A, B = a.C, b.C
    while B:
        A, B = B, _reduced(Polynomial(_pseudo_divmod(A, B)[1], 1).C, 0)[0]
    return Polynomial(A, 1).monic()


def square_free_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: [(q_1, 1), (q_2, 2), ...] with p ~ prod q_k^k.

    Each q_k is monic and square-free; factors of multiplicity k collect
    into q_k.  Constant p yields an empty list.
    """
    if p.degree < 1:
        return []
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
            out.append((q, k))
        b, _ = b.divmod(q)
        c, _ = d.divmod(q)
        k += 1
    return out


def horner_int(coeffs: IntPairs, a: int, b: int, c: int
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


def horner_value(coeffs: IntPairs, a: int, b: int, c: int) -> tuple[int, int]:
    """The (re, im) of c^d * P(z) that `horner_int` returns first, without
    the derivative."""
    nr, ni = coeffs[-1]
    scale = 1
    for qr, qi in reversed(coeffs[:-1]):
        scale *= c
        nr, ni = nr * a - ni * b + qr * scale, nr * b + ni * a + qi * scale
    return nr, ni
