"""Potentials: the algebra generated by distance-to-ideal-point functions.

An expression tree over {constant, basis, sum, product, rational scaling}
where each basis element is x |-> sigma(x, s) for an exact point s.  Every
potential expands to a normal form sum_t q_t * prod_j basis_{t,j}, from
which an explicit Lipschitz bound follows: a product of m basis factors
(each bounded by 2 and 1-Lipschitz) is 2^(m-1) * m Lipschitz, so
F = sum_t 2^(m_t - 1) * m_t * |q_t| dominates the sigma-Hoelder seminorm.
Pure constant terms contribute zero.  F is summed once per potential.

Evaluation walks the tree on integer balls (m, r, d), the ball m/d with
radius r/d: a basis factor is the `sqrt_bracket_parts` of the integer
`chordal_sq_parts`, a constant p/q is (p, 0, q), a sum adds over a common
denominator, a product takes mid m1 m2 and radius |m1| r2 + |m2| r1 +
r1 r2 over d1 d2 (the `BallReal` product), and a scaling by p/q
multiplies m by p, r by |p| and d by q.  These are the rationals that
`BallReal` arithmetic on the same brackets produces, at the same
precisions, so the one `BallReal` built at the end is equal to that
arithmetic's result, mid and radius alike.  `widened_parts` hands the
triple itself, widened by a displacement's Lipschitz slack, to callers
that keep summing on integers (the preimage tree's Birkhoff sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .balls import BallReal, sqrt_bracket_parts
from .dyadics import ZERO
from .errors import PrecisionExhausted
from .sphere import SpherePoint, chordal_sq_parts, sphere_order

NormalTerm = tuple[Fraction, tuple[SpherePoint, ...]]

# `_expand` refuses a normal form of more terms before multiplying out.  A
# product of k two-term sums has 2^k terms: `holder_bound` took 1.5-2.1 s
# at k = 15, and refusing k = 20 took 0.2-0.3 s (2 cores, Python 3.11).
_MAX_TERMS = 1 << 15


@dataclass(frozen=True)
class Potential:
    """Expression node; use the module constructors below."""

    op: str  # "const" | "basis" | "sum" | "prod" | "scale"
    value: Fraction | None = None
    point: SpherePoint | None = None
    children: tuple["Potential", ...] = ()

    # -- evaluation ----------------------------------------------------

    def evaluate(self, x: SpherePoint, prec: int = 40) -> BallReal:
        m, r, d = self.widened_parts(x, ZERO, prec)
        return BallReal(Fraction(m, d), Fraction(r, d))

    def evaluate_with_displacement(self, x: SpherePoint, disp: Fraction,
                                   prec: int = 40) -> BallReal:
        """Enclosure of the value at any point within chordal distance
        `disp` of x, via the Lipschitz bound."""
        m, r, d = self.widened_parts(x, disp, prec)
        return BallReal(Fraction(m, d), Fraction(r, d))

    def widened_parts(self, x: SpherePoint, disp: Fraction,
                      prec: int) -> tuple[int, int, int]:
        """`evaluate_with_displacement` as integers (m, r, d), the ball
        m/d +- r/d (not reduced): the value at x, its radius widened by
        the Lipschitz slack a/b = holder_bound * disp as (m b, r b + a d,
        d b)."""
        if prec < 0:
            raise ValueError(f"precision prec must be nonnegative, got {prec}")
        m, r, d = self._parts(x, prec)
        slack = self._holder_bound * disp if disp else ZERO
        if slack:
            a, b = slack.numerator, slack.denominator
            m, r, d = m * b, r * b + a * d, d * b
        return m, r, d

    def _parts(self, x: SpherePoint, prec: int) -> tuple[int, int, int]:
        """The ball (m/d, r/d) as integers (m, r, d), d > 0, not reduced."""
        op = self.op
        if op == "basis":
            return sqrt_bracket_parts(*chordal_sq_parts(x, self.point), prec)
        if op == "const":
            return self.value.numerator, 0, self.value.denominator
        if op == "sum":
            m, r, d = 0, 0, 1
            for c in self.children:
                m2, r2, d2 = c._parts(x, prec + 2)
                if d2 == d:
                    m, r = m + m2, r + r2
                else:
                    m, r, d = m * d2 + m2 * d, r * d2 + r2 * d, d * d2
            return m, r, d
        if op == "prod":
            m, r, d = 1, 0, 1
            for c in self.children:
                m2, r2, d2 = c._parts(x, prec + 2)
                m, r, d = m * m2, abs(m) * r2 + abs(m2) * r + r * r2, d * d2
            return m, r, d
        if op == "scale":
            m, r, d = self.children[0]._parts(x, prec)
            p = self.value.numerator
            return m * p, r * abs(p), d * self.value.denominator
        raise ValueError(f"unknown op {self.op!r}")

    # -- structure -----------------------------------------------------

    @cached_property
    def _normal_terms(self) -> tuple[NormalTerm, ...]:
        """The normal form, expanded once per (immutable) potential."""
        combined: dict[tuple, Fraction] = {}
        for q, basis in self._expand():
            key = tuple(basis[i] for i in sphere_order(basis))
            combined[key] = combined.get(key, ZERO) + q
        return tuple((q, key) for key, q in sorted(combined.items(),
                                                   key=lambda kv: (len(kv[0]),))
                     if q != 0)

    @cached_property
    def _holder_bound(self) -> Fraction:
        """`holder_bound`, summed once per (immutable) potential."""
        total = ZERO
        for q, basis_pts in self._normal_terms:
            m = len(basis_pts)
            if m:  # constants have zero variation
                total += Fraction(2) ** (m - 1) * m * abs(q)
        return total

    def _expand(self) -> list[NormalTerm]:
        if self.op == "const":
            return [(self.value, ())] if self.value != 0 else []
        if self.op == "basis":
            return [(Fraction(1), (self.point,))]
        if self.op == "sum":
            out: list[NormalTerm] = []
            for c in self.children:
                out.extend(c._expand())
                _check_terms(len(out))
            return out
        if self.op == "scale":
            if self.value == 0:
                return []
            return [(q * self.value, b) for q, b in self.children[0]._expand()]
        if self.op == "prod":
            acc: list[NormalTerm] = [(Fraction(1), ())]
            for c in self.children:
                child_terms = c._expand()
                _check_terms(len(acc) * len(child_terms))
                acc = [(q1 * q2, b1 + b2) for q1, b1 in acc for q2, b2 in child_terms]
            return acc
        raise ValueError(f"unknown op {self.op!r}")

    def is_zero(self) -> bool:
        return not self._normal_terms

    def constant_value(self) -> Fraction | None:
        """The exact constant this potential equals, or None if nonconstant."""
        nf = self._normal_terms
        if not nf:
            return ZERO
        if len(nf) == 1 and not nf[0][1]:
            return nf[0][0]
        return None


def _check_terms(count: int) -> None:
    if count > _MAX_TERMS:
        raise PrecisionExhausted(f"the potential's normal form has over {_MAX_TERMS} terms")


def const(q: Fraction | int) -> Potential:
    return Potential("const", value=Fraction(q))


def basis(s: SpherePoint) -> Potential:
    return Potential("basis", point=s)


def psum(*children: Potential) -> Potential:
    return Potential("sum", children=tuple(children))


def pprod(*children: Potential) -> Potential:
    return Potential("prod", children=tuple(children))


def scale(q: Fraction | int, child: Potential) -> Potential:
    return Potential("scale", value=Fraction(q), children=(child,))


def holder_bound(phi: Potential) -> Fraction:
    """Explicit bound F >= |phi|_{1,sigma} from the normal form."""
    return phi._holder_bound


def upper_bound(phi: Potential) -> Fraction:
    """Bound on sup phi itself, with its sign: constant terms count
    exactly, a nonconstant term q * prod sigma counts q * 2^(factors) when
    q > 0 and 0 when q < 0, since each factor lies in [0, 2]."""
    total = ZERO
    for q, basis_pts in phi._normal_terms:
        if not basis_pts:
            total += q
        elif q > 0:
            total += q * Fraction(2) ** len(basis_pts)
    return total
