"""Potentials: the algebra generated by distance-to-ideal-point functions.

An expression tree over {constant, basis, sum, product, rational scaling}
where each basis element is x |-> sigma(x, s) for an exact point s.  Every
potential expands to a normal form sum_t q_t * prod_j basis_{t,j}, from
which an explicit Lipschitz bound follows: a product of m basis factors
(each bounded by 2 and 1-Lipschitz) is 2^(m-1) * m Lipschitz, so
F = sum_t 2^(m_t - 1) * m_t * |q_t| dominates the sigma-Hoelder seminorm.
Pure constant terms contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .balls import BallReal, ball_sum
from .dyadics import ZERO
from .sphere import SpherePoint, chordal, sphere_order

NormalTerm = tuple[Fraction, tuple[SpherePoint, ...]]


@dataclass(frozen=True)
class Potential:
    """Expression node; use the module constructors below."""

    op: str  # "const" | "basis" | "sum" | "prod" | "scale"
    value: Fraction | None = None
    point: SpherePoint | None = None
    children: tuple["Potential", ...] = ()

    # -- evaluation ----------------------------------------------------

    def evaluate(self, x: SpherePoint, prec: int = 40) -> BallReal:
        if self.op == "const":
            return BallReal.exact(self.value)
        if self.op == "basis":
            return chordal(x, self.point, prec)
        if self.op == "sum":
            return ball_sum(c.evaluate(x, prec + 2) for c in self.children)
        if self.op == "prod":
            out = BallReal.exact(1)
            for c in self.children:
                out = out * c.evaluate(x, prec + 2)
            return out
        if self.op == "scale":
            return self.children[0].evaluate(x, prec).scale(self.value)
        raise ValueError(f"unknown op {self.op!r}")

    def evaluate_with_displacement(self, x: SpherePoint, disp: Fraction,
                                   prec: int = 40) -> BallReal:
        """Enclosure of the value at any point within chordal distance
        `disp` of x, via the Lipschitz bound."""
        base = self.evaluate(x, prec)
        if disp == 0:
            return base
        return base.widen(holder_bound(self) * disp)

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

    def _expand(self) -> list[NormalTerm]:
        if self.op == "const":
            return [(self.value, ())] if self.value != 0 else []
        if self.op == "basis":
            return [(Fraction(1), (self.point,))]
        if self.op == "sum":
            out: list[NormalTerm] = []
            for c in self.children:
                out.extend(c._expand())
            return out
        if self.op == "scale":
            if self.value == 0:
                return []
            return [(q * self.value, b) for q, b in self.children[0]._expand()]
        if self.op == "prod":
            acc: list[NormalTerm] = [(Fraction(1), ())]
            for c in self.children:
                child_terms = c._expand()
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
        if all(not b for _, b in nf):
            return sum(q for q, _ in nf)
        return None


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
    total = ZERO
    for q, basis_pts in phi._normal_terms:
        m = len(basis_pts)
        if m == 0:
            continue  # constants have zero variation
        total += Fraction(2) ** (m - 1) * m * abs(q)
    return total


def sup_bound(phi: Potential) -> Fraction:
    """Bound on sup |phi|: each basis factor is at most 2."""
    total = ZERO
    for q, basis_pts in phi._normal_terms:
        total += abs(q) * Fraction(2) ** len(basis_pts)
    return total


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
