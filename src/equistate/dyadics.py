"""Exact rational and dyadic helpers.

Everything here is integer arithmetic underneath: no floats are consulted
for any value that feeds a certified bound.  Rationals serialize as "p/q"
(lowest terms, q > 0) and parse through `parse_rational`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParseError

ZERO = Fraction(0)


def dyadic_numerator(n: int, d: int, bits: int) -> int:
    """The m with m/2^bits the multiple of 2^-bits nearest n/d, for d > 0;
    ties round away from zero, so |m/2^bits - n/d| <= 2^-(bits+1).

    The rule depends on the value n/d only, so n/d need not be in lowest
    terms.
    """
    if n >= 0:
        return ((n << (bits + 1)) + d) // (2 * d)
    return -((((-n) << (bits + 1)) + d) // (2 * d))


def sqrt_lower_numerator(n: int, d: int, bits: int) -> int:
    """floor(sqrt(n/d) * 2^bits), for n >= 0 and d > 0.

    It is the integer square root of floor(n * 4^bits / d), since flooring
    the radicand does not move the floor of its root; the rule depends on
    the value n/d only, so n/d need not be in lowest terms.
    """
    return math.isqrt((n << (2 * bits)) // d)


def sqrt_upper_numerator(n: int, d: int, bits: int) -> int:
    """ceil(sqrt(n/d) * 2^bits), for n >= 0 and d > 0; like
    `sqrt_lower_numerator`, a function of the value n/d only."""
    scaled = -((-n << (2 * bits)) // d)
    r = math.isqrt(scaled)
    return r + 1 if r * r < scaled else r


def compare_square(n: int, d: int, r: Fraction) -> int:
    """Sign (-1, 0 or 1) of n/d - r^2 for d > 0: n r_den^2 against r_num^2 d."""
    a, b = n * r.denominator ** 2, r.numerator ** 2 * d
    return (a > b) - (a < b)


def discs_apart(n: int, d: int, r1: Fraction, r2: Fraction) -> bool:
    """Whether n/d > (r1 + r2)^2, for d > 0 and r1, r2 >= 0: discs of radii
    r1 and r2 about two points at squared distance n/d are disjoint.  With
    r_k = n_k/d_k it compares n (d1 d2)^2 with (n1 d2 + n2 d1)^2 d."""
    s = r1.numerator * r2.denominator + r2.numerator * r1.denominator
    q = r1.denominator * r2.denominator
    return n * q * q > s * s * d


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def bit_floor_log2(q: Fraction) -> int:
    """Largest e with 2^e <= q.  Requires q > 0."""
    if q <= 0:
        raise ValueError("bit_floor_log2 requires a positive argument")
    return floor_log2_ratio(q.numerator, q.denominator)


def floor_log2_ratio(n: int, d: int) -> int:
    """Largest e with 2^e <= n/d, for n, d > 0 (n/d need not be in lowest
    terms: the bit lengths leave two candidates, and one exact comparison
    of the value settles them)."""
    e = n.bit_length() - d.bit_length()
    if e >= 0:
        if (d << e) > n:
            e -= 1
    else:
        if d > (n << -e):
            e -= 1
    return e
