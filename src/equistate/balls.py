"""Certified real arithmetic: balls with exact rational midpoint and radius.

A ``BallReal`` (mid, rad) asserts |x - mid| <= rad for the real x it
represents; every operation preserves that enclosure.  Midpoints are kept
dyadic by explicit rounding steps whose error is absorbed into the radius,
so nothing is ever silently lost.

exp and log run in one pass on integer mantissas at a fixed-point scale
2^-W: the argument is floored to that scale once, reduced (halved for
exp; split as 2^e * m with m in [1, 2) and a shared ln 2 for log), and
the Taylor or atanh series is summed and squared back with shifts.  Every
floor, series tail and the input flooring add a counted number of units
2^-W to an integer radius, and W is chosen from that count so that the
radius is at most 2^-(prec + 24).

Sums that run long stay on integers as well: a ball m/d +- r/d is the
triple (m, r, d), `add_parts` adds two of them over the lcm of their
denominators, and `exp_parts` / `exp_ball_parts` give e^(a/b) and the
exp hull of a ball as (M, R, K), the ball M/2^K +- R/2^K.  Each integer
step is a function of the values alone, so a triple stands for the same
rationals as the `BallReal` that `ball_sum`, `exp_point` and `ball_exp`
build from it, and one Fraction pair built at the end of a sum equals
theirs digit for digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from . import dyadics
from .dyadics import ZERO, floor_log2_ratio, sqrt_lower_numerator
from .errors import MonotonicityViolation, NonPositiveArgument


@dataclass(frozen=True)
class BallReal:
    """Interval [mid - rad, mid + rad] with exact rational endpoints."""

    mid: Fraction
    rad: Fraction

    def __post_init__(self) -> None:
        if self.rad < 0:
            raise ValueError("ball radius must be nonnegative")

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(q: Fraction | int) -> "BallReal":
        return BallReal(Fraction(q), ZERO)

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction) -> "BallReal":
        if lo > hi:
            raise ValueError("empty interval")
        return BallReal((lo + hi) / 2, (hi - lo) / 2)

    # -- accessors ----------------------------------------------------

    def lower(self) -> Fraction:
        return self.mid - self.rad

    def upper(self) -> Fraction:
        return self.mid + self.rad

    def contains(self, q: Fraction) -> bool:
        return self.lower() <= q <= self.upper()

    def __float__(self) -> float:
        return float(self.mid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BallReal({float(self.mid):.12g} ± {float(self.rad):.3g})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "BallReal | Fraction | int") -> "BallReal":
        other = _coerce(other)
        return BallReal(self.mid + other.mid, self.rad + other.rad)

    __radd__ = __add__

    def __neg__(self) -> "BallReal":
        return BallReal(-self.mid, self.rad)

    def __sub__(self, other: "BallReal | Fraction | int") -> "BallReal":
        other = _coerce(other)
        return BallReal(self.mid - other.mid, self.rad + other.rad)

    def __rsub__(self, other: "BallReal | Fraction | int") -> "BallReal":
        return _coerce(other) - self

    def __mul__(self, other: "BallReal | Fraction | int") -> "BallReal":
        other = _coerce(other)
        rad = abs(self.mid) * other.rad + abs(other.mid) * self.rad + self.rad * other.rad
        return BallReal(self.mid * other.mid, rad)

    __rmul__ = __mul__

    def scale(self, q: Fraction | int) -> "BallReal":
        q = Fraction(q)
        return BallReal(self.mid * q, self.rad * abs(q))

    def abs(self) -> "BallReal":
        lo, hi = self.lower(), self.upper()
        if lo >= 0:
            return self
        if hi <= 0:
            return -self
        return BallReal.from_endpoints(ZERO, max(-lo, hi))

    def widen(self, slack: Fraction) -> "BallReal":
        return BallReal(self.mid, self.rad + slack)


def _coerce(x: "BallReal | Fraction | int") -> BallReal:
    if isinstance(x, BallReal):
        return x
    return BallReal.exact(x)


def ball_sum(terms: Iterable[BallReal]) -> BallReal:
    mid, rad = ZERO, ZERO
    for t in terms:
        mid += t.mid
        rad += t.rad
    return BallReal(mid, rad)


def add_parts(m: int, r: int, d: int, m2: int, r2: int, d2: int) -> tuple[int, int, int]:
    """(m/d + m2/d2, r/d + r2/d2) as integers over lcm(d, d2), for d, d2 > 0:
    the `BallReal` sum of the balls m/d +- r/d and m2/d2 +- r2/d2."""
    if d == d2:
        return m + m2, r + r2, d
    g = math.gcd(d, d2)
    s, s2 = d2 // g, d // g
    return m * s + m2 * s2, r * s + r2 * s2, d * s


# -- certified square roots -------------------------------------------


def _square_residues(k: int) -> bytes:
    """A table t with t[r] = 1 exactly when r is a square mod k."""
    table = bytearray(k)
    for x in range(k):
        table[x * x % k] = 1
    return bytes(table)


# A square is a square modulo every k.  Stage 0 tests mod 64, 63, 65 and
# 11 through tables mod 63*65 and 64*11 (by the CRT, a square mod both
# factors of a coprime product is a square mod the product); about 1 in
# 119 nonsquares passes it.  Stage 1 tests the primes 17 to 53, for
# callers whose fallback costs more than ten table lookups (the float
# chordal costs in `measures`).  Each stage's moduli divide its
# entry of SQUARE_MODULI, so any integer congruent to N modulo it gives
# the answer N gives.
_SQ4095, _SQ704 = _square_residues(63 * 65), _square_residues(64 * 11)
_PRIME_SQUARES = tuple((k, _square_residues(k))
                       for k in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53))
SQUARE_MODULI = (4095 * 704, math.prod(k for k, _ in _PRIME_SQUARES))


def may_be_square(n: int, stage: int) -> int:
    """0 when the residues of n prove that N is no perfect square, for any
    n = N mod SQUARE_MODULI[stage] (N itself, or its residue); 1 for every
    square."""
    if stage:
        for k, table in _PRIME_SQUARES:
            if not table[n % k]:
                return 0
        return 1
    return _SQ4095[n % 4095] and _SQ704[n % 704]


def sqrt_bracket_parts(n: int, d: int, prec: int) -> tuple[int, int, int]:
    """(m, e, D) with |sqrt(n/d) - m/D| <= e/D, for n >= 0 and d > 0 (n/d
    need not be in lowest terms).

    It is exact, (r, 0, d), when n/d in lowest terms is a ratio of perfect
    squares, that is when n d is a perfect square r^2; then sqrt(n/d) =
    r/d.  An n d that fails `may_be_square` at stage 0 is none, and needs
    no `isqrt`; every square passes, so no bracket changes.
    Otherwise, with b = prec + 1, sqrt(n/d) 2^b is no integer (that would
    make n/d a square), so it lies strictly between lo =
    `sqrt_lower_numerator` and lo + 1, which is `sqrt_upper_numerator`; the
    bracket is (2 lo + 1, 1, 2^(prec+2)), of radius 2^-(prec+2).
    """
    nd = n * d
    if may_be_square(nd, 0):
        r = math.isqrt(nd)
        if r * r == nd:
            return r, 0, d
    return 2 * sqrt_lower_numerator(n, d, prec + 1) + 1, 1, 1 << (prec + 2)


def sqrt_of_rational(n: int, d: int, prec: int) -> BallReal:
    """Ball containing sqrt(n/d) with rad <= 2^-prec, for integers n >= 0
    and d > 0 (n/d need not be reduced): the `sqrt_bracket_parts` of n/d,
    exact for the square of a rational.  Raises NonPositiveArgument for
    n < 0."""
    if n < 0:
        raise NonPositiveArgument("square root of a negative rational")
    m, e, den = sqrt_bracket_parts(n, d, prec)
    return BallReal(Fraction(m, den), Fraction(e, den))


# -- exponential and logarithm on integer mantissas ---------------------
#
# Both kernels run in fixed point at one scale 2^-W: a real v is held as
# an int V with |v - V/2^W| <= R/2^W for an int R.  A product is floored
# back to the scale with a shift, which moves it down by less than 1.
#
# Each kernel's docstring shows R < 2^g * (W + 9) * (1 + 2^-15) for its
# own g.  W = p + bitlen(p) + 2 with p = prec + 24 + g then gives
# rad <= 2^-(prec + 24), because (W + 9) * 2^-W <= 2^-(p + 1) for p >= 8.


_SPARE_BITS = 24


def _working_bits(p: int) -> int:
    return p + p.bit_length() + 2


def exp_parts(a: int, b: int, prec: int) -> tuple[int, int, int]:
    """(T, R, W) with |e^(a/b) - T/2^W| <= R/2^W and R/2^W <= 2^-(prec + 24),
    for b > 0; (1, 0, 0) for a = 0.  Every step below depends on the value
    a/b only, so a/b need not be in lowest terms.

    Halve s times so that |y| = |a/b|/2^s <= 1/4, and floor Y = y*2^W
    (y - Y/2^W in [0, 2^-W), which moves e^y by less than 2^-W * e^(1/4)
    * (1 + 2^-W) < 2 units of 2^-W).  The Taylor terms
    t_k = floor(floor(t_(k-1)*Y / 2^W) / k), which equals
    floor(t_(k-1)*Y / (k*2^W)), each miss Y^k/(k! 2^(W(k-1))) by less
    than 2: the miss of t_(k-1) shrinks by |Y|/(k 2^W) <= 1/4 and the floor
    adds less than 1.  The sum stops at the first t_N in {0, -1}; the exact
    terms beyond are then below 3 * (1/4)/(N+1) * 4/3 <= 1/2 together.  So
    R = 2N + 3 bounds the reduced value.  Squaring V with radius R gives
    floor(V^2/2^W) with radius ((2V + R)R >> W) + 2: the floor and the
    rounding-up of the shifted error add 1 each.

    The sum has N <= W/2 + 2 terms, so R <= W + 7 before squaring.  Each
    squaring at most doubles R + 2 relative to the value, up to a factor
    1 + 2^-20, so the final R is below 2^s * max(1, e^(a/b)) * (W + 9) *
    (1 + 2^-15): g = s + 2*ceil(max(a/b, 0)) covers it.
    """
    if not a:
        return 1, 0, 0
    s = floor_log2_ratio(abs(a), b) + 3 if 4 * abs(a) > b else 0
    p = prec + _SPARE_BITS + s + (-2 * (-a // b) if a > 0 else 0)
    w = _working_bits(p)
    y = (a << w) // (b << s)
    t = total = 1 << w
    n = 0
    while t not in (0, -1):
        n += 1
        t = ((t * y) >> w) // n
        total += t
    r = 2 * n + 3
    for _ in range(s):
        r = (((2 * total + r) * r) >> w) + 2
        total = (total * total) >> w
    return total, r, w


def exp_point(q: Fraction, prec: int) -> BallReal:
    """Ball containing e^q with rad <= 2^-(prec + 24); exact for q = 0.
    The ball of `exp_parts`."""
    t, r, w = exp_parts(q.numerator, q.denominator, prec)
    return BallReal(Fraction(t, 1 << w), Fraction(r, 1 << w))


def exp_ball_parts(m: int, r: int, d: int, prec: int) -> tuple[int, int, int]:
    """(M, R, K) with e^x in M/2^K +- R/2^K for every x in m/d +- r/d, for
    d > 0 and r >= 0: `exp_parts` of m/d when r = 0, else the hull
    [lo, hi] of `exp_parts` at the two ends, each at prec + 2, by
    monotonicity of exp.  Over K = max(W_lo, W_hi) + 1 the hull is
    M = hi + lo and R = hi - lo, the `BallReal.from_endpoints` of lo and hi.
    Its half-width is at most e^mid * sinh(rad) + 2^-(prec+2), never wider
    than the midpoint form e^mid * (e^rad - 1)."""
    if not r:
        return exp_parts(m, d, prec)
    lo, lo_r, lo_w = exp_parts(m - r, d, prec + 2)
    hi, hi_r, hi_w = exp_parts(m + r, d, prec + 2)
    k = max(lo_w, hi_w)
    lo = (lo - lo_r) << (k - lo_w)
    hi = (hi + hi_r) << (k - hi_w)
    return hi + lo, hi - lo, k + 1


def ball_exp(a: BallReal, prec: int) -> BallReal:
    """Ball containing e^x for every x in a: the ball of `exp_ball_parts`,
    which is `exp_point`'s for a point."""
    mid, rad = a.mid, a.rad
    if not rad:
        return exp_point(mid, prec)
    m, r, k = exp_ball_parts(mid.numerator * rad.denominator, rad.numerator * mid.denominator,
                             mid.denominator * rad.denominator, prec)
    return BallReal(Fraction(m, 1 << k), Fraction(r, 1 << k))


def _two_atanh(num: int, den: int, w: int) -> tuple[int, int]:
    """(V, R) at scale 2^-W for 2*atanh(t), t = num/den in [0, 1/3].

    T = floor(t*2^W) is off by less than one unit, which moves atanh by
    less than 9/8 units (atanh' = 1/(1 - t^2) <= 9/8).  The powers
    P_k = floor(P_(k-1) * floor(T^2/2^W) / 2^W) miss T^(2k+1)/2^(2kW) by
    at most 3/2 (the miss shrinks by 1/9, the two floors add less than
    1/3 + 1), so each P_k // (2k+1) misses by less than 3/2.  The sum stops
    at the first P_N = 0, past which the exact terms add less than 1.  So
    atanh(t) is within 2N + 3 units of the sum, and twice that holds for
    2*atanh.
    """
    if not num:
        return 0, 0
    t = (num << w) // den
    t2 = (t * t) >> w
    power = total = t
    n = 0
    while power:
        n += 1
        power = (power * t2) >> w
        total += power // (2 * n + 1)
    return 2 * total, 4 * n + 6


@lru_cache(maxsize=64)
def _ln2(w: int) -> tuple[int, int]:
    """ln 2 = 2*atanh(1/3) at scale 2^-w, shared by every log at that scale."""
    return _two_atanh(1, 3, w)


def log_point(q: Fraction, prec: int) -> BallReal:
    """Ball containing log(q) with rad <= 2^-(prec + 24).  Requires q > 0.

    Write q = 2^e * m with m in [1, 2); then log q = e*ln 2 + 2*atanh(t)
    with t = (m - 1)/(m + 1) in [0, 1/3), summed by `_two_atanh` on ints.
    Each sum has N <= W/3 + 1 terms, so R <= (1 + |e|) * (4W/3 + 10),
    below (W + 9) * 2^g for g = bitlen(|e|) + 1.
    """
    if q <= 0:
        raise NonPositiveArgument("log of a nonpositive rational")
    if q == 1:
        return BallReal.exact(0)
    e = dyadics.bit_floor_log2(q)
    a, b = q.numerator, q.denominator
    if e >= 0:
        b <<= e
    else:
        a <<= -e
    w = _working_bits(prec + _SPARE_BITS + abs(e).bit_length() + 1)
    total, r = _two_atanh(a - b, a + b, w)
    if e:
        ln2, r2 = _ln2(w)
        total += e * ln2
        r += abs(e) * r2
    return BallReal(Fraction(total, 1 << w), Fraction(r, 1 << w))


def ball_log(a: BallReal, prec: int) -> BallReal:
    """Ball containing log(x) for every x in a; requires a.lower() > 0."""
    if a.lower() <= 0:
        raise NonPositiveArgument("ball touches (-inf, 0]")
    if a.rad == 0:
        return log_point(a.mid, prec)
    lo = log_point(a.lower(), prec + 2)
    hi = log_point(a.upper(), prec + 2)
    return BallReal.from_endpoints(lo.lower(), hi.upper())


# -- directed (semi-computable style) approximations -------------------


@dataclass(frozen=True)
class DirectedReal:
    """Finite monotone prefix of rational approximations from one side.

    direction "lower": nondecreasing terms approaching from below;
    direction "upper": nonincreasing terms approaching from above.
    """

    terms: tuple[Fraction, ...]
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "upper"):
            raise ValueError("direction must be 'lower' or 'upper'")
        if not self.terms:
            raise ValueError("DirectedReal needs at least one term")
        for a, b in zip(self.terms, self.terms[1:]):
            if self.direction == "lower" and b < a:
                raise MonotonicityViolation("lower sequence decreased")
            if self.direction == "upper" and b > a:
                raise MonotonicityViolation("upper sequence increased")

    @property
    def current(self) -> Fraction:
        """Best bound so far (the last term)."""
        return self.terms[-1]

