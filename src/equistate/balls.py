"""Certified real arithmetic: balls with exact rational midpoint and radius.

A ``BallReal`` (mid, rad) asserts |x - mid| <= rad for the real x it
represents; every operation preserves that enclosure.  Midpoints are kept
dyadic by explicit rounding steps whose error is absorbed into the radius,
so nothing is ever silently lost.

exp and log are computed by argument reduction plus truncated series with
the remainder added to the radius; the adaptive drivers re-run with more
guard bits until the requested 2^-prec radius is met.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import dyadics
from .dyadics import ZERO, ONE, round_to_dyadic, sqrt_exact, sqrt_lower, sqrt_upper
from .errors import MonotonicityViolation, NonPositiveArgument, PrecisionExhausted

_MAX_ADAPTIVE_ROUNDS = 12


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

    def overlaps(self, other: "BallReal") -> bool:
        return self.lower() <= other.upper() and other.lower() <= self.upper()

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

    def round(self, bits: int) -> "BallReal":
        """Dyadic midpoint at 2^-bits resolution; error moves into rad."""
        m = round_to_dyadic(self.mid, bits)
        return BallReal(m, dyadics.ceil_to_dyadic(self.rad + abs(m - self.mid), bits + 4))

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


# -- certified square roots -------------------------------------------


def sqrt_of_rational(q: Fraction, prec: int) -> BallReal:
    """Ball containing sqrt(q) with rad <= 2^-prec; exact for perfect squares."""
    if q < 0:
        raise NonPositiveArgument("square root of a negative rational")
    exact = sqrt_exact(q)
    if exact is not None:
        return BallReal.exact(exact)
    return BallReal.from_endpoints(sqrt_lower(q, prec + 1), sqrt_upper(q, prec + 1))


def ball_sqrt(a: BallReal, prec: int) -> BallReal:
    """Ball containing sqrt(x) for every x in a; requires a.lower() >= 0."""
    lo, hi = a.lower(), a.upper()
    if lo < 0:
        raise NonPositiveArgument("ball_sqrt needs a nonnegative interval")
    return BallReal.from_endpoints(sqrt_lower(lo, prec + 1), sqrt_upper(hi, prec + 1))


# -- exponential ------------------------------------------------------


def _exp_point_once(q: Fraction, guard: int) -> BallReal:
    """One enclosure pass for e^q with `guard` working bits."""
    if q == 0:
        return BallReal.exact(1)
    # Halve until |y| <= 1/4, sum the series, square back up.
    s = 0
    absq = abs(q)
    if absq > Fraction(1, 4):
        s = dyadics.bit_floor_log2(absq) + 3
    y = q / (1 << s) if s else q
    # Truncated Taylor sum with remainder bound (4/3)|y|^(N+1)/(N+1)!.
    term = ONE
    total = ONE
    tail = abs(y)  # |y|^(n+1)/(n+1)! maintained incrementally
    n = 0
    target = Fraction(1, 1 << guard)
    while Fraction(4, 3) * tail > target:
        n += 1
        term = term * y / n
        total += term
        tail = tail * abs(y) / (n + 1)
        if n > 4 * guard + 64:  # unreachable for |y| <= 1/4
            raise PrecisionExhausted("exp series failed to converge")
    v = BallReal(total, Fraction(4, 3) * tail).round(guard)
    for _ in range(s):
        v = (v * v).round(guard)
    return v


def exp_point(q: Fraction, prec: int) -> BallReal:
    """Ball containing e^q with rad <= 2^-prec."""
    target = Fraction(1, 1 << prec)
    extra = 0
    if q > 0:
        extra = int(q) * 2 + 4  # e^q < 2^(1.5q + 2)
    guard = prec + extra + 16
    for _ in range(_MAX_ADAPTIVE_ROUNDS):
        ball = _exp_point_once(q, guard)
        if ball.rad <= target:
            return ball
        guard *= 2
    raise PrecisionExhausted(f"exp_point({q}, {prec})")


def ball_exp(a: BallReal, prec: int) -> BallReal:
    """Ball containing e^x for every x in a.

    rad <= 2^-prec + e^(a.mid + a.rad) * a.rad, by monotonicity of exp.
    """
    if a.rad == 0:
        return exp_point(a.mid, prec)
    lo = exp_point(a.lower(), prec + 2)
    hi = exp_point(a.upper(), prec + 2)
    return BallReal.from_endpoints(lo.lower(), hi.upper())


# -- logarithm --------------------------------------------------------


def _atanh_series(t: Fraction, guard: int) -> BallReal:
    """2*atanh(t) for 0 <= t <= 1/3, certified remainder."""
    if t == 0:
        return BallReal.exact(0)
    total = ZERO
    power = t
    t2 = t * t
    k = 0
    while True:
        total += power / (2 * k + 1)
        power *= t2
        k += 1
        # Tail: 2 * t^(2k+1) / ((2k+1)(1-t^2)) <= (9/4) * t^(2k+1) / (2k+1)
        bound = Fraction(9, 4) * t ** (2 * k + 1) / (2 * k + 1)
        if bound <= Fraction(1, 1 << guard):
            break
        if k > 2000:
            raise PrecisionExhausted("atanh series failed to converge")
    return BallReal(2 * total, 2 * bound).round(guard)


def _log_point_once(q: Fraction, guard: int) -> BallReal:
    e = dyadics.bit_floor_log2(q)
    m = q / (Fraction(2) ** e)  # in [1, 2)
    log_m = _atanh_series((m - 1) / (m + 1), guard)
    if e == 0:
        return log_m
    log2 = _atanh_series(Fraction(1, 3), guard + abs(e).bit_length() + 1)
    return (log_m + log2.scale(e)).round(guard)


def log_point(q: Fraction, prec: int) -> BallReal:
    """Ball containing log(q) with rad <= 2^-prec.  Requires q > 0."""
    if q <= 0:
        raise NonPositiveArgument("log of a nonpositive rational")
    if q == 1:
        return BallReal.exact(0)
    target = Fraction(1, 1 << prec)
    guard = prec + 8
    for _ in range(_MAX_ADAPTIVE_ROUNDS):
        ball = _log_point_once(q, guard)
        if ball.rad <= target:
            return ball
        guard *= 2
    raise PrecisionExhausted(f"log_point({q}, {prec})")


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


def directed_push(d: DirectedReal, q: Fraction) -> DirectedReal:
    """Extend the sequence by q; raises MonotonicityViolation if invalid."""
    if d.direction == "lower" and q < d.current:
        raise MonotonicityViolation(f"push {q} below current {d.current}")
    if d.direction == "upper" and q > d.current:
        raise MonotonicityViolation(f"push {q} above current {d.current}")
    return DirectedReal(d.terms + (Fraction(q),), d.direction)
