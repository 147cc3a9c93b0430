import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equistate.dyadics import bit_floor_log2, dyadic_numerator
from equistate.balls import (
    SQUARE_MODULI,
    BallReal,
    DirectedReal,
    ball_exp,
    ball_log,
    exp_ball_parts,
    exp_parts,
    exp_point,
    log_point,
    may_be_square,
    sqrt_bracket_parts,
    sqrt_of_rational,
)
from equistate.errors import MonotonicityViolation, NonPositiveArgument

dyadics = st.integers(-200, 200).map(lambda n: F(n, 64))
small_dyadics = st.integers(-40, 40).map(lambda n: F(n, 16))


def _ceil_to_dyadic(q: F, bits: int) -> F:
    """The least multiple of 2^-bits at or above q."""
    scaled = q * (1 << bits)
    return F(-((-scaled.numerator) // scaled.denominator), 1 << bits)


def _round(b: BallReal, bits: int) -> BallReal:
    """b on a midpoint rounded to the nearest multiple of 2^-bits, with the
    rounding error moved into the radius."""
    m = F(dyadic_numerator(b.mid.numerator, b.mid.denominator, bits), 1 << bits)
    return BallReal(m, _ceil_to_dyadic(b.rad + abs(m - b.mid), bits + 4))


def test_add_identity():
    z = BallReal.exact(0)
    s = z + z
    assert s.mid == 0 and s.rad == 0


def test_add_interval():
    a = BallReal(F(1), F(1, 4))
    b = BallReal(F(2), F(1, 4))
    s = a + b
    assert s.mid == 3 and s.rad == F(1, 2)


def test_add_rounded_thirds():
    third = _round(BallReal(F(1, 3), 0), 20)
    s = third + third
    assert s.contains(F(2, 3))
    assert s.rad <= F(1, 1 << 18)


def test_mul_encloses():
    a = BallReal(F(3), F(1, 8))
    b = BallReal(F(-2), F(1, 8))
    prod = a * b
    for x in (F(3) - F(1, 8), F(3), F(3) + F(1, 8)):
        for y in (F(-2) - F(1, 8), F(-2), F(-2) + F(1, 8)):
            assert prod.contains(x * y)


def test_exp_at_zero_exact():
    b = exp_point(F(0), 30)
    assert b.mid == 1 and b.rad == 0


def test_exp_at_one():
    b = exp_point(F(1), 30)
    assert b.rad <= F(1, 1 << 30)
    assert abs(float(b.mid) - math.e) < 1e-9


def test_exp_interval_monotone():
    a = BallReal(F(0), F(1, 8))
    b = ball_exp(a, 10)
    assert b.lower() <= F(math.exp(-0.125)).limit_denominator(10**9) <= b.upper()
    assert b.lower() <= F(math.exp(0.125)).limit_denominator(10**9) <= b.upper()


def test_log_examples():
    assert log_point(F(1), 30).mid == 0
    b = log_point(F(2), 30)
    assert b.rad <= F(1, 1 << 30)
    assert abs(float(b.mid) - math.log(2)) < 1e-9


def test_log_domain_error():
    with pytest.raises(NonPositiveArgument):
        ball_log(BallReal(F(0), F(1, 2)), 10)


def test_radius_contract_on_points():
    for q in (F(1, 3), F(7, 5), F(10), F(-3, 7)):
        assert exp_point(q, 40).rad <= F(1, 1 << 40)
    for q in (F(1, 3), F(7, 5), F(10)):
        assert log_point(q, 40).rad <= F(1, 1 << 40)


def test_sqrt_exact_square():
    b = sqrt_of_rational(4, 9, 30)
    assert b.mid == F(2, 3) and b.rad == 0


def test_sqrt_enclosure():
    b = sqrt_of_rational(2, 1, 40)
    assert b.rad <= F(1, 1 << 40)
    assert b.lower() ** 2 <= 2 <= b.upper() ** 2


def test_sqrt_is_the_dyadic_bracket():
    """The ball is exactly [sqrt_lower, sqrt_upper] at prec + 1 bits, so the
    pinned transport costs keep their bits; and it encloses sqrt(q)."""
    def sqrt_lower(q, bits):
        return F(math.isqrt((q.numerator << (2 * bits)) // q.denominator), 1 << bits)

    def sqrt_upper(q, bits):
        scaled = q * (1 << (2 * bits))
        top = -((-scaled.numerator) // scaled.denominator)
        r = math.isqrt(top)
        return F(r + (r * r < top), 1 << bits)

    rng = random.Random(5)
    for _ in range(400):
        q = F(rng.randint(0, 10 ** rng.randint(1, 30)), rng.randint(1, 10 ** rng.randint(1, 30)))
        prec = rng.choice([0, 1, 30, 34, 64])
        b = sqrt_of_rational(q.numerator, q.denominator, prec)
        if b.rad:
            assert b == BallReal.from_endpoints(sqrt_lower(q, prec + 1), sqrt_upper(q, prec + 1))
        else:
            assert b.mid ** 2 == q
        assert b.lower() ** 2 <= q <= b.upper() ** 2 and b.rad <= F(1, 1 << prec)
    with pytest.raises(NonPositiveArgument):
        sqrt_of_rational(-1, 3, 10)


def _bracket(n, d, prec):
    """(mid, e): the `sqrt_bracket_parts` of n/d with its midpoint as a
    Fraction."""
    m, e, den = sqrt_bracket_parts(n, d, prec)
    return F(m, den), e


def test_sqrt_bracket_ignores_common_factors():
    """The bracket of n/d is a function of the value: a common factor of
    the integers changes neither the exactness test nor the bits."""
    assert _bracket(8, 2, 30) == (2, 0) and _bracket(0, 12, 30) == (0, 0)
    assert _bracket(36 * 7, 25 * 7, 5) == (F(6, 5), 0)
    rng = random.Random(11)
    for _ in range(300):
        q = F(rng.randint(0, 10 ** rng.randint(1, 25)), rng.randint(1, 10 ** rng.randint(1, 25)))
        k = rng.randint(1, 10 ** rng.randint(0, 20))
        prec = rng.choice([0, 12, 34, 64])
        ball = sqrt_of_rational(q.numerator, q.denominator, prec)
        assert _bracket(q.numerator * k, q.denominator * k, prec) == (
            ball.mid, ball.rad * (1 << (prec + 2)))
        assert sqrt_of_rational(q.numerator * k, q.denominator * k, prec) == ball


def _isqrt_parts(n, d, prec):
    """`sqrt_bracket_parts` with the square test by plain `isqrt` alone."""
    r = math.isqrt(n * d)
    if r * r == n * d:
        return r, 0, d
    return 2 * math.isqrt((n << (2 * prec + 2)) // d) + 1, 1, 1 << (prec + 2)


_BIG = 1 << 1100  # squares of up to 2,200 bits
_radicands = st.one_of(
    st.integers(0, _BIG).map(lambda k: (k * k, 1)),
    st.integers(1, _BIG).map(lambda k: (k * k + 1, 1)),
    st.integers(1, _BIG).map(lambda k: (k * k - 1, 1)),
    st.tuples(st.integers(0, 1 << 600), st.integers(1, 1 << 600)).map(
        lambda rj: ((rj[0] * rj[1]) ** 2, rj[1] ** 2)),
    st.tuples(st.integers(0, _BIG), st.integers(1, _BIG)),
)


@given(_radicands, st.sampled_from([0, 12, 34, 64]))
@settings(max_examples=300, deadline=None)
def test_square_residue_filter_matches_isqrt(nd, prec):
    """The residue filter before `isqrt` never turns a square away: the
    bracket equals the one a plain `isqrt` test gives, on squares, their
    neighbours, ratios of squares and radicands above 2,000 bits."""
    n, d = nd
    assert sqrt_bracket_parts(n, d, prec) == _isqrt_parts(n, d, prec)


def test_square_residue_filter_edge_cases():
    for k in [0, 1, 2, 3, 8, 63, 64, 65, 2882880, (1 << 1024) + 1, 3 ** 1300]:
        for n in (k * k, k * k + 1, k * k - 1, 2 * k * k):
            if n >= 0:
                assert sqrt_bracket_parts(n, 1, 30) == _isqrt_parts(n, 1, 30), k
    for r in range(-40, 40):
        for j in (1, 7, 64, 65 * 63 * 11):
            assert sqrt_bracket_parts((r * j) ** 2, j * j, 30) == (abs(r) * j * j, 0, j * j)
    assert sqrt_bracket_parts(0, 12, 30) == (0, 0, 12)


def test_may_be_square_stages():
    """Stage 0 turns away exactly the residues that are no square mod 64,
    63, 65 or 11, and no square fails either stage."""
    squares = {k: {x * x % k for x in range(k)} for k in (64, 63, 65, 11)}
    rng = random.Random(5)
    for res in [*range(5000), *(rng.randrange(SQUARE_MODULI[0]) for _ in range(5000))]:
        assert may_be_square(res, 0) == all(res % k in s for k, s in squares.items())
    for x in [*range(3000), *(rng.randrange(1 << 200) for _ in range(300))]:
        assert all(may_be_square(x * x % m, stage) for stage, m in enumerate(SQUARE_MODULI))
    assert SQUARE_MODULI[0] == 64 * 63 * 65 * 11
    assert not may_be_square(3, 1) and not may_be_square(SQUARE_MODULI[1] - 1, 1)


@given(small_dyadics, st.integers(5, 25))
@settings(max_examples=60, deadline=None)
def test_exp_enclosure_sound(q, prec):
    ball = exp_point(q, prec)
    # Compare against a much finer enclosure of the same point.
    fine = exp_point(q, 60)
    assert ball.lower() <= fine.mid <= ball.upper()


@given(st.integers(1, 400), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_log_exp_roundtrip(n, d):
    q = F(n, d)
    back = ball_log(ball_exp(BallReal.exact(q), 50), 50)
    assert back.contains(q)


@given(dyadics, dyadics)
@settings(max_examples=80, deadline=None)
def test_sum_enclosure_property(x, y):
    a = BallReal(x, F(1, 32))
    b = BallReal(y, F(1, 64))
    s = a + b
    # every pair of contained points sums into the result
    for dx in (-a.rad, 0, a.rad):
        for dy in (-b.rad, 0, b.rad):
            assert s.contains((x + dx) + (y + dy))


def test_directed_push_lower():
    d2 = DirectedReal((F(0), F(1, 2)), "lower")
    assert d2.terms == (F(0), F(1, 2))
    with pytest.raises(MonotonicityViolation):
        DirectedReal(d2.terms + (F(1, 4),), "lower")


def test_directed_push_upper():
    d2 = DirectedReal((F(1), F(1, 2)), "upper")
    assert d2.current == F(1, 2)
    with pytest.raises(MonotonicityViolation):
        DirectedReal(d2.terms + (F(3, 4),), "upper")


def test_directed_invalid_sequence():
    with pytest.raises(MonotonicityViolation):
        DirectedReal((F(0), F(-1)), "lower")


# -- the integer exp/log kernels against mpmath and the Fraction kernels
# they replaced --------------------------------------------------------------
#
# The reference below is the earlier Fraction implementation: Taylor and
# atanh series on Fractions, rounded at `guard` bits, with the guard
# doubled until the radius meets 2^-prec.


def _ref_exp_once(q, guard):
    if q == 0:
        return BallReal.exact(1)
    s = bit_floor_log2(abs(q)) + 3 if abs(q) > F(1, 4) else 0
    y = q / (1 << s)
    term = total = F(1)
    tail = abs(y)
    n = 0
    while F(4, 3) * tail > F(1, 1 << guard):
        n += 1
        term = term * y / n
        total += term
        tail = tail * abs(y) / (n + 1)
    v = _round(BallReal(total, F(4, 3) * tail), guard)
    for _ in range(s):
        v = _round(v * v, guard)
    return v


def _ref_exp_point(q, prec):
    guard = prec + (int(q) * 2 + 4 if q > 0 else 0) + 16
    while True:
        ball = _ref_exp_once(q, guard)
        if ball.rad <= F(1, 1 << prec):
            return ball
        guard *= 2


def _ref_two_atanh(t, guard):
    if t == 0:
        return BallReal.exact(0)
    total, power, k = F(0), t, 0
    while True:
        total += power / (2 * k + 1)
        power *= t * t
        k += 1
        bound = F(9, 4) * t ** (2 * k + 1) / (2 * k + 1)
        if bound <= F(1, 1 << guard):
            return _round(BallReal(2 * total, 2 * bound), guard)


def _ref_log_point(q, prec):
    if q == 1:
        return BallReal.exact(0)
    guard = prec + 8
    while True:
        e = bit_floor_log2(q)
        m = q / F(2) ** e
        ball = _ref_two_atanh((m - 1) / (m + 1), guard)
        if e:
            ln2 = _ref_two_atanh(F(1, 3), guard + abs(e).bit_length() + 1)
            ball = _round(ball + ln2.scale(e), guard)
        if ball.rad <= F(1, 1 << prec):
            return ball
        guard *= 2


def _ref_hull(point, a, prec):
    if a.rad == 0:
        return point(a.mid, prec)
    lo, hi = point(a.lower(), prec + 2), point(a.upper(), prec + 2)
    return BallReal.from_endpoints(lo.lower(), hi.upper())


def _kernel_cases():
    """(q, prec) pairs: 177-bit denominators with |q| <= 40, both signs,
    the halving threshold +-1/4 and its neighbours, powers of 2, and
    arguments near 0 and 1."""
    rng = random.Random(11)
    qs = [F(rng.randint(-40 << 177, 40 << 177), (1 << 177) - rng.randrange(1 << 176))
          for _ in range(40)]
    for t in (F(1, 4), F(-1, 4)):
        qs += [t, t + F(1, 1 << 90), t - F(1, 1 << 90)]
    qs += [sign * F(2) ** k for k in (-30, -3, -1, 0, 1, 3, 5) for sign in (1, -1)]
    qs += [F(1) + F(1, 1 << 100), F(1) - F(3, 1 << 80), F(1, 1 << 80), F(-40), F(40),
           F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))]
    return [(q, p) for q, p in zip(qs, [5, 200] + [rng.randint(5, 200) for _ in qs[2:]])]


_KERNEL_CASES = _kernel_cases()


def _check_kernel(mpmath, got, want, mp_fn, a, prec):
    """`got` holds mp_fn on all of a, exceeds the exact half-width of the
    image by at most 2^-prec, and is no wider than the reference `want`."""
    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    ends = [mp_fn(mp(a.lower())), mp_fn(mp(a.upper()))]
    assert mp(got.lower()) <= min(ends) and max(ends) <= mp(got.upper()), (a, prec)
    assert mp(got.rad) <= abs(ends[1] - ends[0]) / 2 + mpmath.ldexp(1, -prec), (a, prec)
    assert got.rad <= want.rad, (a, prec, float(got.rad), float(want.rad))


@pytest.mark.parametrize("q, prec", _KERNEL_CASES)
def test_exp_kernel_against_mpmath_and_fraction_kernel(q, prec):
    mpmath = pytest.importorskip("mpmath")
    a = BallReal(q, F(1, 1 << (prec % 50 + 1)))
    with mpmath.workprec(600):
        _check_kernel(mpmath, exp_point(q, prec), _ref_exp_point(q, prec), mpmath.exp,
                      BallReal.exact(q), prec)
        _check_kernel(mpmath, ball_exp(a, prec), _ref_hull(_ref_exp_point, a, prec),
                      mpmath.exp, a, prec)


# |q| <= 40, with denominators of 21 and 22 bits.
_exp_args = st.builds(F, st.integers(-(40 << 20), 40 << 20), st.integers(1 << 20, 1 << 21))


@given(_exp_args, st.integers(0, 120))
@settings(max_examples=80, deadline=None)
def test_exp_point_meets_the_fraction_kernel(q, prec):
    """Both kernels enclose e^q, so their balls meet, and the integer one
    keeps its radius bound 2^-(prec + 24)."""
    got, want = exp_point(q, prec), _ref_exp_point(q, prec)
    assert got.lower() <= want.upper() and want.lower() <= got.upper()
    assert got.rad <= F(1, 1 << (prec + 24))


@given(_exp_args, st.integers(1, 1 << 40), st.integers(0, 120))
@settings(max_examples=80, deadline=None)
def test_exp_parts_depend_on_the_value_only(q, k, prec):
    a, b = q.numerator, q.denominator
    assert exp_parts(a * k, b * k, prec) == exp_parts(a, b, prec)


@given(_exp_args, st.integers(0, 1 << 20), st.integers(1 << 18, 1 << 20), st.integers(1, 1 << 20),
       st.integers(0, 80))
@settings(max_examples=80, deadline=None)
def test_exp_ball_parts_is_the_endpoint_hull(q, rn, rd, k, prec):
    """On an unreduced triple (radius at most 4), the ball of
    `exp_ball_parts` is the hull of the two `exp_point` balls at prec + 2 (or `exp_point` itself for
    radius 0), as `BallReal.from_endpoints` builds it."""
    rad = F(rn, rd)
    m, r, e = exp_ball_parts(q.numerator * rd * k, rn * q.denominator * k,
                             q.denominator * rd * k, prec)
    if rn:
        want = BallReal.from_endpoints(exp_point(q - rad, prec + 2).lower(),
                                       exp_point(q + rad, prec + 2).upper())
    else:
        want = exp_point(q, prec)
    assert (F(m, 1 << e), F(r, 1 << e)) == (want.mid, want.rad)
    assert ball_exp(BallReal(q, rad), prec) == want


@pytest.mark.parametrize("q, prec", [(abs(q), p) for q, p in _KERNEL_CASES if q])
def test_log_kernel_against_mpmath_and_fraction_kernel(q, prec):
    mpmath = pytest.importorskip("mpmath")
    a = BallReal(q, q / (1 << (prec % 50 + 2)))
    with mpmath.workprec(600):
        _check_kernel(mpmath, log_point(q, prec), _ref_log_point(q, prec), mpmath.log,
                      BallReal.exact(q), prec)
        _check_kernel(mpmath, ball_log(a, prec), _ref_hull(_ref_log_point, a, prec),
                      mpmath.log, a, prec)


def _documented_scale(p):
    return p + p.bit_length() + 2


@pytest.mark.parametrize("prec", [5, 40, 82, 200])
def test_kernels_run_at_their_documented_scale(prec):
    """W = p + bitlen(p) + 2, with p = prec + 24 + 2*ceil(q) for exp at
    0 < q <= 1/4 (no halving) and p = prec + 25 for log on [1, 2).  There
    the radii are (2N + 3)/2^W and (4N + 6)/2^W, so their denominators
    show W."""
    for q in (F(1, 3) / 2, F(1, 4), F(1, 7 << 60)):
        w = _documented_scale(prec + 24 + 2)
        assert exp_point(q, prec).rad.denominator == 1 << w
    for q in (F(3, 2), F(1) + F(1, 1 << 70)):
        w = _documented_scale(prec + 25)
        assert log_point(q, prec).rad.denominator == 1 << (w - 1)
