"""GaussRat on reduced integer triples against a Fraction-pair reference,
the integer squared distances against the Fraction formulas they replaced,
and `compare_square` against the Fraction sign it decides."""

from fractions import Fraction as F
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equistate.dyadics import ZERO, compare_square, dyadic_numerator
from equistate.gauss import GaussRat, euclid_sq_parts, gauss_ratio, parse_gauss
from equistate.sphere import INF, SpherePoint, chordal_sq_parts


class _Ref:
    """a + b*i on two Fractions, as GaussRat was first written."""

    def __init__(self, re, im):
        self.re, self.im = F(re), F(im)

    def __add__(self, o):
        return _Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Ref(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.abs2()
        return _Ref(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def round_to_dyadic(q, bits):
    """The multiple of 2^-bits nearest q; ties go away from zero."""
    m = floor(abs(q) * (1 << bits) + F(1, 2))
    return F(m if q >= 0 else -m, 1 << bits)


def _ref_chordal_sq(z, w):
    if z is None and w is None:
        return ZERO
    if z is None:
        return F(4) / (1 + w.abs2())
    if w is None:
        return F(4) / (1 + z.abs2())
    return 4 * (z - w).abs2() / ((1 + z.abs2()) * (1 + w.abs2()))


_dens = st.sampled_from((1, 2, 3, 5, 7, 12, 1 << 20, 3 ** 30, (1 << 70) + 1))
_rationals = st.builds(F, st.integers(-(1 << 80), 1 << 80), _dens) | st.builds(
    F, st.integers(-20, 20), st.integers(1, 9))
_pairs = st.tuples(_rationals, _rationals)


def _same(z: GaussRat, ref: _Ref) -> bool:
    """z is canonical and equals the reference value."""
    return (z.d > 0 and gcd(z.x, z.y, z.d) == 1
            and (z.re, z.im) == (ref.re, ref.im)
            and z == GaussRat.of(ref.re, ref.im))


@settings(max_examples=300, deadline=None)
@given(_pairs, _pairs)
def test_ops_match_fraction_pairs(a, b):
    za, zb = GaussRat.of(*a), GaussRat.of(*b)
    ra, rb = _Ref(*a), _Ref(*b)
    assert _same(za, ra) and _same(zb, rb)
    assert _same(za + zb, ra + rb)
    assert _same(za - zb, ra - rb)
    assert _same(-za, _Ref(-ra.re, -ra.im))
    assert _same(za * zb, ra * rb)
    assert za.abs2() == ra.abs2()
    assert F(*euclid_sq_parts(za, zb)) == (ra - rb).abs2() == F(*euclid_sq_parts(zb, za))
    assert complex(za) == complex(ra)
    assert za.is_zero() == (ra.abs2() == 0)
    if rb.abs2() != 0:
        assert _same(za / zb, ra / rb)
        assert _same(zb.inverse(), rb.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            zb.inverse()
        with pytest.raises(ZeroDivisionError):
            za / zb


@settings(max_examples=200, deadline=None)
@given(_pairs, st.integers(-(1 << 40), 1 << 40) | st.just(0), st.integers(1, 1 << 30))
def test_equal_values_have_one_triple_and_one_hash(a, k, m):
    z = GaussRat.of(*a)
    k = k or 1
    w = gauss_ratio(z.x * k, z.y * k, z.d * k)  # any nonzero multiple, either sign
    assert w == z and hash(w) == hash(z) and (w.x, w.y, w.d) == (z.x, z.y, z.d)
    assert (z + GaussRat.of(m) - GaussRat.of(m)) == z
    assert len({z, w, GaussRat.of(z.re, z.im)}) == 1


def test_gauss_ratio_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        gauss_ratio(1, 2, 0)
    assert gauss_ratio(0, 0, -5) == GaussRat(0, 0, 1)


@settings(max_examples=200, deadline=None)
@given(_rationals, st.integers(1, 1 << 20), st.integers(0, 100))
def test_dyadic_numerator_matches_round_to_dyadic(q, k, bits):
    """Also for n/d not in lowest terms, as the root kernel passes them."""
    n, d = q.numerator * k, q.denominator * k
    assert F(dyadic_numerator(n, d, bits), 1 << bits) == round_to_dyadic(q, bits)


@pytest.mark.parametrize("bits", [0, 1, 8, 64])
@pytest.mark.parametrize("m", [0, 1, 2, 5, -1, -2, -7, (1 << 70) + 1])
def test_round_exact_ties_go_away_from_zero(m, bits):
    """(2m + 1) / 2^(bits+1) lies halfway between two multiples of 2^-bits."""
    n, d = 2 * m + 1, 1 << (bits + 1)
    away = m + 1 if m >= 0 else m
    assert (dyadic_numerator(n, d, bits), dyadic_numerator(-n, d, bits)) == (away, -away)
    assert round_to_dyadic(F(n, d), bits) == F(away, 1 << bits)


def test_parse_and_views():
    z = parse_gauss("-6/4+10/15*i")
    assert (z.x, z.y, z.d) == (-9, 4, 6)
    assert (z.re, z.im) == (F(-3, 2), F(2, 3))


@settings(max_examples=300, deadline=None)
@given(st.none() | _pairs, st.none() | _pairs)
def test_chordal_sq_matches_fraction_formula(a, b):
    za = INF if a is None else SpherePoint(GaussRat.of(*a))
    zb = INF if b is None else SpherePoint(GaussRat.of(*b))
    ref = _ref_chordal_sq(None if a is None else _Ref(*a), None if b is None else _Ref(*b))
    assert F(*chordal_sq_parts(za, zb)) == ref == F(*chordal_sq_parts(zb, za))


def _sign(q):
    return (q > 0) - (q < 0)


@settings(max_examples=300, deadline=None)
@given(_rationals, st.integers(1, 1 << 90), _rationals)
def test_compare_square_matches_fraction_sign(q, k, r):
    """Also for n/d not in lowest terms, and on the exact boundary n/d = r^2."""
    n, d = q.numerator * k, q.denominator * k
    assert compare_square(n, d, r) == _sign(q - r * r)
    assert compare_square(r.numerator ** 2 * k, r.denominator ** 2 * k, r) == 0
    assert compare_square(r.numerator ** 2 * k, r.denominator ** 2 * k, -r) == 0
