import math
import random
from fractions import Fraction as F

import pytest

from equistate import sphere
from equistate.gauss import GaussRat
from equistate.sphere import (INF, SpherePoint, chordal, chordal_disc_radius, chordal_sq_parts,
                              ideal_enumerate)

S = SpherePoint.finite


def _chordal_sq(z, w):
    return F(*chordal_sq_parts(z, w))


# -- the reference inverse of the ideal-point enumeration ------------------


def _calkin_wilf_index(q: F) -> int:
    """Index of the positive rational q in the breadth-first Calkin--Wilf
    order.  Walks to the root with division-sized strides (runs of equal
    bits are continued-fraction quotients), so deep rationals index fast."""
    a, b = q.numerator, q.denominator
    runs: list[tuple[str, int]] = []
    while (a, b) != (1, 1):
        if a > b:
            k = (a - 1) // b
            a -= k * b
            runs.append(("1", k))
        else:
            k = (b - 1) // a
            b -= k * a
            runs.append(("0", k))
    bits = "".join(bit * count for bit, count in reversed(runs))
    return int("1" + bits, 2)


def _rat_index(q: F) -> int:
    if q == 0:
        return 1
    m = _calkin_wilf_index(abs(q))
    return 2 * m + 1 if q < 0 else 2 * m


def _cantor_pair(i: int, j: int) -> int:
    d = i + j - 2
    return d * (d + 1) // 2 + i


def ideal_index(p: SpherePoint) -> int:
    """Inverse of ideal_enumerate (finite points only)."""
    z = p.as_gauss()
    return _cantor_pair(_rat_index(z.re), _rat_index(z.im))


def _round(q: F, bits: int) -> F:
    """A nearest multiple of 2^-bits to q."""
    return F(round(q * (1 << bits)), 1 << bits)


def test_chordal_closed_forms():
    assert chordal(S(0), INF, 30).mid == 2
    assert _chordal_sq(S(0), S(1)) == 2  # sigma = sqrt(2)
    assert chordal(S(1), S(-1), 30).mid == 2
    assert chordal(S(0), S(0), 30).mid == 0


def test_chordal_radius_contract():
    b = chordal(S(F(1, 3), F(2, 7)), S(5, -2), 40)
    assert b.rad <= F(1, 1 << 40)


def test_chordal_range_and_symmetry():
    rng = random.Random(11)
    for _ in range(40):
        z = S(F(rng.randint(-9, 9), rng.randint(1, 5)),
              F(rng.randint(-9, 9), rng.randint(1, 5)))
        w = S(F(rng.randint(-9, 9), rng.randint(1, 5)),
              F(rng.randint(-9, 9), rng.randint(1, 5)))
        s2 = _chordal_sq(z, w)
        assert 0 <= s2 <= 4
        assert s2 == _chordal_sq(w, z)
        assert (s2 == 0) == (z == w)


def test_triangle_inequality_within_slack():
    rng = random.Random(5)
    for _ in range(25):
        pts = [
            S(F(rng.randint(-6, 6), rng.randint(1, 4)),
              F(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(3)
        ]
        ab = chordal(pts[0], pts[1], 40)
        bc = chordal(pts[1], pts[2], 40)
        ac = chordal(pts[0], pts[2], 40)
        assert ac.lower() <= ab.upper() + bc.upper() + F(1, 1 << 35)


def test_enumeration_base_case():
    assert ideal_enumerate(1) == S(0, 0)


def test_enumeration_no_duplicates_first_100():
    pts = [ideal_enumerate(k) for k in range(1, 101)]
    assert len(set(pts)) == 100


def test_enumeration_index_roundtrip():
    for k in (1, 2, 3, 10, 47, 99, 1234):
        assert ideal_index(ideal_enumerate(k)) == k


def test_cantor_unpair_inverts_the_diagonal_pairing():
    """Every k up to 10^4, and three 200-bit k, come back from the pair
    without any correction of the isqrt estimate."""
    rng = random.Random(200)
    for k in [*range(1, 10 ** 4 + 1), *(rng.getrandbits(200) for _ in range(3))]:
        i, j = sphere._cantor_unpair(k)
        assert i >= 1 and j >= 1 and _cantor_pair(i, j) == k


def test_enumeration_reaches_named_points():
    # surjectivity witnesses: specific rationals appear at their computed index
    for p in (S(0, 0), S(1, 0), S(F(-3, 7), F(22, 5)), S(F(1, 1000), 0)):
        k = ideal_index(p)
        assert ideal_enumerate(k) == p


def test_enumeration_rejects_bad_index():
    with pytest.raises(ValueError):
        ideal_enumerate(0)


def test_ideal_density_constructive():
    """The ideal points are dense: rounding p to 2^-(n+3) (or, for
    infinity, taking 2^(n+1)) gives an enumerated point within 2^-n."""
    rng = random.Random(3)
    for _ in range(10):
        p = S(F(rng.randint(-50, 50), rng.randint(1, 30)),
              F(rng.randint(-50, 50), rng.randint(1, 30)))
        for n in (5, 10, 20):
            z = p.as_gauss()
            k = ideal_index(S(_round(z.re, n + 3), _round(z.im, n + 3)))
            assert _chordal_sq(ideal_enumerate(k), p) < F(1, 1 << (2 * n))
    k = ideal_index(S(1 << 13))
    assert _chordal_sq(ideal_enumerate(k), INF) < F(1, 1 << 24)


# -- the chordal disc radius against the Fraction form it replaced -------------


def _sqrt_floor(q: F, bits: int) -> F:
    scaled = q * (1 << (2 * bits))
    return F(math.isqrt(scaled.numerator // scaled.denominator), 1 << bits)


def _sqrt_ceil(q: F, bits: int) -> F:
    scaled = q * (1 << (2 * bits))
    top = -((-scaled.numerator) // scaled.denominator)
    r = math.isqrt(top)
    return F(r + (r * r < top), 1 << bits)


def _ref_chordal_disc_radius(z: GaussRat, euclid_rad: F, bits: int) -> F:
    if euclid_rad == 0:
        return F(0)
    a2 = z.abs2()
    m = max(_sqrt_floor(a2, bits) - euclid_rad, F(0))
    bound2 = 4 * euclid_rad * euclid_rad / ((1 + a2) * (1 + m * m))
    return min(_sqrt_ceil(bound2, bits), F(2))


def test_chordal_disc_radius_matches_the_fraction_form():
    """Equal to the Fraction form on seeded triples, radii and bits: dyadic
    points as Newton stores them, small exact points, m clamped to 0 (the
    radius reaches past 0) and the cap at 2 (a radius wider than the
    sphere)."""
    rng = random.Random(14)
    seen = {"clamped": 0, "capped": 0}
    for _ in range(3000):
        bits = rng.choice([4, 12, 24, 44, 53, 64, 68, 120])
        kind = rng.randrange(3)
        if kind == 0:
            den = 1 << rng.choice([0, 30, 64, 136])
            z = GaussRat.of(F(rng.randint(-5 * den, 5 * den), den),
                            F(rng.randint(-5 * den, 5 * den), den))
        elif kind == 1:
            z = GaussRat.of(F(rng.randint(-40, 40), rng.randint(1, 9)),
                            F(rng.randint(-40, 40), rng.randint(1, 9)))
        else:
            big = 10 ** rng.randint(3, 12)
            z = GaussRat.of(F(rng.randint(-big, big), rng.randint(1, 7)), F(rng.randint(-9, 9), 5))
        rad = rng.choice([F(0), F(1, 1 << rng.randint(1, 140)),
                          F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)),
                          F(rng.randint(1, 1000)), F(abs(z.x) + 1, z.d)])
        got = chordal_disc_radius(z, rad, bits)
        assert got == _ref_chordal_disc_radius(z, rad, bits), (z, rad, bits)
        assert isinstance(got, F)
        seen["clamped"] += rad > 0 and _sqrt_floor(z.abs2(), bits) < rad
        seen["capped"] += got == 2
    assert min(seen.values()) >= 50, seen
    assert chordal_disc_radius(GaussRat.of(0), F(1), 30) == 2  # sqrt(4), at the cap
    assert chordal_disc_radius(GaussRat.of(0), F(5), 30) == 2
    assert chordal_disc_radius(GaussRat.of(3), F(0), 30) == 0
