import random
from fractions import Fraction as F

import pytest

from equistate.errors import ExcludedPoint
from equistate.gauss import GaussRat
from equistate.polynomials import Polynomial, poly_gcd, square_free_decomposition
from equistate.ratmap import RationalMapRec, preimage_polynomial, preimages
from equistate.roots import certified_roots
from equistate.serialize import parse_map
from equistate.sphere import INF, SpherePoint, chordal_sq_parts

S = SpherePoint.finite
Z2 = RationalMapRec(Polynomial.of(0, 0, 1), Polynomial.of(1))
Z2M2 = RationalMapRec(Polynomial.of(-2, 0, 1), Polynomial.of(1))
LATTES_LIKE = RationalMapRec(Polynomial.of(1, 0, 1), Polynomial.of(-1, 0, 1))


def poly_from_roots(roots: list[GaussRat]) -> Polynomial:
    p = Polynomial.of(1)
    for r in roots:
        p = p * Polynomial.of(-r, 1)
    return p


# -- polynomial algebra -------------------------------------------------


def test_gcd_and_coprimality_guard():
    p = poly_from_roots([GaussRat.of(1), GaussRat.of(2)])
    q = poly_from_roots([GaussRat.of(2), GaussRat.of(3)])
    g = poly_gcd(p, q)
    assert g.degree == 1 and g(GaussRat.of(2)).is_zero()
    with pytest.raises(ValueError):
        RationalMapRec(p, q)


def test_square_free_decomposition():
    # (z-1)^2 (z+i)
    p = poly_from_roots([GaussRat.of(1), GaussRat.of(1), GaussRat.of(0, -1)])
    parts = square_free_decomposition(p)
    mults = sorted(m for _, m in parts)
    assert mults == [1, 2]


# The GaussRat Euclid and Yun that division, `poly_gcd` and
# `square_free_decomposition` ran before they moved to Gaussian-integer
# pseudo-division: the reference they are checked against.


def _ref_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    dq = a.degree - b.degree
    if dq < 0:
        return Polynomial.zero(), a
    rem, quot = list(a.coeffs), [GaussRat.of(0)] * (dq + 1)
    inv_lead = b.coeffs[-1].inverse()
    for k in range(dq, -1, -1):
        c = quot[k] = rem[b.degree + k] * inv_lead
        for j, u in enumerate(b.coeffs):
            rem[j + k] = rem[j + k] - c * u
    return Polynomial.of(*quot), Polynomial.of(*rem)


def _ref_monic(p: Polynomial) -> Polynomial:
    return p * Polynomial.of(p.coeffs[-1].inverse())


def _ref_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a) if not a.is_zero() else a


def _ref_yun(p: Polynomial) -> list[tuple[Polynomial, int]]:
    p = _ref_monic(p)
    dp = p.derivative()
    a = _ref_gcd(p, dp)
    b, c = _ref_divmod(p, a)[0], _ref_divmod(dp, a)[0]
    out, k = [], 1
    while b.degree >= 1:
        d = c - b.derivative()
        q = _ref_gcd(b, d)
        if q.degree >= 1:
            out.append((q, k))
        b, c = _ref_divmod(b, q)[0], _ref_divmod(d, q)[0]
        k += 1
    return out


def test_division_gcd_and_yun_match_the_gaussrat_reference():
    """Over seeded products of Q(i) linear factors with multiplicities and
    a Gaussian-rational constant: a = q*b + r with deg r < deg b, and the
    quotient, remainder, monic gcd and Yun's factors are the reference's,
    with prod q_k^k = p.monic()."""
    rng = random.Random(23)

    def gauss(lo=-9):
        return GaussRat.of(F(rng.randint(lo, 9), rng.randint(1, 8)),
                           F(rng.randint(-9, 9), rng.randint(1, 8)))

    pool = [gauss() for _ in range(6)]
    for _ in range(120):
        roots = rng.sample(pool, rng.randint(1, 4))
        p = Polynomial.of(gauss(1))
        for r in roots:
            p = p * poly_from_roots([r] * rng.randint(1, 3))
        b = Polynomial.of(gauss(1)) * poly_from_roots(rng.sample(pool, rng.randint(1, 3)))
        for x, y in ((p, b), (b, p), (p, p.derivative()), (p, Polynomial.of(gauss(1)))):
            q, r = x.divmod(y)
            assert x == q * y + r and r.degree < y.degree
            assert (q, r) == _ref_divmod(x, y)
            assert poly_gcd(x, y) == _ref_gcd(x, y)
        factors = square_free_decomposition(p)
        assert factors == _ref_yun(p)
        product = Polynomial.of(1)
        for q, k in factors:
            for _ in range(k):
                product = product * q
        assert product == p.monic()


# -- certified roots ----------------------------------------------------


def test_roots_z2_minus_1():
    clusters = certified_roots(Polynomial.of(-1, 0, 1), 10)
    assert sorted(c.multiplicity for c in clusters) == [1, 1]
    mids = sorted(c.midpoint.re for c in clusters)
    assert mids == [F(-1), F(1)]
    for c in clusters:
        assert c.center.rad <= F(1, 1 << 10)


def test_roots_z3_multiplicity():
    clusters = certified_roots(Polynomial.of(0, 0, 0, 1), 10)
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 3
    assert clusters[0].midpoint == GaussRat.of(0)


def test_roots_constructed_factors():
    z1, z2 = GaussRat.of(1, 1), GaussRat.of(2)
    clusters = certified_roots(poly_from_roots([z1, z2]), 30)
    assert len(clusters) == 2
    for target in (z1, z2):
        hit = [c for c in clusters
               if (c.midpoint - target).abs2() <= c.euclid_rad ** 2]
        assert len(hit) == 1


def test_roots_disjoint_and_sum():
    rng = random.Random(9)
    for _ in range(10):
        roots = [GaussRat.of(F(rng.randint(-6, 6), rng.randint(1, 3)),
                             F(rng.randint(-6, 6), rng.randint(1, 3)))
                 for _ in range(4)]
        p = poly_from_roots(roots)
        clusters = certified_roots(p, 20)
        assert sum(c.multiplicity for c in clusters) == 4
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                zi, zj = clusters[i], clusters[j]
                d2 = F(*chordal_sq_parts(zi.center.center, zj.center.center))
                assert d2 > (zi.center.rad + zj.center.rad) ** 2


# -- rational maps ------------------------------------------------------


def test_apply_basics():
    assert Z2.apply(INF) == INF
    assert Z2.apply(S(2)) == S(4)
    inv = RationalMapRec(Polynomial.of(1), Polynomial.of(0, 0, 1))
    assert inv.apply(INF) == S(0)
    assert inv.apply(S(0)) == INF


@pytest.mark.parametrize("expr", ["z^2", "z^2-2", "(z^2+1)/(z^2-1)", "(z^3+i)/(z-2)",
                                  "(z-1/3)/(2*z^2+i)", "1/z^2", "3/7*z^4"])
def test_apply_matches_num_over_den(expr):
    """One reduction of N conj(D) / |D|^2 gives the point num(z)/den(z)
    gives, on seeded points, poles and zeros, and along short orbits."""
    f = parse_map(expr)

    def reference(p):
        d = f.den(p.value)
        return INF if d.is_zero() else SpherePoint(f.num(p.value) / d)

    rng = random.Random(f"apply-{expr}")
    points = [S(F(rng.randint(-60, 60), rng.randint(1, 30)), F(rng.randint(-60, 60),
                                                            rng.randint(1, 30)))
              for _ in range(60)]
    points += [S(0), S(1), S(-1), S(0, 1), S(2), S(F(1, 3)), S(F(1, 2), F(-1, 2))]
    for p in points[:8]:
        points += f.orbit(p, 4)[1:]
    for p in points:
        if p != INF:
            assert f.apply(p) == reference(p)


@pytest.mark.parametrize("expr", ["3/7*z^4", "(z^3+i)/(z-2)", "z^2-2", "(z^2+1)/(z^2-1)",
                                  "(2*z^2+1)/(3*z^2+i)", "(2/3*z-1)/(5/4*z+i)",
                                  "(z-1/3)/(2*z^2+i)", "1/z^2"])
def test_apply_at_infinity_matches_the_leading_ratio(expr):
    """N and D share one length, deg f + 1, and f(inf) read from their top
    pairs is the leading-ratio rule: inf when deg num > deg den, 0 when
    deg num < deg den, num's leading coefficient over den's otherwise."""
    f = parse_map(expr)
    N, D, _ = f.integer_terms
    assert len(N) == len(D) == f.degree + 1
    dn, dd = f.num.degree, f.den.degree
    expect = (INF if dn > dd else S(0) if dn < dd
              else SpherePoint(f.num.coeffs[-1] / f.den.coeffs[-1]))
    assert f.apply(INF) == f.at_infinity == expect


def test_orbit_has_n_points():
    """[p, ..., f^(n-1)(p)]: empty for n = 0."""
    assert Z2.orbit(S(3), 0) == []
    assert Z2.orbit(S(3), 1) == [S(3)]
    assert Z2.orbit(S(3), 3) == [S(3), S(9), S(81)]
    assert LATTES_LIKE.orbit(INF, 2) == [INF, S(1)]


def test_preimages_z2_examples():
    pre = preimages(Z2, S(1), 20)
    assert sorted(c.midpoint.re for c in pre) == [F(-1), F(1)]
    assert all(c.multiplicity == 1 for c in pre)
    pre0 = preimages(Z2, S(0), 20)
    assert len(pre0) == 1 and pre0[0].multiplicity == 2
    prem2 = preimages(Z2M2, S(-2), 20)
    assert len(prem2) == 1 and prem2[0].multiplicity == 2
    assert prem2[0].midpoint == GaussRat.of(0)


def test_chart_rule_puts_the_unit_circle_in_the_num_chart():
    """|x| <= 1 takes num - x*den, also at |x| = 1 exactly; outside, the
    chart is den - num/x."""
    for x in (S(1), S(F(3, 5), F(-4, 5))):
        assert preimage_polynomial(Z2, x) == Z2.num - Z2.den * Polynomial.of(x.as_gauss())
    x = S(F(3, 5), F(4, 5) + F(1, 1 << 80))
    assert preimage_polynomial(Z2, x) == Z2.den - Z2.num * Polynomial.of(x.as_gauss().inverse())


def _ref_preimage_polynomial(f, x):
    """The chart polynomial by `Polynomial` arithmetic."""
    if x.is_infinity:
        return f.den
    z = x.as_gauss()
    if z.abs2() <= 1:
        return f.num - f.den * Polynomial.of(z)
    return f.den - f.num * Polynomial.of(z.inverse())


@pytest.mark.parametrize("k, expr", enumerate(["(2*z^2+1)/(z^2+3)", "z^2+i", "1/z^2",
                                               "z^3-3/4*z"]))
def test_preimage_polynomial_matches_polynomial_arithmetic(k, expr):
    """Equal to num - x*den or den - num/x built by `Polynomial`
    arithmetic, in both charts, on |x| = 1 and at infinity, with an integer
    form C/m that is the reference's R/n up to a positive factor; f(inf)
    itself is excluded."""
    f = parse_map(expr)
    with pytest.raises(ExcludedPoint):
        preimage_polynomial(f, f.apply(INF))
    rng = random.Random(k)
    points = [INF, S(F(3, 5), F(4, 5)), S(F(-5, 13), F(12, 13)), S(0, -1), S(2), S(0)]
    points += [S(F(rng.randint(-30, 30), rng.randint(1, 9)), F(rng.randint(-30, 30), rng.randint(1, 9)))
               for _ in range(60)]
    charts = set()
    for x in points:
        if x == f.apply(INF):
            continue
        g = preimage_polynomial(f, x)
        ref = _ref_preimage_polynomial(f, x)
        assert g == ref, (expr, x)
        assert g.degree == f.degree, (expr, x)
        (C, m), (R, n) = (g.C, g.m), (ref.C, ref.m)
        assert m > 0 and [(a * n, b * n) for a, b in C] == [(a * m, b * m) for a, b in R]
        charts.add("inf" if x.is_infinity else x.as_gauss().abs2() <= 1)
    assert charts == {True, False} | ({"inf"} if f.apply(INF) != INF else set())


def test_preimages_excluded_point():
    with pytest.raises(ExcludedPoint):
        preimages(Z2, INF, 20)


def test_preimages_of_infinity_when_allowed():
    inv = RationalMapRec(Polynomial.of(1), Polynomial.of(0, 0, 1))  # 1/z^2
    pre = preimages(inv, INF, 20)
    assert len(pre) == 1 and pre[0].multiplicity == 2
    assert pre[0].midpoint == GaussRat.of(0)


def test_preimage_apply_consistency():
    rng = random.Random(4)
    for _ in range(12):
        y = S(F(rng.randint(-5, 5), rng.randint(1, 4)),
              F(rng.randint(-5, 5), rng.randint(1, 4)))
        x = Z2M2.apply(y)
        if x == Z2M2.apply(INF):
            continue
        pre = preimages(Z2M2, x, 30)
        assert sum(c.multiplicity for c in pre) == 2
        # y is within some certified disc
        assert any(
            F(*chordal_sq_parts(c.center.center, y)) <= (c.center.rad + F(1, 1 << 28)) ** 2
            for c in pre
        )


def test_multiplicity_conservation_misc_points():
    rng = random.Random(8)
    for f in (Z2, Z2M2, LATTES_LIKE):
        f_inf = f.apply(INF)
        for _ in range(6):
            x = S(F(rng.randint(-9, 9), rng.randint(1, 4)),
                  F(rng.randint(-9, 9), rng.randint(1, 4)))
            if x == f_inf:
                continue
            pre = preimages(f, x, 25)
            assert sum(c.multiplicity for c in pre) == f.degree


def test_local_degree():
    """Local degrees as the multiplicities of preimage clusters."""
    assert [c.multiplicity for c in preimages(Z2, S(0), 30)] == [2]
    assert [c.multiplicity for c in preimages(Z2, S(9), 30)] == [1, 1]
