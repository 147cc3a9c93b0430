import hashlib
import importlib.util
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from equistate import polynomials, ratmap, roots, sphere, thermo
from equistate.balls import BallReal, add_parts, exp_point
from equistate.dyadics import ZERO, discs_apart
from equistate.errors import ExcludedAnchor, ExcludedPoint, PrecisionExhausted
from equistate.gauss import GaussRat, euclid_sq_parts
from equistate.measures import pushforward, wasserstein
from equistate.polynomials import Polynomial, poly_gcd, square_free_decomposition
from equistate.potentials import basis, const, pprod, psum, scale
from equistate.ratmap import RationalMapRec, preimage_perturbation, preimage_polynomial
from equistate.roots import certified_roots
from equistate.serialize import parse_map
from equistate.sphere import INF, SpherePoint, chordal_disc_radius
from equistate.thermo import (
    backward_orbit_measure,
    birkhoff_sum,
    build_preimage_tree,
    empirical_pressure,
    pressure,
    ruelle_apply,
)

S = SpherePoint.finite
Z2 = RationalMapRec(Polynomial.of(0, 0, 1), Polynomial.of(1))
Z2M2 = RationalMapRec(Polynomial.of(-2, 0, 1), Polynomial.of(1))
LOG2 = F(math.log(2)).limit_denominator(10**15)


def overlaps(a, b):
    return a.lower() <= b.upper() and b.lower() <= a.upper()


# -- Birkhoff sums -------------------------------------------------------


def test_birkhoff_zero_steps():
    s = birkhoff_sum(Z2, const(1), S(3), 0)
    assert s.mid == 0 and s.rad == 0


def test_birkhoff_constant():
    c = F(5, 7)
    s = birkhoff_sum(Z2, const(c), S(2), 5)
    assert s.mid == 5 * c and s.rad == 0


def test_birkhoff_fixed_point():
    phi = basis(S(0))
    s = birkhoff_sum(Z2, phi, S(1), 3, 50)
    assert abs(float(s.mid) - 3 * math.sqrt(2)) < 1e-12


# -- Ruelle operator -----------------------------------------------------


def test_ruelle_simple_counts():
    assert ruelle_apply(Z2, None, None, S(0, 1), 1, 30).mid == 2
    assert ruelle_apply(Z2, None, None, S(1), 3, 30).mid == 8


def test_ruelle_weighted_two_terms():
    phi = basis(S(0))
    v = ruelle_apply(Z2, phi, None, S(4), 1, 30)
    s2 = 2 * 2 / math.sqrt(5)  # sigma(+-2, 0)
    expected = 2 * math.exp(s2)
    assert abs(float(v.mid) - expected) < 1e-8
    assert v.rad <= F(1, 1 << 30)


def test_ruelle_builds_one_tree_at_its_budget(monkeypatch):
    """sup phi <= 4 here, so L^5 1 <= 2^5 e^20 needs eval_prec >= 60: the
    first attempt at (l, eval_prec) = (38, 41) would be thrown away."""
    phi = psum(basis(S(0)), scale(F(1, 2), pprod(basis(S(1)), basis(S(0, 1)))))
    builds = []
    build = thermo.build_preimage_tree

    def counting(f, x, depth, l, phi=None, eval_prec=60):
        builds.append((l, eval_prec))
        return build(f, x, depth, l, phi, eval_prec)

    monkeypatch.setattr(thermo, "build_preimage_tree", counting)
    v = ruelle_apply(Z2M2, phi, None, S(0), 5, 20)
    assert builds == [(76, 82)]
    assert v.rad <= F(1, 1 << 20)


def _ruelle_retry(monkeypatch, fail):
    """L^3 1(1/2) under z^2 - 2 and phi = sigma(., 0)/2 at 2^-30, with
    the first attempt failed by `fail`: the tree builds' (l, eval_prec),
    and the ball checked against the mpmath sum over the true preimages."""
    mpmath = pytest.importorskip("mpmath")
    oracles = _oracles(monkeypatch)
    phi = scale(F(1, 2), basis(S(0)))
    builds = []
    build = thermo.build_preimage_tree

    def recording(f, x, depth, l, phi=None, eval_prec=60):
        builds.append((l, eval_prec))
        if len(builds) == 1 and fail == "build":
            raise PrecisionExhausted("the first tree")
        return build(f, x, depth, l, phi, eval_prec)

    monkeypatch.setattr(thermo, "build_preimage_tree", recording)
    if fail == "radius":
        sum_parts = thermo._sum_parts

        def loose(weights):
            total, rad, den = sum_parts(weights)
            return (total, den, den) if len(builds) == 1 else (total, rad, den)

        monkeypatch.setattr(thermo, "_sum_parts", loose)
    v = ruelle_apply(Z2M2, phi, None, S(F(1, 2)), 3, 30)
    assert v.rad <= F(1, 1 << 30)
    with mpmath.workdps(200):
        leaves = oracles.true_tree_leaves([-2, 0, 1], [1], oracles.mpz(F(1, 2), F(0)), 3,
                                          lambda z: oracles.chordal_mp(z, 0) / 2)
        exact = mpmath.fsum(d * mpmath.exp(t) for _, d, t in leaves)
        assert oracles.ball_contains(v.mid, v.rad, exact)
    return builds


def test_ruelle_retries_a_failed_tree_at_twice_l_alone(monkeypatch):
    """A tree that exhausts its precision is regrown at twice l; eval_prec,
    which only sets the leaf sums' rounding, stays."""
    (l, e), *rest = _ruelle_retry(monkeypatch, "build")
    assert rest == [(2 * l, e)]


def test_ruelle_retries_a_loose_sum_at_twice_both_precisions(monkeypatch):
    """A sum whose radius misses 2^-n is redone at twice l and eval_prec."""
    (l, e), *rest = _ruelle_retry(monkeypatch, "radius")
    assert rest == [(2 * l, 2 * e)]


def test_ruelle_rejects_negative_precision():
    with pytest.raises(ValueError, match="precision n must be nonnegative"):
        ruelle_apply(Z2, None, None, S(3), 1, -1)


@pytest.mark.parametrize("phi", [None, basis(S(0))], ids=["none", "basis"])
def test_ruelle_rejects_a_negative_step_count(phi, monkeypatch):
    """A negative m is refused, naming m, before any tree is built."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a preimage tree was built")

    monkeypatch.setattr(thermo, "build_preimage_tree", unreachable)
    with pytest.raises(ValueError, match="step count m must be nonnegative, got -1"):
        ruelle_apply(Z2, phi, None, S(3), -1, 20)


def test_ruelle_excluded_point():
    with pytest.raises(ExcludedPoint):
        ruelle_apply(Z2, None, None, INF, 1, 20)


def test_ruelle_constant_potential_collapse():
    c = F(1, 3)
    for m in (1, 2, 3):
        v = ruelle_apply(Z2, const(c), None, S(3), m, 40)
        closed = exp_point(m * c, 50).scale(2 ** m)
        assert overlaps(v, closed)


def test_ruelle_semigroup_small_depth():
    """L^2(1) agrees with summing e^phi * L^1(1) over first preimages."""
    phi = scale(F(1, 2), basis(S(1)))
    x = S(3)
    direct = ruelle_apply(Z2, phi, None, x, 2, 28)
    tree = build_preimage_tree(Z2, x, 1, 50, phi)
    total = BallReal.exact(0)
    from equistate.balls import ball_exp

    for leaf in tree.leaves():
        inner = ruelle_apply(Z2, phi, None, leaf.point, 1, 40)
        weight = ball_exp(phi.evaluate_with_displacement(
            leaf.point, leaf.chordal_err, 40), 40)
        total = total + (inner * weight).scale(leaf.degree_product)
        # widen by the displacement's effect on the inner evaluation:
        # the inner L^1 value is 2-Lipschitz-ish in the anchor here, and
        # displacements are ~2^-50, far below the assertion slack.
    assert overlaps(direct, total.widen(F(1, 1 << 20)))


@pytest.mark.parametrize("phi", [None, scale(F(1, 2), basis(S(1)))], ids=["none", "sigma"])
def test_ruelle_constant_u_scales_the_ball_exactly(phi):
    """u = const(c) with |c| <= 1 multiplies mid and radius by c and |c|."""
    for x in (S(0), S(F(1, 2), F(-1, 3))):
        one = ruelle_apply(Z2M2, phi, None, x, 3, 24)
        for c in (F(-3, 4), F(1, 3), F(0)):
            v = ruelle_apply(Z2M2, phi, const(c), x, 3, 24)
            assert v.mid == c * one.mid and v.rad == abs(c) * one.rad


def test_ruelle_basis_u_encloses_the_mpmath_sum(monkeypatch):
    """L^3(sigma(., 1))(x) under phi = sigma(., 0)/2 holds the sum over the
    true preimages, computed with mpmath at 200 digits."""
    mpmath = pytest.importorskip("mpmath")
    oracles = _oracles(monkeypatch)
    phi, u = scale(F(1, 2), basis(S(0))), basis(S(1))
    with mpmath.workdps(200):
        for x in (F(0), F(1, 2), F(-1)):
            v = ruelle_apply(Z2M2, phi, u, S(x), 3, 30)
            assert v.rad <= F(1, 1 << 30)
            leaves = oracles.true_tree_leaves([-2, 0, 1], [1], oracles.mpz(x, F(0)), 3,
                                              lambda z: oracles.chordal_mp(z, 0) / 2)
            exact = mpmath.fsum(d * oracles.chordal_mp(y, 1) * mpmath.exp(s)
                                for y, d, s in leaves)
            assert oracles.ball_contains(v.mid, v.rad, exact), x


def test_tree_and_ruelle_stay_on_integer_balls(monkeypatch):
    """The tree, `ruelle_apply` (with u or not) and the weighted
    `backward_orbit_measure` call neither `ball_exp`, `ball_sum` nor
    `evaluate_with_displacement`, and `ruelle_apply` builds one `BallReal`."""
    from equistate import balls, potentials

    calls, built = [], []
    for owner, name in ((balls, "ball_exp"), (balls, "ball_sum"), (thermo, "ball_exp"),
                        (thermo, "ball_sum"),
                        (potentials.Potential, "evaluate_with_displacement")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: calls.append(name),
                            raising=False)
    monkeypatch.setattr(thermo, "BallReal", lambda *args: built.append(args) or BallReal(*args))
    build_preimage_tree(Z2M2, S(3), 3, 48, BENCH_PHI, 58)
    backward_orbit_measure(Z2M2, BENCH_PHI, S(3), 3)
    assert not built
    for u in (None, basis(S(1))):
        ruelle_apply(Z2M2, BENCH_PHI, u, S(F(1, 2)), 3, 20)
        assert len(built) == 1
        built.clear()
    assert calls == []


# -- pressure ------------------------------------------------------------


def test_pressure_z2_log2():
    res = pressure(Z2, const(0), 8, c0=F(1), R=F(0))
    assert res.value.rad <= F(1, 1 << 8)
    assert res.value.contains(LOG2)


def test_pressure_doubles_its_evaluation_bits(monkeypatch):
    """L 1 = 2 e^-40, about 2^-56.7: the first sum, asked for 2^-11, has
    a radius 2.6% of its value, so its log misses 2^-8, and the second,
    at 21 bits, reaches it."""
    calls = []
    apply = thermo.ruelle_apply

    def recording(f, phi, u, x, m, n):
        calls.append(n)
        return apply(f, phi, u, x, m, n)

    monkeypatch.setattr(thermo, "ruelle_apply", recording)
    res = pressure(Z2, const(-40), 8, c0=F(1), R=F(0))
    assert calls == [11, 21]
    assert res.value.rad <= F(1, 1 << 8)
    assert res.value.contains(LOG2 - 40)


def test_pressure_z2m2_log2():
    res = pressure(Z2M2, const(0), 8, c0=F(1), R=F(0))
    assert res.value.contains(LOG2)


def test_pressure_constant_shift():
    base = pressure(Z2, const(0), 10, c0=F(1), R=F(0))
    for c in (F(-1), F(1, 2), F(1)):
        shifted = pressure(Z2, const(c), 10, c0=F(1), R=F(0))
        diff = shifted.value - base.value
        assert diff.contains(c)


def test_pressure_z2_anchor_avoids_exceptional_point():
    """0 is totally invariant under z^2, so an anchor there never samples
    the Julia set (the unit circle, where sigma(., 0) = sqrt 2)."""
    res = pressure(Z2, scale(F(1, 8), basis(S(0))), 1, c0=F(1), R=F(1, 8))
    assert res.anchor != S(0)
    assert res.value.contains(F(math.log(2) + math.sqrt(2) / 8))


def test_anchor_clears_the_orbit_of_infinity_strictly(monkeypatch):
    """z/(z^2 + 1) sends inf to 0, which has two preimages, so only the
    clearance skips 0.  z^2 - z fixes inf, and sigma(0, inf) = 2 exactly:
    at clearance 2 no ideal point clears inf, just below it 0 does."""
    assert thermo._select_anchor(RationalMapRec(Polynomial.of(0, 1), Polynomial.of(1, 0, 1)),
                                 3) == S(0, 1)
    f = RationalMapRec(Polynomial.of(0, -1, 1), Polynomial.of(1))
    monkeypatch.setattr(thermo, "_ANCHOR_CLEARANCE", 2 - F(1, 1 << 80))
    assert thermo._select_anchor(f, 3) == S(0)
    monkeypatch.setattr(thermo, "_ANCHOR_CLEARANCE", F(2))
    with pytest.raises(ExcludedAnchor):
        thermo._select_anchor(f, 3)


def test_pressure_refuses_oversized_N():
    phi = basis(S(0))  # Hoelder bound 1
    with pytest.raises(PrecisionExhausted):
        pressure(Z2, phi, 8, c0=F(1), R=F(1))  # needs N = 513


def test_pressure_empirical_mode():
    res = empirical_pressure(Z2, const(0), 8)
    assert abs(float(res.value.mid) - math.log(2)) < 2e-3


# -- backward orbit measures ----------------------------------------------


def test_backward_depth2_fourth_roots():
    mu = backward_orbit_measure(Z2, None, S(1), 2)
    assert mu.atom_error == 0
    assert {p for p, _ in mu.atoms} == {S(1), S(-1), S(0, 1), S(0, -1)}
    assert all(w == F(1, 4) for _, w in mu.atoms)


def test_backward_depth1_weighted():
    mu = backward_orbit_measure(Z2, None, S(4), 1)
    assert mu.atoms == ((S(-2), F(1, 2)), (S(2), F(1, 2)))


def test_backward_weighted_potential():
    phi = basis(S(1))
    mu = backward_orbit_measure(Z2, phi, S(4), 1)
    ws = {p: w for p, w in mu.atoms}
    w2, wm2 = ws[S(2)], ws[S(-2)]
    assert w2 + wm2 == 1
    # ratio e^{sigma(2,1)} / e^{sigma(-2,1)}: sigma(-2,1) is larger
    s_p = 2 * 1 / math.sqrt(5 * 2)
    s_m = 2 * 3 / math.sqrt(5 * 2)
    assert abs(float(w2 / wm2) - math.exp(s_p - s_m)) < 1e-6


@pytest.mark.parametrize("phi", [None, psum(basis(S(1)), scale(F(-1, 3), basis(S(0, 1))))],
                         ids=["zero", "nonconstant"])
def test_backward_orbit_measure_is_a_probability_measure(phi):
    """The renormalised weights sum to exactly 1, with or without a
    potential: the measure is fit for the probability-only checks."""
    mu = backward_orbit_measure(Z2M2, phi, S(3), 4)
    assert len(mu) == 16 and mu.total == 1


def test_backward_pushforward_consistency_exact_tree():
    mu2 = backward_orbit_measure(Z2, None, S(1), 2)
    mu1 = backward_orbit_measure(Z2, None, S(1), 1)
    assert pushforward(mu2, Z2.apply).atoms == mu1.atoms


def test_backward_excluded():
    with pytest.raises(ExcludedPoint):
        backward_orbit_measure(Z2, None, INF, 2)


def test_backward_depth_measures_converge():
    """W(mu_m, mu_{m+1}) decreasing for z^2: Cauchy behavior near the circle."""
    mus = [backward_orbit_measure(Z2, None, S(3), m) for m in (2, 3, 4, 5)]
    dists = [
        float(wasserstein(a, b, 25).upper())
        for a, b in zip(mus, mus[1:])
    ]
    assert dists[0] > dists[-1]
    assert dists[-1] < 0.3


# -- soundness of the tree displacement -------------------------------------

RAT = RationalMapRec(Polynomial.of(1, 0, 1), Polynomial.of(-1, 0, 1))


def _oracles(monkeypatch):
    """perfbench's independent tree oracles, at 200 digits."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    monkeypatch.setattr(oracles, "DPS", 200)
    return oracles


@pytest.mark.parametrize("f, num, den", [
    (Z2M2, [-2, 0, 1], [1]),
    (RAT, [1, 0, 1], [-1, 0, 1]),
])
@pytest.mark.parametrize("depth, l", [(6, 52), (5, 12)])
def test_tree_levels_hold_mpmath_preimages(monkeypatch, f, num, den, depth, l):
    """Anchor 3 puts the parents in the den - num/x chart.  On every level
    each stored point lies within the level's largest chordal error of a
    distinct true preimage, computed with mpmath at 200 digits."""
    mpmath = pytest.importorskip("mpmath")
    oracles = _oracles(monkeypatch)
    tree = build_preimage_tree(f, S(3), depth, l)
    with mpmath.workdps(mpmath.mp.dps):  # the oracles set mp.dps
        for k, level in enumerate(tree.levels[1:], 1):
            leaves = oracles.true_tree_leaves(num, den, mpmath.mpf(3), k)
            atoms = [(n.point.as_gauss().re, n.point.as_gauss().im) for n in level]
            err = max(n.chordal_err for n in level)
            assert oracles.check_tree_atoms(atoms, err, leaves) == [], (k, err)


def test_preimage_perturbation_bounds_the_true_polynomial():
    """For x' within delta of x the polynomial of x' in x's chart is
    g + c*P with |c| <= eps, checked exactly on both charts."""
    rng = random.Random(8)
    G = GaussRat.of
    for f in (Z2M2, RAT):
        for _ in range(100):
            x = G(F(rng.randint(-40, 40), rng.randint(1, 12)), F(rng.randint(-40, 40), 7))
            delta = F(rng.randint(1, 60), 64)  # < 1, so x' != 0 when |x| > 1
            P, eps = preimage_perturbation(f, S(x.re, x.im), delta, 40)
            g = preimage_polynomial(f, S(x.re, x.im))
            for _ in range(4):
                x2 = x + G(delta * F(rng.randint(-10, 10), 15), delta * F(rng.randint(-10, 10), 15))
                if x.abs2() <= 1:
                    c = x - x2
                    g2 = f.num - f.den * Polynomial.of(x2)
                else:
                    c = x.inverse() - x2.inverse()
                    g2 = f.den - f.num * Polynomial.of(x2.inverse())
                assert g2 == g + P * Polynomial.of(c)
                assert c.abs2() <= eps * eps
    assert preimage_perturbation(Z2M2, S(F(3, 2)), F(3, 2), 40) is None  # x' may be 0
    assert preimage_perturbation(Z2M2, INF, ZERO, 40) == (Polynomial.zero(), ZERO)


@pytest.mark.parametrize("f, x", [
    (Z2M2, GaussRat.of(3)), (Z2M2, GaussRat.of(F(1, 3), F(-1, 2))),
    (RAT, GaussRat.of(F(-5, 2), F(7, 3))), (RAT, GaussRat.of(F(2, 7), F(1, 5))),
])
def test_displacement_reaches_the_moved_preimages(f, x):
    """Move the parent by delta = 2^-20 in eight directions: every stored
    child of the old parent has a root of the moved polynomial within the
    displacement bound, which is far larger than the Newton radius."""
    mpmath = pytest.importorskip("mpmath")
    delta, bits = F(1, 1 << 20), 68
    g = preimage_polynomial(f, S(x.re, x.im))
    P, eps = preimage_perturbation(f, S(x.re, x.im), delta, bits)
    children = [cl.midpoint for cl in certified_roots(g, 60)]
    bounds = [thermo._perturbed_child_displacement(g, P, z, eps, bits, thermo._abs2_at(g, z))
              for z in children]
    assert all(b > 2 ** -40 for b in bounds)
    with mpmath.workdps(50):
        for u in (GaussRat.of(*uv) for uv in ((1, 0), (-1, 0), (0, 1), (0, -1),
                                              (F(3, 5), F(4, 5)), (F(-3, 5), F(4, 5)),
                                              (F(3, 5), F(-4, 5)), (F(-4, 5), F(-3, 5)))):
            moved = x + u * GaussRat.of(delta)
            q = f.num - f.den * Polynomial.of(moved)
            roots = mpmath.polyroots([mpmath.mpc(mpmath.mpf(c.x) / c.d, mpmath.mpf(c.y) / c.d)
                                      for c in reversed(q.coeffs)], extraprec=100)
            for z, b in zip(children, bounds):
                w = mpmath.mpc(mpmath.mpf(z.x) / z.d, mpmath.mpf(z.y) / z.d)
                assert min(abs(r - w) for r in roots) <= mpmath.mpf(b.numerator) / b.denominator


def _sqrt_floor(q: F, bits: int) -> F:
    scaled = q * (1 << (2 * bits))
    return F(math.isqrt(scaled.numerator // scaled.denominator), 1 << bits)


def _sqrt_ceil(q: F, bits: int) -> F:
    scaled = q * (1 << (2 * bits))
    top = -((-scaled.numerator) // scaled.denominator)
    r = math.isqrt(top)
    return F(r + (r * r < top), 1 << bits)


def _ref_displacement(g, p, z, eps, bits):
    """The displacement bound on Fractions and `Polynomial` evaluation."""
    g_at = _sqrt_ceil(g(z).abs2(), bits)
    dg_at = _sqrt_floor(g.derivative()(z).abs2(), bits)
    p_at = _sqrt_ceil(p(z).abs2(), bits)
    dp_at = _sqrt_ceil(p.derivative()(z).abs2(), bits)
    denom = dg_at - eps * dp_at
    if denom <= 0:
        return None
    return g.degree * (g_at + eps * p_at) / denom


def test_displacement_matches_the_fraction_form():
    """Equal to the Fraction form, None included, on seeded polynomials,
    points, eps and bits: at certified roots and at random points, with P
    zero (an exactly stored parent), of degree 0 and of higher degree."""
    rng = random.Random(14)
    G = GaussRat.of

    def coeff():
        return G(F(rng.randint(-9, 9), rng.randint(1, 6)), F(rng.randint(-9, 9), rng.randint(1, 6)))

    def poly(degree):
        lead = G(F(rng.randint(1, 9), rng.randint(1, 4)))
        return Polynomial.of(*(coeff() for _ in range(degree)), lead)

    seen = {"zero P": 0, "constant P": 0, "higher P": 0, "None": 0}
    for _ in range(150):
        g = poly(rng.randint(1, 4))
        points = [cl.midpoint for cl in certified_roots(g, rng.choice([8, 30, 60]))]
        points += [coeff(), G(F(rng.randint(-1 << 70, 1 << 70), 1 << 68))]
        for z in points:
            kind = rng.randrange(3)
            if kind == 0:  # an exactly stored parent
                p, eps = Polynomial.zero(), F(0)
            else:
                p = poly(0 if kind == 1 else rng.randint(1, 3))
                eps = rng.choice([F(0), F(1, 1 << rng.randint(1, 80)),
                                  F(rng.randint(1, 99), rng.randint(1, 99))])
            bits = rng.choice([4, 16, 40, 68, 120])
            got = thermo._perturbed_child_displacement(g, p, z, eps, bits, thermo._abs2_at(g, z))
            assert got == _ref_displacement(g, p, z, eps, bits), (g, p, z, eps, bits)
            seen[("zero P", "constant P", "higher P")[kind]] += 1
            seen["None"] += got is None
    assert min(seen.values()) >= 20, seen


def test_meeting_sibling_discs_exhaust_precision(monkeypatch):
    """A displacement that lets the discs of +-sqrt(5) meet cannot be
    matched one-to-one with the true preimages."""
    monkeypatch.setattr(thermo, "_perturbed_child_displacement", lambda *args: F(3))
    with pytest.raises(PrecisionExhausted, match="sibling preimage discs meet"):
        build_preimage_tree(Z2M2, S(3), 1, 30)


# -- pinned trees --------------------------------------------------------------

# The potential of the benchmark's `pressure` workload.
BENCH_PHI = psum(basis(S(0)), scale(F(1, 2), pprod(basis(S(1)), basis(S(0, 1)))))

# SHA-256 of every node (point, euclid_err, chordal_err, degree_product,
# and the phi sum's mid and radius as reduced Fractions) of the depth-4
# trees below, recorded with preimage polynomials built by `Polynomial`
# arithmetic and denominators cleared per use.  Anchors: one inside the
# unit disc, one outside, and 3/5 + 4/5 i on the circle, so every tree
# uses both charts.
_TREE_GOLDEN = {
    ("z^2", False): ("84bb89900c8f06ba581d1436812af8635093ea1f7403b94c0e68195e66b91ab9",
                     "a8d5f0a4f0c2617994a77ff8bd67e6e1da01acca583de6b0855ea7d0193fb5a6",
                     "989b533e5a7011aab176cdb2bb1bf6473673a82a61cc075a4b55fc6b1bfd10c3"),
    ("z^2", True): ("65d3dd4866451d56db95b78fb77b050b157d054e90699a9573b465926d5aeec4",
                    "4b68afcd30537491389a629c5b5572920b734606271156743f64107a04a95d48",
                    "70082366c5b6f81586f7c34b0ea900aa2ee3712d65b0611f2e37c295ca2d1c7b"),
    ("z^2-2", False): ("01db56e344f2b058a0aa3ec81221601f198f72dab9f1a5aea00f086502a91df0",
                       "8f18889c47dcbc0e1183187b49f81f2ee9e50ed360ae4ae58b8a7eabd61264bd",
                       "83a5cf2b116879ac8760118a869071ee912d3e836c41a5d2b37f5a3f87ab35b6"),
    ("z^2-2", True): ("eb13f09239a131758e6cfa49569615d6f7f8ca34ddf31e0c02b2c813fada2ad4",
                      "0b6f66e99c9af84b6d41a5ede30c4f2493c0926613ac99343d45864abe286620",
                      "1e746dc5f183793b6a9cfd9bb51925fc6e496ded54027ae3bc3439f2494ea44f"),
    ("(z^2+1)/(z^2-1)", False): (
        "8e97e35db0f72e1b649da739bc228d94ce94b5262f98a84c10464ebc17a3c6a2",
        "c7a9bab0bce2b9ff67b074ed29f0aa9ca9aa3d597e7da9be927217ad4ebaace4",
        "5426dff46e285cd0c720efaff5d74192ca3a65ffe7cf18623eb28cd2eb0a10e7"),
    ("(z^2+1)/(z^2-1)", True): (
        "3fbd01a4d724d58ddcfb4318f9de0206f834703157743c21ecc58b7c7e336394",
        "3f6dc6f2377e69c841b30e264786e5628d23545f0893dd280a81eda25d17c758",
        "f636ef29d08cce0499b655519b1003b15a9c7414062f03d34efbae2e2b0b43b3"),
}


def _tree_digest(tree) -> str:
    h = hashlib.sha256()
    for k, level in enumerate(tree.levels):
        for n in level:
            z = n.point.value
            pt = "inf" if z is None else f"{z.x},{z.y},{z.d}"
            m, r, d = n.phi_sum
            h.update(f"{k};{pt};{n.euclid_err};{n.chordal_err};{n.degree_product};"
                     f"{F(m, d)};{F(r, d)}\n".encode())
    return h.hexdigest()


def _pinned_anchors(seed):
    rng = random.Random(seed)
    inner = S(F(rng.randint(-5, 5), rng.randint(8, 12)), F(rng.randint(-5, 5), rng.randint(8, 12)))
    outer = S(F(rng.randint(5, 30), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
    return [inner, outer, S(F(3, 5), F(4, 5))]


@pytest.mark.parametrize("expr, with_phi", sorted(_TREE_GOLDEN))
def test_tree_nodes_match_pinned_digests(expr, with_phi):
    f = parse_map(expr)
    got = tuple(_tree_digest(build_preimage_tree(f, x, 4, 48, BENCH_PHI if with_phi else None, 58))
                for x in _pinned_anchors(len(expr)))
    assert got == _TREE_GOLDEN[expr, with_phi]


@pytest.mark.parametrize("expr", ["z^2-2", "(z^2+1)/(z^2-1)"])
def test_tree_reads_node_polynomials_only_through_their_integer_form(monkeypatch, expr):
    """Polynomials are read through their form (C, m) alone by map parsing
    and `RationalMapRec`, by the tree level, the root solve and the
    displacement in depth-4 trees at an anchor inside the unit circle and
    one outside it, by `poly_gcd`, by Yun, and by `certified_roots` on a
    double root, which takes the Yun fallback: a `coeffs` property that
    records each read sees none until the test reads it itself."""
    reads, yun = [], []
    view = Polynomial.__dict__["coeffs"]
    monkeypatch.setattr(Polynomial, "coeffs",
                        property(lambda p: reads.append(p) or view.__get__(p, Polynomial)))
    monkeypatch.setattr("equistate.roots.square_free_decomposition",
                        lambda p: yun.append(p) or square_free_decomposition(p))
    f = parse_map(expr)
    RationalMapRec(f.num, f.den)
    inner, outer, _ = _pinned_anchors(len(expr))
    assert abs(complex(inner.as_gauss())) < 1 < abs(complex(outer.as_gauss()))
    for x in (inner, outer):
        build_preimage_tree(f, x, 4, 48)
    g = preimage_polynomial(f, inner)
    gcd = poly_gcd(g, g.derivative())
    factors = square_free_decomposition(g * g)
    clusters = certified_roots(g * g, 20)
    assert not reads and len(yun) == 1
    assert gcd == Polynomial.of(1) and factors == [(g.monic(), 2)]
    assert [c.multiplicity for c in clusters] == [2, 2] and reads


# -- pinned results ------------------------------------------------------------
#
# SHA-256 of results recorded when the phi sums and the leaf weights were
# still `BallReal` arithmetic (`BallReal` addition, `ball_exp`, `scale` and
# `ball_sum`): integer balls must reproduce them digit for digit.

_PIN_PHIS = {"bench": BENCH_PHI, "third": const(F(1, 3)), "sigma1": pprod(basis(S(1)), const(-3))}

_RUELLE_PINS = {
    "bench": "7efbcd356cb5379f8784ebbbde103a64aefdafa18b5d27183ed815030339553a",
    "const": "7e57c9954c610b7d8da6397b08004f3a20fcd3752651e03f33e41e64bba420a9",
    "none": "e2225208262447ec901cdfa7a174d0c037db12dd760908260a12d63fe441dbcd",
}

_ORBIT_PINS = {
    ("z^2", "bench"): "3a6cafb92449d2b44cd84aba3e6f96a66e0894fe89a6fb5bd4305d89eacfe512",
    ("z^2", "third"): "431a0cbdef819e61df1c9293a1f922bf3b7c7c474798a94c5b0d9f74c6750b82",
    ("z^2", "sigma1"): "91553977622c5a7a27b0c92468e2061803fc2ef1c6218fd31016346700de0de0",
    ("z^2-2", "bench"): "cd7957cd0475ca08fedccce3bd8a6beb0bfa8f15e454471798b35391ed1f662b",
    ("z^2-2", "third"): "00c0fcf542f988c4155bdbf0babbd9492d6b4a8842dddab5fd7a7f5dac7e8126",
    ("z^2-2", "sigma1"): "c0b942bef7736c54c7302903790132d3d4e6617a841d705685984160b4ad9682",
    ("(z^2+1)/(z^2-1)", "bench"):
        "b06f02d3a66ca37bb343584addb146b383ef462f4a45fb3acd6e4c650fb42855",
    ("(z^2+1)/(z^2-1)", "third"):
        "26f652c2e6f1a1062894185b0079dc8b7ad84c4ffafaf07bb5357c33491f7b1d",
    ("(z^2+1)/(z^2-1)", "sigma1"):
        "9714e6b7e8a5cf62a8d3806b765933fcbe3f524cd04cde83f5a15efc5ff55d65",
}

_PRESSURE_PIN = "608bff24578c1aec8d36a735111aa67a0e9780d157cca5ef603d7827e0963ca8"
# Recorded when `empirical_pressure` grew one tree and tested the leaf sum's
# relative radius; `test_empirical_pressure_keeps_N_and_anchor` backs it.
_EMPIRICAL_PIN = "1cd0c319e7048158293916bb93a836e4d4b6e458ea0bbd4bde38a30bd40f53f7"
_RUELLE_U_PIN = "ede3be4131dd5f8691c79309dff971daa513417041d33e035845ac72af560af0"


def _point_text(p):
    z = p.value
    return "inf" if z is None else f"{z.x},{z.y},{z.d}"


def _sha(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


@pytest.mark.parametrize("phi_name", sorted(_RUELLE_PINS))
def test_ruelle_matches_pinned_digest(phi_name):
    """The benchmark's three `ruelle_apply` calls (z^2 - 2, m = 5, n = 20)."""
    phi = {"bench": BENCH_PHI, "const": const(F(-2, 7)), "none": None}[phi_name]
    balls = [ruelle_apply(Z2M2, phi, None, S(x), 5, 20) for x in (F(0), F(1, 2), F(-1))]
    assert _sha(f"{b.mid};{b.rad}" for b in balls) == _RUELLE_PINS[phi_name]


def test_ruelle_with_u_matches_pinned_digest():
    balls = [ruelle_apply(Z2M2, phi, u, S(x), 3, 20)
             for phi in (BENCH_PHI, None) for u in (const(F(-5, 3)), basis(S(1)))
             for x in (F(0), F(1, 2))]
    assert _sha(f"{b.mid};{b.rad}" for b in balls) == _RUELLE_U_PIN


@pytest.mark.parametrize("expr, phi_name", sorted(_ORBIT_PINS))
def test_backward_orbit_measure_matches_pinned_digest(expr, phi_name):
    """Atoms and atom_error at anchor 3 and depths 1, 3 and 5."""
    f = parse_map(expr)
    lines = []
    for depth in (1, 3, 5):
        mu = backward_orbit_measure(f, _PIN_PHIS[phi_name], S(3), depth)
        lines.append(f"{depth};{mu.atom_error}")
        lines += [f"{_point_text(p)};{w}" for p, w in mu.atoms]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _ORBIT_PINS[expr, phi_name]


def _pressure_lines(results):
    return (f"{r.value.mid};{r.value.rad};{r.N_used};{_point_text(r.anchor)}" for r in results)


def test_pressure_matches_pinned_digest():
    """Certified pressures under two constants and sigma(., 0)/8."""
    z2, z2m2 = parse_map("z^2"), parse_map("z^2-2")
    results = [pressure(z2, const(F(1, 3)), 12, c0=F(1), R=F(0)),
               pressure(z2m2, const(F(-1)), 12, c0=F(1), R=F(0)),
               pressure(z2, scale(F(1, 8), basis(S(0))), 1, c0=F(1), R=F(1, 8))]
    assert _sha(_pressure_lines(results)) == _PRESSURE_PIN


def test_empirical_pressure_matches_pinned_digest():
    """Two empirical pressures, among them the `pressure` CLI call of the
    benchmark."""
    z2, z2m2 = parse_map("z^2"), parse_map("z^2-2")
    results = [empirical_pressure(z2m2, BENCH_PHI, 4),
               empirical_pressure(z2, _PIN_PHIS["sigma1"], 2)]
    assert _sha(_pressure_lines(results)) == _EMPIRICAL_PIN


# -- empirical pressure from one growing tree ---------------------------------

HALF_SIGMA1 = scale(F(1, 2), basis(S(1)))
# (1 - z^2)/(1 + z^2) sends inf to -1 and -1 to 0, so its anchor is 0 at
# N = 1 and i from N = 2 on, and the tree regrows once.
ANCHOR_MOVES = "(1-z^2)/(1+z^2)"

# The pinned, demo and benchmark calls, `test_pressure_empirical_mode`'s and
# two on rational maps: N_used, the anchor and the mid (to 17 digits) that
# a fresh tree per N gave, with ruelle_apply at the absolute radius
# 2^-(n+6+bitlen N).
_EMPIRICAL_CALLS = {
    ("z^2-2", "bench", 4): (5, S(0), 3.108143507032549),
    ("z^2", "sigma1", 2): (10, S(0, 1), -0.4636019098114975),
    ("z^2", "sigma0", 6): (2, S(0, 1), 2.107360742478529),
    ("z^2", "zero", 8): (2, S(0, 1), 0.6931471805599436),
    ("(z^2+1)/(z^2-1)", "bench", 4): (4, S(0), 3.0966521935721176),
    (ANCHOR_MOVES, "half_sigma1", 3): (3, S(0, 1), 1.3852529665336435),
}
_EMPIRICAL_PHIS = {"bench": BENCH_PHI, "sigma1": _PIN_PHIS["sigma1"], "sigma0": basis(S(0)),
                   "zero": const(0), "half_sigma1": HALF_SIGMA1}
_EMPIRICAL_PHIS_MP = {
    "bench": lambda o, z: o.chordal_mp(z, 0) + o.chordal_mp(z, 1) * o.chordal_mp(z, 1j) / 2,
    "sigma1": lambda o, z: -3 * o.chordal_mp(z, 1),
    "sigma0": lambda o, z: o.chordal_mp(z, 0),
    "zero": lambda o, z: 0,
    "half_sigma1": lambda o, z: o.chordal_mp(z, 1) / 2,
}


def _estimate_encloses_the_oracle(oracles, f, phi_name, res):
    """The ball holds (1/N) log L^N 1(anchor) over the true preimages,
    computed with mpmath at 200 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(200):
        a = res.anchor.as_gauss()
        num, den = ([oracles.mpz(c.re, c.im) for c in p.coeffs] for p in (f.num, f.den))
        total = oracles.transfer_sum(num, den, oracles.mpz(a.re, a.im), res.N_used,
                                     lambda z: _EMPIRICAL_PHIS_MP[phi_name](oracles, z))
        return oracles.ball_contains(res.value.mid, res.value.rad,
                                     mpmath.log(total) / res.N_used)


@pytest.mark.parametrize("expr, phi_name, n", sorted(_EMPIRICAL_CALLS))
def test_empirical_pressure_keeps_N_and_anchor(monkeypatch, expr, phi_name, n):
    """Against a fresh tree per N: the same N_used and anchor, and the mid
    within that N's log target 2^-(n+6+bitlen N)/N; the ball holds the
    oracle's estimate at that N and anchor."""
    pytest.importorskip("mpmath")
    f = parse_map(expr)
    res = empirical_pressure(f, _EMPIRICAL_PHIS[phi_name], n)
    N, anchor, mid = _EMPIRICAL_CALLS[expr, phi_name, n]
    assert (res.N_used, res.anchor) == (N, anchor)
    assert abs(res.value.mid - F(mid)) <= F(1, N << (n + 6 + N.bit_length())) + F(1, 1 << 50)
    assert _estimate_encloses_the_oracle(_oracles(monkeypatch), f, phi_name, res)


@pytest.mark.parametrize("expr", ["z^2", "z^2-2", "(z^2+1)/(z^2-1)"])
@pytest.mark.parametrize("phi", [None, BENCH_PHI], ids=["none", "bench"])
def test_growing_a_tree_equals_building_it(expr, phi):
    """Levels grown one `_grow_level` call at a time equal those of
    `build_preimage_tree`, node for node: points, both errors, degree
    products and phi sums."""
    f = parse_map(expr)
    for x in _pinned_anchors(len(expr)):
        built = build_preimage_tree(f, x, 4, 36, phi, 44)
        level = [thermo._root_node(x)]
        assert built.levels[0] == level
        for k in range(1, 5):
            level = thermo._grow_level(f, level, 36, phi, 44)
            assert level == built.levels[k], (x, k)


def _reference_level(f, parents, l, phi, eval_prec):
    """A tree level from `certified_roots`' clusters, one at a time: per
    cluster the displacement from a `horner_int` pass of its own, the
    chordal radius, the phi sum and the node, and then the siblings'
    Euclidean test."""
    zero_phi = phi is None or phi.is_zero()
    children = []
    for node in parents:
        g = preimage_polynomial(f, node.point)
        clusters = certified_roots(g, l)
        chart = preimage_perturbation(f, node.point, node.euclid_err, l + 8)
        if chart is None:
            raise PrecisionExhausted("stored tree node too close to 0 for its chart")
        p, eps = chart
        siblings = []
        for cl in clusters:
            z = cl.midpoint
            if cl.multiplicity > 1 and node.euclid_err != 0:
                raise PrecisionExhausted("critical branching below an inexactly stored node")
            if cl.multiplicity > 1 or (node.euclid_err == 0 and cl.euclid_rad == 0):
                delta = cl.euclid_rad
            else:
                delta = thermo._perturbed_child_displacement(g, p, z, eps, l + 8,
                                                             thermo._abs2_at(g, z))
                if delta is None:
                    raise PrecisionExhausted("displacement bound degenerated")
                delta = max(delta, cl.euclid_rad)
            chordal_err = chordal_disc_radius(z, delta, l + 4)
            point = SpherePoint(z)
            phi_here = node.phi_sum if zero_phi else add_parts(
                *node.phi_sum, *phi.widened_parts(point, chordal_err, eval_prec))
            siblings.append(thermo.TreeNode(point, delta, chordal_err,
                                            node.degree_product * cl.multiplicity, phi_here))
        for i, a in enumerate(siblings):
            for b in siblings[i + 1:]:
                if not discs_apart(*euclid_sq_parts(a.point.value, b.point.value),
                                   a.euclid_err, b.euclid_err):
                    raise PrecisionExhausted("sibling preimage discs meet")
        children += siblings
    return children


def _grow_like_the_reference(f, x, depth, l, phi, eval_prec):
    """Grow levels from x with `_grow_level`, asserting each equals the
    reference level from the same parents, or raises as it does."""
    level = [thermo._root_node(x)]
    for _ in range(depth):
        try:
            want = _reference_level(f, level, l, phi, eval_prec)
        except PrecisionExhausted as exc:
            with pytest.raises(PrecisionExhausted, match=re.escape(str(exc))):
                thermo._grow_level(f, level, l, phi, eval_prec)
            return level
        assert thermo._grow_level(f, level, l, phi, eval_prec) == want
        level = want
    return level


_REFERENCE_MAPS = ["z^2-2", "z^2", "z^2+i", "(z^2+1)/(z^2-1)", "(z^2-1)/(z^2+1)", "1/z^2",
                   "z^3-3z", "(2z^3+1)/(3z^2)"]


@pytest.mark.parametrize("expr", _REFERENCE_MAPS)
@pytest.mark.parametrize("phi", [None, BENCH_PHI], ids=["none", "bench"])
def test_tree_levels_equal_the_certified_roots_reference(expr, phi):
    """Node for node (point, both errors, degree product, phi sum), a
    level that reads g's values at rung-0 midpoints off the root solve
    equals the level built from each cluster with passes of its own, at
    seeded anchors inside, outside and on the unit circle, so that both
    charts are used."""
    f = parse_map(expr)
    rng = random.Random(expr)
    excluded = f.infinity_orbit(4)
    grown = 0
    for _ in range(4):
        for x in _pinned_anchors(rng.randrange(100)):
            if x in excluded:
                continue
            l = rng.choice([20, 36, 48])
            grown += len(_grow_like_the_reference(f, x, 4 if f.degree == 2 else 3, l, phi, l + 10))
    assert grown >= 8 * f.degree ** 3


@pytest.mark.parametrize("expr, x, degree", [("z^2", S(0), 8), ("z^2-2", S(-2), 2)])
def test_critical_branching_equals_the_reference(expr, x, degree):
    """At an exactly stored critical value the level has a double child,
    which only a later rung of `certified_roots` (through Yun) certifies:
    z^2 keeps 0 as a double preimage of itself, and z^2-2 branches once,
    at -2."""
    leaves = _grow_like_the_reference(parse_map(expr), x, 3, 30, None, 40)
    assert {n.degree_product for n in leaves} == {degree}


def test_siblings_near_infinity_fall_back_to_the_reference(monkeypatch):
    """The preimages +-2^48 of 2^96 + 1 under z^2 are about 2^-47 apart
    chordally, within the 18 * 2^-(l+4) of the integer prefilter at
    l = 42.  The exact chordal radii of rung 0's discs meet, so the level
    is certified on a later rung inside `certified_roots`: Yun runs once,
    and the retries separate the two with 148-bit denominators."""
    yun = []
    monkeypatch.setattr(roots, "square_free_decomposition",
                        lambda p: yun.append(p) or square_free_decomposition(p))
    f, x = Z2, S(2 ** 96 + 1)
    parents = [thermo._root_node(x)]
    assert roots._solve_factors([(preimage_polynomial(f, x), 1)], 42, 0) is None
    level = thermo._grow_level(f, parents, 42, None, 52)
    assert len(yun) == 1
    assert level == _reference_level(f, parents, 42, None, 52)
    assert [n.point.value.d.bit_length() for n in level] == [148, 148]
    mu = backward_orbit_measure(f, None, x, 1)
    assert [p.value.d.bit_length() for p, _ in mu.atoms] == [148, 148]


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("l", [-1, -5])
def test_tree_refuses_a_negative_precision(monkeypatch, depth, l):
    """A negative l is refused before any root solve, at every depth."""
    def refuse(*args):
        raise AssertionError("root solve reached")

    monkeypatch.setattr(thermo, "certified_roots", refuse)
    with pytest.raises(ValueError, match=f"tree precision l must be nonnegative, got {l}"):
        build_preimage_tree(Z2M2, S(3), depth, l)


def test_tree_work_is_one_solve_and_one_radius_per_node(monkeypatch):
    """A depth-10 z^2 tree at anchor 3, l = 60, makes one `certified_roots`
    call per inner node (1,023), none of them through Yun, one chordal
    radius per child (2,046) and 4,090 `horner_int` passes: one Newton
    step per root, whose closed-form seed is already the fixed point, and
    P's pass at each child of an inexactly stored parent.  Eager cluster
    radii or a second solve per node would show."""
    counts = {"solves": 0, "yun": 0, "radii": 0, "horner": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(thermo, "certified_roots", "solves")
    counted(roots, "square_free_decomposition", "yun")
    for module in (thermo, roots, polynomials, ratmap, sphere):
        if hasattr(module, "chordal_disc_radius"):
            counted(module, "chordal_disc_radius", "radii")
        if hasattr(module, "horner_int"):
            counted(module, "horner_int", "horner")
    tree = build_preimage_tree(Z2, S(3), 10, 60)
    assert len(tree.leaves()) == 1024
    assert counts == {"solves": 1023, "yun": 0, "radii": 2046, "horner": 4090}


def test_empirical_pressure_escalates_from_a_low_start(monkeypatch):
    """Started at (l, eval_prec) = (4, 6), levels fail the relative test or
    the tree, the precision doubles and the tree regrows; the estimate
    still holds the oracle's at its N and anchor."""
    pytest.importorskip("mpmath")
    oracles = _oracles(monkeypatch)
    grown = []
    grow = thermo._grow_level
    monkeypatch.setattr(thermo, "_empirical_precision", lambda n, top: (4, 6))
    monkeypatch.setattr(thermo, "_grow_level",
                        lambda f, level, l, phi, e: grown.append(l) or grow(f, level, l, phi, e))
    f = parse_map("z^2-2")
    res = empirical_pressure(f, BENCH_PHI, 4)
    assert grown[0] == 4 and max(grown) > 4
    assert _estimate_encloses_the_oracle(oracles, f, "bench", res)


@pytest.mark.parametrize("expr, phi, n, N, solves", [
    ("z^2-2", BENCH_PHI, 4, 5, 31),
    ("z^2", _PIN_PHIS["sigma1"], 3, 13, 8191),
    (ANCHOR_MOVES, HALF_SIGMA1, 3, 3, 1 + 3 + 4),
], ids=["bench", "z^2-sigma1", "anchor-moves"])
def test_empirical_pressure_solves_each_node_once(monkeypatch, expr, phi, n, N, solves):
    """One growing tree makes d + ... + d^N root solves, 31 and 8191 for
    the benchmark call and for z^2 under -3 sigma(., 1) (a tree per N made
    57 and 16369); when the anchor moves, the tree regrows from it.  Each
    solve is one `certified_roots` call that rung 0 certifies, so Yun
    never runs."""
    calls, yun = [], []
    monkeypatch.setattr(thermo, "certified_roots",
                        lambda g, l: calls.append(l) or certified_roots(g, l))
    monkeypatch.setattr(roots, "square_free_decomposition",
                        lambda p: yun.append(p) or square_free_decomposition(p))
    assert empirical_pressure(parse_map(expr), phi, n).N_used == N
    assert len(calls) == solves and yun == []
