import random
from fractions import Fraction as F

import pytest

from equistate.balls import BallReal, ball_sum
from equistate.potentials import (
    basis,
    const,
    holder_bound,
    pprod,
    psum,
    scale,
    upper_bound,
    Potential,
)
from equistate.serialize import potential_from_json, potential_to_json
from equistate.sphere import INF, SpherePoint, chordal, ideal_enumerate

S = SpherePoint.finite


def normal_form(phi):
    """The potential expanded to a sum of products, like terms combined."""
    return list(phi._normal_terms)


def test_holder_bound_single_basis():
    phi = basis(ideal_enumerate(1))
    assert holder_bound(phi) == 1


def test_holder_bound_scaled_product():
    phi = scale(3, pprod(basis(S(0)), basis(S(1))))
    # two factors: 2^(2-1) * 2 * 3 = 12
    assert holder_bound(phi) == 12


def test_holder_bound_constant_is_zero():
    assert holder_bound(const(F(7, 2))) == 0
    assert holder_bound(psum(const(1), const(-1))) == 0


def test_holder_bound_sum_adds():
    phi = psum(basis(S(0)), scale(2, basis(S(1))))
    assert holder_bound(phi) == 3


def test_normal_form_combines_like_terms():
    phi = psum(basis(S(0)), basis(S(0)), const(5))
    nf = normal_form(phi)
    assert (F(5), ()) in nf
    assert (F(2), (S(0),)) in nf
    assert len(nf) == 2


def test_constant_detection():
    assert const(3).constant_value() == 3
    assert psum(const(1), scale(-1, const(1))).constant_value() == 0
    assert basis(S(0)).constant_value() is None


def test_evaluate_const_and_basis():
    phi = psum(const(1), scale(2, basis(S(0))))
    v = phi.evaluate(S(1), 40)
    d = chordal(S(1), S(0), 44)
    assert abs(v.mid - (1 + 2 * d.mid)) <= v.rad + 2 * d.rad + F(1, 1 << 30)


def test_evaluate_with_displacement_widens():
    phi = basis(S(0))
    tight = phi.evaluate(S(1), 40)
    wide = phi.evaluate_with_displacement(S(1), F(1, 16), 40)
    assert wide.rad >= tight.rad + F(1, 16)


def _random_potential(rng):
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [basis(ideal_enumerate(rng.randint(1, 40)))
                   for _ in range(rng.randint(1, 3))]
        q = F(rng.randint(-8, 8), rng.randint(1, 4))
        if q == 0:
            q = F(1)
        terms.append(scale(q, pprod(*factors)))
    return psum(*terms)


def test_holder_dominance_random():
    """|phi(x) - phi(y)| <= F * sigma(x, y) within enclosure slack."""
    rng = random.Random(12)
    for _ in range(60):
        phi = _random_potential(rng)
        bound = holder_bound(phi)
        x = S(F(rng.randint(-8, 8), rng.randint(1, 5)),
              F(rng.randint(-8, 8), rng.randint(1, 5)))
        y = S(F(rng.randint(-8, 8), rng.randint(1, 5)),
              F(rng.randint(-8, 8), rng.randint(1, 5)))
        vx = phi.evaluate(x, 45)
        vy = phi.evaluate(y, 45)
        d = chordal(x, y, 45)
        lhs = (vx - vy).abs()
        assert lhs.lower() <= bound * d.upper() + F(1, 1 << 30)


def test_upper_bound_keeps_signs():
    """Constants count with their sign, negative nonconstant terms count 0."""
    assert upper_bound(const(-3)) == -3
    assert upper_bound(scale(-2, pprod(basis(S(0)), basis(S(0, 1))))) == 0
    assert upper_bound(psum(basis(S(0)), scale(F(1, 2), pprod(basis(S(1)), basis(S(0, 1)))))) == 4
    assert upper_bound(psum(const(1), scale(F(-1, 3), basis(S(1))))) == 1


def test_upper_bound_dominates_samples():
    rng = random.Random(6)
    for _ in range(20):
        phi = psum(const(F(rng.randint(-4, 4), 3)), _random_potential(rng))
        cap = upper_bound(phi)
        x = S(F(rng.randint(-20, 20), rng.randint(1, 5)), F(rng.randint(-3, 3), 2))
        assert phi.evaluate(x, 40).upper() <= cap + F(1, 1 << 30)


def test_normal_form_is_expanded_once(monkeypatch):
    expansions = []
    expand = Potential._expand

    def counting(self):
        expansions.append(self)
        return expand(self)

    monkeypatch.setattr(Potential, "_expand", counting)
    phi = psum(const(F(1, 3)), scale(F(-2, 5), pprod(basis(S(0)), basis(S(1, 2)))))
    first = normal_form(phi)
    top_level = len(expansions)
    for use in (normal_form, Potential.is_zero, Potential.constant_value,
                holder_bound, upper_bound,
                lambda p: p.evaluate_with_displacement(S(1), F(1, 64), 30)):
        use(phi)
    assert normal_form(phi) == first
    assert len(expansions) == top_level


def test_json_roundtrip():
    phi = psum(const(F(1, 3)), scale(F(-2, 5), pprod(basis(S(0)), basis(S(1, 2)))))
    again = potential_from_json(potential_to_json(phi))
    assert normal_form(again) == normal_form(phi)


# -- the integer walk against the Fraction walk ---------------------------


def _fraction_evaluate(phi, x, prec):
    """The Fraction walk the integer one replaced: BallReal ops over
    `chordal`, at the same precisions."""
    if phi.op == "const":
        return BallReal.exact(phi.value)
    if phi.op == "basis":
        return chordal(x, phi.point, prec)
    if phi.op == "sum":
        return ball_sum(_fraction_evaluate(c, x, prec + 2) for c in phi.children)
    if phi.op == "prod":
        out = BallReal.exact(1)
        for c in phi.children:
            out = out * _fraction_evaluate(c, x, prec + 2)
        return out
    assert phi.op == "scale"
    return _fraction_evaluate(phi.children[0], x, prec).scale(phi.value)


def _fresh_holder_bound(phi):
    return sum((F(2) ** (len(b) - 1) * len(b) * abs(q) for q, b in phi._normal_terms if b),
               F(0))


# 0, 1, i and inf, points at exact chordal distance from some of them
# (sigma(0, 3/4) = 6/5, sigma(inf, 3/4) = 8/5, sigma(0, 4i/3) = 8/5), and
# points with large and small parts
_FIXED = [S(0), S(1), S(0, 1), INF, S(F(3, 4)), S(0, F(4, 3)), S(-1, F(1, 2)),
          S(F(1, 1 << 80), F(-3, 7)), S(F(5 << 90, 3), 2)]


def _random_point(rng):
    if rng.random() < 0.4:
        return rng.choice(_FIXED)
    return S(F(rng.randint(-30, 30), rng.choice([1, 2, 5, 12, 1 << 40])),
             F(rng.randint(-30, 30), rng.choice([1, 3, 4, 1 << 33])))


def _random_tree(rng, depth):
    op = rng.choice(["const", "basis"] if depth == 0 else
                    ["const", "basis", "sum", "prod", "scale", "scale"])
    if op == "const":
        return const(F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 1 << 20])))
    if op == "basis":
        return basis(_random_point(rng))
    if op == "scale":
        q = F(rng.randint(-9, 9), rng.choice([1, 2, 5, 1 << 30]))
        return scale(q, _random_tree(rng, depth - 1))
    children = [_random_tree(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return (psum if op == "sum" else pprod)(*children)


def _assert_same_ball(a, b):
    assert (type(a.mid), type(a.rad)) == (F, F)
    assert (a.mid, a.rad) == (b.mid, b.rad)


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_the_fraction_walk(seed):
    rng = random.Random(seed)
    for _ in range(40):
        phi = _random_tree(rng, rng.randint(0, 4))
        for x in [*_FIXED[:4], _random_point(rng), _random_point(rng)]:
            prec = rng.choice([0, 1, 2, 5, 20, 40, 70, 140])
            _assert_same_ball(phi.evaluate(x, prec), _fraction_evaluate(phi, x, prec))
            disp = rng.choice([F(0), F(1, 1 << 30), F(3, 7)])
            want = _fraction_evaluate(phi, x, prec).widen(_fresh_holder_bound(phi) * disp)
            _assert_same_ball(phi.evaluate_with_displacement(x, disp, prec), want)


@pytest.mark.parametrize("prec", [0, 3, 40, 140])
def test_evaluate_exact_entries_and_mixed_products(prec):
    x = S(F(3, 4))
    exact = {(S(0), INF): 2, (INF, S(0)): 2, (x, x): 0, (INF, INF): 0,
             (S(0), x): F(6, 5), (INF, x): F(8, 5)}
    for (y, s), value in exact.items():
        ball = basis(s).evaluate(y, prec)
        assert (ball.mid, ball.rad) == (value, 0)
    # sigma(0, 1) = sqrt(2) is inexact; sigma(0, inf) = 2 and sigma(0, 3/4) are not
    mixed = [pprod(basis(INF), basis(S(1))),
             pprod(basis(S(1)), basis(INF), scale(-3, basis(x))),
             psum(pprod(basis(S(1)), basis(S(0, 1))), scale(F(-5, 2), basis(INF)), const(F(1, 3))),
             pprod(basis(S(1)), basis(S(0))),  # one factor exactly 0
             pprod(psum(basis(INF), const(-2)), basis(S(1)))]  # a sum exactly 0
    for phi in mixed:
        got = phi.evaluate(S(0), prec)
        _assert_same_ball(got, _fraction_evaluate(phi, S(0), prec))
        assert got.rad > 0 or got.mid == 0
    assert pprod(basis(INF), basis(x)).evaluate(S(0), prec) == BallReal(F(12, 5), F(0))


def test_holder_bound_is_cached_and_equals_a_fresh_sum():
    rng = random.Random(7)
    for _ in range(30):
        phi = _random_tree(rng, 3)
        first = holder_bound(phi)
        assert first == _fresh_holder_bound(phi)
        assert holder_bound(phi) is first
        assert "_holder_bound" in vars(phi)


def test_zero_displacement_is_the_plain_evaluation():
    rng = random.Random(8)
    for _ in range(30):
        phi = _random_tree(rng, 3)
        x, prec = _random_point(rng), rng.randint(0, 90)
        _assert_same_ball(phi.evaluate_with_displacement(x, F(0), prec), phi.evaluate(x, prec))


@pytest.mark.parametrize("prec", [-1, -3, -5])
def test_negative_precision_raises(prec):
    phi = psum(basis(S(0)), const(1))
    for call in (lambda: phi.evaluate(S(1), prec),
                 lambda: phi.evaluate_with_displacement(S(1), F(1, 8), prec),
                 lambda: const(2).evaluate(S(1), prec)):
        with pytest.raises(ValueError, match=f"precision prec must be nonnegative, got {prec}"):
            call()
