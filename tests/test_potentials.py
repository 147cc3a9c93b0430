import random
from fractions import Fraction as F

from equistate.potentials import (
    basis,
    const,
    holder_bound,
    pprod,
    psum,
    scale,
    sup_bound,
    upper_bound,
    Potential,
)
from equistate.serialize import potential_from_json, potential_to_json
from equistate.sphere import SpherePoint, chordal, ideal_enumerate

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


def test_sup_bound_dominates_samples():
    rng = random.Random(5)
    for _ in range(20):
        phi = _random_potential(rng)
        cap = sup_bound(phi)
        x = S(F(rng.randint(-20, 20), rng.randint(1, 5)), 0)
        assert phi.evaluate(x, 40).abs().upper() <= cap + F(1, 1 << 30)


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
                holder_bound, sup_bound, upper_bound,
                lambda p: p.evaluate_with_displacement(S(1), F(1, 64), 30)):
        use(phi)
    assert normal_form(phi) == first
    assert len(expansions) == top_level


def test_json_roundtrip():
    phi = psum(const(F(1, 3)), scale(F(-2, 5), pprod(basis(S(0)), basis(S(1, 2)))))
    again = potential_from_json(potential_to_json(phi))
    assert normal_form(again) == normal_form(phi)
