"""Transfer-operator iterates, topological pressure, backward-orbit measures.

The central object is a certified preimage tree: level k holds the
f^-k-preimages of the anchor as exact stored points, each with a bound on
its Euclidean (and chordal) distance to the true preimage it stands for.
Displacement propagates soundly through each solve: a true parent within
delta of the stored parent p~ has the preimage polynomial g + c*P of p~'s
chart, with (P, |c| <= eps) from `ratmap.preimage_perturbation` (P = den
and eps = delta when |p~| <= 1, P = num and eps about delta/|p~|^2
otherwise), so the Newton-style residual bound evaluated with that
perturbation encloses a true child.  Sibling discs must be disjoint, so
each holds exactly one true child and the matching of stored to true
points is a bijection.  Critical branching (a multiple preimage) is only
accepted on exactly stored parents, where the certified cluster radius
itself is the displacement.  Like the root certificates, the
displacement and the chordal radius are computed on integers: homogeneous
`horner_int` passes give |g|^2, |g'|^2, |P|^2 and |P'|^2 at the stored
child as integer quotients, and their square roots are integer square
roots at a fixed scale.  Each node's children are the clusters of one
`certified_roots` call on g, which rung 0 nearly always certifies, and
there g's values are the solve's own (`RootCluster.horner`), read where
Newton stopped or at the exact root the solve found; only P, and g on a
later rung, get a pass of their own.  Each pass reads the polynomial's
integer form C = m*q, with m divided back out (see `polynomials`).  The
sibling disjointness test cross-multiplies integers as well, the squared
distance's and the radii's numerators and denominators, and each child
gets one chordal radius, of its delta-disc.

Potentials stay on integers from the tree to the returned ball.  Each
node carries S_k phi as the integer ball (m, r, d), m/d +- r/d, adding
the potential's `widened_parts` at the node to its parent's with
`add_parts`; each leaf weight deg * e^(S_m phi) is the `exp_ball_parts`
of that triple scaled by deg, and `ruelle_apply`,
`backward_orbit_measure` and `empirical_pressure` sum the weights with
`add_parts` again, in `_sum_parts`.  Every step is exact and depends
only on the values, so the one `BallReal` or the Fractions built at the
end equal what `BallReal` addition, `ball_exp`, `scale` and `ball_sum`
give on the same balls.

Pressure follows the iterate-and-log recipe: pick N beyond 2^(n+1)*C0*R,
take an anchor off the forward orbit of infinity with more than one
preimage (so never an exceptional point), and return
(1/N) log L_phi^N(1)(anchor) with the truncation allowance C0*R/N added
to the radius.  With a constant potential the truncation term vanishes
and the enclosure is as tight as the evaluation.

The empirical estimate grows one tree from the anchor, a level at a
time, and reads L_phi^N(1)(anchor) off level N as the leaf sum.  Only
the log of that sum is used, so a level is accepted on a relative
radius test, and one precision serves every level; a level that fails
the test doubles the precision and regrows the tree.  Its ball is NOT an
enclosure: the stopping rule only compares successive estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .balls import BallReal, add_parts, ball_log, ball_sum, exp_ball_parts
from .dyadics import ZERO, compare_square, discs_apart, sqrt_lower_numerator, sqrt_upper_numerator
from .errors import ExcludedAnchor, ExcludedPoint, PrecisionExhausted
from .gauss import GaussRat, euclid_sq_parts
from .measures import SPHERE, FiniteMeasure
from .polynomials import Polynomial, horner_int, poly_gcd
from .potentials import Potential, upper_bound
from .ratmap import RationalMapRec, preimage_perturbation, preimage_polynomial
from .roots import RootCluster, certified_roots
from .sphere import SpherePoint, chordal_disc_radius, chordal_sq_parts, ideal_enumerate

_MAX_TREE_LEAVES = 1 << 19
_MAX_PRESSURE_DEPTH = 18
_ANCHOR_CLEARANCE = Fraction(1, 1 << 10)
_ANCHOR_SEARCH_LIMIT = 20000
_PRECISION_ATTEMPTS = 8
_LOG2_E_UPPER = Fraction(1442695040888963408, 10 ** 18)  # > log2(e) = 1.44269504088896340735...


@dataclass
class TreeNode:
    point: SpherePoint
    euclid_err: Fraction
    chordal_err: Fraction
    degree_product: int
    phi_sum: tuple[int, int, int]  # S_k(phi) from this node up to depth 1: m/d +- r/d


@dataclass
class PreimageTree:
    levels: list[list[TreeNode]]

    def leaves(self) -> list[TreeNode]:
        return self.levels[-1]

    def max_leaf_displacement(self) -> Fraction:
        return max((n.chordal_err for n in self.leaves()), default=ZERO)


def _scaled_abs2(q: Polynomial, c: int, at: tuple[int, int, int, int]
                 ) -> tuple[int, int, int, int]:
    """|q(z)|^2 and |q'(z)|^2 as integer quotients n/d, from `at`, the
    `horner_int` pass over q's integer form (C, m), C = m q, at z written
    over the denominator c: with k = deg q it gives c^k m q(z) and
    c^(k-1) m q'(z) (q' = 0 when k = 0), and the denominators divide m^2
    back out.  The quotients' values do not depend on which c writes z.
    q must not be the zero polynomial."""
    m = q.m
    nr, ni, mr, mi = at
    if q.degree == 0:
        return nr * nr + ni * ni, m * m, 0, 1
    s = m * c ** (q.degree - 1)
    s2 = s * s
    return nr * nr + ni * ni, s2 * c * c, mr * mr + mi * mi, s2


def _abs2_at(q: Polynomial, z: GaussRat) -> tuple[int, int, int, int]:
    """`_scaled_abs2` of q at z from a `horner_int` pass of its own."""
    return _scaled_abs2(q, z.d, horner_int(q.C, z.x, z.y, z.d))


def _perturbed_child_displacement(g: Polynomial, p: Polynomial, z: GaussRat,
                                  eps: Fraction, bits: int, g_abs2: tuple[int, int, int, int]
                                  ) -> Fraction | None:
    """Distance bound from z to a true simple preimage.

    g is the preimage polynomial of the stored parent; the true parent's
    is g + c*p with |c| <= eps, so it has a root within
    d (|g(z)| + eps |p(z)|) / (|g'(z)| - eps |p'(z)|) of z.  The four
    absolute values are rounded at `bits` bits, |g'(z)| down and the others
    up, as integer numerators G, G', P, P' over 2^bits; with eps = en/ed the
    bound is d (G ed + en P) / (G' ed - en P').  `g_abs2` is g's
    `_scaled_abs2` at z.  None means the bound degenerated and the caller
    should retry at higher precision.
    """
    gn, gd, dgn, dgd = g_abs2
    g_at = sqrt_upper_numerator(gn, gd, bits)
    dg_at = sqrt_lower_numerator(dgn, dgd, bits)
    en, ed = eps.numerator, eps.denominator
    if en:
        pn, pd, dpn, dpd = _abs2_at(p, z)
        p_at = sqrt_upper_numerator(pn, pd, bits)
        dp_at = sqrt_upper_numerator(dpn, dpd, bits)
    else:
        p_at = dp_at = 0
    denom = dg_at * ed - en * dp_at
    if denom <= 0:
        return None
    return Fraction(g.degree * (g_at * ed + en * p_at), denom)


def build_preimage_tree(f: RationalMapRec, x: SpherePoint, depth: int, l: int,
                        phi: Potential | None = None, eval_prec: int = 60) -> PreimageTree:
    """Certified depth-level preimage tree of x under f.

    Requires x not in {f^i(inf) : 1 <= i <= depth}.  Stored points are
    exact; euclid_err/chordal_err bound their distance to the true
    preimages; phi sums accumulate along paths, as integer balls, when a
    potential is given.  The tree is the root x and `depth` calls of
    `_grow_level`.
    """
    if depth < 0:
        raise ValueError(f"tree depth must be nonnegative, got {depth}")
    if l < 0:
        raise ValueError(f"tree precision l must be nonnegative, got {l}")
    _check_leaves(f, depth)
    excluded = f.infinity_orbit(depth)
    if x in excluded:
        raise ExcludedPoint(f"anchor {x!r} lies on the forward orbit of infinity")
    levels = [[_root_node(x)]]
    for _level in range(depth):
        levels.append(_grow_level(f, levels[-1], l, phi, eval_prec))
    return PreimageTree(levels)


def _too_deep(f: RationalMapRec, depth: int) -> bool:
    """Whether f's depth-`depth` tree has over `_MAX_TREE_LEAVES` leaves.
    d^depth >= 2^depth for d >= 2, so no power past the cap's size is formed."""
    d = f.degree
    return d > 1 and (depth >= _MAX_TREE_LEAVES.bit_length() or d ** depth > _MAX_TREE_LEAVES)


def _check_leaves(f: RationalMapRec, depth: int) -> None:
    if _too_deep(f, depth):
        raise PrecisionExhausted(
            f"preimage tree of depth {depth} for degree {f.degree} exceeds the leaf cap"
        )


def _root_node(x: SpherePoint) -> TreeNode:
    return TreeNode(x, ZERO, ZERO, 1, (0, 0, 1))


def _grow_level(f: RationalMapRec, parents: list[TreeNode], l: int,
                phi: Potential | None, eval_prec: int) -> list[TreeNode]:
    """The certified preimages of one tree level, each parent's children
    in a row: root solves at l bits, displacement bounds and phi sums as
    `build_preimage_tree` says.  The caller keeps the parents off the
    forward orbit of infinity."""
    f_of_inf = f.at_infinity
    zero_phi = phi is None or phi.is_zero()
    children: list[TreeNode] = []
    for node in parents:
        if node.point == f_of_inf:
            # The true node differs from f(inf); the stored rounding
            # collided with the excluded value.  Needs more precision.
            raise PrecisionExhausted("stored tree node collided with f(inf)")
        g = preimage_polynomial(f, node.point)
        clusters = certified_roots(g, l)
        chart = preimage_perturbation(f, node.point, node.euclid_err, l + 8)
        if chart is None:
            raise PrecisionExhausted("stored tree node too close to 0 for its chart")
        p, eps = chart
        for point, delta, mult in _children(g, p, eps, node.euclid_err == 0, l, clusters):
            chordal_err = chordal_disc_radius(point.value, delta, l + 4)
            if zero_phi:
                phi_here = node.phi_sum
            else:
                phi_here = add_parts(*node.phi_sum,
                                     *phi.widened_parts(point, chordal_err, eval_prec))
            children.append(TreeNode(
                point, delta, chordal_err, node.degree_product * mult, phi_here,
            ))
    return children


def _children(g: Polynomial, p: Polynomial, eps: Fraction, exact: bool, l: int,
              clusters: list[RootCluster]) -> list[tuple[SpherePoint, Fraction, int]]:
    """(point, delta, multiplicity) for each cluster of the parent's
    preimage polynomial g.  g's |g|^2 and |g'|^2 at a midpoint come from
    rung 0's `horner`, or from a pass of their own on later rungs.
    Critical branching is accepted only below an exactly stored parent,
    with the cluster's Euclidean radius r as the displacement.  Raises
    PrecisionExhausted when that fails, a displacement bound degenerates
    or two siblings' delta-discs meet."""
    kids = []
    for cl in clusters:
        point, r, mult = cl.point, cl.euclid_rad, cl.multiplicity
        if mult > 1 and not exact:
            raise PrecisionExhausted("critical branching below an inexactly stored node")
        if mult > 1 or (exact and r == 0):
            delta = r
        else:
            z = cl.midpoint
            g_abs2 = _abs2_at(g, z) if cl.horner is None else _scaled_abs2(g, *cl.horner)
            delta = _perturbed_child_displacement(g, p, z, eps, l + 8, g_abs2)
            if delta is None:
                raise PrecisionExhausted("displacement bound degenerated")
            delta = max(delta, r)
        kids.append((point, delta, mult))
    for i, (a, da, _) in enumerate(kids):
        for b, db, _ in kids[i + 1:]:
            if not discs_apart(*euclid_sq_parts(a.value, b.value), da, db):
                raise PrecisionExhausted("sibling preimage discs meet")
    return kids


def _check_precision(n: int) -> None:
    if n < 0:
        raise ValueError(f"precision n must be nonnegative, got {n}")


def birkhoff_sum(f: RationalMapRec, phi: Potential, x: SpherePoint, n: int,
                 prec: int = 40) -> BallReal:
    """Enclosure of phi(x) + phi(f x) + ... + phi(f^(n-1) x); zero for n = 0."""
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    _check_precision(prec)
    return ball_sum(phi.evaluate(p, prec + n.bit_length() + 1) for p in f.orbit(x, n))


def ruelle_apply(f: RationalMapRec, phi: Potential | None, u: Potential | None,
                 x: SpherePoint, m: int, n: int = 30) -> BallReal:
    """Enclosure of L_phi^m(u)(x) with radius <= 2^-n.

    L_phi^m(u)(x) = sum over f^-m-preimages y (with local degrees) of
    deg(y) * u(y) * exp(S_m phi(y)).  u = None means the constant 1.
    Requires m >= 0 and x outside {f^i(inf) : 1 <= i <= m}; m = 0 is the
    one-leaf tree x, so it gives u(x), exactly 1 without u.

    Attempts step through (l, eval_prec) = (l0 * 2^k, e0 * 2^k) and start
    at the first k with eval_prec >= n + bitlen(d^m) + ceil(m * sup+ *
    log2 e) + bitlen(m) + 2.  Each leaf term deg(y) * e^(S_m phi(y)) is
    known to a few units of 2^-eval_prec relative to its size, and the
    terms add up to L^m 1(x) <= d^m * e^(m * sup phi), so the budget covers
    the radius of the sum.  sup+ = max(0, upper_bound(phi)) keeps the sign
    of phi: its negative terms only make L^m 1 smaller, and counting them
    as positive, as sup |phi| does, would start above the precision that
    the target needs.  Later members of the sequence are retried when a
    tree or the radius still falls short.

    The sum is one integer ball (M, R, D): each leaf adds its
    `_leaf_weight`, times u's `widened_parts` (um, ur, ud) by the
    `BallReal` product rule when u is given, and the radius test
    R/D <= 2^-n is R * 2^n <= D.  Only the result is a `BallReal`.
    """
    _check_precision(n)
    if m < 0:
        raise ValueError(f"step count m must be nonnegative, got {m}")
    _check_leaves(f, m)
    l = n + 8 + 2 * m
    eval_prec = n + 10 + m + (f.degree ** m).bit_length()
    sup = max(ZERO, upper_bound(phi)) if phi is not None else ZERO
    budget = (n + (f.degree ** m).bit_length() + math.ceil(m * sup * _LOG2_E_UPPER)
              + m.bit_length() + 2)
    while eval_prec < budget:
        l *= 2
        eval_prec *= 2
    for _attempt in range(_PRECISION_ATTEMPTS):
        try:
            tree = build_preimage_tree(f, x, m, l, phi, eval_prec)
        except PrecisionExhausted:
            l *= 2
            continue
        leaves = tree.leaves()
        weights = (_leaf_weight(leaf, eval_prec) for leaf in leaves)
        if u is not None:
            weights = (_times_parts(w, u.widened_parts(leaf.point, leaf.chordal_err, eval_prec))
                       for w, leaf in zip(weights, leaves))
        total, rad, den = _sum_parts(weights)
        if rad << n <= den:
            return BallReal(Fraction(total, den), Fraction(rad, den))
        l *= 2
        eval_prec *= 2
    raise PrecisionExhausted(f"ruelle_apply at 2^-{n}")


def _leaf_weight(leaf: TreeNode, prec: int) -> tuple[int, int, int]:
    """deg * e^(S_m phi) at a leaf as the integer ball (M deg, R deg, 2^K),
    from the `exp_ball_parts` (M, R, K) of its phi sum."""
    m, r, k = exp_ball_parts(*leaf.phi_sum, prec)
    deg = leaf.degree_product
    return m * deg, r * deg, 1 << k


def _times_parts(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The `BallReal` product of two integer balls m/d +- r/d."""
    (am, ar, ad), (bm, br, bd) = a, b
    return am * bm, abs(am) * br + abs(bm) * ar + ar * br, ad * bd


def _sum_parts(weights) -> tuple[int, int, int]:
    """The leaf sum: integer balls (m, r, d) added in order by `add_parts`."""
    total, rad, den = 0, 0, 1
    for wm, wr, wd in weights:
        total, rad, den = add_parts(total, rad, den, wm, wr, wd)
    return total, rad, den


@dataclass
class PressureResult:
    value: BallReal
    N_used: int
    anchor: SpherePoint


def _single_preimage(f: RationalMapRec, s: SpherePoint) -> bool:
    """True when f^-1(s) is one point.  Every exceptional point is such a
    point, and its backward orbit never reaches the Julia set."""
    g = preimage_polynomial(f, s)
    return g.degree >= 2 and poly_gcd(g, g.derivative()).degree == g.degree - 1


def _select_anchor(f: RationalMapRec, N: int) -> SpherePoint:
    """First enumerated ideal point with chordal clearance from the exact
    forward orbit of infinity and more than one preimage."""
    orbit = f.infinity_orbit(N)
    for k in range(1, _ANCHOR_SEARCH_LIMIT + 1):
        s = ideal_enumerate(k)
        if (all(compare_square(*chordal_sq_parts(s, o), _ANCHOR_CLEARANCE) > 0 for o in orbit)
                and not _single_preimage(f, s)):
            return s
    raise ExcludedAnchor("no ideal anchor clears the forward orbit of infinity")


def pressure(f: RationalMapRec, phi: Potential, n: int,
             c0: Fraction, R: Fraction) -> PressureResult:
    """Certified topological pressure P(f, phi) to within 2^-n.

    c0 is the iterate-distortion constant of f for the Hoelder exponent in
    use and R >= the Hoelder seminorm of phi for that exponent, in the
    metric c0 refers to.  Picks N > 2^(n+1)*c0*R, so the truncation error
    C0*R/N stays below 2^-(n+1), and adds it to the radius.  The
    exponential preimage tree caps N: if the required N is out of reach
    the error says exactly what was needed, rather than degrading the
    bound.
    """
    _check_precision(n)
    if c0 < 0 or R < 0:
        raise ValueError("c0 and R must be nonnegative")
    p, q = (c0 * R).as_integer_ratio()
    # 2^(n+1) p/q > 2^(n + bitlen p - bitlen q), so N is formed only below 2^65.
    if p and n + p.bit_length() - q.bit_length() >= 64:
        raise PrecisionExhausted(f"certified pressure to 2^-{n} needs over 2^64 steps")
    N = (p << (n + 1)) // q + 1
    if N > _MAX_PRESSURE_DEPTH or _too_deep(f, N):
        raise PrecisionExhausted(
            f"certified pressure needs N = {N} transfer-operator steps; "
            f"the degree-{f.degree} preimage tree is out of desk range"
        )
    anchor = _select_anchor(f, N)
    eval_bits = n + 2
    for _ in range(6):
        big = ruelle_apply(f, phi, None, anchor, N, eval_bits + N.bit_length())
        logball = ball_log(big, eval_bits + N.bit_length() + 2)
        val = BallReal(logball.mid / N, logball.rad / N + c0 * R / Fraction(N))
        if val.rad <= Fraction(1, 1 << n):
            return PressureResult(val, N, anchor)
        eval_bits *= 2
    raise PrecisionExhausted("pressure evaluation did not reach 2^-n")


def empirical_pressure(f: RationalMapRec, phi: Potential, n: int) -> PressureResult:
    """Uncertified estimate of P(f, phi): iterates N until successive
    estimates (1/N) log L_phi^N(1)(anchor) agree to 2^-(n+2), and widens
    the last one by that agreement.  The ball is NOT an enclosure.

    One preimage tree grows a level at a time, and L^N 1(anchor) is the
    sum (M, R, D) of level N's leaf weights, so the whole call makes
    d + ... + d^N root solves.  `_select_anchor(f, N)` is asked again at
    every N; when its answer moves (only a rational map's orbit of
    infinity can push it), the tree regrows from the new anchor.

    The log needs a relative radius, not an absolute one: level N is
    accepted when R 2^k <= M - R, k = n + 6 + bitlen(N), and then the log
    of M/D +- R/D has radius at most R/(M - R) <= 2^-k before
    `ball_log`'s own rounding.  So one (l, eval_prec) serves every level:
    `_empirical_precision` fixes it from n and the depth cap.  A level
    that fails the test or raises `PrecisionExhausted` doubles both and
    regrows the tree from the anchor, with at most `_PRECISION_ATTEMPTS`
    precisions in the whole call.
    """
    _check_precision(n)
    phi.is_zero()  # expands phi's normal form, or refuses it, outside the retries
    agree = Fraction(1, 1 << (n + 2))
    top = 0
    while top < _MAX_PRESSURE_DEPTH and f.degree ** (top + 1) <= _MAX_TREE_LEAVES:
        top += 1
    l, eval_prec = _empirical_precision(n, top)
    attempts = 1
    anchor: SpherePoint | None = None
    level: list[TreeNode] = []
    depth = 0
    prev: BallReal | None = None
    for N in range(1, top + 1):
        x = _select_anchor(f, N)
        if x != anchor:
            anchor, level, depth = x, [_root_node(x)], 0
        k = n + 6 + N.bit_length()
        while True:
            try:
                while depth < N:
                    level, depth = _grow_level(f, level, l, phi, eval_prec), depth + 1
                M, R, D = _sum_parts(_leaf_weight(leaf, eval_prec) for leaf in level)
                if R << k <= M - R:
                    break
            except PrecisionExhausted:
                pass
            if attempts == _PRECISION_ATTEMPTS:
                raise PrecisionExhausted(f"empirical pressure at level {N}")
            attempts += 1
            l *= 2
            eval_prec *= 2
            level, depth = [_root_node(anchor)], 0
        logball = ball_log(BallReal(Fraction(M, D), Fraction(R, D)), n + 8 + N.bit_length())
        cur = BallReal(logball.mid / N, logball.rad / N)
        if prev is not None and abs(cur.mid - prev.mid) <= agree:
            return PressureResult(BallReal(cur.mid, cur.rad + agree), N, anchor)
        prev = cur
    raise PrecisionExhausted(
        f"empirical pressure estimates did not stabilize by N = {top}"
    )


def _empirical_precision(n: int, top: int) -> tuple[int, int]:
    """The start (l, eval_prec) of `empirical_pressure` for the depth cap
    top.

    With b = bitlen(top), the test at a level N <= top asks for R/M below
    about 2^-k_max, k_max = n + 6 + b, and each of two parts gets half of
    that.  Every weight is positive, so R/M is at most the largest
    relative radius of a leaf, plus the exp roundings over M:
    - a level-N leaf's phi sum adds N < 2^b widened evaluations, each
      within 2^-eval_prec + Lip(phi) 2^-l or so, as the chordal
      displacement stays near 2^-l; l = k_max + b + 4 keeps the N of them
      below 2^-(k_max+1) for Lip(phi) up to 7;
    - `exp_ball_parts` rounds each leaf to 2^-(eval_prec+24) absolute, and
      with eval_prec = l + 4 the d^N <= 2^19 roundings stay below
      2^-(k_max+1) relative to the sum while L^N 1 >= 2^-(b+12).
    The escalation in `empirical_pressure` covers what lies beyond.
    """
    b = top.bit_length()
    l = n + 10 + 2 * b
    return l, l + 4


def backward_orbit_measure(f: RationalMapRec, phi: Potential | None,
                           x: SpherePoint, depth: int) -> FiniteMeasure:
    """Weighted distribution of the depth-level backward orbit of x.

    Atoms are the stored preimage points; the weight of y is proportional
    to deg(y) * exp(S_depth phi(y)) and weights renormalize to sum to
    exactly 1.  With phi = 0 (or None) every phi sum is exactly 0, whose
    exp is exactly 1, so the weights are the exact deg(y)/d^depth;
    otherwise the rounding, together with the geometric displacement, is
    folded into the measure's atom_error (a Wasserstein discrepancy bound
    against the ideal backward-orbit measure).
    """
    l = 40 + 2 * depth
    eval_prec = l + 10
    tree = build_preimage_tree(f, x, depth, l, phi, eval_prec)
    leaves = tree.leaves()
    disp = tree.max_leaf_displacement()
    raw = [_leaf_weight(leaf, eval_prec) for leaf in leaves]
    total, rad, den = _sum_parts(raw)
    if total <= rad:
        raise PrecisionExhausted("backward-orbit weights not certifiably positive")
    # A leaf's atom is its mid over the sum's, (wm/wd) / (total/den).  The
    # total-variation bound is twice the sum of the radii over the sum's
    # lower end, 2 (rad/den) / ((total - rad)/den), and atom_error adds
    # twice that.
    atoms = [(leaf.point, Fraction(wm * den, wd * total))
             for leaf, (wm, _, wd) in zip(leaves, raw)]
    return FiniteMeasure.from_atoms(SPHERE, atoms,
                                    atom_error=disp + Fraction(4 * rad, total - rad))
