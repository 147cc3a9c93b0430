"""Exact minimum-cost transport on a dense bipartite graph.

Network simplex on integers: the caller passes the masses as integers
over one denominator and the costs as integers over another, and only the
result is divided back, once, into Fractions.  The returned optimum is the
exact LP value for the given (pinned) rational costs, and the dual
potentials come with it, so callers can verify optimality independently:
every reduced cost c_ij - u_i - v_j is nonnegative at the optimum.

Neither denominator changes a decision: costs enter the simplex only
through sign tests and comparisons of reduced costs, which a positive
scale keeps; and a flow on a tree arc is K x + g with x an integer in the
units of the masses and |g| < K (see below), so flows compare as (x, g)
in lexicographic order, whatever the scale of x.  So any common
denominators give the same pivots, plan and duals.

Perturbation.  Equal-weight measures make the problem massively
degenerate, and a degenerate pivot (one that moves zero flow) is what lets
a simplex cycle.  So the simplex runs on integer masses perturbed in the
classical epsilon way, with epsilon = 1/K.  Let a_i, b_j be the integer
masses (n rows, m columns), N = n*m and K = 2N + 1.  The solve
uses the supplies K*a_i + m and the demands K*b_j + 1, plus m(n - 1) on
the last demand, so both sides still sum to K*sum(a) + N.  (The textbook
version perturbs the supplies alone; that leaves an arc to a column of
zero demand degenerate, so the columns are perturbed too.)

A basis is a spanning tree, and its flow on a tree arc is the net supply
of the node set (R rows, C columns) on one side of that arc:
K*(a(R) - b(C)) + g with g = m|R| - |C| - [last column in C] m(n - 1).
If C misses the last column then |C| < m, so g = 0 only for R = C = {};
if C holds it then g = m(|R| - n + 1) - |C| with 1 <= |C| <= m, so g = 0
only for all rows and all columns.  A tree arc parts the nodes into two
nonempty sides, so g != 0 there; and |g| <= N < K, so the flow is not 0
mod K.  Hence:

* every basic solution is nondegenerate, every pivot moves theta > 0, and
  the leaving arc is unique (a second arc blocking at theta would leave
  the next basis degenerate);
* each pivot lowers the perturbed objective strictly, no basis recurs, and
  the solve is finite under any pricing rule;
* the tree's flow for the original masses is f = (f' - g)/K, where f' is
  the perturbed flow.  Since -N <= g <= N < K, this is exactly
  f = (f' + N) // K, and f >= 0 because f' > 0 forces K*f > -K;
* reduced costs depend on the tree alone, so the final tree, optimal for
  the perturbed masses, is a feasible and optimal basis for the original
  ones.

Start.  The first basis comes from the least-cost rule on the perturbed
masses: visit the arcs in ascending cost, ties in row-major order, and
give each arc whose row and column both have mass left t = min(supply
left, demand left), which empties one of the two; an emptied line is
closed.  The arcs given so far form a forest in which every tree holds
exactly one open line, whose mass left is, up to sign, the net supply
of the tree's node set (each node starts as its own tree).  An arc joins two open
lines, so two trees, and the joined tree has net supply K*(a(R) - b(C))
+ g as above; by the argument above that is 0 only for all rows and all
columns.  So every step but the last empties exactly one line, the joined
tree keeps one open line with mass left > 0, and the last step empties
both.  No arc is left out with both ends open, since lines only close,
so the steps go on until every line is closed: n + m - 1 of them, each
joining two trees, and their arcs form a spanning tree.

Pricing scans blocks of ceil(sqrt(N)) arcs in row-major order, each
block starting where the last scan stopped, and enters the most negative
arc of the first block that has one; a full round with none means the
basis is optimal.  The tree is kept rooted at row 0 (so u_0 = 0) as
parent, depth, potential and child arrays, with each arc's flow stored at
its child end.  A pivot re-hangs only the subtree that the leaving arc cuts
off, by reversing the parent pointers on the cycle path inside it, and then
updates depth and potential inside that subtree only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import PrecisionExhausted

Cost = list[list[Fraction]]


@dataclass
class TransportResult:
    value: Fraction
    plan: dict[tuple[int, int], Fraction]
    potentials_u: list[Fraction]
    potentials_v: list[Fraction]

    def verify_optimal(self, cost: Cost) -> bool:
        """Exact optimality certificate: feasibility is the caller's data,
        complementary slackness holds by construction, so nonnegative
        reduced costs on all arcs certify a true optimum."""
        n, m = len(self.potentials_u), len(self.potentials_v)
        for i in range(n):
            for j in range(m):
                if cost[i][j] - self.potentials_u[i] - self.potentials_v[j] < 0:
                    return False
        return True


def _pivot_bound(n: int, m: int) -> int:
    """Pivots allowed on an n x m problem before the solve gives up."""
    return 12 * (n + m) * (n + m) + 400


def _least_cost_start(supply: list[int], demand: list[int], flat: list[int]
                      ) -> list[tuple[int, int, int]]:
    """The first basis, by the least-cost rule (see the module docstring),
    as arcs (i, j, flow) on the perturbed masses `supply` and `demand`,
    with `flat` the costs in row-major order.  A line has mass left exactly
    while it is open, and the step that empties a row and a column at once
    is the last."""
    m = len(demand)
    supply, demand = supply[:], demand[:]
    arcs = []
    for k in sorted(range(len(flat)), key=flat.__getitem__):
        i, j = divmod(k, m)
        if supply[i] and demand[j]:
            t = min(supply[i], demand[j])
            supply[i] -= t
            demand[j] -= t
            arcs.append((i, j, t))
            if supply[i] == demand[j]:
                break
    return arcs


def min_cost_transport(supplies: list[int], demands: list[int], cost: list[list[int]],
                       mass_den: int, cost_den: int) -> TransportResult:
    """Solve min sum f_ij cost[i][j]/cost_den with row sums
    supplies[i]/mass_den and column sums demands[j]/mass_den.

    Masses and costs are integers, the masses >= 0 with equal sums, and
    both denominators are > 0; ValueError says which of these fails, or
    that `cost` is not n rows of m ints.  The result is in Fractions: the
    value, the plan's masses and the duals.  Raises PrecisionExhausted
    after `_pivot_bound(n, m)` pivots.
    """
    n, m = len(supplies), len(demands)
    if sum(supplies) != sum(demands):
        raise ValueError("unbalanced transport problem")
    if n == 0 or m == 0:
        raise ValueError("empty transport problem")
    if min(supplies) < 0 or min(demands) < 0:
        raise ValueError("negative mass in transport problem")
    if mass_den <= 0 or cost_den <= 0:
        raise ValueError("transport denominators must be positive")
    flat = [c for row in cost for c in row]
    if len(cost) != n or any(len(row) != m for row in cost) or not set(map(type, flat)) <= {int}:
        raise ValueError(f"transport cost must be {n} rows of {m} ints")
    N = n * m
    K = 2 * N + 1
    supply = [K * x + m for x in supplies]
    demand = [K * x + 1 for x in demands]
    demand[-1] += N - m

    # Nodes are rows 0..n-1 and columns n..n+m-1.
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n + m)]
    for i, j, t in _least_cost_start(supply, demand, flat):
        adjacent[i].append((n + j, t))
        adjacent[n + j].append((i, t))

    # flow[x] is the flow on the arc from x up to parent[x].
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    pot = [0] * (n + m)
    flow = [0] * (n + m)
    children: list[list[int]] = [[] for _ in range(n + m)]
    stack = [0]
    while stack:
        k = stack.pop()
        for x, t in adjacent[k]:
            if x != parent[k]:
                parent[x], depth[x], flow[x] = k, depth[k] + 1, t
                pot[x] = (cost[x][k - n] if x < n else cost[k][x - n]) - pot[k]
                children[k].append(x)
                stack.append(x)

    block = isqrt(N - 1) + 1
    pos = 0
    max_iters = _pivot_bound(n, m)
    for _ in range(max_iters):
        # Block-search pricing from `pos`; basis arcs have reduced cost 0.
        v = pot[n:]
        enter, best, seen = None, 0, 0
        i, j = divmod(pos, m)
        ui, row = pot[i], cost[i]
        while enter is None and seen < N:
            for _arc in range(min(block, N - seen)):
                r = row[j] - ui - v[j]
                if r < best:
                    best, enter = r, (i, j)
                j += 1
                if j == m:
                    i, j = (i + 1) % n, 0
                    ui, row = pot[i], cost[i]
            seen += block
        if enter is None:
            arcs = sorted((min(x, p), max(x, p) - n, (flow[x] + N) // K)
                          for x, p in enumerate(parent) if p >= 0)
            plan = {(ri, cj): Fraction(f, mass_den) for ri, cj, f in arcs if f}
            value = Fraction(sum(f * cost[ri][cj] for ri, cj, f in arcs), mass_den * cost_den)
            return TransportResult(value, plan, [Fraction(x, cost_den) for x in pot[:n]],
                                   [Fraction(x, cost_den) for x in v])
        pos = i * m + j

        # The cycle is the entering arc plus the tree paths from its two ends
        # up to their common ancestor; on each path, counted from the entering
        # arc, the 1st, 3rd, 5th ... arcs lose flow and the others gain it.
        x, y = enter[0], n + enter[1]
        from_row: list[int] = []
        from_col: list[int] = []
        while x != y:
            if depth[x] >= depth[y]:
                from_row.append(x)
                x = parent[x]
            else:
                from_col.append(y)
                y = parent[y]
        leave = min(from_row[::2] + from_col[::2], key=flow.__getitem__)
        theta = flow[leave]
        for path in (from_row, from_col):
            for x in path[::2]:
                flow[x] -= theta
            for x in path[1::2]:
                flow[x] += theta

        # Cut the leaving arc and re-hang its subtree from the entering arc:
        # the path from the entering end s up to `leave` reverses, and each
        # arc's flow moves to the arc's new child end.
        if leave in from_row:
            path, s, t = from_row, enter[0], n + enter[1]
        else:
            path, s, t = from_col, n + enter[1], enter[0]
        children[parent[leave]].remove(leave)
        up, carried = t, theta
        for x in path[:path.index(leave) + 1]:
            if up != t:
                children[x].remove(up)
            children[up].append(x)
            parent[x], flow[x], carried = up, carried, flow[x]
            up = x

        # Inside the subtree, rows move by `best` and columns by -best (or the
        # reverse when s is a column), so the entering arc's reduced cost is 0.
        shift = best if s < n else -best
        depth[s] = depth[t] + 1
        stack = [s]
        while stack:
            k = stack.pop()
            pot[k] += shift if k < n else -shift
            for x in children[k]:
                depth[x] = depth[k] + 1
                stack.append(x)
    raise PrecisionExhausted(f"transport simplex exceeded its bound of {max_iters} "
                             f"pivots on a {n} x {m} problem")
