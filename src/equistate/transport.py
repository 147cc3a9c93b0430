"""Exact minimum-cost transport on a dense bipartite graph.

Transportation simplex on integers: masses and costs are each scaled once
by the lcm of their denominators, which changes none of the simplex's
comparisons, and only the result is scaled back.  The basis is one
spanning tree; each pivot walks it once for the dual potentials and reads
the pivot cycle off its parent paths.  Entering arcs follow Bland's rule
in lexicographic (row, column) order, which is deterministic and cannot
cycle, so the returned optimum is the exact LP value for the given
(pinned) rational costs.  The dual potentials are returned so callers can
verify optimality independently: every reduced cost c_ij - u_i - v_j is
nonnegative at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


def _scaled(xs: list[Fraction]) -> tuple[list[int], int]:
    """The integers s*x for s the lcm of the denominators, and s."""
    s = lcm(*(x.denominator for x in xs))
    return [x.numerator * (s // x.denominator) for x in xs], s


def _pivot_bound(n: int, m: int) -> int:
    """Pivots allowed on an n x m problem before the solve gives up."""
    return 12 * (n + m) * (n + m) + 400


def min_cost_transport(supplies: list[Fraction], demands: list[Fraction], cost: Cost
                       ) -> TransportResult:
    """Solve min sum f_ij c_ij with row sums = supplies, col sums = demands.

    Requires sum(supplies) == sum(demands), all entries exact Fractions.
    Raises PrecisionExhausted after `_pivot_bound(n, m)` pivots.
    """
    n, m = len(supplies), len(demands)
    if sum(supplies) != sum(demands):
        raise ValueError("unbalanced transport problem")
    if n == 0 or m == 0:
        raise ValueError("empty transport problem")
    masses, ws = _scaled([*supplies, *demands])
    flat, cs = _scaled([x for row in cost for x in row])
    c = [flat[i * m:(i + 1) * m] for i in range(n)]

    # Northwest-corner initial basic feasible solution; the keys of `flow`
    # are the basis, always n + m - 1 arcs (degenerate zero flows included),
    # and `tree` holds the same arcs as adjacency between nodes.
    flow: dict[tuple[int, int], int] = {}
    tree: list[set[int]] = [set() for _ in range(n + m)]
    a, b = masses[:n], masses[n:]
    i = j = 0
    while len(flow) < n + m - 1:
        t = min(a[i], b[j])
        flow[(i, j)] = t
        tree[i].add(n + j)
        tree[n + j].add(i)
        a[i] -= t
        b[j] -= t
        if i == n - 1 and j == m - 1:
            break
        if a[i] == 0 and i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            i += 1

    max_iters = _pivot_bound(n, m)
    for _ in range(max_iters):
        # One walk from row 0 gives each node its potential (u_0 = 0 and
        # c_ij = u_i + v_j on basis arcs), parent, depth and the basis arc
        # up to its parent.
        pot = [0] * (n + m)
        parent = [-1] * (n + m)
        depth = [0] * (n + m)
        up: list[tuple[int, int]] = [(-1, -1)] * (n + m)
        stack = [0]
        while stack:
            k = stack.pop()
            for x in tree[k]:
                if x != parent[k]:
                    parent[x] = k
                    depth[x] = depth[k] + 1
                    up[x] = (k, x - n) if k < n else (x, k - n)
                    pot[x] = c[up[x][0]][up[x][1]] - pot[k]
                    stack.append(x)
        u, v = pot[:n], pot[n:]
        # Basis arcs have reduced cost exactly 0, so they are never chosen.
        enter = None
        for ei in range(n):
            ui, row = u[ei], c[ei]
            for ej in range(m):
                if row[ej] - ui - v[ej] < 0:
                    enter = (ei, ej)
                    break
            if enter:
                break
        if enter is None:
            value = Fraction(sum(f * c[i][j] for (i, j), f in flow.items()), ws * cs)
            plan = {arc: Fraction(f, ws) for arc, f in flow.items() if f > 0}
            return TransportResult(value, plan, [Fraction(x, cs) for x in u],
                                   [Fraction(x, cs) for x in v])
        # The cycle is the entering arc plus the tree paths from its two ends
        # up to their common ancestor; on each path, counted from the entering
        # arc, the 1st, 3rd, 5th ... arcs lose flow and the others gain it.
        x, y = enter[0], n + enter[1]
        from_row: list[tuple[int, int]] = []
        from_col: list[tuple[int, int]] = []
        while x != y:
            if depth[x] >= depth[y]:
                from_row.append(up[x])
                x = parent[x]
            else:
                from_col.append(up[y])
                y = parent[y]
        losers = from_row[::2] + from_col[::2]
        theta = min(flow[arc] for arc in losers)
        leave = min(arc for arc in losers if flow[arc] == theta)
        for arc in losers:
            flow[arc] -= theta
        for arc in from_row[1::2] + from_col[1::2]:
            flow[arc] += theta
        flow[enter] = theta
        del flow[leave]
        tree[enter[0]].add(n + enter[1])
        tree[n + enter[1]].add(enter[0])
        tree[leave[0]].discard(n + leave[1])
        tree[n + leave[1]].discard(leave[0])
    raise PrecisionExhausted(f"transport simplex exceeded its bound of {max_iters} "
                             f"pivots on a {n} x {m} problem")
