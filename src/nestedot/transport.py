"""Exact solvers for small discrete optimal transport subproblems.

One kernel (``_kernel``) solves a problem whose marginals are already
checked and normalized: problems with at most two sources or two
targets in closed form and larger ones by the transportation simplex,
whose basis is a spanning tree over rows and columns kept across
pivots, so a pivot re-derives only the potentials below the leaving
cell.  The nested recursion calls it directly, having validated each
class's masses once.  :func:`solve_ot` is the public entry point: it
validates and normalizes its input, calls the same kernel and is the
only caller that asks for an optimal dual pair.  The northwest-corner
rule that starts the simplex also builds the Knothe-Rosenblatt plans of
:mod:`nestedot.knothe`: on value-sorted laws it is the monotone
coupling, kept with the simplex's rounding rule.  Subproblem sizes here
are tree branching factors, so exactness is preferred over large-scale
approximation.  All functions are pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .tolerances import ROUNDING, SNAP, TOL


@dataclass
class TransportPlan:
    """Dense mass assignment between two finite marginals.

    ``row_potentials`` and ``col_potentials`` carry the optimal dual pair
    that :func:`solve_ot` attaches.
    """

    row_masses: np.ndarray
    col_masses: np.ndarray
    matrix: np.ndarray
    row_potentials: np.ndarray | None = None
    col_potentials: np.ndarray | None = None


class OTResult(NamedTuple):
    value: float
    plan: TransportPlan


def _northwest_corner(a: list[float], b: list[float]):
    m, n = len(a), len(b)
    rounding = (m + n) * ROUNDING
    flow = [[0.0] * n for _ in range(m)]
    basis: list[tuple[int, int]] = []
    i = j = 0
    ra, rb = a[0], b[0]
    while True:
        t = min(ra, rb)
        # A whole input mass (what is left of a row or column never exceeds
        # it) is kept however small; a remainder within the rounding of a
        # sum of m + n masses is rounding, and a larger one is input mass.
        flow[i][j] = t if t > rounding or (t > 0.0 and (t == a[i] or t == b[j])) else 0.0
        basis.append((i, j))
        ra -= t
        rb -= t
        if i == m - 1 and j == n - 1:
            break
        if ra <= rb and i < m - 1:
            i += 1
            ra = a[i]
        elif j < n - 1:
            j += 1
            rb = b[j]
        else:
            i += 1
            ra = a[i]
    return flow, basis


def _two_sources(c: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Closed-form optimal plan of a transport problem with two sources.

    Row 0 takes the columns in ascending order of ``c[0, j] - c[1, j]``
    (ties by lowest index) until its mass runs out; row 1 takes the rest.
    This is optimal because the problem reduces to a fractional knapsack
    over row 0.  When the mass row 0 has left and the next column's mass
    differ by no more than the rounding of a sum of n masses
    (n·``ROUNDING``), the column goes to row 0 whole: what either would
    keep is rounding, not a plan cell.  A larger difference is input mass
    and is shipped, however small.  Also returns the columns row 0
    reaches, in the order it takes them, for :func:`_two_source_duals`.
    """
    n = c.shape[1]
    rounding = n * ROUNDING
    diff = (c[0] - c[1]).tolist()
    order = sorted(range(n), key=diff.__getitem__)  # stable: ties by lowest index
    mass = b.tolist()
    x = np.zeros((2, n))
    left = a.item(0)
    split = 0  # position in ``order`` of the last column row 0 reaches
    for pos, j in enumerate(order):
        if left <= 0.0:
            break
        split = pos
        if abs(left - mass[j]) <= rounding:
            x[0, j] = mass[j]
            break
        take = min(mass[j], left)
        x[0, j] = take
        left -= take
    x[1] = b - x[0]
    return x, order[: split + 1]


def _two_source_duals(c: np.ndarray, reached: list[int]):
    """Optimal dual pair of a two-source plan (row 0 potential zero).

    The difference ``c[0, j] - c[1, j]`` of the last column row 0 reaches
    is the threshold, and it goes on row 1.
    """
    last = reached[-1]
    threshold = c[0, last] - c[1, last]
    u = np.array([0.0, -threshold])
    v = c[1] + threshold
    for j in reached:
        v[j] = c[0, j]
    return u, v


def _kernel(c: np.ndarray, a: np.ndarray, b: np.ndarray, duals: bool = False):
    """Optimal plan and value of a problem whose marginals sum to one.

    The closed form of :func:`_two_sources` serves min(m, n) <= 2 (two
    targets as the transposed problem) and :func:`_simplex` the rest.
    Returns ``(plan, value, u, v)``; the dual pair ``u, v`` (row 0
    potential zero) is derived only when ``duals`` is set, except from the
    simplex, which keeps it anyway.
    """
    m, n = c.shape
    u = v = None
    if min(m, n) > 2:
        x, u, v = _simplex(c, a, b)
    elif m == 1:
        x = b[None, :].copy()
        if duals:
            u, v = np.zeros(1), c[0].copy()
    elif n == 1:
        x = a[:, None].copy()
        if duals:
            u, v = c[:, 0] - c[0, 0], c[0, :1].copy()
    elif m == 2:
        x, reached = _two_sources(c, a, b)
        if duals:
            u, v = _two_source_duals(c, reached)
    else:
        xt, reached = _two_sources(c.T, b, a)
        x = xt.T.copy()
        if duals:
            ut, vt = _two_source_duals(c.T, reached)
            u, v = vt - vt[0], ut + vt[0]
    return x, float((x * c).sum()), u, v


def _pivot_limits(m: int, n: int) -> tuple[int, int]:
    """Pivots of an m x n simplex before it enters by Bland's rule, and in all."""
    return 200 + 10 * (m + n) ** 2, 2000 + 40 * (m + n) ** 2


def _simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Optimal basic plan and dual pair by the transportation simplex.

    The basis is a spanning tree on rows ``0..m-1`` and columns
    ``m..m+n-1``, rooted at row 0 (potential zero).  The northwest-corner
    start is one by construction: its m + n - 1 cells are a staircase from
    (0, 0) to (m - 1, n - 1) that moves one row or one column per cell.
    Each node keeps its parent, depth and potential (its parent cell's
    cost minus the parent's potential) across pivots.  An entering cell's cycle runs from its row
    and column up to their common ancestor.  The leaving cell cuts one
    subtree off, the entering cell hangs it back on, and only that
    subtree's potentials are re-derived: each depends only on its root path.

    A remainder within the rounding of a sum of m + n masses
    ((m + n)·``ROUNDING``), left in a cell by the northwest-corner start or
    by a pivot that takes mass out of it, is set to exactly zero and the
    cell stays basic as a degenerate cell: such a remainder is rounding,
    not a plan cell.  A larger remainder is input mass and is kept however
    small, as is a cell that receives an input mass whole or mass from a
    pivot.
    """
    m, n = c.shape
    rounding = (m + n) * ROUNDING
    flow, basis = _northwest_corner(a.tolist(), b.tolist())
    cost = c.tolist()
    basic = np.zeros((m, n), dtype=bool)
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in basis:
        basic[i, j] = True
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)

    def hang(top):  # re-derive the subtree below ``top`` from ``top`` itself
        stack = [top]
        while stack:
            k = stack.pop()
            up, d, pk = parent[k], depth[k] + 1, pot[k]
            for nb in adj[k]:
                if nb != up:
                    parent[nb], depth[nb] = k, d
                    pot[nb] = (cost[k][nb - m] if k < m else cost[nb][k - m]) - pk
                    stack.append(nb)

    def cell(k):  # the basis cell joining node k to its parent
        return (k, parent[k] - m) if k < m else (parent[k], k - m)

    hang(0)
    # A potential sums up to m + n costs along its root path, so a reduced
    # cost carries rounding in proportion to the largest cost.
    enter = -max(SNAP, (m + n) * ROUNDING * float(c.max()))
    bland_after, max_iter = _pivot_limits(m, n)
    for it in range(max_iter):
        u, v = np.array(pot[:m]), np.array(pot[m:])
        reduced = c - u[:, None]
        reduced -= v
        # A basic cell prices out at zero; entering one on its rounding stalls.
        np.putmask(reduced, basic, 0.0)
        if it < bland_after:
            k = int(reduced.argmin())
            if reduced.item(k) >= enter:
                break
        else:
            candidates = np.flatnonzero(reduced < enter)
            if len(candidates) == 0:
                break
            k = int(candidates[0])
        i, j = divmod(k, n)
        # Counted from the entering cell's row or column, the tree cells at
        # even steps of the climb lose theta and those at odd steps gain it.
        p, q, row_side, col_side = i, m + j, [], []
        while depth[p] > depth[q]:
            row_side.append(cell(p))
            p = parent[p]
        while depth[q] > depth[p]:
            col_side.append(cell(q))
            q = parent[q]
        while p != q:
            row_side.append(cell(p))
            col_side.append(cell(q))
            p, q = parent[p], parent[q]
        minus = row_side[0::2] + col_side[0::2]
        theta = min(flow[r][s] for r, s in minus)
        leave = min((r, s) for r, s in minus if flow[r][s] <= theta)
        plus = [(i, j)] + row_side[1::2] + col_side[1::2]
        for r, s in plus:
            flow[r][s] += theta
        for r, s in minus:
            flow[r][s] -= theta
            if flow[r][s] <= rounding:
                flow[r][s] = 0.0
        r, s = leave
        basic[r, s], basic[i, j] = False, True
        adj[r].remove(m + s)
        adj[m + s].remove(r)
        adj[i].append(m + j)
        adj[m + j].append(i)
        top, above = (i, m + j) if leave in row_side else (m + j, i)
        parent[top], depth[top] = above, depth[above] + 1
        pot[top] = cost[i][j] - pot[above]
        hang(top)
    else:
        raise RuntimeError("transportation simplex did not converge")
    return np.array(flow), u, v


def _normalized(masses) -> np.ndarray:
    """Nonnegative masses summing to 1 within ``TOL``, divided by their sum."""
    v = np.asarray(masses, dtype=float)
    if not v.min() >= 0.0:
        raise ValidationError("masses must be finite and nonnegative")
    total = float(v.sum())
    if abs(total - 1.0) > TOL:
        raise ValidationError(f"mass mismatch: marginal sums to {total}")
    return v / total


def solve_ot(
    cost: Sequence[Sequence[float]] | np.ndarray,
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
) -> OTResult:
    """Exact optimum of the dense transportation problem, with a dual pair.

    Problems with one or two sources or targets are solved in closed form:
    with two sources, source 0 is filled in ascending order of
    ``c[0, j] - c[1, j]`` (ties by lowest index), and two targets are
    handled as the transposed problem.  Larger problems use the
    transportation simplex with a northwest-corner start and the u-v
    (MODI) optimality test on a rooted basis tree, whose potentials a
    pivot re-derives only below the leaving cell; ties, both for entering
    and leaving cells, are broken by lowest (row, col) index.  The plan
    is reproducible and comes with an optimal dual pair (row 0 potential
    zero).  Where ties allow several optimal plans the two routes may
    pick different ones, but with equal value.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise ValidationError("cost must be a nonempty 2-d matrix")
    if not np.isfinite(c).all():
        raise ValidationError("cost entries must be finite")
    if c.min() < 0.0:
        raise ValidationError("negative cost entries rejected")
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != (c.shape[0],) or bv.shape != (c.shape[1],):
        raise ValidationError("marginal lengths do not match the cost matrix")
    av, bv = _normalized(av), _normalized(bv)
    x, value, u, v = _kernel(c, av, bv, duals=True)
    return OTResult(value, TransportPlan(av, bv, x, row_potentials=u, col_potentials=v))
