"""Exact solvers for small discrete optimal transport subproblems.

One kernel (``_kernel``) solves a problem whose marginals are already
checked and normalized, on Python lists: cost rows and mass lists in,
plan rows out.  The subproblems of a tree recursion have a few cells
each, where numpy's fixed cost per array would dominate.  Problems with
at most two sources or two targets are solved in closed form and larger
ones by the transportation simplex, whose basis is a spanning tree over
rows and columns kept across pivots, so a pivot re-derives only the
potentials below the leaving cell.  A simplex of at most
``_SCAN_CELLS`` cells prices its pivots by a Python scan and a larger
one by numpy.  A value adds up its cells in numpy's pairwise order
(``_cell_sum``), so it has the bits that ``np.sum`` gives.  The nested
recursion calls the kernel directly, having validated each class's
masses once.  :func:`solve_ot` is the public entry point: it validates
and normalizes its array input, calls the same kernel on lists, wraps
the plan in arrays and is the only caller that asks for an optimal dual
pair.  The northwest-corner rule that starts the simplex also builds
the Knothe-Rosenblatt plans of :mod:`nestedot.knothe`: on value-sorted
laws it is the monotone coupling, kept with the simplex's rounding
rule.  Subproblem sizes here are tree branching factors, so exactness is
preferred over large-scale approximation.  All functions are pure and
reentrant.  numpy is imported on first use through ``np``, the package's
one handle to it, so a process that solves only small problems on lists
never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ValidationError
from .tolerances import ROUNDING, SNAP, TOL


class _LazyNumpy:
    """numpy, imported on the first attribute read.  Each attribute read is
    kept on the handle, so a later read is a plain attribute lookup."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _LazyNumpy()


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


def _two_sources(c: list[list[float]], a: list[float], b: list[float]):
    """Closed-form optimal plan of a transport problem with two sources.

    Row 0 takes the columns in ascending order of ``c[0][j] - c[1][j]``
    (ties by lowest index) until its mass runs out; row 1 takes the rest.
    This is optimal because the problem reduces to a fractional knapsack
    over row 0.  When the mass row 0 has left and the next column's mass
    differ by no more than the rounding of a sum of n masses
    (n·``ROUNDING``), the column goes to row 0 whole: what either would
    keep is rounding, not a plan cell.  A larger difference is input mass
    and is shipped, however small.  Also returns the columns row 0
    reaches, in the order it takes them, for :func:`_two_source_duals`.
    """
    n = len(b)
    rounding = n * ROUNDING
    diff = [p - q for p, q in zip(*c)]
    order = sorted(range(n), key=diff.__getitem__)  # stable: ties by lowest index
    top = [0.0] * n
    left = a[0]
    split = 0  # position in ``order`` of the last column row 0 reaches
    for pos, j in enumerate(order):
        if left <= 0.0:
            break
        split = pos
        if abs(left - b[j]) <= rounding:
            top[j] = b[j]
            break
        take = min(b[j], left)
        top[j] = take
        left -= take
    return [top, [q - p for p, q in zip(top, b)]], order[: split + 1]


def _two_source_duals(c: list[list[float]], reached: list[int]):
    """Optimal dual pair of a two-source plan (row 0 potential zero).

    The difference ``c[0][j] - c[1][j]`` of the last column row 0 reaches
    is the threshold, and it goes on row 1.
    """
    last = reached[-1]
    threshold = c[0][last] - c[1][last]
    v = [w + threshold for w in c[1]]
    for j in reached:
        v[j] = c[0][j]
    return [0.0, -threshold], v


def _cell_sum(values: list[float]) -> float:
    """The sum of ``values`` in the order of numpy's ``sum`` of a contiguous
    float array: ``0.0 +`` a pairwise sum.  Fewer than 8 values add up from
    the left; a block of up to 128 adds up in 8 interleaved accumulators,
    combined as a balanced tree, then its remainder from the left; a longer
    block splits in half, rounded down to a multiple of 8.  So a value
    keeps numpy's bits without numpy, and a sum of ``-0.0`` cells is
    ``0.0``.  The ``0.0 +`` goes on each block: it changes only the sign of
    a zero, and a sum of blocks is ``-0.0`` only if every block is."""
    n = len(values)
    if n < 8:
        total = 0.0
        for w in values:
            total += w
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _cell_sum(values[:half]) + _cell_sum(values[half:])
    tail = n - n % 8
    a0, a1, a2, a3, a4, a5, a6, a7 = values[:8]
    for k in range(8, tail, 8):
        b0, b1, b2, b3, b4, b5, b6, b7 = values[k : k + 8]
        a0, a1, a2, a3 = a0 + b0, a1 + b1, a2 + b2, a3 + b3
        a4, a5, a6, a7 = a4 + b4, a5 + b5, a6 + b6, a7 + b7
    total = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
    for w in values[tail:]:
        total += w
    return 0.0 + total


def _kernel(c: list[list[float]], a: list[float], b: list[float], duals: bool = False):
    """Optimal plan and value of a problem whose marginals sum to one.

    Costs come as rows and masses as lists, and the plan goes back as
    rows.  The closed form of :func:`_two_sources` serves min(m, n) <= 2
    (two targets as the transposed problem) and :func:`_simplex` the
    rest.  The value is the :func:`_cell_sum` of the plan's cells times
    their costs in row-major order.  Returns ``(plan, value, u, v)``; the
    dual pair ``u, v`` (row 0 potential zero) is derived only when
    ``duals`` is set, except from the simplex, which keeps it anyway.
    """
    m, n = len(a), len(b)
    u = v = None
    if min(m, n) > 2:
        x, u, v = _simplex(c, a, b)
    elif m == 1:
        x = [list(b)]
        if duals:
            u, v = [0.0], list(c[0])
    elif n == 1:
        x = [[w] for w in a]
        if duals:
            first = c[0][0]
            u, v = [row[0] - first for row in c], [first]
    elif m == 2:
        x, reached = _two_sources(c, a, b)
        if duals:
            u, v = _two_source_duals(c, reached)
    else:
        ct = list(zip(*c))
        xt, reached = _two_sources(ct, b, a)
        x = [list(row) for row in zip(*xt)]
        if duals:
            ut, vt = _two_source_duals(ct, reached)
            u, v = [w - vt[0] for w in vt], [w + vt[0] for w in ut]
    return x, _cell_sum([p * q for xr, cr in zip(x, c) for p, q in zip(xr, cr)]), u, v


# Problems of at most this many cells price their simplex pivots by a
# Python scan; larger ones by numpy (see ``_simplex``).
_SCAN_CELLS = 64


def _pivot_limits(m: int, n: int) -> tuple[int, int]:
    """Pivots of an m x n simplex before it enters by Bland's rule, and in all."""
    return 200 + 10 * (m + n) ** 2, 2000 + 40 * (m + n) ** 2


def _entering(
    cost: list[list[float]], pot: list[float], basic: list[list[bool]], enter: float, first: bool
):
    """The entering cell of a scanned simplex pivot, or None at the optimum.

    A non-basic cell's reduced cost is ``(c[i][j] - u[i]) - v[j]``.  The
    cell is the first in row-major order with the least reduced cost below
    ``enter``, or with ``first`` (Bland's rule) the first below it.
    """
    m = len(cost)
    v = pot[m:]
    best = enter
    found = None
    for i in range(m):
        ui, flags = pot[i], basic[i]
        for j, cij in enumerate(cost[i]):
            if not flags[j]:
                reduced = cij - ui - v[j]
                if reduced < best:
                    if first:
                        return i, j
                    best, found = reduced, (i, j)
    return found


def _simplex(cost: list[list[float]], a: list[float], b: list[float]):
    """Optimal basic plan and dual pair by the transportation simplex.

    The basis is a spanning tree on rows ``0..m-1`` and columns
    ``m..m+n-1``, rooted at row 0 (potential zero).  The northwest-corner
    start is one by construction: its m + n - 1 cells are a staircase from
    (0, 0) to (m - 1, n - 1) that moves one row or one column per cell.
    Each node keeps its parent, depth and potential (its parent cell's
    cost minus the parent's potential) across pivots.  The start's
    potentials are derived along the staircase, and the tree of parents
    and depths is built only when the start does not price out optimal,
    before the first pivot.  An entering cell's cycle runs from its row
    and column up to their common ancestor.  The leaving cell cuts one
    subtree off, the entering cell hangs it back on, and only that
    subtree's potentials are re-derived: each depends only on its root path.

    A problem of at most ``_SCAN_CELLS`` cells is priced by a Python scan
    over its non-basic cells (:func:`_entering`); a larger one by numpy
    over a cost array built once, which picks the same cell.

    A remainder within the rounding of a sum of m + n masses
    ((m + n)·``ROUNDING``), left in a cell by the northwest-corner start or
    by a pivot that takes mass out of it, is set to exactly zero and the
    cell stays basic as a degenerate cell: such a remainder is rounding,
    not a plan cell.  A larger remainder is input mass and is kept however
    small, as is a cell that receives an input mass whole or mass from a
    pivot.
    """
    m, n = len(a), len(b)
    rounding = (m + n) * ROUNDING
    flow, basis = _northwest_corner(a, b)
    scan = m * n <= _SCAN_CELLS
    if scan:
        basic = [[False] * n for _ in range(m)]
    else:
        c, basic = np.array(cost), np.zeros((m, n), dtype=bool)
    # The start's potentials, along its staircase: each cell adds one row
    # or column, whose potential is the cell's cost minus the other's, as
    # ``hang(0)`` derives it.
    pot, col = [0.0] * (m + n), -1
    for i, j in basis:
        basic[i][j] = True
        if j != col:
            pot[m + j] = cost[i][j] - pot[i]
        else:
            pot[i] = cost[i][j] - pot[m + j]
        col = j

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

    # A potential sums up to m + n costs along its root path, so a reduced
    # cost carries rounding in proportion to the largest cost.
    enter = -max(SNAP, (m + n) * ROUNDING * max(map(max, cost)))
    bland_after, max_iter = _pivot_limits(m, n)
    for it in range(max_iter):
        # A basic cell prices out at zero; entering one on its rounding stalls.
        if scan:
            found = _entering(cost, pot, basic, enter, it >= bland_after)
            if found is None:
                break
            i, j = found
        else:
            reduced = c - np.array(pot[:m])[:, None]
            reduced -= np.array(pot[m:])
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
        if it == 0:  # the basis tree; ``hang(0)`` gives the same potentials
            adj: list[list[int]] = [[] for _ in range(m + n)]
            for r, s in basis:
                adj[r].append(m + s)
                adj[m + s].append(r)
            parent, depth = [-1] * (m + n), [0] * (m + n)
            hang(0)
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
        basic[r][s], basic[i][j] = False, True
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
    return flow, pot[:m], pot[m:]


def _normalized(masses: list[float]) -> list[float]:
    """Nonnegative masses summing to 1 within ``TOL``, divided by their sum."""
    if not all(w >= 0.0 for w in masses):  # unlike ``min``, this fails on NaN
        raise ValidationError("masses must be finite and nonnegative")
    total = _cell_sum(masses)
    if abs(total - 1.0) > TOL:
        raise ValidationError(f"mass mismatch: marginal sums to {total}")
    return [w / total for w in masses]


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
    av, bv = _normalized(av.tolist()), _normalized(bv.tolist())
    x, value, u, v = _kernel(c.tolist(), av, bv, duals=True)
    plan = TransportPlan(np.array(av), np.array(bv), np.array(x), np.array(u), np.array(v))
    return OTResult(value, plan)
