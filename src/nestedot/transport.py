"""Exact solvers for small discrete optimal transport subproblems.

Two routes are provided: a closed-form quantile (comonotone) coupling for
one-dimensional marginals, and :func:`solve_ot` for general nonnegative
cost matrices, which solves problems with at most two sources or two
targets in closed form and larger ones by a dense transportation simplex.
Subproblem sizes here are tree branching factors, so exactness is
preferred over large-scale approximation.  All functions are pure and
reentrant.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .metrics import GroundMetric

MASS_TOL = 1e-9
SNAP = 1e-12
_REDUCED_TOL = 1e-12


class DiscreteDistribution:
    """Finitely supported distribution on the line.

    Atoms are aggregated by location, sorted increasingly and the masses
    renormalized exactly (after validating that they sum to 1 within 1e-9).
    """

    __slots__ = ("locations", "masses", "_cumulative")

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        agg: dict[float, float] = {}
        for loc, m in atoms:
            loc, m = float(loc), float(m)
            if not math.isfinite(loc):
                raise ValidationError(f"non-finite atom location {loc!r}")
            if not (math.isfinite(m) and m > 0.0):
                raise ValidationError(f"atom mass must be positive, got {m!r}")
            agg[loc] = agg.get(loc, 0.0) + m
        if not agg:
            raise ValidationError("distribution needs at least one atom")
        total = math.fsum(agg.values())
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"masses sum to {total}, expected 1")
        locs = sorted(agg)
        self.locations = tuple(locs)
        self.masses = tuple(agg[x] / total for x in locs)
        cum = list(np.cumsum(self.masses))
        cum[-1] = 1.0
        self._cumulative = tuple(cum)

    @classmethod
    def uniform(cls, locations: Sequence[float]) -> "DiscreteDistribution":
        n = len(locations)
        return cls([(x, 1.0 / n) for x in locations])

    @classmethod
    def dirac(cls, location: float) -> "DiscreteDistribution":
        return cls([(location, 1.0)])

    def __len__(self):
        return len(self.locations)

    def __eq__(self, other):
        return (
            isinstance(other, DiscreteDistribution)
            and self.locations == other.locations
            and self.masses == other.masses
        )

    def __repr__(self):
        atoms = ", ".join(f"{x}:{m:.6g}" for x, m in zip(self.locations, self.masses))
        return f"DiscreteDistribution({atoms})"

    def cumulative(self) -> tuple[float, ...]:
        return self._cumulative

    def mean(self) -> float:
        return math.fsum(x * m for x, m in zip(self.locations, self.masses))

    def quantile(self, u: float) -> float:
        """Left-continuous generalized inverse of the CDF at u in (0, 1]."""
        if not (0.0 < u <= 1.0):
            raise ValidationError(f"quantile level must lie in (0, 1], got {u!r}")
        idx = bisect.bisect_left(self._cumulative, u)
        if idx >= len(self.locations):
            idx = len(self.locations) - 1
        return self.locations[idx]


@dataclass
class TransportPlan:
    """Dense mass assignment between two finite marginals.

    ``row_potentials`` and ``col_potentials`` carry the optimal dual pair
    when the plan comes from the simplex solver.
    """

    row_masses: np.ndarray
    col_masses: np.ndarray
    matrix: np.ndarray
    row_potentials: np.ndarray | None = None
    col_potentials: np.ndarray | None = None

    def validate(self, tol: float = MASS_TOL) -> None:
        x = self.matrix
        if x.shape != (len(self.row_masses), len(self.col_masses)):
            raise ValidationError("plan shape does not match marginals")
        if np.any(x < -tol):
            raise ValidationError("plan has negative entries")
        if np.max(np.abs(x.sum(axis=1) - self.row_masses), initial=0.0) > tol:
            raise ValidationError("row sums do not match source masses")
        if np.max(np.abs(x.sum(axis=0) - self.col_masses), initial=0.0) > tol:
            raise ValidationError("column sums do not match target masses")


class OTResult(NamedTuple):
    value: float
    plan: TransportPlan


def common_refinement(cum_a, cum_b) -> list[tuple[float, float, int, int]]:
    """Common refinement of two cumulative partitions of (0, 1].

    Returns the segments ``(lo, hi, i, j)`` of positive width, where ``i``
    and ``j`` index the cells of ``cum_a`` and ``cum_b`` covering them.
    Breakpoints equal within ``SNAP`` are merged, so cumulative sums of
    equal probabilities computed in different orders still align.
    """
    out = []
    i = j = 0
    prev = 0.0
    while i < len(cum_a) and j < len(cum_b):
        ca, cb = cum_a[i], cum_b[j]
        cur = min(ca, cb)
        if cur - prev > 0.0:
            out.append((prev, cur, i, j))
        if abs(ca - cb) <= SNAP:
            i += 1
            j += 1
        elif ca < cb:
            i += 1
        else:
            j += 1
        prev = cur
    return out


def wasserstein_1d(
    a: DiscreteDistribution, b: DiscreteDistribution, metric: GroundMetric
) -> tuple[float, TransportPlan]:
    """Cost and plan of the quantile (comonotone) coupling.

    The integral of d(F_a^{-1}(u), F_b^{-1}(u))^p over (0, 1] is computed
    exactly by splitting at the cumulative breakpoints of both marginals.
    For the usual base metric this is the optimal cost over all plans; for
    a truncated base metric it is the quantile-plan cost only, and solvers
    route such subproblems through :func:`solve_ot` instead.
    """
    x = np.zeros((len(a), len(b)))
    cost = 0.0
    for lo, hi, i, j in common_refinement(a.cumulative(), b.cumulative()):
        width = hi - lo
        cost += width * metric.base_dist(a.locations[i], b.locations[j]) ** metric.p
        x[i, j] += width
    plan = TransportPlan(np.asarray(a.masses), np.asarray(b.masses), x)
    return cost, plan


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    m, n = len(a), len(b)
    x = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    i = j = 0
    ra, rb = a[0], b[0]
    while True:
        t = min(ra, rb)
        x[i, j] = max(t, 0.0)
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
    return x, basis


def _dual_potentials(basis, cost, m, n):
    rows_adj: list[list[int]] = [[] for _ in range(m)]
    cols_adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in basis:
        rows_adj[i].append(j)
        cols_adj[j].append(i)
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack = [("r", 0)]
    while stack:
        side, k = stack.pop()
        if side == "r":
            for j in rows_adj[k]:
                if math.isnan(v[j]):
                    v[j] = cost[k, j] - u[k]
                    stack.append(("c", j))
        else:
            for i in cols_adj[k]:
                if math.isnan(u[i]):
                    u[i] = cost[i, k] - v[k]
                    stack.append(("r", i))
    if np.any(np.isnan(u)) or np.any(np.isnan(v)):
        raise RuntimeError("basis graph is not a spanning tree")
    return u, v


def _find_cycle(basis, enter, m):
    """Unique alternating cycle created by the entering cell."""
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for i, j in basis:
        adj.setdefault(("r", i), []).append(("c", j))
        adj.setdefault(("c", j), []).append(("r", i))
    start, target = ("r", enter[0]), ("c", enter[1])
    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adj.get(node, ()):
                if nb not in parents:
                    parents[nb] = node
                    nxt.append(nb)
        if target in parents:
            break
        frontier = nxt
    if target not in parents:
        raise RuntimeError("entering cell is not connected to the basis tree")
    path = [target]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    cells = []
    for kpre, knext in zip(path, path[1:]):
        if kpre[0] == "r":
            cells.append((kpre[1], knext[1]))
        else:
            cells.append((knext[1], kpre[1]))
    return [enter] + cells[::-1]


def _two_sources(c: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Closed-form optimum of a transport problem with two sources.

    Row 0 takes the columns in ascending order of ``c[0, j] - c[1, j]``
    (ties by lowest index) until its mass runs out; row 1 takes the rest.
    This is optimal because the problem reduces to a fractional knapsack
    over row 0.  When the mass row 0 has left and the next column's mass
    differ by at most ``SNAP``, the column goes to row 0 whole: what
    either would keep is rounding, not a plan cell.  The dual pair puts
    the threshold difference on row 1.
    """
    n = c.shape[1]
    diff = c[0] - c[1]
    order = sorted(range(n), key=lambda j: (diff[j], j))
    x = np.zeros((2, n))
    left = a[0]
    split = 0  # position in ``order`` of the last column row 0 reaches
    for pos, j in enumerate(order):
        if left <= 0.0:
            break
        split = pos
        if abs(left - b[j]) <= SNAP:
            x[0, j] = b[j]
            break
        take = min(b[j], left)
        x[0, j] = take
        left -= take
    x[1] = b - x[0]
    threshold = diff[order[split]]
    u = np.array([0.0, -threshold])
    v = c[1] + threshold
    for j in order[: split + 1]:
        v[j] = c[0, j]
    return x, u, v


def _small_plan(c: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Optimal plan and dual pair (row 0 potential zero) when min(m, n) <= 2."""
    m, n = c.shape
    if m == 1:
        return b[None, :].copy(), np.zeros(1), c[0].copy()
    if n == 1:
        return a[:, None].copy(), c[:, 0] - c[0, 0], c[0, :1].copy()
    if m == 2:
        return _two_sources(c, a, b)
    xt, ut, vt = _two_sources(c.T, b, a)
    return xt.T.copy(), vt - vt[0], ut + vt[0]


def _simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Optimal basic plan and dual pair by the transportation simplex."""
    m, n = c.shape
    x, basis = _northwest_corner(a, b)
    max_iter = 2000 + 40 * (m + n) ** 2
    bland_after = 200 + 10 * (m + n) ** 2
    for it in range(max_iter):
        u, v = _dual_potentials(basis, c, m, n)
        reduced = c - u[:, None] - v[None, :]
        if it < bland_after:
            enter = np.unravel_index(int(np.argmin(reduced)), reduced.shape)
            if reduced[enter] >= -_REDUCED_TOL:
                break
        else:
            candidates = np.argwhere(reduced < -_REDUCED_TOL)
            if len(candidates) == 0:
                break
            enter = tuple(candidates[0])
        enter = (int(enter[0]), int(enter[1]))
        cycle = _find_cycle(basis, enter, m)
        minus = cycle[1::2]
        theta = min(x[cell] for cell in minus)
        leave = min(cell for cell in minus if x[cell] <= theta)
        for k, cell in enumerate(cycle):
            if k % 2 == 0:
                x[cell] += theta
            else:
                x[cell] -= theta
        x[leave] = 0.0
        basis = [cell for cell in basis if cell != leave]
        basis.append(enter)
    else:
        raise RuntimeError("transportation simplex did not converge")
    np.clip(x, 0.0, None, out=x)
    return x, u, v


def solve_ot(
    cost: Sequence[Sequence[float]] | np.ndarray,
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
) -> OTResult:
    """Exact optimum of the dense transportation problem.

    Problems with one or two sources or targets are solved in closed form:
    with two sources, source 0 is filled in ascending order of
    ``c[0, j] - c[1, j]`` (ties by lowest index), and two targets are
    handled as the transposed problem.  Larger problems use the
    transportation simplex with a northwest-corner start and the u-v
    (MODI) optimality test; ties, both for entering and leaving cells, are
    broken by lowest (row, col) index.  Either route returns a
    reproducible optimal plan with an optimal dual pair attached (row 0
    potential zero).  Where ties allow several optimal plans the two
    routes may pick different ones, but with equal value.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise ValidationError("cost must be a nonempty 2-d matrix")
    if np.any(~np.isfinite(c)):
        raise ValidationError("cost entries must be finite")
    if np.any(c < 0.0):
        raise ValidationError("negative cost entries rejected")
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    m, n = c.shape
    if av.shape != (m,) or bv.shape != (n,):
        raise ValidationError("marginal lengths do not match the cost matrix")
    if np.any(av < 0.0) or np.any(bv < 0.0):
        raise ValidationError("masses must be nonnegative")
    sa, sb = float(av.sum()), float(bv.sum())
    if abs(sa - 1.0) > MASS_TOL or abs(sb - 1.0) > MASS_TOL:
        raise ValidationError(f"mass mismatch: marginals sum to {sa} and {sb}")
    av = av / sa
    bv = bv / sb

    if min(m, n) <= 2:
        x, u, v = _small_plan(c, av, bv)
    else:
        x, u, v = _simplex(c, av, bv)
    value = float(np.sum(x * c))
    plan = TransportPlan(av, bv, x, row_potentials=u, col_potentials=v)
    return OTResult(value, plan)
