"""Independent references the tests check the solvers against.

A law on the line with its left-continuous quantile, the common
refinement of two cumulative partitions and the cost of the quantile
(comonotone) coupling of two laws built on it, a leaf-law comparison of
two trees, and lookups from a history to its stage position and to its
children.  None of these is a solver route; they exist so that each
check has a second computation to compare with.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from nestedot import GroundMetric, ScenarioTree
from nestedot.tolerances import SNAP


class LineLaw:
    """Finitely supported law on the line.

    Atoms are aggregated by location and sorted; masses are renormalized
    to sum to 1.
    """

    def __init__(self, atoms):
        agg: dict[float, float] = {}
        for loc, m in atoms:
            agg[float(loc)] = agg.get(float(loc), 0.0) + float(m)
        total = math.fsum(agg.values())
        self.locations = tuple(sorted(agg))
        self.masses = tuple(agg[x] / total for x in self.locations)
        cum = list(np.cumsum(self.masses))
        cum[-1] = 1.0
        self.cumulative = tuple(cum)

    def quantile(self, u: float) -> float:
        """Left-continuous generalized inverse of the CDF at u in (0, 1]."""
        idx = bisect.bisect_left(self.cumulative, u)
        return self.locations[min(idx, len(self.locations) - 1)]


def child_law(tree: ScenarioTree, history=()) -> LineLaw:
    """One-stage conditional law of the children of the non-leaf node whose
    history is ``history``; the root's by default."""
    return LineLaw(children(tree, history))


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


def quantile_cost(a: LineLaw, b: LineLaw, metric: GroundMetric) -> tuple[float, np.ndarray]:
    """Cost and plan matrix of the quantile coupling of two laws on the line.

    The integral of d(F_a^{-1}(u), F_b^{-1}(u))^p over (0, 1] is computed
    exactly by splitting at the cumulative breakpoints of both laws.  For
    the usual base metric this is the optimal cost over all plans; for a
    truncated base metric it is the quantile-plan cost only.
    """
    x = np.zeros((len(a.locations), len(b.locations)))
    cost = 0.0
    for lo, hi, i, j in common_refinement(a.cumulative, b.cumulative):
        width = hi - lo
        cost += width * metric.base_cost(a.locations[i], b.locations[j])
        x[i, j] += width
    return cost, x


def same_law(a: ScenarioTree, b: ScenarioTree) -> bool:
    """Equal leaf paths, and leaf weights equal within 1e-12."""
    pa, pb = a.leaf_paths(), b.leaf_paths()
    if a.depth != b.depth or len(pa) != len(pb):
        return False
    return all(
        x == y and abs(wx - wy) <= 1e-12 for (x, wx), (y, wy) in zip(pa, pb)
    )


def node_at(tree: ScenarioTree, history) -> int:
    """Position, in stage ``len(history)``, of the node whose history is
    ``history``, found among that stage's histories."""
    return tree.paths[len(history)].index(tuple(history))


def children(tree: ScenarioTree, history=()) -> list[tuple[float, float]]:
    """(value, conditional probability) of each child, in value order, of
    the node whose history is ``history``; the root's by default."""
    t = len(history)
    k = node_at(tree, history)
    first, end = tree.starts[t][k], tree.starts[t][k + 1]
    return list(zip(tree.values[t + 1][first:end], tree.probs[t + 1][first:end]))
