"""Path-pair bicausal LP: an independent reference for the node-pair oracle.

One variable per pair of root-to-leaf paths.  For every stage t and every
pair of stage-t histories, the joint mass on (history pair, next x child)
equals the child's conditional probability times the history pair's
mass, and symmetrically on the y side; the path marginals are explicit
rows.  It shares no code with ``nestedot.nested.brute_force_bicausal``
apart from ``Coupling``, so the two formulations check each other.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from nestedot import GroundMetric, ScenarioTree
from nestedot.nested import Coupling, NestedResult


def _leaves_under(tree: ScenarioTree, nid: int, index: dict[int, int]) -> list[int]:
    out = []
    stack = [nid]
    while stack:
        cur = stack.pop()
        kids = tree.children(cur)
        if not kids:
            out.append(index[cur])
        else:
            stack.extend(kids)
    return out


def path_pair_bicausal(mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric) -> NestedResult:
    """Exact bicausal optimum as one linear program over path pairs."""
    mu_paths = mu.leaf_paths()
    nu_paths = nu.leaf_paths()
    m, n = len(mu_paths), len(nu_paths)

    def var(k: int, l: int) -> int:
        return k * n + l

    c = np.array([metric.path_cost(x, y) for x, _ in mu_paths for y, _ in nu_paths])
    mu_leaf_index = {leaf: k for k, leaf in enumerate(mu.leaves)}
    nu_leaf_index = {leaf: l for l, leaf in enumerate(nu.leaves)}

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    rhs: list[float] = []

    def add(entries: Iterable[tuple[int, float]], b: float):
        row_id = len(rhs)
        for col, coef in entries:
            rows.append(row_id)
            cols.append(col)
            data.append(coef)
        rhs.append(b)

    for k, (_, w) in enumerate(mu_paths):
        add(((var(k, l), 1.0) for l in range(n)), w)
    for l, (_, w) in enumerate(nu_paths):
        add(((var(k, l), 1.0) for k in range(m)), w)

    for t in range(1, mu.depth):
        for i in mu.nodes_at_stage(t):
            block_i = _leaves_under(mu, i, mu_leaf_index)
            for j in nu.nodes_at_stage(t):
                block_j = _leaves_under(nu, j, nu_leaf_index)
                for child in mu.children(i):
                    p_child = mu.node(child).cond_prob
                    child_leaves = set(_leaves_under(mu, child, mu_leaf_index))
                    add(
                        (
                            (var(k, l), (1.0 if k in child_leaves else 0.0) - p_child)
                            for k in block_i
                            for l in block_j
                        ),
                        0.0,
                    )
                for child in nu.children(j):
                    p_child = nu.node(child).cond_prob
                    child_leaves = set(_leaves_under(nu, child, nu_leaf_index))
                    add(
                        (
                            (var(k, l), (1.0 if l in child_leaves else 0.0) - p_child)
                            for l in block_j
                            for k in block_i
                        ),
                        0.0,
                    )

    a_eq = sp.csr_matrix((data, (rows, cols)), shape=(len(rhs), m * n))
    res = linprog(c, A_eq=a_eq, b_eq=np.array(rhs), bounds=(0.0, None), method="highs")
    assert res.success, res.message
    masses = {
        (x, y): res.x[var(k, l)]
        for k, (x, _) in enumerate(mu_paths)
        for l, (y, _) in enumerate(nu_paths)
        if res.x[var(k, l)] > 1e-12
    }
    return NestedResult(metric.root(float(res.fun)), lambda: Coupling.from_mass_map(masses))
