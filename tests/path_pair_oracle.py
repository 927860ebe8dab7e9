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
from reference import children


def _leaves_under(paths: list[tuple[float, ...]], history: tuple[float, ...]) -> list[int]:
    """Ranks of the leaf paths that extend ``history``."""
    t = len(history)
    return [k for k, path in enumerate(paths) if path[:t] == history]


def path_pair_bicausal(mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric) -> NestedResult:
    """Exact bicausal optimum as one linear program over path pairs."""
    mu_paths = mu.leaf_paths()
    nu_paths = nu.leaf_paths()
    m, n = len(mu_paths), len(nu_paths)

    def var(k: int, l: int) -> int:
        return k * n + l

    c = np.array([metric.path_cost(x, y) for x, _ in mu_paths for y, _ in nu_paths])
    mu_x, nu_y = [x for x, _ in mu_paths], [y for y, _ in nu_paths]

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
        for hist_i in mu.paths[t]:
            block_i = _leaves_under(mu_x, hist_i)
            for hist_j in nu.paths[t]:
                block_j = _leaves_under(nu_y, hist_j)
                for child, p_child in children(mu, hist_i):
                    child_leaves = set(_leaves_under(mu_x, hist_i + (child,)))
                    add(
                        (
                            (var(k, l), (1.0 if k in child_leaves else 0.0) - p_child)
                            for k in block_i
                            for l in block_j
                        ),
                        0.0,
                    )
                for child, p_child in children(nu, hist_j):
                    child_leaves = set(_leaves_under(nu_y, hist_j + (child,)))
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
