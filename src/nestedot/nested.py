"""Nested (bicausal) distance by backward recursion, with an LP oracle.

The continuation value of a pair of same-stage nodes is the optimal
one-stage transport between their conditional next-step laws, where the
cost of a child pair adds the child pair's continuation value.  It
depends only on the two subtrees, so the backward recursion runs over
pairs of exact subtree classes (the atoms of the nested distributions)
and serves both scenario trees and their lifts.  An optimal bicausal
coupling is assembled by composing the one-stage plans down the node
pairs (``compose_plan``, shared with the Knothe-Rosenblatt plans), on
the first read of ``NestedResult.plan``, so a caller that reads only the
distance never composes one.
The recursion validates once per class: each class's child masses are
checked and normalized once, and each one-stage problem goes to the
transport kernel without the checks or the dual pair of ``solve_ot``.
It is solved in the orientation that ``_solve`` picks from its content
alone, so swapping the operands, or lifting them, gives the same bits.
``brute_force_bicausal`` solves the same problem as a single linear
program over all same-stage node pairs, with one kernel row per child
of either node of a pair less one implied row per pair, and serves as an
independent oracle.  Its matrix is built stage by stage from parent
positions by index arithmetic, and HiGHS solves it without presolve.
scipy is imported only when the oracle runs, through ``linprog`` below,
so every other caller of the package starts without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import SizeGuardError, ValidationError
from .metrics import PATH_COST_OVERFLOW, TRUNCATED, GroundMetric
from .tolerances import SNAP
from .transport import _kernel, _normalized, solve_ot
from .tree import ScenarioTree

ORACLE_SIZE_GUARD = 10_000


class CouplingEntry(NamedTuple):
    mu_path: tuple[float, ...]
    nu_path: tuple[float, ...]
    mass: float


@dataclass(frozen=True)
class Coupling:
    """Joint mass assignment over pairs of root-to-leaf paths."""

    entries: tuple[CouplingEntry, ...]

    def __post_init__(self):
        for e in self.entries:
            if not (math.isfinite(e.mass) and e.mass > 0.0):
                raise ValidationError(f"coupling mass must be positive, got {e.mass!r}")
        ordered = tuple(sorted(self.entries, key=lambda e: (e.mu_path, e.nu_path)))
        keys = [(e.mu_path, e.nu_path) for e in ordered]
        if len(set(keys)) != len(keys):
            raise ValidationError("duplicate coupling entries")
        object.__setattr__(self, "entries", ordered)

    @classmethod
    def from_mass_map(
        cls, masses: Mapping[tuple[tuple[float, ...], tuple[float, ...]], float]
    ) -> "Coupling":
        return cls(
            tuple(
                CouplingEntry(x, y, m)
                for (x, y), m in masses.items()
                if m > 0.0
            )
        )

    def __len__(self):
        return len(self.entries)

    def cost(self, metric: GroundMetric) -> float:
        """Total p-th-power transport cost of the plan."""
        return math.fsum(e.mass * metric.path_cost(e.mu_path, e.nu_path) for e in self.entries)


class SubtreeClasses:
    """Subtree classes of one operand, hash-consed bottom-up.

    A class is keyed by the exact tuple of ``(value, probability, child
    class)`` over a node's children in value order; class 0 is the empty
    subtree below a leaf.  The continuation value of a node pair depends
    only on the two subtrees, so it is computed once per class pair.  Keys
    compare floats exactly: two equal subtrees whose numbers differ in the
    last bit get two classes, but two different subtrees never share one.
    """

    def __init__(self):
        self._ids: dict[tuple, int] = {(): 0}
        self._heights = [0]
        self.keys: list[tuple[tuple[float, float, int], ...]] = [()]
        self.levels: list[list[int]] = [[0]]

    def intern(self, key: tuple[tuple[float, float, int], ...]) -> int:
        """Class id of the subtree whose children are ``key``."""
        cid = self._ids.get(key)
        if cid is None:
            cid = self._ids[key] = len(self.keys)
            self.keys.append(key)
            height = 1 + self._heights[key[0][2]]
            self._heights.append(height)
            if height == len(self.levels):
                self.levels.append([])
            self.levels[height].append(cid)
        return cid


def tree_classes(tree: ScenarioTree) -> tuple[SubtreeClasses, dict[int, int]]:
    """The subtree classes of a tree and the class of every node."""
    classes = SubtreeClasses()
    of: dict[int, int] = {}
    for t in range(tree.depth, -1, -1):
        for nid in tree.nodes_at_stage(t):
            kids = [tree.node(k) for k in tree.children(nid)]
            of[nid] = classes.intern(tuple((k.value, k.cond_prob, of[k.id]) for k in kids))
    return classes, of


Solved = dict[tuple[int, int], tuple[float, np.ndarray | None]]
# A class's child masses as given (they decide orientation) and normalized.
Law = tuple[list[float], np.ndarray]


def _law(masses: list[float]) -> Law:
    return masses, _normalized(masses)


def _solve(cost: np.ndarray, a: Law, b: Law) -> tuple[float, np.ndarray]:
    """Optimal value and plan of one transport subproblem.

    The problem and its transpose ``(cost.T, b, a)`` have the same optimum,
    but a solver breaks ties and adds up in the orientation it is given.
    Of the two, the one whose masses, then cost rows, compare lower is
    solved (the transpose as a C-contiguous copy), and the plan is returned
    in the caller's orientation.  The transposed call thus gives the same
    value bit for bit and exactly the transposed plan.  A cost entry that
    is not finite (a base cost plus a continuation value past the float
    range) means that a path cost passes that range, and is rejected so.
    """
    if not np.isfinite(cost).all():
        raise ValidationError(PATH_COST_OVERFLOW)
    flipped = cost.T
    if b[0] < a[0] or (b[0] == a[0] and flipped.tolist() < cost.tolist()):
        x, value, _, _ = _kernel(np.ascontiguousarray(flipped), b[1], a[1])
        return value, x.T
    x, value, _, _ = _kernel(cost, a[1], b[1])
    return value, x


def backward(first: SubtreeClasses, second: SubtreeClasses, metric: GroundMetric) -> Solved:
    """Backward recursion over pairs of same-height subtree classes.

    Each pair gets the optimal one-stage transport between the children's
    laws, where a child pair costs the base distance of its values (p-th
    power) plus the continuation value of its class pair.  Each class's
    child masses are checked and normalized once, and the subproblems go
    to the transport kernel directly, without duals.  Returns the value
    and the one-stage plan of every class pair; the empty pair ``(0, 0)``
    has value zero and no plan.
    """
    solved: Solved = {(0, 0): (0.0, None)}
    base_cost = metric.base_cost
    for level_a, level_b in zip(first.levels[1:], second.levels[1:]):
        laws_b = [
            (cb, second.keys[cb], _law([m for _, m, _ in second.keys[cb]])) for cb in level_b
        ]
        for ca in level_a:
            kids_a = first.keys[ca]
            law_a = _law([m for _, m, _ in kids_a])
            for cb, kids_b, law_b in laws_b:
                cost = np.empty((len(kids_a), len(kids_b)))
                for r, (va, _, sa) in enumerate(kids_a):
                    for s, (vb, _, sb) in enumerate(kids_b):
                        cost[r, s] = base_cost(va, vb) + solved[sa, sb][0]
                solved[ca, cb] = _solve(cost, law_a, law_b)
    return solved


class NestedResult:
    """A bicausal distance and an optimal bicausal plan.

    The solver hands over the distance and a zero-argument builder of the
    plan.  The plan is built on the first read of ``plan`` and kept, so a
    caller that reads only ``distance`` never pays for it.
    """

    def __init__(self, distance: float, build_plan: Callable[[], Coupling]):
        self.distance = distance
        self._build_plan = build_plan

    @functools.cached_property
    def plan(self) -> Coupling:
        return self._build_plan()


def check_depths(first, second) -> None:
    """Reject two operands (trees or nested distributions) of unequal depth."""
    if first.depth != second.depth:
        raise ValidationError(f"depth mismatch: {first.depth} vs {second.depth}")


def compose_plan(
    mu: ScenarioTree,
    nu: ScenarioTree,
    cells: Callable[[int, int], Iterable[tuple[int, int, float]]],
) -> Coupling:
    """Compose a coupling top-down from one-stage plans on node pairs.

    ``cells(i, j)`` is the one-stage plan of the same-stage node pair
    (i of mu, j of nu): triples ``(child of i, child of j, fraction)``
    with positive fractions summing to one.  A node is its history, so a
    leaf pair is reached once, with the product of the fractions along
    its history pair as mass.
    """
    depth = mu.depth
    masses: dict[tuple[tuple[float, ...], tuple[float, ...]], float] = {}
    stack = [(mu.root, nu.root, 1.0, 0)]
    while stack:
        i, j, mass, t = stack.pop()
        if t == depth:
            masses[mu.path(i), nu.path(j)] = mass
            continue
        for a, b, frac in cells(i, j):
            stack.append((a, b, mass * frac, t + 1))
    return Coupling.from_mass_map(masses)


def nested_distance(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric
) -> NestedResult:
    """Nested distance and an optimal bicausal coupling.

    The recursion solves one transport problem per pair of subtree
    classes (see :class:`SubtreeClasses`) rather than per node pair.  On
    the first read of the result's ``plan``, the plan is composed down the
    node pairs from the class pairs' plans.
    Each class pair is solved in the orientation its content decides, so
    ``nested_distance(nu, mu)`` mirrors the distance and the plan bit for
    bit.
    """
    check_depths(mu, nu)
    classes_mu, of_mu = tree_classes(mu)
    classes_nu, of_nu = tree_classes(nu)
    solved = backward(classes_mu, classes_nu, metric)

    rows: dict[tuple[int, int], list[list[float]]] = {}

    def cells(i: int, j: int) -> list[tuple[int, int, float]]:
        pair = of_mu[i], of_nu[j]
        x = rows.get(pair)
        if x is None:
            x = rows[pair] = solved[pair][1].tolist()
        kids_j = nu.children(j)
        return [
            (ka, kb, frac)
            for ka, row in zip(mu.children(i), x)
            for kb, frac in zip(kids_j, row)
            if frac > 0.0
        ]

    total = solved[of_mu[mu.root], of_nu[nu.root]][0]
    return NestedResult(metric.root(total), lambda: compose_plan(mu, nu, cells))


def wasserstein_distance(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric
) -> float:
    """Classical transport distance over unconstrained path couplings."""
    check_depths(mu, nu)
    mu_paths = mu.leaf_paths()
    nu_paths = nu.leaf_paths()
    if len(mu_paths) * len(nu_paths) > ORACLE_SIZE_GUARD:
        raise SizeGuardError("instance too large for the dense path-pair solver")
    x = np.array([path for path, _ in mu_paths])
    y = np.array([path for path, _ in nu_paths])
    gap = np.abs(x[:, None, :] - y[None, :, :])
    if metric.kind == TRUNCATED:
        gap = np.minimum(gap, metric.cap)
    with np.errstate(over="ignore"):  # an overflow is inf, rejected below
        powers = gap ** metric.p
        cost = powers.sum(axis=2)
    if not np.isfinite(cost).all():
        if np.isfinite(powers).all():
            raise ValidationError(PATH_COST_OVERFLOW)
        raise ValidationError(
            f"cost overflows: base distance {gap.max().item()!r} to the power {metric.p}"
        )
    res = solve_ot(cost, [w for _, w in mu_paths], [w for _, w in nu_paths])
    return metric.root(res.value)


def _next_stage(tree: ScenarioTree, nodes: list[int]):
    """The children of ``nodes`` in order, with the positions of their
    parents in ``nodes``, their conditional probabilities and values."""
    kids, up = [], []
    for k, nid in enumerate(nodes):
        for c in tree.children(nid):
            kids.append(c)
            up.append(k)
    probs = np.array([tree.node(c).cond_prob for c in kids])
    return kids, np.array(up), probs, [tree.node(c).value for c in kids]


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call.  A module
    attribute, so that a tracer or a test can patch the oracle's LP."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def brute_force_bicausal(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric
) -> NestedResult:
    """Exact bicausal optimum as one linear program over same-stage node pairs.

    A node is its history, so the LP has one variable π_t(i, j) per stage t
    and pair of stage-t nodes (i of mu, j of nu), numbered stage by stage
    with i major.  The root pair has mass one.  Bicausality enters as
    kernel rows: for every pair (i, j) before the last stage and every
    child c of i, the μ-row (c, j) says that the masses π_{t+1}(c, l)
    summed over the children l of j equal p(c)·π_t(i, j), and the ν-row
    (i, l) says the same for every child l of j.  A stage-(t+1) variable
    (c, l) sits in exactly the μ-row (c, parent(l)) and the ν-row
    (parent(c), l), so each stage's rows come from its parent positions
    and child probabilities by index arithmetic.  The ν-row of each last
    child is left out: the pair's μ-rows imply it, and the rows left have
    full rank.  Conditioning on zero-mass pairs is then automatically
    unconstrained.  The cost is the per-stage base cost d(x_i, y_j)^p
    summed over the pairs of stages 1..N, and a pair of leaves whose sum
    passes the float range is rejected before the LP runs.  The plan is
    read off the stage-N pairs.  The size guard counts leaf pairs.

    HiGHS runs without presolve, which on these LPs mostly costs time.
    Without it, though, HiGHS can stop on a vertex with masses below zero
    within its feasibility tolerance (-6e-8 on some pairs of depth-6
    walks), priced below the optimum by more than ``ORACLE_TOL``; such an
    answer is solved again with presolve.
    """
    import scipy.sparse as sp

    check_depths(mu, nu)
    if len(mu.leaves) * len(nu.leaves) > ORACLE_SIZE_GUARD:
        raise SizeGuardError("instance too large for the brute-force oracle")
    nodes_mu, nodes_nu = [mu.root], [nu.root]
    # COO entries; row 0 is the root row π_0(root, root) = 1
    rows, cols, data = [np.array([0])], [np.array([0])], [np.array([1.0])]
    cost, base_cost = [0.0], metric.base_cost
    path_cost = np.zeros((1, 1))  # the cost so far of each pair of histories
    n_rows, first = 1, 0  # rows so far, first variable of the current stage
    for _ in range(mu.depth):
        a, b = len(nodes_mu), len(nodes_nu)
        nodes_mu, up_mu, p_mu, x_mu = _next_stage(mu, nodes_mu)
        nodes_nu, up_nu, p_nu, x_nu = _next_stage(nu, nodes_nu)
        a1, b1 = len(nodes_mu), len(nodes_nu)
        kept = np.flatnonzero(up_nu[:-1] == up_nu[1:])  # ν children but last siblings
        k = len(kept)
        var = first + a * b + np.arange(a1 * b1).reshape(a1, b1)  # π_{t+1}(c, l)
        nu_rows = n_rows + a1 * b  # the μ-rows (c, j) come first, then the ν-rows (i, l)
        rows += [
            (n_rows + np.arange(a1)[:, None] * b + up_nu).ravel(),  # μ-row (c, parent(l))
            (nu_rows + up_mu[:, None] * k + np.arange(k)).ravel(),  # ν-row (parent(c), l)
            np.arange(n_rows, nu_rows + a * k),  # each row's π_t(i, j) entry
        ]
        cols += [
            var.ravel(),
            var[:, kept].ravel(),
            (first + up_mu[:, None] * b + np.arange(b)).ravel(),
            (first + np.arange(a)[:, None] * b + up_nu[kept]).ravel(),
        ]
        data += [np.ones(a1 * (b1 + k)), np.repeat(-p_mu, b), np.tile(-p_nu[kept], a)]
        stage_cost = [base_cost(x, y) for x in x_mu for y in x_nu]
        cost += stage_cost
        with np.errstate(over="ignore"):  # an overflow is inf, rejected below
            path_cost = path_cost[up_mu[:, None], up_nu] + np.reshape(stage_cost, (a1, b1))
        n_rows, first = nu_rows + a * k, first + a * b
    if not np.isfinite(path_cost).all():
        raise ValidationError(PATH_COST_OVERFLOW)
    cost = np.array(cost)
    entries = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    a_eq = sp.csr_matrix(entries, shape=(n_rows, len(cost)))
    b_eq = np.zeros(n_rows)
    b_eq[0] = 1.0
    lp = {"A_eq": a_eq, "b_eq": b_eq, "bounds": (0.0, None), "method": "highs"}
    res = linprog(cost, **lp, options={"presolve": False})
    if res.success and res.x.min() < -SNAP:
        res = linprog(cost, **lp)
    if not res.success:
        raise RuntimeError(f"bicausal oracle LP failed: {res.message}")
    leaf_pairs, width = res.x[first:], len(nodes_nu)

    def plan() -> Coupling:
        return Coupling.from_mass_map({
            (mu.path(nodes_mu[k // width]), nu.path(nodes_nu[k % width])): leaf_pairs.item(k)
            for k in np.flatnonzero(leaf_pairs > SNAP).tolist()
        })

    return NestedResult(metric.root(float(res.fun)), plan)


def cauchy_check(trees: list[ScenarioTree], metric: GroundMetric) -> np.ndarray:
    """Full symmetric matrix of pairwise nested distances."""
    if len(trees) < 2:
        raise ValidationError("cauchy_check needs at least two trees")
    k = len(trees)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d = nested_distance(trees[i], trees[j], metric).distance
            out[i, j] = d
            out[j, i] = d
    return out
