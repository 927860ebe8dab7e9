"""Nested (bicausal) distance by backward recursion, with an LP oracle.

The continuation value of a pair of same-stage nodes is the optimal
one-stage transport between their conditional next-step laws, where the
cost of a child pair adds the child pair's continuation value.  It
depends only on the two subtrees, so the backward recursion runs over
pairs of exact subtree classes (the atoms of the nested distributions)
and serves both scenario trees and their lifts.  An optimal bicausal
coupling is assembled by composing the one-stage plans down the node
pairs.  ``brute_force_bicausal`` solves the same problem as a single
linear program over all path pairs and serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import SizeGuardError, ValidationError
from .metrics import GroundMetric
from .transport import solve_ot
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

    @property
    def total_mass(self) -> float:
        return math.fsum(e.mass for e in self.entries)

    def mu_marginal(self) -> dict[tuple[float, ...], float]:
        out: dict[tuple[float, ...], float] = {}
        for e in self.entries:
            out[e.mu_path] = out.get(e.mu_path, 0.0) + e.mass
        return out

    def nu_marginal(self) -> dict[tuple[float, ...], float]:
        out: dict[tuple[float, ...], float] = {}
        for e in self.entries:
            out[e.nu_path] = out.get(e.nu_path, 0.0) + e.mass
        return out

    def transpose(self) -> "Coupling":
        return Coupling(tuple(CouplingEntry(e.nu_path, e.mu_path, e.mass) for e in self.entries))

    def cost(self, metric: GroundMetric) -> float:
        """Total p-th-power transport cost of the plan."""
        return math.fsum(e.mass * metric.path_cost(e.mu_path, e.nu_path) for e in self.entries)

    def validate_marginals(
        self, mu: ScenarioTree, nu: ScenarioTree, tol: float = 1e-9
    ) -> float:
        """Max deviation of both marginals from the trees' path laws."""
        dev = 0.0
        for tree, marginal in ((mu, self.mu_marginal()), (nu, self.nu_marginal())):
            law = dict(tree.leaf_paths())
            for path in set(law) | set(marginal):
                dev = max(dev, abs(law.get(path, 0.0) - marginal.get(path, 0.0)))
        if dev > tol:
            raise ValidationError(f"coupling marginals deviate by {dev}")
        return dev


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


def backward(first: SubtreeClasses, second: SubtreeClasses, metric: GroundMetric) -> Solved:
    """Backward recursion over pairs of same-height subtree classes.

    Each pair gets the optimal one-stage transport between the children's
    laws, where a child pair costs the base distance of its values (p-th
    power) plus the continuation value of its class pair.  Returns the
    value and the one-stage plan of every class pair; the empty pair
    ``(0, 0)`` has value zero and no plan.
    """
    solved: Solved = {(0, 0): (0.0, None)}
    power = metric.p
    for level_a, level_b in zip(first.levels[1:], second.levels[1:]):
        masses_b = [[m for _, m, _ in second.keys[cb]] for cb in level_b]
        for ca in level_a:
            kids_a = first.keys[ca]
            mass_a = [m for _, m, _ in kids_a]
            for cb, mass_b in zip(level_b, masses_b):
                kids_b = second.keys[cb]
                cost = np.empty((len(kids_a), len(kids_b)))
                for r, (va, _, sa) in enumerate(kids_a):
                    for s, (vb, _, sb) in enumerate(kids_b):
                        cost[r, s] = metric.base_dist(va, vb) ** power + solved[sa, sb][0]
                res = solve_ot(cost, mass_a, mass_b)
                solved[ca, cb] = (res.value, res.plan.matrix)
    return solved


class ValueTable:
    """Optimal continuation costs of the backward recursion.

    ``value(t, i, j)`` is the p-th-power cost-to-go of the node pair
    (i at stage t of mu, j at stage t of nu); stage-N entries are exactly
    zero and the stage-0 root pair carries the total optimal cost.  Values
    are looked up by the pair's subtree classes on demand, so the table
    costs no memory per node pair.
    """

    def __init__(
        self,
        mu: ScenarioTree,
        nu: ScenarioTree,
        mu_class: Mapping[int, int],
        nu_class: Mapping[int, int],
        solved: Solved,
        swapped: bool = False,
    ):
        self.depth = mu.depth
        self._mu, self._nu = mu, nu
        self._mu_class, self._nu_class = mu_class, nu_class
        self._solved = solved
        self._swapped = swapped

    def value(self, stage: int, mu_node: int, nu_node: int) -> float:
        if self._mu.node(mu_node).stage != stage or self._nu.node(nu_node).stage != stage:
            raise KeyError((stage, mu_node, nu_node))
        ci, cj = self._mu_class[mu_node], self._nu_class[nu_node]
        return self._solved[(cj, ci) if self._swapped else (ci, cj)][0]

    def items(self):
        for t in range(self.depth + 1):
            for i in self._mu.nodes_at_stage(t):
                for j in self._nu.nodes_at_stage(t):
                    yield (t, i, j), self.value(t, i, j)

    def transpose(self) -> "ValueTable":
        return ValueTable(
            self._nu, self._mu, self._nu_class, self._mu_class, self._solved, not self._swapped
        )

    def __len__(self):
        return sum(
            len(self._mu.nodes_at_stage(t)) * len(self._nu.nodes_at_stage(t))
            for t in range(self.depth + 1)
        )


class NestedResult(NamedTuple):
    distance: float
    table: ValueTable
    plan: Coupling


class OracleResult(NamedTuple):
    distance: float
    plan: Coupling


def _check_pair(mu: ScenarioTree, nu: ScenarioTree) -> None:
    if mu.depth != nu.depth:
        raise ValidationError(f"depth mismatch: {mu.depth} vs {nu.depth}")


def _compose_plan(
    mu: ScenarioTree,
    nu: ScenarioTree,
    mu_class: Mapping[int, int],
    nu_class: Mapping[int, int],
    solved: Solved,
) -> Coupling:
    depth = mu.depth
    masses: dict[tuple[tuple[float, ...], tuple[float, ...]], float] = {}
    stack = [(mu.root, nu.root, 1.0, 0)]
    while stack:
        i, j, mass, t = stack.pop()
        if t == depth:
            key = (mu.path(i), nu.path(j))
            masses[key] = masses.get(key, 0.0) + mass
            continue
        x = solved[mu_class[i], nu_class[j]][1]
        for a, ka in enumerate(mu.children(i)):
            for b, kb in enumerate(nu.children(j)):
                frac = x[a, b]
                if frac > 0.0:
                    stack.append((ka, kb, mass * frac, t + 1))
    return Coupling.from_mass_map(masses)


def nested_distance(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric
) -> NestedResult:
    """Nested distance, value table and an optimal bicausal coupling.

    The recursion solves one transport problem per pair of subtree
    classes (see :class:`SubtreeClasses`) rather than per node pair, and
    the plan is composed down the node pairs from the class pairs' plans.
    It runs on the canonically ordered pair (results are transposed back
    when the arguments are swapped), which makes the returned distance
    exactly symmetric in its arguments.
    """
    _check_pair(mu, nu)
    swapped = mu.canonical_key() > nu.canonical_key()
    first, second = (nu, mu) if swapped else (mu, nu)
    classes_1, of_1 = tree_classes(first)
    classes_2, of_2 = tree_classes(second)
    solved = backward(classes_1, classes_2, metric)
    plan = _compose_plan(first, second, of_1, of_2, solved)
    table = ValueTable(first, second, of_1, of_2, solved)
    total = solved[of_1[first.root], of_2[second.root]][0]
    if swapped:
        plan = plan.transpose()
        table = table.transpose()
    return NestedResult(metric.root(total), table, plan)


def wasserstein_distance(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric
) -> float:
    """Classical transport distance over unconstrained path couplings."""
    _check_pair(mu, nu)
    mu_paths = mu.leaf_paths()
    nu_paths = nu.leaf_paths()
    if len(mu_paths) * len(nu_paths) > ORACLE_SIZE_GUARD:
        raise SizeGuardError("instance too large for the dense path-pair solver")
    cost = np.array(
        [[metric.path_cost(x, y) for y, _ in nu_paths] for x, _ in mu_paths]
    )
    res = solve_ot(cost, [w for _, w in mu_paths], [w for _, w in nu_paths])
    return metric.root(res.value)


def brute_force_bicausal(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric
) -> OracleResult:
    """Exact bicausal optimum as one linear program over path pairs.

    Bicausality enters as linear equalities: for every stage t and every
    pair of stage-t histories, the joint mass on (history pair, next x
    child) equals the child's conditional probability times the history
    pair's mass, and symmetrically on the y side.  Conditioning on
    zero-mass history pairs is then automatically unconstrained.
    """
    _check_pair(mu, nu)
    mu_paths = mu.leaf_paths()
    nu_paths = nu.leaf_paths()
    m, n = len(mu_paths), len(nu_paths)
    if m * n > ORACLE_SIZE_GUARD:
        raise SizeGuardError("instance too large for the brute-force oracle")

    def var(k: int, l: int) -> int:
        return k * n + l

    c = np.array(
        [metric.path_cost(x, y) for x, _ in mu_paths for y, _ in nu_paths]
    )

    mu_leaf_index = {leaf: k for k, leaf in enumerate(mu.leaves)}
    nu_leaf_index = {leaf: l for l, leaf in enumerate(nu.leaves)}

    def leaves_under(tree: ScenarioTree, nid: int, index: dict[int, int]) -> list[int]:
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

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    rhs: list[float] = []
    row_id = 0

    def add(entries: Iterable[tuple[int, float]], b: float):
        nonlocal row_id
        for col, coef in entries:
            rows.append(row_id)
            cols.append(col)
            data.append(coef)
        rhs.append(b)
        row_id += 1

    for k, (_, w) in enumerate(mu_paths):
        add(((var(k, l), 1.0) for l in range(n)), w)
    for l, (_, w) in enumerate(nu_paths):
        add(((var(k, l), 1.0) for k in range(m)), w)

    for t in range(1, mu.depth):
        for i in mu.nodes_at_stage(t):
            block_i = leaves_under(mu, i, mu_leaf_index)
            for j in nu.nodes_at_stage(t):
                block_j = leaves_under(nu, j, nu_leaf_index)
                for child in mu.children(i):
                    p_child = mu.node(child).cond_prob
                    child_leaves = set(leaves_under(mu, child, mu_leaf_index))
                    coefs: dict[int, float] = {}
                    for k in block_i:
                        base = 1.0 if k in child_leaves else 0.0
                        for l in block_j:
                            coefs[var(k, l)] = base - p_child
                    add(coefs.items(), 0.0)
                for child in nu.children(j):
                    p_child = nu.node(child).cond_prob
                    child_leaves = set(leaves_under(nu, child, nu_leaf_index))
                    coefs = {}
                    for l in block_j:
                        base = 1.0 if l in child_leaves else 0.0
                        for k in block_i:
                            coefs[var(k, l)] = base - p_child
                    add(coefs.items(), 0.0)

    a_eq = sp.csr_matrix((data, (rows, cols)), shape=(row_id, m * n))
    res = linprog(c, A_eq=a_eq, b_eq=np.array(rhs), bounds=(0.0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"bicausal oracle LP failed: {res.message}")
    z = res.x
    masses: dict[tuple[tuple[float, ...], tuple[float, ...]], float] = {}
    for k, (x, _) in enumerate(mu_paths):
        for l, (y, _) in enumerate(nu_paths):
            mass = z[var(k, l)]
            if mass > 1e-12:
                masses[(x, y)] = mass
    return OracleResult(metric.root(float(res.fun)), Coupling.from_mass_map(masses))


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
