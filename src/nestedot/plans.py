"""Plans over leaf pairs: the ``Coupling`` type, its composition from the
one-stage plans of subtree-class pairs, and its pricing.

A plan keeps its leaf pairs: a ``Coupling`` holds its distinct paths once
and each entry as a pair of path ranks, so composing, pricing and writing
a plan build no path per entry.  ``compose_plan`` walks the node pairs of
two trees top-down from the class pairs' plans, for the nested distance
(``nested.nested_distance``) and the Knothe-Rosenblatt rearrangement
(``knothe.kr_coupling``).  ``Coupling.cost`` prices any plan, one
``base_cost`` per distinct value pair of a stage, on numpy arrays;
``compose_priced_plan`` prices a plan as it is composed instead, with the
same bits and on lists, so the KR distance never loads numpy.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import ValidationError
from .metrics import PATH_COST_OVERFLOW, GroundMetric, add_stages
from .transport import np
from .tree import ScenarioTree


class CouplingEntry(NamedTuple):
    mu_path: tuple[float, ...]
    nu_path: tuple[float, ...]
    mass: float


def _ranked(paths: Iterable) -> tuple[tuple[tuple[float, ...], ...], list[int]]:
    """The distinct paths in path order, as tuples of floats, and the rank
    among them of each path given.  Paths equal by ``==`` are one path, so
    two that differ only in the sign of a zero share the first one's sign.
    A value past the float range raises OverflowError."""
    paths = [tuple(map(float, path)) for path in paths]
    distinct = sorted(set(paths))
    rank = {path: k for k, path in enumerate(distinct)}
    return tuple(distinct), [rank[p] for p in paths]


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in order, and the position among them of each
    value, in the shape of ``values``: ``np.unique`` with its inverse, at a
    fraction of its fixed cost on a small plan."""
    ordered = np.sort(values, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return distinct, np.searchsorted(distinct, values)


class Coupling:
    """Joint mass assignment over pairs of root-to-leaf paths.

    A plan is held as its distinct mu paths and nu paths, each in path
    order, and per entry a cell ``a * len(nu_paths) + b`` (mu path a, nu
    path b) and a float mass, in cell order, which is path-pair order.
    ``Coupling(entries)``, which ``from_mass_map`` and the plan loader
    (``io.coupling_from_json``) call, interns the entries' paths as it
    reads them; a solver hands over the two trees' leaf paths and
    leaf-rank cells (``of_leaves``), so its path lists can hold leaves
    that no entry uses (a leaf of mass below ``SNAP`` in an oracle plan).
    Both go through ``__post_init__``, which checks the masses and orders
    the cells.
    ``entries`` is built on its first read, and ``==`` compares entries.
    Instances are not changed after construction.
    """

    def __init__(self, entries: Iterable[CouplingEntry]):
        # Each path gets an id on its first sight; ``_ranked`` then orders
        # and merges the distinct paths, so no path is built per entry.
        mu, nu, rows, cols, masses = {}, {}, [], [], []
        for x, y, m in entries:
            rows.append(mu.setdefault(x, len(mu)))
            cols.append(nu.setdefault(y, len(nu)))
            masses.append(m)
        self.mu_paths, mu_rank = _ranked(mu)
        self.nu_paths, nu_rank = _ranked(nu)
        width = len(self.nu_paths)
        self.cells = [mu_rank[a] * width + nu_rank[b] for a, b in zip(rows, cols)]
        self.masses = masses
        self.__post_init__()

    @classmethod
    def of_leaves(
        cls, mu: ScenarioTree, nu: ScenarioTree, cells: list[int], masses: list[float]
    ) -> "Coupling":
        """A plan over leaf pairs: cell ``a * len(nu.leaves) + b`` pairs the
        mu leaf of rank a with the nu leaf of rank b.  Stages are in history
        order, siblings by value, so a leaf's position is its path rank."""
        plan = cls.__new__(cls)
        plan.mu_paths, plan.nu_paths = mu.paths[mu.depth], nu.paths[nu.depth]
        plan.cells, plan.masses = cells, masses
        plan.__post_init__()
        return plan

    def __post_init__(self):
        """The one check of every plan: positive masses, no repeated cell."""
        for m in self.masses:
            if not (math.isfinite(m) and m > 0.0):
                raise ValidationError(f"coupling mass must be positive, got {m!r}")
        order = sorted(range(len(self.cells)), key=self.cells.__getitem__)
        self.cells = [self.cells[k] for k in order]
        if len(set(self.cells)) != len(order):
            raise ValidationError("duplicate coupling entries")
        self.masses = [float(self.masses[k]) for k in order]

    @classmethod
    def from_mass_map(
        cls, masses: Mapping[tuple[tuple[float, ...], tuple[float, ...]], float]
    ) -> "Coupling":
        """The plan of the nonzero masses of a map; any other mass that is
        not positive is rejected as in ``Coupling(entries)``."""
        return cls((x, y, m) for (x, y), m in masses.items() if m != 0.0)

    @functools.cached_property
    def entries(self) -> tuple[CouplingEntry, ...]:
        """The entries in path-pair order."""
        width = len(self.nu_paths)
        return tuple(
            CouplingEntry(self.mu_paths[c // width], self.nu_paths[c % width], m)
            for c, m in zip(self.cells, self.masses)
        )

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        if not isinstance(other, Coupling):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Coupling(entries={self.entries!r})"

    def cost(self, metric: GroundMetric) -> float:
        """Total p-th-power transport cost of the plan.

        ``metric.base_cost`` runs once per distinct value pair that the
        entries meet at any stage.  Each entry's path cost gathers those and
        adds its stages by ``add_stages``, as ``GroundMetric.path_cost``
        does, which rejects a sum past the float range.  The total is one
        ``fsum`` of mass times path cost, so it has the bits of the
        entry-by-entry sum.  It is the general pricer, of any plan; the
        Knothe-Rosenblatt plans are priced as they are composed
        (``compose_priced_plan``), with the same bits and no array.
        """
        if not self.cells:
            return 0.0
        depth = len(self.mu_paths[0])
        odd = [len(p) for p in self.mu_paths + self.nu_paths if len(p) != depth]
        if odd:
            raise ValidationError(f"path length mismatch: {depth} vs {odd[0]}")
        rows, cols = np.divmod(np.array(self.cells), len(self.nu_paths))
        xs, x_at = _distinct(np.array(self.mu_paths))
        ys, y_at = _distinct(np.array(self.nu_paths))
        width = len(ys)
        pairs, pair_at = _distinct(x_at[rows] * width + y_at[cols])  # per entry and stage
        xs, ys = xs.tolist(), ys.tolist()  # Python floats: ``**`` as in base_cost
        table = np.array([metric.base_cost(xs[k // width], ys[k % width]) for k in pairs.tolist()])
        path_cost = add_stages(table[pair_at].T)
        return math.fsum((np.array(self.masses) * path_cost).tolist())


class _BaseCosts(dict):
    """``metric.base_cost`` of each value pair, computed on first use.  A
    base distance whose power passes the float range costs ``inf`` here,
    so that only a kept leaf pair rejects it (``compose_priced_plan``)."""

    def __init__(self, metric: GroundMetric):
        super().__init__()
        self.metric = metric

    def __missing__(self, pair: tuple[float, float]) -> float:
        try:
            cost = self.metric.base_cost(*pair)
        except ValidationError:
            cost = math.inf
        self[pair] = cost
        return cost


def _walk(
    mu: ScenarioTree,
    nu: ScenarioTree,
    of_mu: list[list[int]],
    of_nu: list[list[int]],
    plan_of: Callable[[int, int], list[list[float]]],
    base: _BaseCosts | None,
) -> tuple[list[int], list[float], list[float]]:
    """The leaf-rank cells of a composed plan, their masses and, given the
    ``base`` costs, their path costs (else zeros), in walk order.

    A node is its history, so a leaf pair is reached once, with the product
    of the fractions along its history pair as mass.  Each pushed node pair
    carries its running path cost: 0.0, then plus each stage's base cost,
    stage 1 first, the order of ``metrics.add_stages``.  A class pair's
    children have the same values at every node pair of the two classes,
    so each kept cell of its plan holds its base cost.
    """
    depth, width = mu.depth, len(nu.leaves)
    plans: dict[tuple[int, int], list[tuple[int, int, float, float]]] = {}
    cells: list[int] = []
    masses: list[float] = []
    costs: list[float] = []
    stack = [(0, 0, 1.0, 0.0, 0)]  # positions of a node pair in stage t
    pop, push = stack.pop, stack.extend
    while stack:
        i, j, mass, cost, t = pop()
        if t == depth:
            if mass > 0.0:  # a product of tiny fractions can round to zero
                cells.append(i * width + j)
                masses.append(mass)
                costs.append(cost)
            continue
        pair = of_mu[t][i], of_nu[t][j]
        i, j, t = mu.starts[t][i], nu.starts[t][j], t + 1  # the pair's first children
        kept = plans.get(pair)
        if kept is None:
            rows = enumerate(plan_of(*pair))
            kept = [(r, s, f, 0.0) for r, row in rows for s, f in enumerate(row) if f > 0.0]
            if base is not None:
                xs, ys = mu.values[t], nu.values[t]
                kept = [(r, s, f, base[xs[i + r], ys[j + s]]) for r, s, f, _ in kept]
            plans[pair] = kept
        push([(i + r, j + s, mass * f, cost + c, t) for r, s, f, c in kept])
    return cells, masses, costs


def compose_plan(
    mu: ScenarioTree,
    nu: ScenarioTree,
    of_mu: list[list[int]],
    of_nu: list[list[int]],
    plan_of: Callable[[int, int], list[list[float]]],
) -> Coupling:
    """Compose a coupling top-down from the one-stage plans of class pairs.

    ``of_mu[t][k]`` and ``of_nu[t][k]`` give the subtree class of node k
    of stage t (``tree_classes``), and ``plan_of(ca, cb)`` the one-stage
    plan of a class pair, rows over ca's children and columns over cb's in
    value order.  It is asked once per class pair reached, and its positive
    cells are kept.  The walk holds stage positions, so it reads each
    pair's classes by position, records the two leaves' ranks
    (``Coupling.of_leaves``) and builds no path.
    """
    cells, masses, _ = _walk(mu, nu, of_mu, of_nu, plan_of, None)
    return Coupling.of_leaves(mu, nu, cells, masses)


def compose_priced_plan(
    mu: ScenarioTree,
    nu: ScenarioTree,
    of_mu: list[list[int]],
    of_nu: list[list[int]],
    plan_of: Callable[[int, int], list[list[float]]],
    metric: GroundMetric,
) -> tuple[Coupling, float]:
    """``compose_plan``'s coupling and its p-th-power cost, priced on the way.

    Each stage's value pair goes through ``metric.base_cost`` once, and
    each leaf pair's path cost is added up as ``add_stages`` adds it.  The
    cost is the ``fsum`` of mass times path cost: the terms that
    ``Coupling.cost`` adds, correctly rounded, so it has that method's bits
    without an array.  A kept leaf pair whose path cost passes the float
    range is rejected as ``Coupling.cost`` rejects it: by the first value
    pair in order whose base cost overflows, else as ``PATH_COST_OVERFLOW``.
    """
    cells, masses, costs = _walk(mu, nu, of_mu, of_nu, plan_of, _BaseCosts(metric))
    plan = Coupling.of_leaves(mu, nu, cells, masses)
    if math.inf in costs:
        width, leaves_mu, leaves_nu = len(nu.leaves), mu.paths[mu.depth], nu.paths[nu.depth]
        met = {
            pair
            for cell, cost in zip(cells, costs)
            if cost == math.inf
            for pair in zip(leaves_mu[cell // width], leaves_nu[cell % width])
        }
        for x, y in sorted(met):  # a base cost that overflows is named first
            metric.base_cost(x, y)
        raise ValidationError(PATH_COST_OVERFLOW)
    return plan, math.fsum(map(operator.mul, masses, costs))
