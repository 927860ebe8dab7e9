"""Plans over leaf pairs: the ``Coupling`` type, its composition from the
one-stage plans of subtree-class pairs, and its pricing.

A plan keeps its leaf pairs: a ``Coupling`` holds its distinct paths once
and each entry as a pair of path ranks, so composing, pricing and writing
a plan build no path per entry.  ``compose_plan`` walks the node pairs of
two trees top-down from the class pairs' plans, for the nested distance
(``nested.nested_distance``) and the Knothe-Rosenblatt rearrangement
(``knothe.kr_coupling``).  Every plan is priced by one algorithm, on
lists: ``metric.base_cost`` once per distinct value pair (``_BaseCosts``),
a running path cost per leaf pair, stage 1 first, and one ``fsum`` of mass
times path cost that also holds the one overflow rule (``_total``).
``Coupling.cost`` runs it on a finished plan and ``compose_plan``, given a
metric, as the plan is composed, with the same bits; neither loads numpy.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import ValidationError
from .metrics import PATH_COST_OVERFLOW, GroundMetric
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


class Coupling:
    """Joint mass assignment over pairs of root-to-leaf paths.

    A plan is held as its distinct mu paths and nu paths, each in path
    order, and per entry a cell ``a * len(nu_paths) + b`` (mu path a, nu
    path b) and a float mass, in cell order, which is path-pair order.
    ``Coupling(entries)``, which ``from_mass_map`` and the plan loader
    (``io.coupling_from_json``) call, interns the entries' paths as it
    reads them; a solver hands over the two trees' leaf paths and
    leaf-rank cells (``of_leaves``), so its path lists can hold leaves
    that no entry uses (a leaf that an oracle plan gives no mass).
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
        entries meet at any stage (``_BaseCosts``).  Each entry's path cost
        is a running sum, stage 1 first, as ``add_stages`` adds it, and
        ``_total`` takes the ``fsum`` of mass times path cost: the bits of
        the entry-by-entry sum.  ``compose_plan``, given a metric, prices a
        plan as it is composed, with the same memo and total."""
        if not self.cells:
            return 0.0
        depth = len(self.mu_paths[0])
        odd = [len(p) for p in self.mu_paths + self.nu_paths if len(p) != depth]
        if odd:
            raise ValidationError(f"path length mismatch: {depth} vs {odd[0]}")
        base, width, costs = _BaseCosts(metric), len(self.nu_paths), []
        for cell in self.cells:
            cost = 0.0
            for pair in zip(self.mu_paths[cell // width], self.nu_paths[cell % width]):
                cost = cost + base[pair]
            costs.append(cost)
        return _total(metric, self, self.cells, self.masses, costs)


class _BaseCosts(dict):
    """``metric.base_cost`` of each value pair, computed on first use.  A
    base distance whose power passes the float range costs ``inf`` here,
    so that only a priced leaf pair rejects it (``_total``)."""

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


def _total(
    metric: GroundMetric, plan: Coupling, cells: list[int], masses: list[float], costs: list[float]
) -> float:
    """The ``fsum`` of mass times path cost over cells of ``plan``, in any
    order.  The one overflow rule of plan pricing: a path cost past the
    float range is rejected by the first value pair, in sorted order, of
    such cells whose base cost overflows, else as ``PATH_COST_OVERFLOW``,
    as is a total past the float range (only masses that sum above 1 can
    take finite path costs there)."""
    if not all(map(math.isfinite, costs)):
        mu_paths, nu_paths, width = plan.mu_paths, plan.nu_paths, len(plan.nu_paths)
        met = {
            pair
            for cell, cost in zip(cells, costs)
            if not math.isfinite(cost)
            for pair in zip(mu_paths[cell // width], nu_paths[cell % width])
        }
        for x, y in sorted(met):  # a base cost that overflows is named first
            metric.base_cost(x, y)
        raise ValidationError(PATH_COST_OVERFLOW)
    try:
        total = math.fsum(map(operator.mul, masses, costs))
    except OverflowError:  # fsum's partial sums passed the float range
        total = math.inf
    if not math.isfinite(total):
        raise ValidationError(PATH_COST_OVERFLOW)
    return total


def compose_plan(
    mu: ScenarioTree,
    nu: ScenarioTree,
    of_mu: list[list[int]],
    of_nu: list[list[int]],
    plan_of: Callable[[int, int], list[list[float]]],
    metric: GroundMetric | None = None,
) -> tuple[Coupling, float | None]:
    """Compose a coupling top-down from the one-stage plans of class pairs,
    and, given a ``metric``, its p-th-power cost (else ``None``).

    ``of_mu[t][k]`` and ``of_nu[t][k]`` give the subtree class of node k
    of stage t (``tree_classes``), and ``plan_of(ca, cb)`` the one-stage
    plan of a class pair, rows over ca's children and columns over cb's in
    value order.  It is asked once per class pair reached, and its positive
    cells are kept.  The walk holds stage positions and records the two
    leaves' ranks (``Coupling.of_leaves``), so it builds no path.  A node
    is its history, so a leaf pair is reached once, with the product of
    the fractions along its history pair as mass.  Given a ``metric``, a
    class pair's kept cells hold their children's base costs, each pushed
    node pair a running path cost, stage 1 first (``metrics.add_stages``),
    and the total is ``_total``'s: ``Coupling.cost``'s bits and messages.
    """
    base = None if metric is None else _BaseCosts(metric)
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
    plan = Coupling.of_leaves(mu, nu, cells, masses)
    return plan, None if metric is None else _total(metric, plan, cells, masses, costs)
