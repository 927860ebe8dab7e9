"""Parameterized instance families used by demos, regressions and tests."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .embedding import NestedAtom, NestedDistribution
from .errors import ValidationError
from .plans import Coupling, CouplingEntry
from .tree import ScenarioTree, build_tree

if TYPE_CHECKING:
    import numpy as np

_VALUE_LATTICE = tuple(round(-2.0 + 0.25 * k, 6) for k in range(17))
# A random tree's most children per node, and its default most leaves.
_MAX_BRANCH = 3
_MAX_LEAVES = 12


def _fan(x: float, y: float = 1.0) -> ScenarioTree:
    """The two-branch law (x, y), (-x, -y), each of mass 1/2."""
    return build_tree([((x, y), 0.5), ((-x, -y), 0.5)])


def collapsing_fan(n: int) -> ScenarioTree:
    """Two-branch fan with stage-1 values +-1/n and stage-2 values +-1."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return _fan(1.0 / n)


def merged_limit() -> ScenarioTree:
    """Tree with a single stage-1 state 0 branching to +-1."""
    # Not ``_fan(0.0)``, whose second branch would name the node -0.0.
    return build_tree([((0.0, 1.0), 0.5), ((0.0, -1.0), 0.5)])


def fan_vs_merged(n: int) -> tuple[ScenarioTree, ScenarioTree]:
    """The fan together with its first-coordinate-merged counterpart."""
    return collapsing_fan(n), merged_limit()


def perturbed_pair(eps: float) -> tuple[ScenarioTree, ScenarioTree]:
    """Two-branch laws (eps, 1), (-eps, -1) versus (0, 1), (0, -1).

    ``eps`` must be finite and nonzero: at 0 the two laws are equal.
    """
    if not (math.isfinite(eps) and eps != 0.0):
        raise ValidationError(f"eps must be finite and nonzero, got {eps!r}")
    return _fan(eps), merged_limit()


def crossed_fans(n: int) -> tuple[ScenarioTree, ScenarioTree]:
    """Fans whose second-stage values are sign-crossed between the laws.

    The increasing rearrangement matches equal stage-1 values, so its
    distance is n, while the bicausal plan that anti-matches stage 1 has
    distance 2/n.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return _fan(1.0 / n, n / 2.0), _fan(1.0 / n, -n / 2.0)


def hidden_branch_pair(n: int, second_stage_atoms: int = 16) -> tuple[ScenarioTree, ScenarioTree]:
    """Branch-revealing tree versus its merged counterpart.

    One branch emits a uniform second stage on [0, 1], the other on
    [1, 2]; the first coordinate is 1/n on the second branch and 0 on the
    first.  In the merged law the first coordinate is 0 on both branches.
    Uniforms are discretized to ``second_stage_atoms`` equal atoms at the
    midpoints of a regular grid.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    k = second_stage_atoms
    if k < 1:
        raise ValidationError(f"need at least one second-stage atom, got {k}")
    mids = [(2 * i + 1) / (2 * k) for i in range(k)]
    w = 0.5 / k
    mu_n = build_tree(
        [((0.0, m), w) for m in mids] + [((1.0 / n, 1.0 + m), w) for m in mids]
    )
    mu = build_tree(
        [((0.0, m), w) for m in mids] + [((0.0, 1.0 + m), w) for m in mids]
    )
    return mu_n, mu


def fan_limit_nested() -> NestedDistribution:
    """Depth-2 nested distribution with two x=0 atoms and opposite leaves.

    This is the limit of the lifted collapsing fans; it cannot arise as
    the lift of any tree because two atoms share the value 0 with
    different continuations.
    """
    up = NestedDistribution((NestedAtom(1.0, 1.0, None),))
    down = NestedDistribution((NestedAtom(1.0, -1.0, None),))
    return NestedDistribution((NestedAtom(0.5, 0.0, up), NestedAtom(0.5, 0.0, down)))


def random_tree(
    rng: np.random.Generator, depth: int, max_leaves: int = _MAX_LEAVES
) -> ScenarioTree:
    """Random tree with lattice values, bounded branching and leaf count."""
    if depth < 1:
        raise ValidationError("depth must be >= 1")

    pairs = []

    def expand(prefix: tuple[float, ...], weight: float, stage: int, budget: int):
        if stage == depth:
            pairs.append((prefix, weight))
            return
        nb = int(rng.integers(1, min(_MAX_BRANCH, budget) + 1))
        shares = rng.integers(1, 5, size=nb).astype(float)
        shares /= shares.sum()
        values = rng.choice(len(_VALUE_LATTICE), size=nb, replace=False)
        sub_budgets = _split_budget(rng, budget, nb)
        for v_idx, share, sub in zip(values, shares, sub_budgets):
            expand(prefix + (_VALUE_LATTICE[v_idx],), weight * share, stage + 1, sub)

    expand((), 1.0, 0, max_leaves)
    return build_tree(pairs)


def _split_budget(rng: np.random.Generator, budget: int, parts: int) -> list[int]:
    out = [1] * parts
    for _ in range(budget - parts):
        out[int(rng.integers(parts))] += 1
    return out


def random_tree_pair(rng: np.random.Generator, depth: int) -> tuple[ScenarioTree, ScenarioTree]:
    return random_tree(rng, depth), random_tree(rng, depth)


def random_adapted_map(rng: np.random.Generator, tree: ScenarioTree) -> list[list[float]]:
    """Assign a target value to every non-root node (one per x-history):
    per stage t = 1..depth, in that order, the values of its nodes by
    position."""
    return [
        [float(_VALUE_LATTICE[int(rng.integers(len(_VALUE_LATTICE)))]) for _ in values]
        for values in tree.values[1:]
    ]


def monge_pushforward(
    tree: ScenarioTree, assignment: list[list[float]]
) -> tuple[Coupling, ScenarioTree]:
    """Plan (id, T)_* mu of an adapted map given per-history values, laid
    out as ``random_adapted_map``'s: the image path of a node extends its
    parent's by the node's value."""
    ypaths = [()]
    for up, ys in zip(tree.up[1:], assignment, strict=True):
        ypaths = [ypaths[k] + (y,) for k, y in zip(up, ys, strict=True)]
    entries = list(map(CouplingEntry, tree.paths[tree.depth], ypaths, tree.masses[tree.depth]))
    return Coupling(entries), build_tree((e.nu_path, e.mass) for e in entries)


def random_monge_mixture(
    rng: np.random.Generator, tree: ScenarioTree
) -> tuple[Coupling, ScenarioTree, float]:
    """Strict mixture of two distinct adapted-map plans with the same source.

    The result is causal (convexity) but not Monge-adapted, because the two
    maps are forced to disagree on at least one positive-mass history.
    """
    first, second = random_adapted_map(rng, tree), random_adapted_map(rng, tree)
    while second == first:
        second = random_adapted_map(rng, tree)
    alpha = float(rng.integers(2, 9)) / 10.0
    plan_a = monge_pushforward(tree, first)[0]
    plan_b = monge_pushforward(tree, second)[0]
    masses: dict[tuple, float] = {}
    for plan, w in ((plan_a, alpha), (plan_b, 1.0 - alpha)):
        for e in plan.entries:
            key = (e.mu_path, e.nu_path)
            masses[key] = masses.get(key, 0.0) + w * e.mass
    nu = build_tree((y, m) for (_, y), m in masses.items())
    return Coupling.from_mass_map(masses), nu, alpha
