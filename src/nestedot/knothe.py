"""Increasing Knothe-Rosenblatt rearrangement and the induced distance.

The rearrangement is realized in its random-variable form: one shared
uniform per stage drives the left-continuous quantile transforms of both
conditional laws.  On finitely supported trees this amounts to a common
refinement of the two conditional CDF partitions of (0, 1] at every stage,
which is atom-safe (the map form would require atomless conditionals).
The ``demo kr-gap`` command compares :func:`kr_distance` with the nested
distance on the stress families of :mod:`nestedot.families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .metrics import GroundMetric
from .nested import Coupling, check_depths, compose_plan
from .transport import common_refinement
from .tree import ScenarioTree


class Segment(NamedTuple):
    lo: float
    hi: float
    mu_child: int
    nu_child: int


@dataclass(frozen=True)
class KRCoupling:
    """The rearrangement plan plus its quantile-level decomposition.

    ``segments`` maps (stage, mu node, nu node) of every matched history
    pair to the u-intervals of the shared uniform at that stage, each
    tagged with the child pair it selects.
    """

    coupling: Coupling
    segments: Mapping[tuple[int, int, int], tuple[Segment, ...]]


def _cumulative(tree: ScenarioTree, node: int):
    kids = tree.children(node)
    cum = []
    acc = 0.0
    for k in kids:
        acc += tree.node(k).cond_prob
        cum.append(acc)
    cum[-1] = 1.0
    return kids, cum


def kr_coupling(mu: ScenarioTree, nu: ScenarioTree) -> KRCoupling:
    """Increasing Knothe-Rosenblatt rearrangement of the two laws.

    The common refinement treats both partitions alike, so swapping the
    arguments transposes the plan and mirrors the segments exactly.
    """
    check_depths(mu, nu)
    segments: dict[tuple[int, int, int], tuple[Segment, ...]] = {}

    def cells(i: int, j: int) -> list[tuple[int, int, float]]:
        kids_i, cum_i = _cumulative(mu, i)
        kids_j, cum_j = _cumulative(nu, j)
        segs = segments[mu.node(i).stage + 1, i, j] = tuple(
            Segment(lo, hi, kids_i[a], kids_j[b])
            for lo, hi, a, b in common_refinement(cum_i, cum_j)
        )
        return [(s.mu_child, s.nu_child, s.hi - s.lo) for s in segs]

    return KRCoupling(compose_plan(mu, nu, cells), segments)


def kr_distance(mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric) -> float:
    """Transport cost of the rearrangement, reported as the p-th root."""
    plan = kr_coupling(mu, nu).coupling
    return metric.root(plan.cost(metric))
