"""Increasing Knothe-Rosenblatt rearrangement and the induced distance.

The rearrangement couples the two conditional laws of every matched
history pair monotonically: one shared uniform per stage drives both
left-continuous quantile transforms, which is atom-safe (the map form
would require atomless conditionals).  Tree children are kept in value
order, so this monotone coupling is the northwest-corner plan of the two
value-sorted conditionals, built by the rule (and with the rounding) of
the transportation simplex's start.  The ``demo kr-gap`` command compares
:func:`kr_distance` with the nested distance on the stress families of
:mod:`nestedot.families`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import GroundMetric
from .nested import Coupling, check_depths, compose_plan
from .transport import _northwest_corner
from .tree import ScenarioTree


@dataclass(frozen=True)
class KRCoupling:
    """The rearrangement plan."""

    coupling: Coupling


def kr_coupling(mu: ScenarioTree, nu: ScenarioTree) -> KRCoupling:
    """Increasing Knothe-Rosenblatt rearrangement of the two laws.

    The northwest-corner rule treats rows and columns alike, so swapping
    the arguments transposes the plan exactly.
    """
    check_depths(mu, nu)

    def cells(i: int, j: int) -> list[tuple[int, int, float]]:
        kids_i, kids_j = mu.children(i), nu.children(j)
        flow, basis = _northwest_corner(
            [mu.node(k).cond_prob for k in kids_i], [nu.node(k).cond_prob for k in kids_j]
        )
        # The basis may hold degenerate cells of zero flow; a plan has none.
        return [(kids_i[a], kids_j[b], flow[a][b]) for a, b in basis if flow[a][b] > 0.0]

    return KRCoupling(compose_plan(mu, nu, cells))


def kr_distance(mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric) -> float:
    """Transport cost of the rearrangement, reported as the p-th root."""
    plan = kr_coupling(mu, nu).coupling
    return metric.root(plan.cost(metric))
