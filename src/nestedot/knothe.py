"""Increasing Knothe-Rosenblatt rearrangement and the induced distance.

The rearrangement couples the two conditional laws of every matched
history pair monotonically: one shared uniform per stage drives both
left-continuous quantile transforms, which is atom-safe (the map form
would require atomless conditionals).  Tree children are kept in value
order, so this monotone coupling is the northwest-corner plan of the two
value-sorted conditionals, built by the rule (and with the rounding) of
the transportation simplex's start, once per pair of subtree classes.
Given a metric, the plan is priced as it is composed
(``plans.compose_priced_plan``), with the bits of ``Coupling.cost`` and
no numpy array, so ``compute kr`` never loads numpy.
The ``demo kr-gap`` command compares :func:`kr_distance` with the nested
distance on the stress families of :mod:`nestedot.families`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import GroundMetric
from .nested import check_depths, tree_classes
from .plans import Coupling, compose_plan, compose_priced_plan
from .transport import _northwest_corner
from .tree import ScenarioTree


@dataclass(frozen=True)
class KRCoupling:
    """The rearrangement plan and, if it was priced, its p-th-power cost."""

    coupling: Coupling
    cost: float | None = None


def kr_coupling(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric | None = None
) -> KRCoupling:
    """Increasing Knothe-Rosenblatt rearrangement of the two laws.

    A node pair's one-stage plan depends only on the child masses of its
    subtree classes, so the northwest-corner rule runs once per class pair
    that ``compose_plan`` reaches.  The rule treats rows and columns alike,
    so swapping the arguments transposes the plan exactly.  Given a
    ``metric``, the plan is priced as it is composed: ``cost`` equals
    ``coupling.cost(metric)`` bit for bit.
    """
    check_depths(mu, nu)
    classes_mu, of_mu = tree_classes(mu)
    classes_nu, of_nu = tree_classes(nu)

    def plan_of(ca: int, cb: int) -> list[list[float]]:
        laws = [m for _, m, _ in classes_mu.keys[ca]], [m for _, m, _ in classes_nu.keys[cb]]
        return _northwest_corner(*laws)[0]

    if metric is None:
        return KRCoupling(compose_plan(mu, nu, of_mu, of_nu, plan_of))
    return KRCoupling(*compose_priced_plan(mu, nu, of_mu, of_nu, plan_of, metric))


def kr_distance(mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric) -> float:
    """Transport cost of the rearrangement, reported as the p-th root."""
    return metric.root(kr_coupling(mu, nu, metric).cost)
