"""Increasing Knothe-Rosenblatt rearrangement and the induced distance.

The rearrangement is realized in its random-variable form: one shared
uniform per stage drives the left-continuous quantile transforms of both
conditional laws.  On finitely supported trees this amounts to a common
refinement of the two conditional CDF partitions of (0, 1] at every stage,
which is atom-safe (the map form would require atomless conditionals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import OracleMismatchError, ValidationError
from .families import crossed_fans, hidden_branch_pair
from .metrics import GroundMetric
from .nested import Coupling, compose_plan, nested_distance
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


def _cumulative(tree: ScenarioTree, node: int, reverse: bool):
    kids = tree.children(node)
    if reverse:
        kids = tuple(reversed(kids))
    cum = []
    acc = 0.0
    for k in kids:
        acc += tree.node(k).cond_prob
        cum.append(acc)
    cum[-1] = 1.0
    return kids, cum


def _build(mu: ScenarioTree, nu: ScenarioTree, decreasing: bool):
    if mu.depth != nu.depth:
        raise ValidationError(f"depth mismatch: {mu.depth} vs {nu.depth}")
    segments: dict[tuple[int, int, int], tuple[Segment, ...]] = {}

    def cells(i: int, j: int) -> list[tuple[int, int, float]]:
        kids_i, cum_i = _cumulative(mu, i, False)
        kids_j, cum_j = _cumulative(nu, j, decreasing)
        segs = segments[mu.node(i).stage + 1, i, j] = tuple(
            Segment(lo, hi, kids_i[a], kids_j[b])
            for lo, hi, a, b in common_refinement(cum_i, cum_j)
        )
        return [(s.mu_child, s.nu_child, s.hi - s.lo) for s in segs]

    return compose_plan(mu, nu, cells), segments


def kr_coupling(mu: ScenarioTree, nu: ScenarioTree) -> KRCoupling:
    """Increasing Knothe-Rosenblatt rearrangement of the two laws.

    The common refinement treats both partitions alike, so swapping the
    arguments transposes the plan and mirrors the segments exactly.
    """
    return KRCoupling(*_build(mu, nu, decreasing=False))


def antitone_coupling(mu: ScenarioTree, nu: ScenarioTree) -> Coupling:
    """Stagewise decreasing rearrangement (internal helper, not a metric)."""
    return _build(mu, nu, decreasing=True)[0]


def kr_distance(mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric) -> float:
    """Transport cost of the rearrangement, reported as the p-th root."""
    plan = kr_coupling(mu, nu).coupling
    return metric.root(plan.cost(metric))


class KRGapResult(NamedTuple):
    kr: float
    nested: float


def kr_gap_demo(
    n: int,
    p: float,
    family: str = "crossed_fans",
    second_stage_atoms: int = 16,
) -> KRGapResult:
    """Rearrangement cost versus nested distance on a stress family.

    ``crossed_fans`` pairs fans whose stage-2 values are sign-crossed, so
    the increasing rearrangement pays a large stage-2 bill while stage-1
    anti-matching is cheap.  ``hidden_branch`` pairs a branch-revealing
    tree against its merged counterpart, with the uniform second stage
    discretized to ``second_stage_atoms`` equal atoms (a desk-scale
    stand-in for the continuous construction).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if family == "crossed_fans":
        mu, nu = crossed_fans(n)
    elif family == "hidden_branch":
        mu, nu = hidden_branch_pair(n, second_stage_atoms)
    else:
        raise ValidationError(f"unknown family {family!r}")
    metric = GroundMetric.usual(p)
    kr = kr_distance(mu, nu, metric)
    nd = nested_distance(mu, nu, metric).distance
    if kr < nd - 1e-9:
        raise OracleMismatchError(
            f"rearrangement cost {kr} fell below the nested distance {nd}"
        )
    return KRGapResult(kr, nd)
