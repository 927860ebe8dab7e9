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
from .nested import Coupling, nested_distance
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
    depth = mu.depth
    masses: dict[tuple[tuple[float, ...], tuple[float, ...]], float] = {}
    segments: dict[tuple[int, int, int], tuple[Segment, ...]] = {}
    stack = [(mu.root, nu.root, 1.0, 0)]
    while stack:
        i, j, mass, t = stack.pop()
        if t == depth:
            key = (mu.path(i), nu.path(j))
            masses[key] = masses.get(key, 0.0) + mass
            continue
        kids_i, cum_i = _cumulative(mu, i, False)
        kids_j, cum_j = _cumulative(nu, j, decreasing)
        segs = common_refinement(cum_i, cum_j)
        segments[(t + 1, i, j)] = tuple(
            Segment(lo, hi, kids_i[a], kids_j[b]) for lo, hi, a, b in segs
        )
        for lo, hi, a, b in segs:
            stack.append((kids_i[a], kids_j[b], mass * (hi - lo), t + 1))
    return Coupling.from_mass_map(masses), segments


def kr_coupling(mu: ScenarioTree, nu: ScenarioTree) -> KRCoupling:
    """Increasing Knothe-Rosenblatt rearrangement of the two laws.

    Computed on the canonically ordered pair and transposed back, so the
    construction is exactly symmetric in its arguments.
    """
    if mu.depth != nu.depth:
        raise ValidationError(f"depth mismatch: {mu.depth} vs {nu.depth}")
    swapped = mu.canonical_key() > nu.canonical_key()
    first, second = (nu, mu) if swapped else (mu, nu)
    coupling, segments = _build(first, second, decreasing=False)
    if swapped:
        coupling = coupling.transpose()
        segments = {
            (t, j, i): tuple(Segment(s.lo, s.hi, s.nu_child, s.mu_child) for s in segs)
            for (t, i, j), segs in segments.items()
        }
    return KRCoupling(coupling, segments)


def antitone_coupling(mu: ScenarioTree, nu: ScenarioTree) -> Coupling:
    """Stagewise decreasing rearrangement (internal helper, not a metric)."""
    if mu.depth != nu.depth:
        raise ValidationError(f"depth mismatch: {mu.depth} vs {nu.depth}")
    coupling, _ = _build(mu, nu, decreasing=True)
    return coupling


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
