"""Causality checkers and the constructive extreme-point splitter.

A coupling is causal (from mu to nu) when, conditionally on any pair of
same-length histories with positive mass, the next x step is distributed
exactly as mu's conditional kernel; bicausal adds the mirrored condition.
On trees this next-step kernel test is equivalent to the measurable-map
definition by the chain rule of disintegration.  All conditioning is on
positive-mass histories only.

On a tree a node is its history, so the checkers work on node ids: each
plan path is matched once to a leaf, and one pass up the stages sums the
plan's mass onto every pair of same-stage nodes, compares the child
masses of each pair with the two kernels, and collects the law of y_t
given each x-history for the Monge tests and the splitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import AlreadyExtremeError, NotCausalError, ValidationError
from .nested import Coupling
from .tolerances import SNAP, TOL
from .tree import ScenarioTree, build_tree


@dataclass(frozen=True)
class Violation:
    stage: int
    x_history: tuple[float, ...]
    y_history: tuple[float, ...]
    side: str  # "mu" or "nu"
    deviation: float


@dataclass(frozen=True)
class CausalityReport:
    """Monge-adapted: conditionally on every positive-mass x-history the
    current y coordinate is a point mass (second-largest conditional atom
    below ``SNAP``).  Invertible additionally requires the induced path map
    to be injective on the support with an adapted inverse."""

    is_causal: bool
    is_bicausal: bool
    is_monge_adapted: bool
    is_invertible_monge: bool
    violations: tuple[Violation, ...] = ()
    max_mu_deviation: float = 0.0
    max_nu_deviation: float = 0.0

    def __post_init__(self):
        if self.is_bicausal and not self.is_causal:
            raise ValidationError("bicausal implies causal")
        if self.is_invertible_monge and not self.is_monge_adapted:
            raise ValidationError("invertible Monge implies Monge-adapted")


def _leaf_masses(
    gamma: Coupling, mu: ScenarioTree, nu: ScenarioTree
) -> dict[tuple[int, int], float]:
    """Plan mass on every (mu leaf, nu leaf) pair.

    Each plan path is matched to a leaf path, exactly or else within
    ``TOL`` per coordinate.
    """
    mu_leaf = {mu.path(k): k for k in mu.leaves}
    nu_leaf = {nu.path(k): k for k in nu.leaves}
    out: dict[tuple[int, int], float] = {}
    for e in gamma.entries:
        key = (_snap(e.mu_path, mu_leaf), _snap(e.nu_path, nu_leaf))
        out[key] = out.get(key, 0.0) + e.mass
    return out


def _snap(path: tuple[float, ...], leaf_of: dict[tuple[float, ...], int]) -> int:
    """The leaf whose path is ``path``, or else, of the leaves whose paths
    are within ``TOL`` of it in every coordinate, the nearest by largest
    coordinate gap, ties going to leaf order."""
    leaf = leaf_of.get(path)
    if leaf is not None:
        return leaf
    near = []
    for cand, leaf in leaf_of.items():
        gaps = [abs(a - b) for a, b in zip(cand, path)]
        if len(cand) == len(path) and all(g <= TOL for g in gaps):
            near.append((max(gaps, default=0.0), leaf))
    if not near:
        raise ValidationError(f"plan path {path} is not a leaf path of the tree")
    return min(near, key=lambda c: c[0])[1]


def _marginal_deviation(masses, tree: ScenarioTree, side: int) -> float:
    marg: dict[int, float] = {}
    for key, m in masses.items():
        marg[key[side]] = marg.get(key[side], 0.0) + m
    return max(abs(tree.mass(k) - marg.get(k, 0.0)) for k in tree.leaves)


def _history(tree: ScenarioTree, nid: int) -> list[int]:
    """The nodes from stage 1 down to ``nid``."""
    out = []
    while nid != tree.root:
        out.append(nid)
        nid = tree.node(nid).parent
    return out[::-1]


def _analyze(gamma: Coupling, mu: ScenarioTree, nu: ScenarioTree | None, tol: float):
    """One bottom-up pass over a coupling: kernel deviations, Monge structure.

    Returns the report, the nu tree (the plan's second marginal when
    ``nu`` is None), the plan's mass on every (mu leaf, nu leaf) pair, and
    the conditional law of y_t given the x-history i, as ``{value: mass}``,
    of every mu node i of stage t whose law is not a point mass.
    """
    if nu is None:
        nu = build_tree((e.nu_path, e.mass) for e in gamma.entries)
    masses = _leaf_masses(gamma, mu, nu)
    dev = _marginal_deviation(masses, mu, 0)
    if dev > tol:
        raise ValidationError(f"coupling mu-marginal deviates from the tree path law by {dev}")

    # From the leaves up, each stage sums the mass of every pair of stage-t
    # nodes onto the pair of their parents, then compares each parent
    # pair's child masses with the two trees' kernels.
    violations: list[Violation] = []
    worst = {"mu": 0.0, "nu": 0.0}
    y_law: dict[int, dict[float, float]] = {}
    cells = masses
    for t in range(mu.depth, 0, -1):
        parents: dict[tuple[int, int], list] = {}
        for (i, j), m in cells.items():
            law = y_law.setdefault(i, {})
            y = nu.node(j).value
            law[y] = law.get(y, 0.0) + m
            key = (mu.node(i).parent, nu.node(j).parent)
            cell = parents.get(key)
            if cell is None:
                cell = parents[key] = [0.0, {}, {}]
            cell[0] += m
            cell[1][i] = cell[1].get(i, 0.0) + m
            cell[2][j] = cell[2].get(j, 0.0) + m
        for (pi, pj), (mass, x_kids, y_kids) in parents.items():
            for side, tree, node, kids in (("mu", mu, pi, x_kids), ("nu", nu, pj, y_kids)):
                dev = max(
                    abs(kids.get(k, 0.0) / mass - tree.node(k).cond_prob)
                    for k in tree.children(node)
                )
                worst[side] = max(worst[side], dev)
                if dev > tol:
                    violations.append(Violation(t, mu.path(pi), nu.path(pj), side, dev))
        cells = {key: cell[0] for key, cell in parents.items()}
    violations.sort(key=lambda v: (v.stage, v.side, v.x_history, v.y_history))

    # A law is not a point mass when two of its atoms each hold at least SNAP of it.
    mixed: dict[int, dict[float, float]] = {}
    for i, law in y_law.items():
        total = math.fsum(law.values())
        if sum(m / total >= SNAP for m in law.values()) > 1:
            mixed[i] = law
    # The adapted map sends each x-history to the y-history of its atoms;
    # it is invertible with an adapted inverse when distinct stage-t
    # x-histories always have distinct images.
    invertible = not mixed
    images: dict[int, tuple[float, ...]] = {mu.root: ()}
    for t in range(1, mu.depth + 1):
        if not invertible:
            break
        stage = [i for i in mu.nodes_at_stage(t) if i in y_law]
        for i in stage:
            law = y_law[i]
            images[i] = images[mu.node(i).parent] + (max(law, key=law.get),)
        invertible = len({images[i] for i in stage}) == len(stage)

    causal = worst["mu"] <= tol
    report = CausalityReport(
        is_causal=causal,
        is_bicausal=causal and worst["nu"] <= tol,
        is_monge_adapted=not mixed,
        is_invertible_monge=invertible,
        violations=tuple(violations),
        max_mu_deviation=worst["mu"],
        max_nu_deviation=worst["nu"],
    )
    return report, nu, masses, mixed


def is_causal(
    gamma: Coupling,
    mu: ScenarioTree,
    nu: ScenarioTree | None = None,
    tol: float = TOL,
) -> CausalityReport:
    """Check the one-sided (mu to nu) information constraint.

    When ``nu`` is omitted it is reconstructed from the coupling's second
    marginal, which leaves the causal fields unchanged and makes the
    bicausal field refer to that induced law.
    """
    return _analyze(gamma, mu, nu, tol)[0]


def is_bicausal(
    gamma: Coupling,
    mu: ScenarioTree,
    nu: ScenarioTree,
    tol: float = TOL,
) -> CausalityReport:
    """Check both information constraints; requires both trees."""
    report, _, masses, _ = _analyze(gamma, mu, nu, tol)
    dev = _marginal_deviation(masses, nu, 1)
    if dev > tol:
        raise ValidationError(f"coupling nu-marginal deviates from the tree path law by {dev}")
    return report


# The paper's name for the Monge test: the report of ``is_causal`` carries
# the Monge fields, and ``perfbench/spans.py`` still binds this name.
detect_monge = is_causal


@dataclass(frozen=True)
class SplitResult:
    """Strict convex decomposition gamma = lam*pi + (1-lam)*pi_tilde."""

    lam: float
    pi: Coupling
    pi_tilde: Coupling
    tau_per_history: Mapping[tuple[float, ...], int]
    j_per_history: Mapping[tuple[float, ...], float] = field(default_factory=dict)


def split_non_extreme(
    gamma: Coupling,
    mu: ScenarioTree,
    nu: ScenarioTree | None = None,
    lam: float | None = None,
    tol: float = TOL,
) -> SplitResult:
    """Split a causal, non-Monge coupling into two distinct causal parts.

    For each x-path, tau is the first stage at which the conditional law
    of y_t given the x-history stops being a point mass; there j is the
    conditional mean and pi renormalizes the kernel onto {y_tau < j}
    whenever that event has conditional mass above lam, with pi_tilde
    taking the exact remainder.  The default lam is half the smallest
    below/above-threshold conditional mass over triggering histories,
    which keeps every triggering branch active; when rounding leaves it
    outside (0, 1), no strict split is found and the call is rejected.
    """
    report, nu, masses, mixed = _analyze(gamma, mu, nu, tol)
    if not report.is_causal:
        raise NotCausalError("coupling is not causal; nothing to split")
    if report.is_monge_adapted:
        raise AlreadyExtremeError("already extreme: coupling is Monge-adapted")

    # Per x-leaf, the first x-node along its history whose y-law is not a
    # point mass (None if there is none); its stage is the stopping stage.
    trigger = {
        leaf: next((k for k in _history(mu, leaf) if k in mixed), None)
        for leaf in dict.fromkeys(i for i, _ in masses)
    }

    below: dict[int, float] = {}
    mean: dict[int, float] = {}
    for node in set(trigger.values()) - {None}:
        law = mixed[node]
        total = math.fsum(law.values())
        z = math.fsum(v * m for v, m in law.items()) / total
        mean[node] = z
        below[node] = math.fsum(m for v, m in law.items() if v < z) / total

    if lam is None:
        lam = 0.5 * min(min(c, 1.0 - c) for c in below.values())
        if not (0.0 < lam < 1.0):
            raise ValidationError(
                f"no strict split: the default lambda {lam!r} is not inside (0, 1)"
            )
    else:
        if not (0.0 < lam < 1.0):
            raise ValidationError(f"lambda must lie in (0, 1), got {lam!r}")
        if all(c <= lam for c in below.values()):
            raise ValidationError(
                "lambda leaves no triggering branch active; the split would be vacuous"
            )

    pi_masses: dict[tuple, float] = {}
    tilde_masses: dict[tuple, float] = {}
    for (i, j), m in masses.items():
        key = (mu.path(i), nu.path(j))
        node = trigger[i]
        if node is None or below[node] <= lam:
            pi_masses[key] = m
        elif nu.path(j)[mu.node(node).stage - 1] < mean[node]:
            pi_masses[key] = m / below[node]
        rest = (m - lam * pi_masses.get(key, 0.0)) / (1.0 - lam)
        if rest > 0.0:
            tilde_masses[key] = rest

    pi = Coupling.from_mass_map(pi_masses)
    pi_tilde = Coupling.from_mass_map(tilde_masses)
    if pi.entries == pi_tilde.entries:
        raise RuntimeError("split produced identical components")
    tau = {
        mu.path(leaf): mu.depth + 1 if node is None else mu.node(node).stage
        for leaf, node in trigger.items()
    }
    jmap = {
        mu.path(leaf): 0.0 if node is None else mean[node] for leaf, node in trigger.items()
    }
    return SplitResult(lam, pi, pi_tilde, tau, jmap)
