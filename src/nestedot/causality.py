"""Causality checkers and the constructive extreme-point splitter.

A coupling is causal (from mu to nu) when, conditionally on any pair of
same-length histories with positive mass, the next x step is distributed
exactly as mu's conditional kernel; bicausal adds the mirrored condition.
On trees this next-step kernel test is equivalent to the measurable-map
definition by the chain rule of disintegration.  All conditioning is on
positive-mass histories only.

On a tree a node is its history, so the checkers work on stage
positions (a leaf's is its rank among the leaf paths): each distinct
plan path that an entry uses is matched once to a leaf rank, and one
pass up the stages sums the plan's mass onto every pair of same-stage
positions, compares the child masses of each pair with the two
kernels, and collects the law of y_t given each x-history for the
Monge tests and the splitter.  The pass reads the plan's cells and
masses and the trees' per-stage columns; it builds no node-id table and
no path or node record per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import AlreadyExtremeError, NotCausalError, ValidationError
from .nested import check_depths
from .plans import Coupling
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
    """Plan mass on every (mu, nu) pair of leaf ranks, in the plan's entry order."""
    width = len(gamma.nu_paths)
    rows = _leaves_of(gamma.mu_paths, {c // width for c in gamma.cells}, mu)
    cols = _leaves_of(gamma.nu_paths, {c % width for c in gamma.cells}, nu)
    out: dict[tuple[int, int], float] = {}
    for c, m in zip(gamma.cells, gamma.masses):
        key = (rows[c // width], cols[c % width])
        out[key] = out.get(key, 0.0) + m
    return out


def _leaves_of(
    paths: tuple[tuple[float, ...], ...], used: set[int], tree: ScenarioTree
) -> dict[int, int]:
    """The leaf rank of each plan path that an entry uses, by path rank.  A
    solver's plan also holds the leaf paths that no entry uses, and those
    need not be paths of ``tree`` (when it is rebuilt from the entries)."""
    rank_of = {path: k for k, path in enumerate(tree.paths[tree.depth])}
    return {a: _snap(paths[a], rank_of) for a in used}


def _snap(path: tuple[float, ...], rank_of: dict[tuple[float, ...], int]) -> int:
    """The rank of the leaf whose path is ``path``, or else, of the leaves
    whose paths are within ``TOL`` of it in every coordinate, the nearest by
    largest coordinate gap, ties going to leaf order."""
    rank = rank_of.get(path)
    if rank is not None:
        return rank
    near = []
    for cand, rank in rank_of.items():
        gaps = [abs(a - b) for a, b in zip(cand, path)]
        if len(cand) == len(path) and all(g <= TOL for g in gaps):
            near.append((max(gaps, default=0.0), rank))
    if not near:
        raise ValidationError(f"plan path {path} is not a leaf path of the tree")
    return min(near, key=lambda c: c[0])[1]


def _marginal_deviation(masses, tree: ScenarioTree, side: int) -> float:
    marg: dict[int, float] = {}
    for key, m in masses.items():
        marg[key[side]] = marg.get(key[side], 0.0) + m
    return max(abs(m - marg.get(k, 0.0)) for k, m in enumerate(tree.masses[tree.depth]))


def _analyze(gamma: Coupling, mu: ScenarioTree, nu: ScenarioTree | None, tol: float):
    """One bottom-up pass over a coupling: kernel deviations, Monge structure.

    Returns the report, the nu tree (the plan's second marginal when
    ``nu`` is None), the plan's mass on every (mu leaf rank, nu leaf rank)
    pair, and, keyed by ``(t, i)``, the conditional law of y_t given the
    x-history at position i of stage t, as ``{value: mass}``, for each
    such law that is not a point mass.
    """
    if nu is None:
        width = len(gamma.nu_paths)
        nu = build_tree((gamma.nu_paths[c % width], m) for c, m in zip(gamma.cells, gamma.masses))
    check_depths(mu, nu)
    masses = _leaf_masses(gamma, mu, nu)
    dev = _marginal_deviation(masses, mu, 0)
    if dev > tol:
        raise ValidationError(f"coupling mu-marginal deviates from the tree path law by {dev}")

    # From the leaves up, each stage sums the mass of every pair of stage-t
    # positions onto the pair of their parents, then compares each parent
    # pair's child masses with the two trees' kernels.
    violations: list[Violation] = []
    worst = {"mu": 0.0, "nu": 0.0}
    y_laws: list[dict[int, dict[float, float]]] = [{} for _ in range(mu.depth + 1)]
    cells = masses
    for t in range(mu.depth, 0, -1):
        mu_up, nu_up, ys, y_law = mu.up[t], nu.up[t], nu.values[t], y_laws[t]
        parents: dict[tuple[int, int], list] = {}
        for (i, j), m in cells.items():
            law = y_law.setdefault(i, {})
            y = ys[j]
            law[y] = law.get(y, 0.0) + m
            key = (mu_up[i], nu_up[j])
            cell = parents.get(key)
            if cell is None:
                cell = parents[key] = [0.0, {}, {}]
            cell[0] += m
            cell[1][i] = cell[1].get(i, 0.0) + m
            cell[2][j] = cell[2].get(j, 0.0) + m
        mu_prob, nu_prob = mu.probs[t], nu.probs[t]
        mu_kids, nu_kids = mu.starts[t - 1], nu.starts[t - 1]
        for (pi, pj), (mass, x_kids, y_kids) in parents.items():
            x_range = range(mu_kids[pi], mu_kids[pi + 1])
            y_range = range(nu_kids[pj], nu_kids[pj + 1])
            devs = (
                ("mu", max([abs(x_kids.get(k, 0.0) / mass - mu_prob[k]) for k in x_range])),
                ("nu", max([abs(y_kids.get(k, 0.0) / mass - nu_prob[k]) for k in y_range])),
            )
            for side, dev in devs:
                worst[side] = max(worst[side], dev)
                if dev > tol:
                    x_history, y_history = mu.paths[t - 1][pi], nu.paths[t - 1][pj]
                    violations.append(Violation(t, x_history, y_history, side, dev))
        cells = {key: cell[0] for key, cell in parents.items()}
    violations.sort(key=lambda v: (v.stage, v.side, v.x_history, v.y_history))

    # A law is not a point mass when two of its atoms each hold at least SNAP of it.
    mixed: dict[tuple[int, int], dict[float, float]] = {}
    for t, y_law in enumerate(y_laws):
        for i, law in y_law.items():
            total = math.fsum(law.values())
            if sum(m / total >= SNAP for m in law.values()) > 1:
                mixed[t, i] = law
    # The adapted map sends each x-history to the y-history of its atoms;
    # it is invertible with an adapted inverse when distinct stage-t
    # x-histories always have distinct images.
    invertible = not mixed
    images: dict[int, tuple[float, ...]] = {0: ()}
    for up, y_law in zip(mu.up[1:], y_laws[1:]):
        if invertible:
            images = {i: images[up[i]] + (max(law, key=law.get),) for i, law in y_law.items()}
            invertible = len(set(images.values())) == len(images)

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

    # Per x-leaf rank, the first (stage, position) up its history whose
    # y-law is not a point mass (None if there is none); its stage is the
    # stopping stage.
    trigger: dict[int, tuple[int, int] | None] = {}
    for leaf in dict.fromkeys(i for i, _ in masses):
        trigger[leaf], k = None, leaf
        for t in range(mu.depth, 0, -1):
            if (t, k) in mixed:
                trigger[leaf] = (t, k)
            k = mu.up[t][k]

    below: dict[tuple[int, int], float] = {}
    mean: dict[tuple[int, int], float] = {}
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

    # Both parts are leaf-rank plans over the two trees' leaves.
    width, leaves_mu, leaves_nu = len(nu.leaves), mu.paths[mu.depth], nu.paths[nu.depth]
    pi_cells, pi_masses, tilde_cells, tilde_masses = [], [], [], []
    for (i, j), m in masses.items():
        node = trigger[i]
        if node is None or below[node] <= lam:
            share = m
        elif leaves_nu[j][node[0] - 1] < mean[node]:
            share = m / below[node]
        else:
            share = 0.0
        cell = i * width + j
        if share > 0.0:
            pi_cells.append(cell)
            pi_masses.append(share)
        rest = (m - lam * share) / (1.0 - lam)
        if rest > 0.0:
            tilde_cells.append(cell)
            tilde_masses.append(rest)

    pi = Coupling.of_leaves(mu, nu, pi_cells, pi_masses)
    pi_tilde = Coupling.of_leaves(mu, nu, tilde_cells, tilde_masses)
    if pi == pi_tilde:
        raise RuntimeError("split produced identical components")
    tau = {
        leaves_mu[leaf]: mu.depth + 1 if node is None else node[0] for leaf, node in trigger.items()
    }
    jmap = {leaves_mu[leaf]: 0.0 if node is None else mean[node] for leaf, node in trigger.items()}
    return SplitResult(lam, pi, pi_tilde, tau, jmap)
