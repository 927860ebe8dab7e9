"""Nested (bicausal) distance by backward recursion, with an LP oracle.

The continuation value of a pair of same-stage nodes is the optimal
one-stage transport between their conditional next-step laws, where the
cost of a child pair adds the child pair's continuation value.  It
depends only on the two subtrees, so the backward recursion runs over
pairs of exact subtree classes (the atoms of the nested distributions)
and serves both scenario trees and their lifts.  An optimal bicausal
coupling is composed down the node pairs from the class pairs' one-stage
plans (``plans.compose_plan``, shared with the Knothe-Rosenblatt plans),
on the first read of ``NestedResult.plan``, so a caller that reads only
the distance never composes one.
The recursion validates once per class: each class's child masses are
checked and normalized once, and each one-stage problem goes to the
transport kernel without the checks or the dual pair of ``solve_ot``.
Its costs, masses and plans are Python lists, so the recursion builds
no numpy array.  Each problem is solved in the orientation that
``_solve`` picks from its content alone, so swapping the operands, or
lifting them, gives the same bits.
``brute_force_bicausal`` solves the same problem as a single linear
program over all same-stage node pairs, with one kernel row per child
of either node of a pair less one implied row per pair, and serves as an
independent oracle.  Its column-wise matrix is built by index arithmetic
from the stage layout that also prices the Wasserstein solve's leaf
pairs, and HiGHS's primal simplex solves it in one call, at feasibility
tolerances of ``TOL``, from the vertex of the Knothe-Rosenblatt coupling,
which the two laws alone give.
scipy is imported only when the oracle runs, through ``linprog`` below,
which hands scipy's HiGHS bindings the LP as whole arrays.  So every
other caller of the package starts without scipy; it is the ``oracle``
extra, and without it the oracle raises a RuntimeError.
numpy, too, is loaded on first use (``transport.np``): the recursion
never loads it, and the Wasserstein solve and the oracle do.
"""

from __future__ import annotations

import functools
import importlib
import math
from typing import Callable

from .errors import SizeGuardError, ValidationError
from .metrics import PATH_COST_OVERFLOW, GroundMetric, add_stages
from .plans import Coupling, compose_plan
from .tolerances import SNAP, TOL
from .transport import _kernel, _normalized, np, solve_ot
from .tree import ScenarioTree

ORACLE_SIZE_GUARD = 10_000


class SubtreeClasses:
    """Subtree classes of one operand, hash-consed bottom-up.

    A class is keyed by the exact tuple of ``(value, probability, child
    class)`` over a node's children in value order; class 0 is the empty
    subtree below a leaf.  The continuation value of a node pair depends
    only on the two subtrees, so it is computed once per class pair.  Keys
    compare floats exactly: two equal subtrees whose numbers differ in the
    last bit get two classes, but two different subtrees never share one.
    """

    def __init__(self):
        self._ids: dict[tuple, int] = {(): 0}
        self._heights = [0]
        self.keys: list[tuple[tuple[float, float, int], ...]] = [()]
        self.levels: list[list[int]] = [[0]]

    def intern(self, key: tuple[tuple[float, float, int], ...]) -> int:
        """Class id of the subtree whose children are ``key``."""
        cid = self._ids.get(key)
        if cid is None:
            cid = self._ids[key] = len(self.keys)
            self.keys.append(key)
            height = 1 + self._heights[key[0][2]]
            self._heights.append(height)
            if height == len(self.levels):
                self.levels.append([])
            self.levels[height].append(cid)
        return cid


def tree_classes(tree: ScenarioTree) -> tuple[SubtreeClasses, list[list[int]]]:
    """The subtree classes of a tree and, per stage, the class of each node
    by position: ``of[t][k]`` is node k of stage t's, so ``of[0][0]`` is
    the root's."""
    classes = SubtreeClasses()
    of = [[0] * len(tree.leaves)]
    for t in range(tree.depth - 1, -1, -1):
        kids = list(zip(tree.values[t + 1], tree.probs[t + 1], of[-1]))
        starts = tree.starts[t]
        of.append([classes.intern(tuple(kids[a:b])) for a, b in zip(starts, starts[1:])])
    return classes, of[::-1]


Solved = dict[tuple[int, int], tuple[float, list[list[float]] | None]]
# A class's child masses as given (they decide orientation) and normalized.
Law = tuple[list[float], list[float]]


def _law(masses: list[float]) -> Law:
    return masses, _normalized(masses)


def _solve(cost: list[list[float]], a: Law, b: Law) -> tuple[float, list[list[float]]]:
    """Optimal value and plan of one transport subproblem, cost as rows.

    The problem and its transpose ``(cost.T, b, a)`` have the same optimum,
    but a solver breaks ties and adds up in the orientation it is given.
    Of the two, the one whose masses, then cost rows, compare lower is
    solved, and the plan is returned in the caller's orientation.  The
    transposed call thus gives the same value bit for bit and exactly the
    transposed plan.  A cost entry that is not finite (a base cost plus a
    continuation value past the float range) means that a path cost
    passes that range, and is rejected so.
    """
    for row in cost:
        if not all(map(math.isfinite, row)):
            raise ValidationError(PATH_COST_OVERFLOW)
    flip = b[0] < a[0]
    if flip or b[0] == a[0]:
        flipped = [list(col) for col in zip(*cost)]
        if flip or flipped < cost:
            x, value, _, _ = _kernel(flipped, b[1], a[1])
            return value, [list(row) for row in zip(*x)]
    x, value, _, _ = _kernel(cost, a[1], b[1])
    return value, x


def backward(first: SubtreeClasses, second: SubtreeClasses, metric: GroundMetric) -> Solved:
    """Backward recursion over pairs of same-height subtree classes.

    Each pair gets the optimal one-stage transport between the children's
    laws, where a child pair costs the base distance of its values (p-th
    power) plus the continuation value of its class pair.  Each class's
    child masses are checked and normalized once, and the subproblems go
    to the transport kernel directly, as cost rows and mass lists, without
    duals.  Returns the value and the one-stage plan (rows) of every class
    pair; the empty pair ``(0, 0)`` has value zero and no plan.
    """
    solved: Solved = {(0, 0): (0.0, None)}
    base_cost = metric.base_cost
    for level_a, level_b in zip(first.levels[1:], second.levels[1:]):
        laws_b = [
            (cb, second.keys[cb], _law([m for _, m, _ in second.keys[cb]])) for cb in level_b
        ]
        for ca in level_a:
            kids_a = first.keys[ca]
            law_a = _law([m for _, m, _ in kids_a])
            for cb, kids_b, law_b in laws_b:
                cost = [
                    [base_cost(va, vb) + solved[sa, sb][0] for vb, _, sb in kids_b]
                    for va, _, sa in kids_a
                ]
                solved[ca, cb] = _solve(cost, law_a, law_b)
    return solved


class NestedResult:
    """A bicausal distance and an optimal bicausal plan.

    The solver hands over the distance and a zero-argument builder of the
    plan.  The plan is built on the first read of ``plan`` and kept, so a
    caller that reads only ``distance`` never pays for it.
    """

    def __init__(self, distance: float, build_plan: Callable[[], Coupling]):
        self.distance = distance
        self._build_plan = build_plan

    @functools.cached_property
    def plan(self) -> Coupling:
        return self._build_plan()


def check_depths(first, second) -> None:
    """Reject two operands (trees or nested distributions) of unequal depth."""
    if first.depth != second.depth:
        raise ValidationError(f"depth mismatch: {first.depth} vs {second.depth}")


def nested_distance(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric
) -> NestedResult:
    """Nested distance and an optimal bicausal coupling.

    The recursion solves one transport problem per pair of subtree
    classes (see :class:`SubtreeClasses`) rather than per node pair.  On
    the first read of the result's ``plan``, the plan is composed down the
    node pairs from the class pairs' plans.
    Each class pair is solved in the orientation its content decides, so
    ``nested_distance(nu, mu)`` mirrors the distance and the plan bit for
    bit.
    """
    check_depths(mu, nu)
    classes_mu, of_mu = tree_classes(mu)
    classes_nu, of_nu = tree_classes(nu)
    solved = backward(classes_mu, classes_nu, metric)
    total = solved[of_mu[0][0], of_nu[0][0]][0]
    return NestedResult(
        metric.root(total),
        lambda: compose_plan(mu, nu, of_mu, of_nu, lambda ca, cb: solved[ca, cb][1])[0],
    )


def _stage_layout(mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric):
    """Both trees' same-stage node pairs, stage by stage, priced by ``base_cost``.

    Stage t = 1..N holds, for each tree, the parent positions and the
    conditional probabilities of its stage-t nodes (the ``up`` and
    ``probs`` columns), and ``metric.base_cost`` of every node pair's
    values, mu major.  The leaf-pair path costs (``leaves`` order) gather
    each stage's costs at the leaves' stage-t ancestors and add them by
    ``add_stages``, as ``GroundMetric.path_cost`` does; one past the float
    range is rejected.
    """
    stages, base_cost = [], metric.base_cost
    for t in range(1, mu.depth + 1):
        cost = np.array([[base_cost(x, y) for y in nu.values[t]] for x in mu.values[t]])
        sides = [(np.array(tree.up[t]), np.array(tree.probs[t])) for tree in (mu, nu)]
        stages.append((*sides[0], *sides[1], cost))
    at_mu, at_nu, at_leaves = np.arange(len(mu.leaves)), np.arange(len(nu.leaves)), []
    for up_mu, _, up_nu, _, cost in reversed(stages):  # at_mu, at_nu: stage-t ancestors
        at_leaves.append(cost[at_mu[:, None], at_nu])
        at_mu, at_nu = up_mu[at_mu], up_nu[at_nu]
    return stages, add_stages(reversed(at_leaves))


def wasserstein_distance(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric
) -> float:
    """Classical transport distance over unconstrained path couplings.

    Its leaf-pair costs come from ``_stage_layout``: they equal
    ``metric.path_cost`` bit for bit at every p, and an overflowing base
    distance is named as by every other solver.
    """
    check_depths(mu, nu)
    if len(mu.leaves) * len(nu.leaves) > ORACLE_SIZE_GUARD:
        raise SizeGuardError("instance too large for the dense path-pair solver")
    _, cost = _stage_layout(mu, nu, metric)
    res = solve_ot(cost, list(mu.masses[mu.depth]), list(nu.masses[nu.depth]))
    return metric.root(res.value)


def _scipy(name: str):
    """The scipy module ``name``, imported on first use.  scipy is the
    ``oracle`` extra, so without it the oracle is a solver failure.  Any
    other import error (scipy present but broken) is raised as it is."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as exc:
        if (exc.name or "").partition(".")[0] != "scipy":
            raise
        raise RuntimeError(
            "the LP oracle needs scipy>=1.15, the 'oracle' extra: pip install 'nestedot[oracle]'"
        ) from exc


def linprog(cost, *, A_eq, b_eq, start):
    """min cost·x subject to A_eq x = b_eq and x >= 0, by HiGHS's primal simplex.

    The model goes to scipy's HiGHS bindings as whole arrays, A_eq by
    columns, with no Python per column, and is solved from ``start``, a
    primal feasible basis as one boolean per column; HiGHS does not reduce
    a model that has a start basis.  HiGHS's primal and dual feasibility
    tolerances are ``TOL``.  Options, a model or a start that HiGHS
    refuses are a RuntimeError.  ``success`` needs the model status
    Optimal, a solution, a finite objective, every mass at least -SNAP and
    every row met within TOL.  Returns an ``OptimizeResult`` with
    ``success``, ``x``, ``fun``, ``nit`` and a ``message`` naming the
    model status.
    A module attribute, so that a tracer or a test can patch the oracle's LP.
    """
    core = _scipy("scipy.optimize._highspy._core")
    result = _scipy("scipy.optimize").OptimizeResult
    a_csc, (num_row, n) = A_eq.tocsc(), A_eq.shape
    settings = core.HighsOptions()
    settings.simplex_strategy = core.simplex_constants.kSimplexStrategyPrimal
    settings.primal_feasibility_tolerance = settings.dual_feasibility_tolerance = TOL
    settings.highs_debug_level = core.kHighsDebugLevelNone
    settings.output_flag = settings.log_to_console = False
    highs = core._Highs()
    if highs.passOptions(settings) != core.HighsStatus.kOk:  # HiGHS would keep its defaults
        raise RuntimeError("HiGHS rejected the options")
    if highs.passModel(
        n, num_row, a_csc.nnz, core.MatrixFormat.kColwise, core.ObjSense.kMinimize, 0.0,
        cost, np.zeros(n), np.full(n, np.inf), b_eq, b_eq,
        a_csc.indptr, a_csc.indices, a_csc.data, np.zeros(n, np.int32),  # all continuous
    ) == core.HighsStatus.kError:  # a warning (entries below 1e-9 dropped) passes
        raise RuntimeError("HiGHS rejected the LP model")
    basis, status = core.HighsBasis(), core.HighsBasisStatus
    basis.alien = False  # an alien basis would be repaired without a word
    basis.col_status = np.array([status.kLower, status.kBasic], object)[start.astype(int)]
    basis.row_status = [status.kLower] * len(b_eq)
    if highs.setBasis(basis) != core.HighsStatus.kOk:
        raise RuntimeError("HiGHS rejected the start basis")
    highs.run()
    status, solution, info = highs.getModelStatus(), highs.getSolution(), highs.getInfo()
    message = f"HiGHS model status {highs.modelStatusToString(status)}"
    nit = info.simplex_iteration_count
    if status != core.HighsModelStatus.kOptimal or not solution.value_valid:
        return result(success=False, x=None, fun=None, nit=nit, message=message)
    x, fun = np.array(solution.col_value), info.objective_function_value
    residual = b_eq - np.array(solution.row_value)
    if not math.isfinite(fun):  # HiGHS prices a cost of 1e20 or more as infinite
        message += f", but its objective is {fun}"
    elif not ((x >= -SNAP).all() and (abs(residual) <= TOL).all()):
        message += ", but a mass is below -SNAP or a row is missed by more than TOL"
    else:
        return result(success=True, x=x, fun=fun, nit=nit, message=message)
    return result(success=False, x=x, fun=fun, nit=nit, message=message)


def _sibling_intervals(up, probs):
    """Each node's [lo, hi) of its sibling group's cumulative probabilities,
    added up left to right in one pass, as ``np.cumsum`` adds: lo is the
    elder sibling's hi, -inf for the first, and hi inf for the last."""
    parents, hi, lo = up.tolist(), probs.tolist(), [-math.inf] * len(up)
    for k in range(1, len(hi)):
        if parents[k] == parents[k - 1]:
            lo[k], hi[k] = hi[k - 1], hi[k - 1] + hi[k]
        else:
            hi[k - 1] = math.inf
    hi[-1] = math.inf
    return np.array(lo), np.array(hi)


def brute_force_bicausal(
    mu: ScenarioTree, nu: ScenarioTree, metric: GroundMetric
) -> NestedResult:
    """Exact bicausal optimum as one linear program over same-stage node pairs.

    A node is its history, so the LP has one variable π_t(i, j) per stage t
    and pair of stage-t nodes (i of mu, j of nu), numbered stage by stage
    with i major.  The root pair has mass one.  Bicausality enters as
    kernel rows: for every pair (i, j) before the last stage and every
    child c of i, the μ-row (c, j) says that the masses π_{t+1}(c, l)
    summed over the children l of j equal p(c)·π_t(i, j), and the ν-row
    (i, l) says the same for every child l of j.  A stage-(t+1) variable
    (c, l) sits in exactly the μ-row (c, parent(l)) and the ν-row
    (parent(c), l), so each stage's rows come from its parent positions
    and child probabilities by index arithmetic.  The ν-row of each last
    child is left out: the pair's μ-rows imply it, and the rows left have
    full rank.  Conditioning on zero-mass pairs is then automatically
    unconstrained.  The parent positions, probabilities and per-stage base
    costs d(x_i, y_j)^p come from ``_stage_layout``, which rejects a leaf
    pair whose path cost passes the float range before the LP runs.  The
    plan keeps every positive stage-N mass: a cell cut below ``SNAP``
    would tilt a light node pair's kernel.  The size guard counts leaf pairs.

    One ``linprog`` call runs HiGHS's primal simplex from the
    Knothe-Rosenblatt vertex, read off the probabilities alone: the root
    variable and, per pair, the northwest-corner staircase, where cell
    (c, l) is basic iff the sibling-cumulative intervals [lo, hi) of c and
    l meet (ties to the row first), one basic cell per row.  It takes about
    20 iterations against 344 from HiGHS's own start on a path-oracle pair.
    An answer that fails the seam's check, a mass below -SNAP or a row
    missed by more than TOL, is a solver failure.
    """
    check_depths(mu, nu)
    if len(mu.leaves) * len(nu.leaves) > ORACLE_SIZE_GUARD:
        raise SizeGuardError("instance too large for the brute-force oracle")
    stages, _ = _stage_layout(mu, nu, metric)
    sp = _scipy("scipy.sparse")
    # COO entries; row 0 is the root row π_0(root, root) = 1
    rows, cols, data, cost = [np.array([0])], [np.array([0])], [np.array([1.0])], [np.zeros(1)]
    basic = [np.ones(1, bool)]  # the start: π_0 and each pair's northwest-corner staircase
    a, b, n_rows, first = 1, 1, 1, 0  # stage sizes, rows so far, first stage variable
    for up_mu, p_mu, up_nu, p_nu, stage_cost in stages:
        a1, b1 = stage_cost.shape
        kept = np.flatnonzero(up_nu[:-1] == up_nu[1:])  # ν children but last siblings
        k = len(kept)
        var = first + a * b + np.arange(a1 * b1).reshape(a1, b1)  # π_{t+1}(c, l)
        nu_rows = n_rows + a1 * b  # the μ-rows (c, j) come first, then the ν-rows (i, l)
        rows += [
            (n_rows + np.arange(a1)[:, None] * b + up_nu).ravel(),  # μ-row (c, parent(l))
            (nu_rows + up_mu[:, None] * k + np.arange(k)).ravel(),  # ν-row (parent(c), l)
            np.arange(n_rows, nu_rows + a * k),  # each row's π_t(i, j) entry
        ]
        cols += [
            var.ravel(),
            var[:, kept].ravel(),
            (first + up_mu[:, None] * b + np.arange(b)).ravel(),
            (first + np.arange(a)[:, None] * b + up_nu[kept]).ravel(),
        ]
        data += [np.ones(a1 * (b1 + k)), np.repeat(-p_mu, b), np.tile(-p_nu[kept], a)]
        cost.append(stage_cost.ravel())
        (lo_mu, hi_mu), (lo_nu, hi_nu) = map(_sibling_intervals, (up_mu, up_nu), (p_mu, p_nu))
        basic.append(((lo_mu[:, None] <= hi_nu) & (lo_nu < hi_mu[:, None])).ravel())
        a, b, n_rows, first = a1, b1, nu_rows + a * k, first + a * b
    cost, b_eq = np.concatenate(cost), np.zeros(n_rows)
    b_eq[0] = 1.0
    entries = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    a_eq = sp.csc_matrix(entries, shape=(n_rows, len(cost)))
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, start=np.concatenate(basic))
    if not res.success:
        raise RuntimeError(f"bicausal oracle LP failed: {res.message}")
    leaf_pairs = res.x[first:]  # leaf pair (a, b) of ranks a, b is cell a * len(nu.leaves) + b

    def plan() -> Coupling:
        cells = np.flatnonzero(leaf_pairs > 0.0)
        return Coupling.of_leaves(mu, nu, cells.tolist(), leaf_pairs[cells].tolist())

    return NestedResult(metric.root(float(res.fun)), plan)


def cauchy_check(trees: list[ScenarioTree], metric: GroundMetric) -> np.ndarray:
    """Full symmetric matrix of pairwise nested distances."""
    if len(trees) < 2:
        raise ValidationError("cauchy_check needs at least two trees")
    k = len(trees)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d = nested_distance(trees[i], trees[j], metric).distance
            out[i, j] = d
            out[j, i] = d
    return out
