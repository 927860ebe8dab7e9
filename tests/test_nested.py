import hashlib
import importlib
import itertools
import math
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nestedot.nested
import nestedot.transport
from nestedot import (
    Coupling,
    CouplingEntry,
    GroundMetric,
    Node,
    ScenarioTree,
    SizeGuardError,
    ValidationError,
    brute_force_bicausal,
    build_tree,
    cauchy_check,
    embed,
    is_bicausal,
    is_causal,
    kr_coupling,
    kr_distance,
    nested_distance,
    nested_wasserstein,
    solve_ot,
    split_non_extreme,
    wasserstein_distance,
)
from nestedot.families import (
    collapsing_fan,
    fan_vs_merged,
    hidden_branch_pair,
    merged_limit,
    perturbed_pair,
    random_tree,
    random_tree_pair,
)
from nestedot.io import load_coupling, save_coupling
from nestedot.metrics import PATH_COST_OVERFLOW
from nestedot.nested import (
    _law,
    _sibling_intervals,
    _solve,
    backward,
    compose_plan,
    tree_classes,
)
from nestedot.tolerances import ORACLE_TOL, SNAP, TOL
from path_pair_oracle import path_pair_bicausal
from reference import node_at
from test_transport import _masses, _pinned_instances

M1 = GroundMetric.usual(1.0)
M2 = GroundMetric.usual(2.0)


def chain(*values):
    return build_tree([(tuple(values), 1.0)])


def test_single_path_pair():
    res = nested_distance(chain(0.0, 1.0), chain(1.0, 3.0), M1)
    assert res.distance == pytest.approx(3.0, abs=0)
    assert len(res.plan) == 1


def test_fan_vs_merged_closed_form():
    for p in (1.0, 2.0):
        metric = GroundMetric.usual(p)
        for n in range(1, 8):
            fan, merged = fan_vs_merged(n)
            d = nested_distance(fan, merged, metric).distance
            assert d == pytest.approx((2 ** (p - 1) + n ** (-p)) ** (1 / p), abs=1e-9)


def test_fan_pair_distance_bound():
    for n in range(1, 6):
        for m in range(n + 1, 7):
            d = nested_distance(collapsing_fan(n), collapsing_fan(m), M2).distance
            assert d <= abs(1.0 / n - 1.0 / m) + 1e-12


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        depth = int(rng.integers(1, 4))
        mu, nu = random_tree_pair(rng, depth)
        metric = GroundMetric.usual(float(rng.choice([1.0, 2.0])))
        res = nested_distance(mu, nu, metric)
        oracle = brute_force_bicausal(mu, nu, metric)
        assert res.distance == pytest.approx(oracle.distance, abs=1e-8)


def test_oracle_single_path():
    mu, nu = chain(0.0, 1.0), chain(1.0, 3.0)
    oracle = brute_force_bicausal(mu, nu, M1)
    assert oracle.distance == pytest.approx(3.0, abs=1e-10)
    assert len(oracle.plan) == 1


@pytest.mark.parametrize(
    "error, missing",
    [
        (ModuleNotFoundError("No module named 'scipy'", name="scipy"), True),
        (ModuleNotFoundError("No module named 'scipy.sparse'", name="scipy.sparse"), True),
        (ModuleNotFoundError("No module named 'numpy._core'", name="numpy._core"), False),
        (ImportError("numpy.core.multiarray failed to import"), False),
    ],
)
def test_only_a_missing_scipy_is_reported_as_the_extra(monkeypatch, error, missing):
    # scipy installed but broken keeps its own error, not "install the extra".
    def import_module(name):
        raise error

    importlib = types.SimpleNamespace(import_module=import_module)
    monkeypatch.setattr(nestedot.nested, "importlib", importlib)
    mu, nu = chain(0.0, 1.0), chain(1.0, 3.0)
    with pytest.raises(RuntimeError if missing else type(error)) as raised:
        brute_force_bicausal(mu, nu, M1)
    if missing:
        assert "'oracle' extra" in str(raised.value)
        assert raised.value.__cause__ is error
    else:
        assert raised.value is error


def test_oracle_matches_closed_form():
    for n in (1, 2, 3):
        fan, merged = fan_vs_merged(n)
        oracle = brute_force_bicausal(fan, merged, M2)
        assert oracle.distance == pytest.approx((2 + n**-2.0) ** 0.5, abs=1e-9)


def test_assembled_plan_is_bicausal():
    rng = np.random.default_rng(99)
    for _ in range(15):
        mu, nu = random_tree_pair(rng, int(rng.integers(1, 4)))
        res = nested_distance(mu, nu, M2)
        report = is_bicausal(res.plan, mu, nu)
        assert report.is_bicausal
        assert max(report.max_mu_deviation, report.max_nu_deviation) <= 1e-9


def test_plan_cost_matches_value():
    rng = np.random.default_rng(17)
    for _ in range(10):
        mu, nu = random_tree_pair(rng, 2)
        res = nested_distance(mu, nu, M2)
        assert res.plan.cost(M2) == pytest.approx(res.distance**2, rel=1e-12, abs=1e-12)


def _continuation(mu, nu, metric):
    """The continuation value of a stage-t node pair (positions i of mu, j
    of nu), read from the backward recursion's value of the pair's class
    pair."""
    classes_mu, of_mu = tree_classes(mu)
    classes_nu, of_nu = tree_classes(nu)
    solved = backward(classes_mu, classes_nu, metric)
    return lambda t, i, j: solved[of_mu[t][i], of_nu[t][j]][0]


def test_value_table_invariants():
    fan, merged = fan_vs_merged(2)
    res = nested_distance(fan, merged, M2)
    value = _continuation(fan, merged, M2)
    assert fan.depth == 2
    for t in range(3):
        for i in range(len(fan.values[t])):
            for j in range(len(merged.values[t])):
                assert value(t, i, j) >= 0.0
                if t == 2:
                    assert value(t, i, j) == 0.0
    root_value = value(0, 0, 0)
    assert root_value == pytest.approx(res.distance**2, abs=1e-12)


def test_sandwich_ordering():
    rng = np.random.default_rng(55)
    for _ in range(20):
        mu, nu = random_tree_pair(rng, int(rng.integers(1, 4)))
        metric = GroundMetric.usual(float(rng.choice([1.0, 2.0])))
        w = wasserstein_distance(mu, nu, metric)
        nd = nested_distance(mu, nu, metric).distance
        kr = kr_distance(mu, nu, metric)
        assert w <= nd + 1e-9
        assert nd <= kr + 1e-9


def test_metric_axioms():
    rng = np.random.default_rng(313)
    for _ in range(10):
        a = random_tree(rng, 2)
        b = random_tree(rng, 2)
        c = random_tree(rng, 2)
        dab = nested_distance(a, b, M2).distance
        dba = nested_distance(b, a, M2).distance
        assert dab == dba  # exact symmetry via canonical pair ordering
        assert nested_distance(a, a, M2).distance == 0.0
        dac = nested_distance(a, c, M2).distance
        dcb = nested_distance(c, b, M2).distance
        assert dab <= dac + dcb + 1e-9


def test_wasserstein_examples():
    fan, merged = fan_vs_merged(4)
    assert wasserstein_distance(fan, merged, M1) == pytest.approx(0.25, abs=1e-10)
    assert wasserstein_distance(fan, fan, M1) == 0.0
    rng = np.random.default_rng(8)
    mu, nu = random_tree_pair(rng, 2)
    assert wasserstein_distance(mu, nu, M1) <= nested_distance(mu, nu, M1).distance + 1e-9


@pytest.mark.parametrize(
    "metric, rel",
    [
        (M1, 0.0),
        (M2, 0.0),
        (GroundMetric.truncated(2.0, cap=0.5), 0.0),
        (GroundMetric.usual(1.5), 0.0),
    ],
)
def test_wasserstein_cost_matches_path_cost_loop(metric, rel):
    rng = np.random.default_rng(21)
    for _ in range(20):
        mu, nu = random_tree_pair(rng, int(rng.integers(1, 4)))
        mu_paths, nu_paths = mu.leaf_paths(), nu.leaf_paths()
        cost = [[metric.path_cost(x, y) for y, _ in nu_paths] for x, _ in mu_paths]
        res = solve_ot(cost, [w for _, w in mu_paths], [w for _, w in nu_paths])
        w = wasserstein_distance(mu, nu, metric)
        assert w == pytest.approx(metric.root(res.value), rel=rel, abs=0.0)


def test_truncated_metric_pair():
    fan, merged = fan_vs_merged(2)
    metric = GroundMetric.truncated(1.0, cap=1.0)
    d = nested_distance(fan, merged, metric).distance
    oracle = brute_force_bicausal(fan, merged, metric)
    assert d == pytest.approx(oracle.distance, abs=1e-8)
    # stage 1 pays 1/2 on both branches; at stage 2 half of each branch
    # crosses from +-1 to the opposite sign, paying the cap 1
    assert d == pytest.approx(0.5 + 0.5, abs=1e-9)


def test_depth_mismatch_rejected():
    short, long = chain(0.0), chain(0.0, 1.0)
    plan = Coupling((CouplingEntry((0.0,), (0.0, 1.0), 1.0),))
    for call in (
        lambda: nested_distance(short, long, M1),
        lambda: wasserstein_distance(short, long, M1),
        lambda: brute_force_bicausal(short, long, M1),
        lambda: kr_distance(short, long, M1),
        lambda: nested_wasserstein(embed(short), embed(long), M1),
        lambda: is_causal(plan, short),  # nu is read off the plan
        lambda: is_bicausal(plan, short, long),
        lambda: split_non_extreme(plan, short, long),
    ):
        with pytest.raises(ValidationError, match="depth mismatch: 1 vs 2"):
            call()


def test_size_guard():
    big = build_tree([((float(k),), 1.0 / 101) for k in range(101)])
    with pytest.raises(SizeGuardError):
        brute_force_bicausal(big, big, M1)
    with pytest.raises(SizeGuardError):
        wasserstein_distance(big, big, M1)


def _oracle_reference_pairs():
    rng = np.random.default_rng(606)
    for _ in range(20):
        yield random_tree_pair(rng, int(rng.integers(1, 4)))
    for n in (1, 2, 3):
        yield fan_vs_merged(n)
    for n, m in ((1, 2), (2, 3), (3, 5)):
        yield collapsing_fan(n), collapsing_fan(m)
    for n in (1, 2, 4, 8):
        yield hidden_branch_pair(n)


def test_oracle_matches_path_pair_reference():
    # The node-pair LP against the path-pair LP, an independent formulation
    for mu, nu in _oracle_reference_pairs():
        for metric in (M1, M2, GroundMetric.truncated(2.0, cap=0.5)):
            node = brute_force_bicausal(mu, nu, metric)
            path = path_pair_bicausal(mu, nu, metric)
            assert node.distance == pytest.approx(path.distance, abs=1e-10)
            for res in (node, path):
                assert is_bicausal(res.plan, mu, nu).is_bicausal
                assert res.plan.cost(metric) == pytest.approx(res.distance**metric.p, abs=1e-12)


@st.composite
def _degenerate_trees(draw, depth):
    """A tree of the given depth, 1 to 3 children per node, sibling values
    on a decimal-tenths lattice and one kind of sibling masses throughout:
    cumulative sums meeting at multiples of 0.1 (equal across trees only
    within rounding), equal shares, or one child of mass 1e-12."""
    kind = draw(st.sampled_from(["tenths", "equal", "tiny"]))
    nodes, frontier = [Node(0, None, 0, None, None)], [0]
    for stage in range(1, depth + 1):
        nxt = []
        for parent in frontier:
            k = draw(st.integers(1, 3))
            values = draw(st.lists(st.integers(-30, 30), min_size=k, max_size=k, unique=True))
            if kind == "tenths":
                cuts = sorted(draw(st.sets(st.integers(1, 9), min_size=k - 1, max_size=k - 1)))
                probs = [(hi - lo) / 10 for lo, hi in zip([0] + cuts, cuts + [10])]
            elif kind == "equal" or k == 1:
                probs = [1 / k] * k
            else:
                probs = [(1.0 - 1e-12) / (k - 1)] * k
                probs[draw(st.integers(0, k - 1))] = 1e-12
            for value, prob in zip(values, probs):
                nxt.append(len(nodes))
                nodes.append(Node(len(nodes), parent, stage, value / 10, prob))
        frontier = nxt
    return ScenarioTree(depth, nodes)


@st.composite
def _degenerate_pairs(draw):
    depth = draw(st.integers(1, 3))
    p = draw(st.sampled_from([1.0, 1.5, 2.0]))
    cap = draw(st.sampled_from([None, 0.5, 1.0]))
    metric = GroundMetric.usual(p) if cap is None else GroundMetric.truncated(p, cap)
    return draw(_degenerate_trees(depth)), draw(_degenerate_trees(depth)), metric


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_degenerate_pairs())
def test_oracle_on_degenerate_trees(instance):
    # HiGHS runs without presolve: on near-equal cumulative masses, 1e-12
    # children and the truncated metric it must still agree with the
    # path-pair LP and the recursion, and its plan must be bicausal.  The
    # values are compared as LP values (p-th powers): HiGHS may leave out
    # a 1e-12 child, and at p = 2 the root turns a 1e-14 cost into 1e-7.
    mu, nu, metric = instance
    oracle = brute_force_bicausal(mu, nu, metric)
    value = oracle.distance**metric.p
    for other in (path_pair_bicausal(mu, nu, metric), nested_distance(mu, nu, metric)):
        assert abs(value - other.distance**metric.p) <= ORACLE_TOL
    assert is_bicausal(oracle.plan, mu, nu).is_bicausal


def full_tree(branching, weights, values):
    """Full tree with ``branching[t]`` children per stage-t node; the k-th
    child at stage t has conditional weight ``weights(t, k)`` (normalized
    per sibling group) and value ``values(t, k)``."""
    pairs = []
    for idx in itertools.product(*(range(b) for b in branching)):
        w = 1.0
        for t, k in enumerate(idx):
            w *= weights(t, k) / sum(weights(t, r) for r in range(branching[t]))
        pairs.append((tuple(values(t, k) for t, k in enumerate(idx)), w))
    return build_tree(pairs)


def test_oracle_lp_call_and_size(monkeypatch):
    # One HiGHS call with no ``options``, ``A_eq`` as a keyword, one column
    # per same-stage node pair, and one kernel row per child of either node
    # of a non-leaf pair but the last child on the nu side: 969 - 161 rows,
    # of full rank.
    calls = []
    real = nestedot.nested.linprog

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(nestedot.nested, "linprog", recording)
    mu = full_tree([4, 3, 3], lambda t, k: 1.0, lambda t, k: k + 0.25 * t)
    nu = full_tree([4, 3, 3], lambda t, k: 1.0 + k, lambda t, k: 0.5 * k - t)
    oracle = brute_force_bicausal(mu, nu, M2)
    assert len(calls) == 1
    assert sorted(calls[0]) == ["A_eq", "b_eq", "start"]
    a_eq = calls[0]["A_eq"]
    assert a_eq.shape == (808, 1 + 16 + 144 + 1296)
    assert a_eq.nnz == 3236
    assert np.linalg.matrix_rank(a_eq.toarray()) == 808
    assert oracle.distance == pytest.approx(nested_distance(mu, nu, M2).distance, abs=1e-8)


def test_oracle_at_the_size_guard():
    # Two full 5·5·4 trees: exactly ORACLE_SIZE_GUARD leaf pairs, the
    # largest LP the oracle solves (4610 rows, 10651 columns).
    mu = full_tree([5, 5, 4], lambda t, k: 1.0, lambda t, k: k + 0.25 * t)
    nu = full_tree([5, 5, 4], lambda t, k: 1.0 + k, lambda t, k: 0.5 * k - t)
    assert len(mu.leaves) * len(nu.leaves) == nestedot.nested.ORACLE_SIZE_GUARD
    oracle = brute_force_bicausal(mu, nu, M2)
    assert abs(oracle.distance - nested_distance(mu, nu, M2).distance) <= ORACLE_TOL
    assert is_bicausal(oracle.plan, mu, nu).is_bicausal


def _walk(depth, step, up):
    """Binomial walk from 0: each node's children are x - step with
    probability 1 - up and x + step with probability up."""
    nodes, frontier = [Node(0, None, 0, None, None)], [(0, 0.0)]
    for stage in range(1, depth + 1):
        nxt = []
        for parent, x in frontier:
            for value, prob in ((x - step, 1.0 - up), (x + step, up)):
                nxt.append((len(nodes), value))
                nodes.append(Node(len(nodes), parent, stage, value, prob))
        frontier = nxt
    return ScenarioTree(depth, nodes)


def test_oracle_solves_the_old_negative_vertex_pair_in_one_call(monkeypatch):
    # At HiGHS's default feasibility tolerance of 1e-7, the primal simplex
    # ended this truncated depth-6 pair on a vertex with a mass of -9.2e-8,
    # even from the Knothe-Rosenblatt start, and it had to be solved again.
    # At TOL one call ends at x >= -SNAP.
    metric = GroundMetric.truncated(2.0, 0.5)
    mu, nu = _walk(6, 0.5, 0.6875), _walk(6, 0.25, 0.3)
    call = _first_lp_call(mu, nu, monkeypatch, metric)
    assert call["calls"] == 1
    assert call["result"].x.min() >= -SNAP
    oracle = brute_force_bicausal(mu, nu, metric)
    assert abs(oracle.distance - nested_distance(mu, nu, metric).distance) <= ORACLE_TOL
    assert is_bicausal(oracle.plan, mu, nu).is_bicausal


def test_oracle_plan_keeps_every_positive_leaf_cell():
    # Values far apart under a cap of 0.5 make every base cost 0.25 but
    # where values are equal, so the LP is degenerate; HiGHS's vertex puts
    # 2.7e-13 and 1.9e-14 on two leaf cells under the node pair
    # ((17, 15), (19, 3)), whose mass is below 1e-9.  Cut at SNAP, the plan
    # tilts that pair's kernels by up to 3.4e-4 and is not bicausal; with
    # every positive cell it is.  Found in a seeded sweep of 600 random
    # pairs of depth 1-3 with values up to 1e9 and weights down to 1e-6,
    # where a SNAP cut left 24 oracle plans failing ``is_bicausal`` and
    # keeping every positive cell left 7.
    metric = GroundMetric.truncated(2.0, 0.5)
    mu = build_tree([
        ((17.0, 11.0, 0.0), 0.19272770648619797), ((17.0, 11.0, 2.0), 0.04652816479093508),
        ((17.0, 11.0, 8.0), 0.0004040872822952308), ((17.0, 15.0, 9.0), 0.7603228121505978),
        ((17.0, 15.0, 10.0), 1.7229289973950783e-05),
    ])
    nu = build_tree([
        ((12.0, 5.0, 18.0), 0.9998864998057845), ((19.0, 1.0, 4.0), 3.2267441759103535e-05),
        ((19.0, 1.0, 6.0), 2.2443422529877253e-08), ((19.0, 3.0, 7.0), 8.516858773227493e-10),
        ((19.0, 3.0, 14.0), 2.8596922567945885e-13), ((19.0, 16.0, 13.0), 8.120945706205039e-05),
    ])
    oracle = brute_force_bicausal(mu, nu, metric)
    assert abs(oracle.distance**2 - nested_distance(mu, nu, metric).distance**2) <= ORACLE_TOL
    plan = oracle.plan
    assert sum(m <= SNAP for m in plan.masses) == 2
    assert is_bicausal(plan, mu, nu).is_bicausal
    kept = [(c, m) for c, m in zip(plan.cells, plan.masses) if m > SNAP]
    cut = Coupling.of_leaves(mu, nu, *map(list, zip(*kept)))
    assert not is_bicausal(cut, mu, nu).is_bicausal


def test_kr_start_needs_no_second_call_on_the_old_negative_vertex_pair(monkeypatch):
    # From HiGHS's own start this pair ended on a mass of -6e-8 and was
    # solved twice; from the Knothe-Rosenblatt vertex one call ends at x >= 0.
    call = _first_lp_call(_walk(6, 1.0, 0.6875), _walk(6, 0.25, 0.75), monkeypatch)
    assert call["calls"] == 1
    assert call["result"].x.min() >= 0.0


# (metric, mu step, mu up, nu step, nu up) of depth-6 walks whose oracle
# LP, from HiGHS's own start, was accepted below the recursion's value by
# more than ORACLE_TOL, with a plan that failed ``is_bicausal``; the last
# was accepted from the Knothe-Rosenblatt start at HiGHS's default
# feasibility tolerance with a mu-marginal off by 6.8e-8.
_COLD_START_MISMATCHES = [
    (M2, 0.25, 0.3, 0.5, 0.25),
    (M2, 0.5, 0.3, 0.6875, 0.25),
    (M2, 2.0, 0.3, 0.75, 0.25),
    (GroundMetric.usual(1.5), 2.0, 0.3, 0.75, 0.25),
    (GroundMetric.truncated(2.0, 0.5), 0.25, 0.6875, 0.5, 0.3),
    (GroundMetric.truncated(2.0, 0.5), 0.5, 0.6875, 0.6875, 0.3),
]


@pytest.mark.parametrize("metric, mu_step, mu_up, nu_step, nu_up", _COLD_START_MISMATCHES)
def test_oracle_matches_the_recursion_on_walks_it_once_missed(
    metric, mu_step, mu_up, nu_step, nu_up
):
    mu, nu = _walk(6, mu_step, mu_up), _walk(6, nu_step, nu_up)
    oracle = brute_force_bicausal(mu, nu, metric)
    value = nested_distance(mu, nu, metric).distance ** metric.p
    assert abs(oracle.distance**metric.p - value) <= ORACLE_TOL
    assert is_bicausal(oracle.plan, mu, nu).is_bicausal


# The weights and values of mu's and nu's full trees in the LP tests above.
_FULL_TREE_LAWS = [
    (lambda t, k: 1.0, lambda t, k: k + 0.25 * t),
    (lambda t, k: 1.0 + k, lambda t, k: 0.5 * k - t),
]


def _first_lp_call(mu, nu, monkeypatch, metric=M2):
    """The keyword arguments and the cost of the oracle's first LP call, its
    ``result`` and the number of ``calls`` the oracle made."""
    calls = []
    real = nestedot.nested.linprog

    def recording(cost, **kwargs):
        calls.append({"cost": cost, **kwargs, "result": real(cost, **kwargs)})
        return calls[-1]["result"]

    monkeypatch.setattr(nestedot.nested, "linprog", recording)
    brute_force_bicausal(mu, nu, metric)
    monkeypatch.setattr(nestedot.nested, "linprog", real)
    return {**calls[0], "calls": len(calls)}


def _oracle_lp(mu, nu, monkeypatch):
    """The cost and the keyword arguments of the oracle's first LP call."""
    call = _first_lp_call(mu, nu, monkeypatch)
    return call["cost"], {key: call[key] for key in ("A_eq", "b_eq", "start")}


def _law_tree(laws, scale=1.0):
    """Full tree whose stage-t nodes all have children of conditional
    probabilities ``laws[t - 1]``, the k-th at value ``scale * k + t``."""
    nodes, frontier = [Node(0, None, 0, None, None)], [0]
    for stage, law in enumerate(laws, 1):
        nxt = []
        for parent in frontier:
            for k, prob in enumerate(law):
                nxt.append(len(nodes))
                nodes.append(Node(len(nodes), parent, stage, scale * k + stage, prob))
        frontier = nxt
    return ScenarioTree(len(laws), nodes)


def _pool_tree(rng, branching):
    """Full tree as in the path-oracle benchmark: distinct 1/8-lattice
    values and integer weights 1..8 in every sibling group."""
    nodes, frontier = [Node(0, None, 0, None, None)], [0]
    for stage, width in enumerate(branching, 1):
        nxt = []
        for parent in frontier:
            values = sorted(rng.sample(range(-24, 25), width))
            weights = [rng.randint(1, 8) for _ in range(width)]
            for value, weight in zip(values, weights):
                nxt.append(len(nodes))
                nodes.append(Node(len(nodes), parent, stage, value / 8, weight / sum(weights)))
        frontier = nxt
    return ScenarioTree(len(branching), nodes)


def _pool(count=4, seed=1):
    rng = random.Random(seed)
    return [(_pool_tree(rng, [4, 3, 3]), _pool_tree(rng, [4, 3, 3])) for _ in range(count)]


# Pairs whose KR start is checked: sibling laws with masses of 1e-17 and
# 5e-324 (absorbed by the cumulative sums), with equal cumulative sums, and
# with single-child groups beside larger ones.
_START_PAIRS = {
    "pool": lambda: _pool()[0],
    "size-guard": lambda: tuple(full_tree([5, 5, 4], w, v) for w, v in _FULL_TREE_LAWS),
    "tiny": lambda: (
        _law_tree([[0.5, 1e-17, 0.5], [0.25, 0.75]]),
        _law_tree([[1e-17, 0.3, 0.7], [0.75, 1e-17, 0.25]]),
    ),
    "subnormal": lambda: (
        _law_tree([[0.25, 5e-324, 0.75], [5e-324, 1.0]]),
        _law_tree([[0.75, 0.25], [0.5, 5e-324, 0.5]]),
    ),
    "ties": lambda: (
        _law_tree([[0.25, 0.25, 0.5], [0.5, 0.5]]),
        _law_tree([[0.5, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]]),
    ),
    "single-child": lambda: (
        build_tree([((0.0, 1.0), 0.3), ((1.0, 0.0), 0.2), ((1.0, 2.0), 0.5)]),
        build_tree([((0.5, 0.0), 0.25), ((0.5, 1.0), 0.125), ((0.5, 3.0), 0.625)]),
    ),
}


def _cumsum_intervals(up, probs):
    """``_sibling_intervals`` by one ``np.cumsum`` per sibling group."""
    starts = np.flatnonzero(np.diff(up, prepend=-1))
    hi = np.concatenate([np.cumsum(group) for group in np.split(probs, starts[1:])])
    hi[starts[1:] - 1], hi[-1] = np.inf, np.inf
    lo = np.roll(hi, 1)
    lo[starts] = -np.inf
    return lo, hi


@pytest.mark.parametrize("pair", _START_PAIRS.values(), ids=_START_PAIRS.keys())
def test_kr_start_has_one_basic_cell_per_row(monkeypatch, pair):
    mu, nu = pair()
    for tree in (mu, nu):
        for t in range(1, tree.depth + 1):
            column = np.array(tree.up[t]), np.array(tree.probs[t])
            ours, reference = _sibling_intervals(*column), _cumsum_intervals(*column)
            assert [a.tobytes() for a in ours] == [a.tobytes() for a in reference]
    call = _first_lp_call(mu, nu, monkeypatch)
    start, (rows, columns) = call["start"], call["A_eq"].shape
    assert start.dtype == bool and start.shape == (columns,)
    assert start.sum() == rows
    if rows < 1000:
        assert np.linalg.matrix_rank(call["A_eq"].toarray()[:, start]) == rows
    oracle = call["result"]
    assert oracle.success
    assert oracle.fun == pytest.approx(nested_distance(mu, nu, M2).distance ** 2, abs=1e-8)


def test_kr_start_reads_the_probabilities_alone(monkeypatch):
    laws = [[0.25, 0.25, 0.5], [0.5, 0.5]], [[0.5, 0.25, 0.25], [0.25, 0.75]]
    mu, nu = (_law_tree(law) for law in laws)
    start = _first_lp_call(mu, nu, monkeypatch)["start"]
    metrics = [M1, GroundMetric.usual(1.5), GroundMetric.truncated(2.0, 0.5)]
    for metric in metrics:
        assert np.array_equal(_first_lp_call(mu, nu, monkeypatch, metric)["start"], start)
    moved = (_law_tree(law, scale) for law, scale in zip(laws, (3.0, 0.125)))
    assert np.array_equal(_first_lp_call(*moved, monkeypatch)["start"], start)
    pool_pair = _pool()[1]
    pool_start = _first_lp_call(*pool_pair, monkeypatch)["start"]
    for metric in metrics:
        assert np.array_equal(_first_lp_call(*pool_pair, monkeypatch, metric)["start"], pool_start)


@pytest.mark.parametrize(
    "pair",
    [*_START_PAIRS.values(), lambda: (_walk(4, 0.25, 0.3), _walk(4, 0.5, 0.6875))],
    ids=[*_START_PAIRS.keys(), "walks"],
)
def test_kr_plan_lies_on_the_start(monkeypatch, pair):
    # Every cell of the Knothe-Rosenblatt plan is a basic stage-N cell.
    mu, nu = pair()
    start = _first_lp_call(mu, nu, monkeypatch)["start"]
    leaf_cells = start[-len(mu.leaves) * len(nu.leaves):]
    assert leaf_cells[kr_coupling(mu, nu).coupling.cells].all()


def test_kr_start_cuts_the_simplex_iterations(monkeypatch):
    # On 4·3·3 pool pairs the start takes at most a fifth of the
    # iterations that HiGHS's dual simplex takes from its own start.
    from scipy.optimize import linprog

    for mu, nu in _pool():
        call = _first_lp_call(mu, nu, monkeypatch)
        cold = linprog(call["cost"], A_eq=call["A_eq"], b_eq=call["b_eq"], method="highs-ds")
        assert cold.success and call["result"].success
        assert 0 < call["result"].nit * 5 <= cold.nit
        assert call["result"].fun == pytest.approx(cold.fun, rel=1e-12)


def _recording_highs(monkeypatch):
    """Wrap scipy's ``_Highs`` so that each run appends the model HiGHS holds
    and its simplex iteration count; returns the list."""
    core = importlib.import_module("scipy.optimize._highspy._core")
    real, runs = core._Highs, []

    class Recording:
        def __init__(self):
            self._highs = real()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def run(self):
            status = self._highs.run()
            runs.append((self._highs.getLp(), self._highs.getInfo().simplex_iteration_count))
            return status

    monkeypatch.setattr(core, "_Highs", Recording)
    return runs


def _lp_bits(lp):
    """The bytes of a ``HighsLp``'s sizes, bounds, costs and matrix."""
    matrix = lp.a_matrix_
    arrays = [lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_]
    return (
        lp.num_col_, lp.num_row_, lp.a_matrix_.format_,
        *(np.asarray(a, float).tobytes() for a in arrays),
        *(np.asarray(a, np.int64).tobytes() for a in (matrix.start_, matrix.index_)),
        np.asarray(matrix.value_, float).tobytes(),
    )


def _scipy_linprog(cost, lp, presolve):
    """``scipy.optimize.linprog`` on the seam's LP at the seam's feasibility
    tolerances, with presolve on or off."""
    from scipy.optimize import linprog

    options = {
        "presolve": presolve,
        "primal_feasibility_tolerance": TOL,
        "dual_feasibility_tolerance": TOL,
    }
    return linprog(cost, A_eq=lp["A_eq"], b_eq=lp["b_eq"], method="highs", options=options)


@pytest.mark.parametrize(
    "pair, presolve",
    [
        (lambda: tuple(full_tree([4, 3, 3], w, v) for w, v in _FULL_TREE_LAWS), False),
        (lambda: (_walk(6, 1.0, 0.6875), _walk(6, 0.25, 0.75)), False),
        (lambda: (_walk(6, 1.0, 0.6875), _walk(6, 0.25, 0.75)), True),
        (lambda: tuple(full_tree([5, 5, 4], w, v) for w, v in _FULL_TREE_LAWS), False),
    ],
    ids=["4x3x3", "walks-no-presolve", "walks-presolve", "size-guard"],
)
def test_lp_seam_gives_the_bits_of_scipy_linprog(monkeypatch, pair, presolve):
    # The seam calls scipy's HiGHS bindings itself; if a scipy release moves
    # or changes them, HiGHS must still hold linprog's model, bit for bit,
    # and the seam's optimum must still be linprog's.
    cost, lp = _oracle_lp(*pair(), monkeypatch)
    runs = _recording_highs(monkeypatch)
    ours = nestedot.nested.linprog(cost, **lp)
    theirs = _scipy_linprog(cost, lp, presolve)
    assert ours.success and theirs.success
    assert len(runs) == 2
    assert _lp_bits(runs[0][0]) == _lp_bits(runs[1][0])
    assert ours.fun == pytest.approx(theirs.fun, rel=1e-12)


@pytest.mark.parametrize("presolve", [False, True])
def test_lp_seam_gives_the_nit_of_scipy_linprog(monkeypatch, presolve):
    # Both give HiGHS's simplex iteration count of their own run as ``nit``.
    for mu, nu in [_pool()[2], (_walk(6, 1.0, 0.6875), _walk(6, 0.25, 0.75))]:
        cost, lp = _oracle_lp(mu, nu, monkeypatch)
        runs = _recording_highs(monkeypatch)
        ours = nestedot.nested.linprog(cost, **lp)
        theirs = _scipy_linprog(cost, lp, presolve)
        assert [ours.nit, theirs.nit] == [nit for _, nit in runs]
        assert 0 <= ours.nit < theirs.nit


def test_lp_seam_flags_an_optimal_answer_that_misses_a_row(monkeypatch):
    # HiGHS reports Optimal, but its solution misses row 0 by 1e-3, or
    # holds a mass of -1e-9, below -SNAP: the seam's check must refuse it.
    core = importlib.import_module("scipy.optimize._highspy._core")
    real = core._Highs

    def missing_row(solution):
        solution.row_value = [solution.row_value[0] + 1e-3, *solution.row_value[1:]]

    def negative_mass(solution):
        solution.col_value = [*solution.col_value[:-1], -1e-9]

    cost, lp = _oracle_lp(*_pool()[0], monkeypatch)
    for spoil in (missing_row, negative_mass):

        class Spoiled:
            def __init__(self):
                self._highs = real()

            def __getattr__(self, name):
                return getattr(self._highs, name)

            def getSolution(self):
                solution = self._highs.getSolution()
                spoil(solution)
                return solution

        monkeypatch.setattr(core, "_Highs", Spoiled)
        res = nestedot.nested.linprog(cost, **lp)
        assert not res.success
        assert res.message == (
            "HiGHS model status Optimal, but a mass is below -SNAP"
            " or a row is missed by more than TOL"
        )
        with pytest.raises(RuntimeError, match="missed by more than TOL"):
            brute_force_bicausal(*_pool()[0], M2)


def test_lp_seam_builds_no_highs_lp(monkeypatch):
    # The model goes to HiGHS as arrays.  A pool pair and the truncated walk
    # pair give the same bits with HighsLp refused.
    core = importlib.import_module("scipy.optimize._highspy._core")
    pairs = [
        (*_pool()[0], M2),
        (_walk(6, 0.5, 0.6875), _walk(6, 0.25, 0.3), GroundMetric.truncated(2.0, 0.5)),
    ]
    real = nestedot.nested.linprog

    def answers():
        calls = []

        def recording(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(nestedot.nested, "linprog", recording)
        oracles = [brute_force_bicausal(*pair) for pair in pairs]
        monkeypatch.setattr(nestedot.nested, "linprog", real)
        lps = [(res.fun.hex(), res.x.tobytes()) for res in calls]
        return lps, [(oracle.distance.hex(), oracle.plan.entries) for oracle in oracles]

    expected = answers()
    assert len(expected[0]) == 2  # one call per solve

    def refuse(*args, **kwargs):
        raise AssertionError("HighsLp built")

    monkeypatch.setattr(core, "HighsLp", refuse)
    assert answers() == expected


def test_oracle_does_not_call_scipy_linprog(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.linprog called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    mu, nu = fan_vs_merged(2)
    oracle = brute_force_bicausal(mu, nu, M2)
    assert oracle.distance == pytest.approx(nested_distance(mu, nu, M2).distance, abs=1e-8)


def test_lp_seam_reports_an_infeasible_lp():
    # Rows x0 + x1 = 1 and x0 - x1 = 3, from the basis of both columns: the
    # rows' one solution has x1 = -1.
    import scipy.sparse

    res = nestedot.nested.linprog(
        np.array([1.0, 1.0]), A_eq=scipy.sparse.csr_matrix([[1.0, 1.0], [1.0, -1.0]]),
        b_eq=np.array([1.0, 3.0]), start=np.array([True, True]),
    )
    assert not res.success and res.x is None
    assert res.message == "HiGHS model status Infeasible"


def test_oracle_rejects_overflowing_costs():
    # The oracle prices pairs itself, so it must raise the same error as
    # the recursion, not an OverflowError.
    mu, nu = (
        build_tree([((top,), 0.5), ((-top,), 0.5)])
        for top in (1e200, 1e200 / 3)
    )
    with pytest.raises(ValidationError, match="cost overflows"):
        brute_force_bicausal(mu, nu, M2)


def test_cauchy_check_matrix():
    trees = [collapsing_fan(n) for n in (1, 2)]
    out = cauchy_check(trees, M1)
    assert out.shape == (2, 2)
    assert out[0, 0] == 0.0 and out[1, 1] == 0.0
    assert out[0, 1] == out[1, 0]
    assert out[0, 1] <= abs(1.0 - 0.5) + 1e-12


def test_cauchy_check_identical_trees():
    t = merged_limit()
    out = cauchy_check([t, t], M2)
    assert np.all(out == 0.0)


def test_cauchy_check_separating_family():
    # Distances of the perturbed chains to their merged limit stay above
    # the information penalty; asserted on the p-th power.
    for p in (1.0, 2.0):
        metric = GroundMetric.usual(p)
        family = [perturbed_pair(eps)[0] for eps in (1.0, 0.1, 0.01)]
        family.append(perturbed_pair(1.0)[1])
        out = cauchy_check(family, metric)
        for k in range(3):
            assert out[k, 3] ** p >= 2 ** (p - 1) - 1e-9
    with pytest.raises(ValidationError):
        cauchy_check([merged_limit()], M1)


@pytest.mark.parametrize("mass", [0.0, -0.5, float("nan"), float("inf")])
def test_coupling_rejects_nonpositive_mass(mass):
    with pytest.raises(ValidationError, match="coupling mass must be positive"):
        Coupling((CouplingEntry((0.0,), (0.0,), mass),))


def test_coupling_rejects_duplicate_entries():
    entry = CouplingEntry((0.0,), (1.0,), 0.5)
    with pytest.raises(ValidationError, match="duplicate coupling entries"):
        Coupling((entry, entry))


@pytest.mark.parametrize("mass", [float("nan"), -0.5])
def test_mass_map_rejects_what_entries_reject(mass):
    # A NaN or negative mass used to be dropped without a word.
    masses = {((0.0,), (0.0,)): mass, ((1.0,), (1.0,)): 1.0}
    with pytest.raises(ValidationError, match="coupling mass must be positive"):
        Coupling.from_mass_map(masses)
    masses[(0.0,), (0.0,)] = -0.0
    assert Coupling.from_mass_map(masses).entries == (((1.0,), (1.0,), 1.0),)


def test_plan_paths_are_interned_by_value():
    # Paths equal by == are one path: the second keeps the first's zero sign.
    plan = Coupling([CouplingEntry((0.0,), (1.0,), 0.5), CouplingEntry((-0.0,), (2.0,), 0.5)])
    assert [math.copysign(1.0, x) for (x,) in plan.mu_paths] == [1.0]
    assert [e.mu_path for e in plan.entries] == [(0.0,), (0.0,)]
    with pytest.raises(ValidationError, match="duplicate coupling entries"):
        Coupling([CouplingEntry((0.0,), (1.0,), 0.5), CouplingEntry((-0.0,), (1.0,), 0.5)])


COST_METRICS = [
    make(p, *cap) for p in (1.0, 1.5, 2.0)
    for make, cap in ((GroundMetric.usual, ()), (GroundMetric.truncated, (0.5,)))
]


def test_plan_cost_is_the_entry_fsum_bit_for_bit(tmp_path):
    # Coupling.cost prices each stage once and gathers; it must give the
    # bits of the sum over entries of mass times path cost.
    rng = np.random.default_rng(2323)
    for k in range(300):
        mu, nu = random_tree_pair(rng, 1 + k % 3)
        made_with = COST_METRICS[k % len(COST_METRICS)]
        plans = [
            nested_distance(mu, nu, made_with).plan,
            kr_coupling(mu, nu).coupling,
            brute_force_bicausal(mu, nu, made_with).plan,
        ]
        save_coupling(plans[k % 3], tmp_path / "plan.json")
        plans.append(load_coupling(tmp_path / "plan.json"))
        for plan in plans:
            for metric in COST_METRICS:
                want = math.fsum(
                    e.mass * metric.path_cost(e.mu_path, e.nu_path) for e in plan.entries
                )
                assert plan.cost(metric).hex() == want.hex()


def test_path_costs_add_stage_1_first():
    # 1e16 + 1 rounds back to 1e16, so added from stage 1 on the path cost
    # is 1e16; a compensated sum (Python's sum() of floats from 3.12 on)
    # gives 1e16 + 2.  The path cost, a plan's cost and the Wasserstein
    # solve's leaf-pair costs all take the first.
    metric = GroundMetric.usual(1.0)
    x, y = (0.0, 0.0, 0.0), (1e16, 1.0, 1.0)
    assert metric.path_cost(x, y) == 1e16
    assert Coupling([CouplingEntry(x, y, 1.0)]).cost(metric) == 1e16
    assert wasserstein_distance(build_tree([(x, 1.0)]), build_tree([(y, 1.0)]), metric) == 1e16


@pytest.mark.parametrize(
    "nu_path, message",
    [((1e154, 1e154), "cost overflows: a path cost passes the float range"),
     ((1e300, 0.0), "cost overflows: base distance 1e+300 to the power 2.0")],
)
def test_plan_cost_overflow_is_named(nu_path, message):
    plan = Coupling(
        [CouplingEntry((0.0, 0.0), (0.0, 0.0), 0.5), CouplingEntry((0.0, 0.0), nu_path, 0.5)]
    )
    with pytest.raises(ValidationError) as exc:
        plan.cost(M2)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "entries, message",
    [
        ([((0.0, 0.0), (1.0, 1.0)), ((0.0,), (1.0,))], "path length mismatch: 1 vs 2"),
        ([((0.0, 0.0), (1.0, 1.0)), ((1.0, 0.0), (1.0,))], "path length mismatch: 2 vs 1"),
    ],
)
def test_plan_cost_rejects_mixed_path_lengths(entries, message):
    plan = Coupling([CouplingEntry(x, y, 0.5) for x, y in entries])
    with pytest.raises(ValidationError) as exc:
        plan.cost(M2)
    assert str(exc.value) == message


def test_families_reject_empty_sizes():
    with pytest.raises(ValidationError, match="n must be >= 1, got 0"):
        collapsing_fan(0)
    with pytest.raises(ValidationError, match="depth must be >= 1"):
        random_tree(np.random.default_rng(0), depth=0)


def test_perturbed_pair_rejects_degenerate_eps():
    # At eps = 0 the two laws are equal and the separating bound fails.
    for eps in (0.0, -0.0, float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="eps must be finite and nonzero"):
            perturbed_pair(eps)


def test_monotone_information_gap():
    # The fans converge to each other but not to the merged tree.
    fans = [collapsing_fan(n) for n in (1, 2, 4, 8, 16)]
    merged = merged_limit()
    gaps = [nested_distance(f, merged, M1).distance for f in fans]
    assert all(g >= 1.0 for g in gaps)
    pairwise = nested_distance(fans[-2], fans[-1], M1).distance
    assert pairwise <= abs(1.0 / 8 - 1.0 / 16) + 1e-12


def test_plan_transpose_orientation():
    fan, merged = fan_vs_merged(3)
    res = nested_distance(fan, merged, M2)
    fan_paths = {p for p, _ in fan.leaf_paths()}
    for e in res.plan.entries:
        assert e.mu_path in fan_paths
    res_swapped = nested_distance(merged, fan, M2)
    merged_paths = {p for p, _ in merged.leaf_paths()}
    for e in res_swapped.plan.entries:
        assert e.mu_path in merged_paths
    assert res.distance == res_swapped.distance


# ------------------------------------------- class-shared engine vs dense


def _dense_backward(mu, nu, metric):
    """Reference: one transport problem per node pair, as a plain table
    keyed by the stage and the two nodes' positions in it."""
    depth = mu.depth
    values = {(depth, i, j): 0.0 for i in range(len(mu.leaves)) for j in range(len(nu.leaves))}
    for t in range(depth - 1, -1, -1):
        for i in range(len(mu.values[t])):
            kids_i = range(mu.starts[t][i], mu.starts[t][i + 1])
            vi = [mu.values[t + 1][k] for k in kids_i]
            pi = [mu.probs[t + 1][k] for k in kids_i]
            for j in range(len(nu.values[t])):
                kids_j = range(nu.starts[t][j], nu.starts[t][j + 1])
                vj = [nu.values[t + 1][k] for k in kids_j]
                pj = [nu.probs[t + 1][k] for k in kids_j]
                cost = np.empty((len(kids_i), len(kids_j)))
                for a, ka in enumerate(kids_i):
                    for b, kb in enumerate(kids_j):
                        cost[a, b] = (
                            metric.base_cost(vi[a], vj[b])
                            + values[(t + 1, ka, kb)]
                        )
                values[(t, i, j)] = _oriented_value(cost, pi, pj)
    return values


def _oriented_value(cost, a, b):
    """``solve_ot``'s value of the problem or of its transpose, whichever the
    engine solves: the one whose masses, then cost rows, compare lower."""
    flipped = np.ascontiguousarray(cost.T)
    if b < a or (b == a and flipped.tolist() < cost.tolist()):
        return solve_ot(flipped, b, a).value
    return solve_ot(cost, a, b).value


def _dense_nested(mu, nu, metric):
    """Reference distance and table; each subproblem oriented as the engine does."""
    values = _dense_backward(mu, nu, metric)
    return metric.root(values[(0, 0, 0)]), values


def dyadic_walk(depth, step, up):
    """Recombining walk from 0 with steps +-step, up-probability ``up``.

    Steps and probabilities are dyadic, so up-then-down equals
    down-then-up bit for bit and equal levels give equal subtrees.
    """
    pairs = []
    for k in range(2**depth):
        x, w, path = 0.0, 1.0, []
        for t in range(depth):
            if (k >> t) & 1:
                x, w = x + step, w * up
            else:
                x, w = x - step, w * (1.0 - up)
            path.append(x)
        pairs.append((tuple(path), w))
    return build_tree(pairs)


def _engine_cases():
    rng = np.random.default_rng(4242)
    metrics = [
        M1,
        M2,
        GroundMetric.truncated(1.0, cap=0.5),
        GroundMetric.truncated(2.0, cap=1.0),
        GroundMetric.usual(1.5),
        GroundMetric.usual(3.0),
    ]
    for k in range(24):
        yield (*random_tree_pair(rng, int(rng.integers(1, 4))), metrics[k % len(metrics)])
    for depth in (2, 3, 4):
        for metric in metrics:
            yield dyadic_walk(depth, 0.5, 0.5), dyadic_walk(depth, 0.25, 0.75), metric
            yield dyadic_walk(depth, 0.125, 0.375), dyadic_walk(depth, 0.5, 0.625), metric


def test_engine_matches_dense_reference_exactly():
    for mu, nu, metric in _engine_cases():
        res = nested_distance(mu, nu, metric)
        distance, values = _dense_nested(mu, nu, metric)
        assert res.distance == distance
        value = _continuation(mu, nu, metric)
        assert {key: value(*key) for key in values} == values


def _mirror_cases():
    yield from _pinned_instances()
    rng = np.random.default_rng(606)
    for trial in range(60):
        n = int(rng.integers(1, 7))
        cost = rng.integers(0, 4, size=(2, n)) / 4 if trial % 2 else rng.uniform(0, 3, (2, n))
        yield cost, _masses(rng, 2, trial % 3 == 0), _masses(rng, n, trial % 3 == 0)
    for k in (2, 3, 5):
        # equal masses: the cost rows decide
        cost = rng.uniform(0.0, 2.0, size=(k, k))
        yield cost, np.full(k, 1.0 / k), np.full(k, 1.0 / k)
        # symmetric cost with a zero diagonal: both orientations are one problem
        x = rng.uniform(0.0, 1.0, size=k)
        yield (x[:, None] - x[None, :]) ** 2, np.full(k, 1.0 / k), np.full(k, 1.0 / k)


def test_solve_mirrors_the_transposed_problem():
    for cost, a, b in _mirror_cases():
        a, b = list(map(float, a)), list(map(float, b))
        value, plan = _solve(cost.tolist(), _law(a), _law(b))
        value_t, plan_t = _solve(cost.T.tolist(), _law(b), _law(a))
        assert value.hex() == value_t.hex()
        assert np.array_equal(np.array(plan), np.array(plan_t).T)
        assert value == pytest.approx(solve_ot(cost, a, b).value, rel=1e-12, abs=1e-15)


def test_reversed_arguments_mirror_exactly():
    for mu, nu, metric in _engine_cases():
        ab, ba = nested_distance(mu, nu, metric), nested_distance(nu, mu, metric)
        assert ab.distance.hex() == ba.distance.hex()
        assert {(e.nu_path, e.mu_path): e.mass for e in ba.plan.entries} == {
            (e.mu_path, e.nu_path): e.mass for e in ab.plan.entries
        }
        value_ab, value_ba = _continuation(mu, nu, metric), _continuation(nu, mu, metric)
        for t in range(mu.depth + 1):
            for i in range(len(mu.values[t])):
                for j in range(len(nu.values[t])):
                    assert value_ba(t, j, i) == value_ab(t, i, j)


def test_lift_matches_tree_exactly():
    for mu, nu, metric in _engine_cases():
        lifted = nested_wasserstein(embed(mu), embed(nu), metric)
        assert lifted == nested_distance(mu, nu, metric).distance
        assert lifted == nested_wasserstein(embed(nu), embed(mu), metric)


def _counting_solves(monkeypatch):
    calls = []
    real = nestedot.nested._kernel

    def counted(cost, a, b):
        calls.append((len(a), len(b)))
        return real(cost, a, b)

    monkeypatch.setattr(nestedot.nested, "_kernel", counted)
    return calls


def test_walk_solves_one_problem_per_class_pair(monkeypatch):
    calls = _counting_solves(monkeypatch)
    depth = 5
    mu, nu = dyadic_walk(depth, 0.5, 0.5), dyadic_walk(depth, 0.25, 0.75)
    nested_distance(mu, nu, M2)
    class_pairs = sum(k * k for k in range(1, depth + 1))
    assert class_pairs == 55
    assert len(calls) == class_pairs
    nested_wasserstein(embed(mu), embed(nu), M2)
    assert len(calls) == 2 * class_pairs
    assert set(calls) == {(2, 2)}


def reached_class_pairs(mu, nu, plan):
    """The class pairs of the same-stage node pairs above the plan's entries."""
    (_, of_mu), (_, of_nu) = tree_classes(mu), tree_classes(nu)
    reached = set()
    for e in plan.entries:
        for t in range(mu.depth):
            i, j = node_at(mu, e.mu_path[:t]), node_at(nu, e.nu_path[:t])
            reached.add((of_mu[t][i], of_nu[t][j]))
    return reached


def test_compose_plan_asks_each_class_pair_once():
    mu, nu = dyadic_walk(5, 0.5, 0.5), dyadic_walk(5, 0.25, 0.75)
    (classes_mu, of_mu), (classes_nu, of_nu) = tree_classes(mu), tree_classes(nu)
    solved = backward(classes_mu, classes_nu, M2)
    asked = []

    def plan_of(ca, cb):
        asked.append((ca, cb))
        return solved[ca, cb][1]

    plan, _ = compose_plan(mu, nu, of_mu, of_nu, plan_of)
    assert plan == nested_distance(mu, nu, M2).plan
    assert len(asked) == len(set(asked))
    assert set(asked) == reached_class_pairs(mu, nu, plan)
    node_pairs = sum(len(mu.nodes_at_stage(t)) * len(nu.nodes_at_stage(t)) for t in range(5))
    assert len(asked) <= 55 < node_pairs


def test_plan_composed_without_a_metric_is_not_priced():
    # The recursion takes stage-wise expectations, so the distance is
    # finite, but the leaf pair (0, 1e154)-(1.095e154, 0) costs
    # 1.199e308 + 1e308 along its path, past the float range.
    mu = build_tree([((0.0, 0.0), 0.5), ((0.0, 1e154), 0.5)])
    nu = build_tree([((1.095e154, 0.0), 1.0)])
    result = nested_distance(mu, nu, M2)
    assert result.distance == 1.3034665319830808e154
    assert len(result.plan) == 2 and is_bicausal(result.plan, mu, nu).is_bicausal
    (classes_mu, of_mu), (classes_nu, of_nu) = tree_classes(mu), tree_classes(nu)
    solved = backward(classes_mu, classes_nu, M2)
    plan, cost = compose_plan(mu, nu, of_mu, of_nu, lambda a, b: solved[a, b][1])
    assert plan == result.plan and cost is None
    with pytest.raises(ValidationError) as priced:
        compose_plan(mu, nu, of_mu, of_nu, lambda a, b: solved[a, b][1], M2)
    assert str(priced.value) == PATH_COST_OVERFLOW


def test_deep_walk_lazy_table(monkeypatch):
    calls = _counting_solves(monkeypatch)
    depth = 12
    mu, nu = dyadic_walk(depth, 0.5, 0.5), dyadic_walk(depth, 0.25, 0.5)
    res = nested_distance(mu, nu, M2)
    assert len(calls) == sum(k * k for k in range(1, depth + 1))
    stages = range(depth + 1)
    node_pairs = sum(len(mu.nodes_at_stage(t)) * len(nu.nodes_at_stage(t)) for t in stages)
    assert node_pairs == sum(4**t for t in stages)
    assert len(res.plan) == 2**depth
    value = _continuation(mu, nu, M2)
    assert M2.root(value(0, 0, 0)) == res.distance
    # equal levels share one class pair, hence one value
    ups = [node_at(mu, h) for h in ((0.5, 0.0), (-0.5, 0.0))]
    downs = [node_at(nu, h) for h in ((0.25, 0.0), (-0.25, 0.0))]
    assert len({value(2, i, j) for i in ups for j in downs}) == 1
    assert _continuation(nu, mu, M2)(2, downs[0], ups[1]) == value(2, ups[1], downs[0])


def _bit_pin_cases():
    """Seeded random pairs (depth 1-4), full trees of branching up to 6 with
    tied values and weights, and dyadic walks, under p = 1, 1.5, 2 and the
    truncated metric."""
    metrics = [M1, GroundMetric.usual(1.5), M2, GroundMetric.truncated(1.0, cap=0.5)]
    rng = np.random.default_rng(31415)
    for k in range(48):
        yield (*random_tree_pair(rng, 1 + k % 4), metrics[k % 4])
    full = [
        (([6, 5], lambda t, k: 1.0, lambda t, k: float(k)),
         ([5, 6], lambda t, k: 1.0 + k % 3, lambda t, k: float(k % 4) - t)),
        (([4, 6, 2], lambda t, k: 1.0 + k, lambda t, k: 0.5 * k),
         ([6, 4, 2], lambda t, k: 1.0, lambda t, k: 0.25 * k + t)),
        (([3, 4, 3], lambda t, k: 2.0 ** -k, lambda t, k: float(k)),
         ([4, 3, 4], lambda t, k: 1.0, lambda t, k: float(k))),
        (([6], lambda t, k: 1e-12 if k == 2 else 1.0, lambda t, k: float(k)),
         ([6], lambda t, k: 1.0 + k, lambda t, k: float(5 - k))),
    ]
    for first, second in full:
        for metric in metrics:
            yield full_tree(*first), full_tree(*second), metric
    for metric in metrics:
        yield dyadic_walk(4, 0.5, 0.5), dyadic_walk(4, 0.25, 0.75), metric


def test_nested_bits_are_pinned():
    # sha256 of the distance, the lifted distance and the composed plan, taken
    # before the recursion's subproblems moved to Python lists.
    digest = hashlib.sha256()
    for mu, nu, metric in _bit_pin_cases():
        res = nested_distance(mu, nu, metric)
        lifted = nested_wasserstein(embed(mu), embed(nu), metric)
        digest.update(f"{res.distance.hex()} {lifted.hex()}".encode())
        for e in res.plan.entries:
            digest.update(f"{e.mu_path!r} {e.nu_path!r} {e.mass.hex()}".encode())
    assert digest.hexdigest() == "3daab9f7e6e34e38160cf7cfff3c0beedc65280ae6b05e50d3a21338ebaec9f2"


@pytest.mark.parametrize(
    "masses, message",
    [
        ([math.nan, 1.0], "masses must be finite and nonnegative"),
        ([1.0, math.nan], "masses must be finite and nonnegative"),
        ([math.inf, 0.0], "mass mismatch: marginal sums to inf"),
        ([-0.5, 1.5], "masses must be finite and nonnegative"),
        ([0.2, 0.2], "mass mismatch: marginal sums to 0.4"),
    ],
)
def test_mass_checks_catch_nan_wherever_it_sits(masses, message):
    # Python's ``min`` does not propagate NaN: min([1.0, nan]) is 1.0.
    cost = [[0.0, 1.0], [1.0, 0.0]]
    for a, b in ((masses, [0.5, 0.5]), ([0.5, 0.5], masses)):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            solve_ot(cost, a, b)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        _law(masses)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached from the recursion")


def test_recursion_builds_no_numpy_array(monkeypatch):
    # The recursion's one-stage problems are a few cells each, so it solves
    # them on Python lists; numpy's fixed cost per array would dominate.
    pairs = [
        (dyadic_walk(5, 0.5, 0.5), dyadic_walk(5, 0.25, 0.75)),
        (full_tree([4, 3, 3], lambda t, k: 1.0 + k, lambda t, k: k + 0.25 * t),
         full_tree([4, 3, 3], lambda t, k: 4.0 - k, lambda t, k: 0.5 * k - t)),
    ]
    expected = [
        (nested_distance(mu, nu, M2), nested_wasserstein(embed(mu), embed(nu), M2))
        for mu, nu in pairs
    ]
    lifts = [(embed(mu), embed(nu)) for mu, nu in pairs]
    monkeypatch.setattr(nestedot.nested, "np", _NoNumpy())
    monkeypatch.setattr(nestedot.transport, "np", _NoNumpy())
    for (mu, nu), (p, q), (res, lifted) in zip(pairs, lifts, expected):
        got = nested_distance(mu, nu, M2)
        assert got.distance == res.distance
        assert got.plan.cells == res.plan.cells and got.plan.masses == res.plan.masses
        assert nested_wasserstein(p, q, M2) == lifted
