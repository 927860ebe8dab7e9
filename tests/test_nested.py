import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nestedot.nested
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
    kr_distance,
    nested_distance,
    nested_wasserstein,
    solve_ot,
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
from nestedot.nested import _law, _solve, backward, tree_classes
from nestedot.tolerances import ORACLE_TOL
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
    """The continuation value of a same-stage node pair (i of mu, j of nu),
    read from the backward recursion's value of the pair's class pair."""
    classes_mu, of_mu = tree_classes(mu)
    classes_nu, of_nu = tree_classes(nu)
    solved = backward(classes_mu, classes_nu, metric)
    return lambda i, j: solved[of_mu[i], of_nu[j]][0]


def test_value_table_invariants():
    fan, merged = fan_vs_merged(2)
    res = nested_distance(fan, merged, M2)
    value = _continuation(fan, merged, M2)
    assert fan.depth == 2
    for t in range(3):
        for i in fan.nodes_at_stage(t):
            for j in merged.nodes_at_stage(t):
                assert value(i, j) >= 0.0
                if t == 2:
                    assert value(i, j) == 0.0
    root_value = value(fan.root, merged.root)
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
        # numpy's power at p = 1.5 is not libm's pow: last-digit differences
        (GroundMetric.usual(1.5), 1e-14),
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
    for call in (
        lambda: nested_distance(short, long, M1),
        lambda: wasserstein_distance(short, long, M1),
        lambda: brute_force_bicausal(short, long, M1),
        lambda: kr_distance(short, long, M1),
        lambda: nested_wasserstein(embed(short), embed(long), M1),
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
    # One HiGHS call without presolve, ``A_eq`` as a keyword, one column
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
    assert calls[0]["options"] == {"presolve": False}
    a_eq = calls[0]["A_eq"]
    assert a_eq.shape == (808, 1 + 16 + 144 + 1296)
    assert a_eq.nnz == 3236
    assert np.linalg.matrix_rank(a_eq.toarray()) == 808
    assert oracle.distance == pytest.approx(nested_distance(mu, nu, M2).distance, abs=1e-8)


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


def test_oracle_solves_a_negative_vertex_again_with_presolve(monkeypatch):
    # Without presolve HiGHS ends this depth-6 pair on a vertex with a mass
    # of -6e-8 that costs 1.2e-7 less than the optimum, 1.4e-8 off in
    # distance; the oracle solves it again with presolve.
    results = []
    real = nestedot.nested.linprog

    def recording(*args, **kwargs):
        results.append((kwargs.get("options"), real(*args, **kwargs)))
        return results[-1][1]

    monkeypatch.setattr(nestedot.nested, "linprog", recording)
    mu, nu = _walk(6, 1.0, 0.6875), _walk(6, 0.25, 0.75)
    oracle = brute_force_bicausal(mu, nu, M2)
    assert [options for options, _ in results] == [{"presolve": False}, None]
    assert results[0][1].x.min() < 0.0
    assert abs(oracle.distance - nested_distance(mu, nu, M2).distance) <= ORACLE_TOL
    assert is_bicausal(oracle.plan, mu, nu).is_bicausal


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
    """Reference: one transport problem per node pair, as a plain table."""
    depth = mu.depth
    values = {(depth, i, j): 0.0 for i in mu.nodes_at_stage(depth) for j in nu.nodes_at_stage(depth)}
    for t in range(depth - 1, -1, -1):
        for i in mu.nodes_at_stage(t):
            kids_i = mu.children(i)
            vi = [mu.node(k).value for k in kids_i]
            pi = [mu.node(k).cond_prob for k in kids_i]
            for j in nu.nodes_at_stage(t):
                kids_j = nu.children(j)
                vj = [nu.node(k).value for k in kids_j]
                pj = [nu.node(k).cond_prob for k in kids_j]
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
    return metric.root(values[(0, mu.root, nu.root)]), values


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
        assert {(t, i, j): value(i, j) for t, i, j in values} == values


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
        value, plan = _solve(cost, _law(a), _law(b))
        value_t, plan_t = _solve(np.ascontiguousarray(cost.T), _law(b), _law(a))
        assert value.hex() == value_t.hex()
        assert np.array_equal(plan, plan_t.T)
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
            for i in mu.nodes_at_stage(t):
                for j in nu.nodes_at_stage(t):
                    assert value_ba(j, i) == value_ab(i, j)


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
    assert M2.root(value(mu.root, nu.root)) == res.distance
    # equal levels share one class pair, hence one value
    ups = [node_at(mu, h) for h in ((0.5, 0.0), (-0.5, 0.0))]
    downs = [node_at(nu, h) for h in ((0.25, 0.0), (-0.25, 0.0))]
    assert len({value(i, j) for i in ups for j in downs}) == 1
    assert _continuation(nu, mu, M2)(downs[0], ups[1]) == value(ups[1], downs[0])
