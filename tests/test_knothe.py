import math

import numpy as np
import pytest

import nestedot.knothe
from nestedot import (
    Coupling,
    GroundMetric,
    ValidationError,
    build_tree,
    is_bicausal,
    kr_coupling,
    kr_distance,
    nested_distance,
    solve_ot,
    wasserstein_distance,
)
from nestedot.families import (
    crossed_fans,
    fan_vs_merged,
    hidden_branch_pair,
    perturbed_pair,
    random_tree,
    random_tree_pair,
)
from nestedot.metrics import PATH_COST_OVERFLOW
from nestedot.tree import Node, ScenarioTree
from reference import child_law, quantile_cost
from test_nested import dyadic_walk, reached_class_pairs

M1 = GroundMetric.usual(1.0)
M2 = GroundMetric.usual(2.0)


def test_identical_trees_diagonal():
    rng = np.random.default_rng(1)
    tree = random_tree(rng, 3)
    plan = kr_coupling(tree, tree).coupling
    for e in plan.entries:
        assert e.mu_path == e.nu_path
    assert kr_distance(tree, tree, M2) == 0.0


def test_crossed_fans_matching():
    mu, nu = crossed_fans(1)
    plan = kr_coupling(mu, nu).coupling
    matches = {(e.mu_path, e.nu_path) for e in plan.entries}
    assert matches == {
        ((1.0, 0.5), (1.0, -0.5)),
        ((-1.0, -0.5), (-1.0, 0.5)),
    }


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_crossed_fans_distance(n, p):
    mu, nu = crossed_fans(n)
    assert kr_distance(mu, nu, GroundMetric.usual(p)) == pytest.approx(float(n), abs=1e-9)


def test_fan_vs_merged_quantile_crossing():
    # Stage 1 splits the merged node's u-interval across the two fan
    # branches in sorted-value order; stage 2 then splits each branch's
    # point mass across both merged children.
    fan, merged = fan_vs_merged(2)
    plan = kr_coupling(fan, merged).coupling
    masses = {(e.mu_path, e.nu_path): e.mass for e in plan.entries}
    assert masses == pytest.approx(
        {
            ((-0.5, -1.0), (0.0, -1.0)): 0.25,
            ((-0.5, -1.0), (0.0, 1.0)): 0.25,
            ((0.5, 1.0), (0.0, -1.0)): 0.25,
            ((0.5, 1.0), (0.0, 1.0)): 0.25,
        }
    )


def test_single_path_reduces_to_path_cost():
    mu = build_tree([((0.0, 2.0), 1.0)])
    nu = build_tree([((1.0, -1.0), 1.0)])
    assert kr_distance(mu, nu, M2) == pytest.approx(math.sqrt(1.0 + 9.0), abs=1e-12)


def test_rearrangement_always_bicausal():
    rng = np.random.default_rng(14)
    for _ in range(15):
        mu, nu = random_tree_pair(rng, int(rng.integers(1, 4)))
        rep = is_bicausal(kr_coupling(mu, nu).coupling, mu, nu)
        assert rep.is_bicausal


def test_metric_axioms():
    def assert_mirrored(a, b):
        # The construction is symmetric: swapping the arguments transposes
        # the plan bit for bit.
        ab, ba = kr_coupling(a, b).coupling, kr_coupling(b, a).coupling
        assert ba.entries == tuple(sorted((e.nu_path, e.mu_path, e.mass) for e in ab.entries))

    rng = np.random.default_rng(21)
    for _ in range(10):
        a = random_tree(rng, 2)
        b = random_tree(rng, 2)
        c = random_tree(rng, 2)
        dab = kr_distance(a, b, M2)
        assert dab == kr_distance(b, a, M2)  # exact symmetry
        assert_mirrored(a, b)
        assert kr_distance(a, a, M2) == 0.0
        assert dab <= kr_distance(a, c, M2) + kr_distance(c, b, M2) + 1e-9
        if a.canonical_key() != b.canonical_key():
            assert dab > 0.0
    assert_mirrored(dyadic_walk(4, 0.5, 0.5), dyadic_walk(4, 0.25, 0.75))


def test_dominates_nested():
    rng = np.random.default_rng(33)
    for _ in range(15):
        mu, nu = random_tree_pair(rng, int(rng.integers(1, 4)))
        metric = GroundMetric.usual(float(rng.choice([1.0, 2.0])))
        assert kr_distance(mu, nu, metric) >= nested_distance(mu, nu, metric).distance - 1e-9


def test_single_stage_degeneracy():
    rng = np.random.default_rng(44)
    for _ in range(15):
        mu, nu = random_tree_pair(rng, 1)
        kr = kr_distance(mu, nu, M2)
        nd = nested_distance(mu, nu, M2).distance
        w = wasserstein_distance(mu, nu, M2)
        assert abs(kr - nd) <= 1e-10
        assert abs(kr - w) <= 1e-10


def _marginal_deviations(plan, mu, nu):
    """Largest gap between each side's plan marginal and its path law."""
    out = []
    for tree, side in ((mu, 0), (nu, 1)):
        marg: dict = {}
        for e in plan.entries:
            key = (e.mu_path, e.nu_path)[side]
            marg[key] = marg.get(key, 0.0) + e.mass
        out.append(max(abs(w - marg.get(path, 0.0)) for path, w in tree.leaf_paths()))
    return out


def test_kr_plan_keeps_input_mass():
    # nu's middle atom of 1e-12 splits mu's two halves 5e-13 short of
    # 0.5.  That remainder is input mass, not rounding, so each half
    # ships it whole and both marginals hold exactly.
    mu = build_tree([((0.0,), 0.5), ((1.0,), 0.5)])
    nu = build_tree([((0.0,), 0.5 - 5e-13), ((0.5,), 1e-12), ((1.0,), 0.5 - 5e-13)])
    plan = kr_coupling(mu, nu).coupling
    assert is_bicausal(plan, mu, nu, tol=1e-15).is_bicausal
    assert _marginal_deviations(plan, mu, nu) == [0.0, 0.0]


def test_one_stage_plan_is_the_quantile_coupling():
    # Share draws from 1..4 give dyadic masses (1/2, 1/4) and others
    # (1/3, 2/7); the quantile coupling here is an independent route.
    rng = np.random.default_rng(61)
    for _ in range(60):
        mu, nu = random_tree_pair(rng, 1)
        a, b = child_law(mu), child_law(nu)
        _, expected = quantile_cost(a, b, M2)
        got = np.zeros_like(expected)
        for e in kr_coupling(mu, nu).coupling.entries:
            got[a.locations.index(e.mu_path[0]), b.locations.index(e.nu_path[0])] += e.mass
        assert np.abs(got - expected).max() <= 1e-15


def test_antitone_upper_bound_for_crossed_fans():
    # The stagewise decreasing rearrangement matches +1/n with -1/n at
    # stage 1 and the equal stage-2 values after it: a bicausal plan of
    # cost 2/n, so the nested distance is at most 2/n.
    for n in (2, 3, 5):
        mu, nu = crossed_fans(n)
        plan = Coupling.from_mass_map(
            {
                ((1.0 / n, n / 2.0), (-1.0 / n, n / 2.0)): 0.5,
                ((-1.0 / n, -n / 2.0), (1.0 / n, -n / 2.0)): 0.5,
            }
        )
        assert is_bicausal(plan, mu, nu).is_bicausal
        cost = plan.cost(M1)
        assert cost == pytest.approx(2.0 / n, abs=1e-12)
        assert nested_distance(mu, nu, M1).distance <= cost + 1e-12


def gap(mu, nu, metric=M1):
    """The two distances that ``demo kr-gap`` compares."""
    return kr_distance(mu, nu, metric), nested_distance(mu, nu, metric).distance


def test_gap_demo_crossed():
    kr, nested = gap(*crossed_fans(2))
    assert kr == pytest.approx(2.0, abs=1e-9)
    assert nested <= 1.0 + 1e-9


def test_gap_demo_crossed_n1():
    kr, _ = gap(*crossed_fans(1))
    assert kr == pytest.approx(1.0, abs=1e-9)


def test_gap_demo_hidden_branch_values():
    # Frozen from the brute-force bicausal oracle on the 16-atom
    # discretization: both distances equal 1/2 + 1/(2n) for p = 1; the
    # rearrangement and the optimal bicausal plan coincide here because
    # stage 1 is forced and stage 2 is comonotone-optimal.
    expected = {1: 1.0, 2: 0.75, 4: 0.625, 8: 0.5625}
    for n, target in expected.items():
        kr, nested = gap(*hidden_branch_pair(n, 16))
        assert kr == pytest.approx(target, abs=1e-9)
        assert nested == pytest.approx(target, abs=1e-9)
        assert kr >= nested - 1e-12


def test_gap_demo_rejects_bad_input():
    with pytest.raises(ValidationError):
        crossed_fans(0)
    with pytest.raises(ValidationError):
        hidden_branch_pair(0, 16)
    with pytest.raises(ValidationError):
        hidden_branch_pair(2, 0)


def test_depth_mismatch():
    mu = build_tree([((0.0,), 1.0)])
    nu = build_tree([((0.0, 1.0), 1.0)])
    with pytest.raises(ValidationError):
        kr_coupling(mu, nu)


def test_quantile_alignment_with_uneven_masses():
    # Three atoms of 1/3 against two of 1/2: the refinement must split at
    # both partitions' breakpoints and conserve mass exactly.
    mu = build_tree([((0.0,), 1 / 3), ((1.0,), 1 / 3), ((2.0,), 1 / 3)])
    nu = build_tree([((0.0,), 0.5), ((4.0,), 0.5)])
    plan = kr_coupling(mu, nu).coupling
    assert math.fsum(e.mass for e in plan.entries) == pytest.approx(1.0, abs=1e-12)
    masses = {(e.mu_path, e.nu_path): e.mass for e in plan.entries}
    assert masses[((0.0,), (0.0,))] == pytest.approx(1 / 3, abs=1e-12)
    assert masses[((1.0,), (0.0,))] == pytest.approx(1 / 6, abs=1e-12)
    assert masses[((1.0,), (4.0,))] == pytest.approx(1 / 6, abs=1e-12)
    assert masses[((2.0,), (4.0,))] == pytest.approx(1 / 3, abs=1e-12)
    # 1-stage usual metric: quantile plan is optimal
    cost = [
        [M1.base_cost(x[0], y[0]) for y, _ in nu.leaf_paths()]
        for x, _ in mu.leaf_paths()
    ]
    opt = solve_ot(cost, [1 / 3] * 3, [0.5, 0.5])
    assert plan.cost(M1) == pytest.approx(opt.value, abs=1e-12)


@pytest.mark.parametrize(
    "walks, runs",
    [
        # different up-probabilities split every stage: 3**6 entries from
        # 364 node pairs but 56 class pairs
        (((0.5, 0.5), (0.25, 0.75)), 56),
        (((0.125, 0.375), (0.5, 0.625)), 56),
        (((0.5, 0.5), (0.25, 0.5)), 21),
    ],
)
def test_northwest_corner_runs_once_per_class_pair(monkeypatch, walks, runs):
    calls = []
    real = nestedot.knothe._northwest_corner

    def counted(a, b):
        calls.append((tuple(a), tuple(b)))
        return real(a, b)

    monkeypatch.setattr(nestedot.knothe, "_northwest_corner", counted)
    (step_a, up_a), (step_b, up_b) = walks
    mu, nu = dyadic_walk(6, step_a, up_a), dyadic_walk(6, step_b, up_b)
    plan = kr_coupling(mu, nu).coupling
    assert len(calls) == len(reached_class_pairs(mu, nu, plan)) == runs


PRICED_METRICS = [
    GroundMetric.usual(1.0),
    GroundMetric.usual(1.5),
    M2,
    GroundMetric.truncated(2.0, 0.5),
]


def _priced(mu, nu, metric):
    """The KR plan priced as it is composed, checked against ``Coupling.cost``
    bit for bit: the same terms, each correctly rounded, in any order."""
    kr = kr_coupling(mu, nu, metric)
    assert kr.coupling == kr_coupling(mu, nu).coupling
    assert kr.cost.hex() == kr.coupling.cost(metric).hex()
    return kr


def _underflowing_pair():
    # The KR plan pairs the leaves (0.0, 3e200) and (0.0, 5.0) with fractions
    # 1e-200 at both stages: their mass rounds to zero, so no plan entry
    # holds them, though their base distance overflows at p = 2.
    root = Node(0, None, 0, None, None)
    mu = ScenarioTree(2, [
        root, Node(1, 0, 1, 0.0, 1e-200), Node(2, 0, 1, 1.0, 1.0),
        Node(3, 1, 2, 3e200, 1e-200), Node(4, 1, 2, 1.0, 1.0), Node(5, 2, 2, 0.0, 1.0),
    ])
    nu = ScenarioTree(2, [
        root, Node(1, 0, 1, 0.0, 0.5), Node(2, 0, 1, 1.0, 0.5),
        Node(3, 1, 2, 0.0, 1.0), Node(4, 1, 2, 5.0, 1e-200), Node(5, 2, 2, 2.0, 1.0),
    ])
    return mu, nu


@pytest.mark.parametrize("metric", PRICED_METRICS, ids=repr)
def test_priced_cost_has_the_bits_of_coupling_cost(metric):
    rng = np.random.default_rng(2718)
    pairs = [random_tree_pair(rng, 1 + k % 4) for k in range(80)]
    pairs += [crossed_fans(4), hidden_branch_pair(4, 16), fan_vs_merged(3), perturbed_pair(0.1)]
    point = build_tree([((0.5,), 1.0)])
    pairs += [(build_tree([((float(i),), 1 / k) for i in range(k)]), point) for k in range(1, 10)]
    zeros = build_tree([((-0.0, 1.0), 0.25), ((1.0, -0.0), 0.75)])
    pairs += [(zeros, build_tree([((0.0, -0.0), 0.5), ((-0.0, 0.0), 0.5)])), (zeros, zeros)]
    pairs.append(_underflowing_pair())
    sizes = {len(_priced(mu, nu, metric).coupling) for mu, nu in pairs}
    assert set(range(1, 10)) <= sizes


def test_a_leaf_pair_of_mass_rounded_to_zero_is_not_priced():
    mu, nu = _underflowing_pair()
    kr = _priced(mu, nu, M2)
    assert ((0.0, 3e200), (0.0, 5.0)) not in {(e.mu_path, e.nu_path) for e in kr.coupling.entries}
    assert math.isfinite(kr.cost)


@pytest.mark.parametrize(
    "mu_paths, nu_paths, message",
    [
        # a base distance whose p-th power passes the float range
        ([(0.0,)], [(2e200,)], "cost overflows: base distance 2e+200 to the power 2.0"),
        # two such value pairs: the lower one is named, whichever the walk
        # meets first (here the other) and in whatever order a set holds them
        (
            [(0.0, 0.0), (1.0, 0.0)],
            [(0.0, -3e200), (1.0, 4e200)],
            "cost overflows: base distance 3e+200 to the power 2.0",
        ),
        (
            [(0.0, 0.0), (1.0, 0.0)],
            [(0.0, 5e200), (1.0, 2e200)],
            "cost overflows: base distance 2e+200 to the power 2.0",
        ),
        # finite stage costs whose sum is not
        ([(0.0, 0.0)], [(1e154, 1e154)], PATH_COST_OVERFLOW),
        # a base distance past the float range itself: inf, which base_cost
        # returns, then rejected as a path cost
        ([(1e308,)], [(-1e308,)], PATH_COST_OVERFLOW),
    ],
)
def test_priced_overflow_is_reported_as_by_coupling_cost(mu_paths, nu_paths, message):
    mu = build_tree([(x, 1 / len(mu_paths)) for x in mu_paths])
    nu = build_tree([(y, 1 / len(nu_paths)) for y in nu_paths])
    with pytest.raises(ValidationError) as priced:
        kr_coupling(mu, nu, M2)
    with pytest.raises(ValidationError) as general:
        kr_coupling(mu, nu).coupling.cost(M2)
    assert str(priced.value) == str(general.value) == message
