import math

import numpy as np
import pytest

from nestedot import (
    GroundMetric,
    PathDistribution,
    ValidationError,
    antitone_coupling,
    build_tree,
    is_bicausal,
    kr_coupling,
    kr_distance,
    kr_gap_demo,
    nested_distance,
    solve_ot,
    wasserstein_distance,
)
from nestedot.families import (
    crossed_fans,
    fan_vs_merged,
    random_tree,
    random_tree_pair,
)
from nestedot.knothe import Segment
from test_nested import dyadic_walk

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
    mu = build_tree(PathDistribution.from_pairs([((0.0, 2.0), 1.0)]))
    nu = build_tree(PathDistribution.from_pairs([((1.0, -1.0), 1.0)]))
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
        # the plan and mirrors the segments bit for bit.
        ab, ba = kr_coupling(a, b), kr_coupling(b, a)
        assert ba.coupling.entries == ab.coupling.transpose().entries
        assert ba.segments == {
            (t, j, i): tuple(Segment(s.lo, s.hi, s.nu_child, s.mu_child) for s in segs)
            for (t, i, j), segs in ab.segments.items()
        }

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


def test_segments_partition_unit_interval():
    rng = np.random.default_rng(9)
    mu, nu = random_tree_pair(rng, 2)
    segs = kr_coupling(mu, nu).segments
    assert segs
    for (stage, i, j), intervals in segs.items():
        assert intervals[0].lo == 0.0
        assert intervals[-1].hi == 1.0
        for a, b in zip(intervals, intervals[1:]):
            assert a.hi == b.lo
        assert stage >= 1


def test_antitone_upper_bound_for_crossed_fans():
    for n in (2, 3, 5):
        mu, nu = crossed_fans(n)
        plan = antitone_coupling(mu, nu)
        cost = plan.cost(M1)
        assert cost == pytest.approx(2.0 / n, abs=1e-12)
        assert nested_distance(mu, nu, M1).distance <= cost + 1e-12


def test_gap_demo_crossed():
    res = kr_gap_demo(2, 1.0)
    assert res.kr == pytest.approx(2.0, abs=1e-9)
    assert res.nested <= 1.0 + 1e-9


def test_gap_demo_crossed_n1():
    res = kr_gap_demo(1, 1.0)
    assert res.kr == pytest.approx(1.0, abs=1e-9)


def test_gap_demo_hidden_branch_values():
    # Frozen from the brute-force bicausal oracle on the 16-atom
    # discretization: both distances equal 1/2 + 1/(2n) for p = 1; the
    # rearrangement and the optimal bicausal plan coincide here because
    # stage 1 is forced and stage 2 is comonotone-optimal.
    expected = {1: 1.0, 2: 0.75, 4: 0.625, 8: 0.5625}
    for n, target in expected.items():
        res = kr_gap_demo(n, 1.0, family="hidden_branch", second_stage_atoms=16)
        assert res.kr == pytest.approx(target, abs=1e-9)
        assert res.nested == pytest.approx(target, abs=1e-9)
        assert res.kr >= res.nested - 1e-12


def test_gap_demo_rejects_bad_input():
    with pytest.raises(ValidationError):
        kr_gap_demo(0, 1.0)
    with pytest.raises(ValidationError):
        kr_gap_demo(2, 1.0, family="unknown")


def test_depth_mismatch():
    mu = build_tree(PathDistribution.from_pairs([((0.0,), 1.0)]))
    nu = build_tree(PathDistribution.from_pairs([((0.0, 1.0), 1.0)]))
    with pytest.raises(ValidationError):
        kr_coupling(mu, nu)


def test_quantile_alignment_with_uneven_masses():
    # Three atoms of 1/3 against two of 1/2: the refinement must split at
    # both partitions' breakpoints and conserve mass exactly.
    mu = build_tree(
        PathDistribution.from_pairs([((0.0,), 1 / 3), ((1.0,), 1 / 3), ((2.0,), 1 / 3)])
    )
    nu = build_tree(PathDistribution.from_pairs([((0.0,), 0.5), ((4.0,), 0.5)]))
    plan = kr_coupling(mu, nu).coupling
    assert plan.total_mass == pytest.approx(1.0, abs=1e-12)
    masses = {(e.mu_path, e.nu_path): e.mass for e in plan.entries}
    assert masses[((0.0,), (0.0,))] == pytest.approx(1 / 3, abs=1e-12)
    assert masses[((1.0,), (0.0,))] == pytest.approx(1 / 6, abs=1e-12)
    assert masses[((1.0,), (4.0,))] == pytest.approx(1 / 6, abs=1e-12)
    assert masses[((2.0,), (4.0,))] == pytest.approx(1 / 3, abs=1e-12)
    # 1-stage usual metric: quantile plan is optimal
    cost = [
        [M1.base_dist(x[0], y[0]) for y, _ in nu.leaf_paths()]
        for x, _ in mu.leaf_paths()
    ]
    opt = solve_ot(cost, [1 / 3] * 3, [0.5, 0.5])
    assert plan.cost(M1) == pytest.approx(opt.value, abs=1e-12)
