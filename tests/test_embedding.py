import json
import math

import numpy as np
import pytest

from nestedot import (
    GroundMetric,
    NestedAtom,
    NestedDistribution,
    ScenarioTree,
    ValidationError,
    build_tree,
    dirac_approximation,
    embed,
    nested_distance,
    nested_wasserstein,
)
from nestedot.families import (
    collapsing_fan,
    fan_limit_nested,
    fan_vs_merged,
    merged_limit,
    random_tree,
    random_tree_pair,
)
from nestedot.io import dumps_canonical, nested_from_json, nested_to_json
from nestedot.tree import Node
from reference import LineLaw, quantile_cost

M1 = GroundMetric.usual(1.0)
M2 = GroundMetric.usual(2.0)


def leaf_dist(*atoms):
    return NestedDistribution(tuple(NestedAtom(m, v, None) for v, m in atoms))


def test_embed_single_path():
    tree = build_tree([((0.0, 1.0), 1.0)])
    dist = embed(tree)
    assert dist.depth == 2
    assert len(dist.atoms) == 1
    atom = dist.atoms[0]
    assert atom.mass == 1.0 and atom.value == 0.0
    assert atom.next.atoms[0].value == 1.0


def test_embed_merged_tree():
    dist = embed(merged_limit())
    assert len(dist.atoms) == 1
    atom = dist.atoms[0]
    assert atom.value == 0.0
    assert len(atom.next.atoms) == 2
    assert {a.value for a in atom.next.atoms} == {-1.0, 1.0}


def test_embed_fan():
    dist = embed(collapsing_fan(2))
    assert len(dist.atoms) == 2
    for atom in dist.atoms:
        assert atom.mass == 0.5
        assert len(atom.next.atoms) == 1


def test_embed_injective_on_laws():
    rng = np.random.default_rng(77)
    for _ in range(10):
        a = random_tree(rng, 2)
        b = random_tree(rng, 2)
        same_tree = a.canonical_key() == b.canonical_key()
        assert (embed(a) == embed(b)) == same_tree


def test_nested_wasserstein_identity():
    dist = embed(collapsing_fan(3))
    assert nested_wasserstein(dist, dist, M2) == 0.0


def test_nested_wasserstein_matches_closed_form():
    fan, merged = fan_vs_merged(2)
    assert nested_wasserstein(embed(fan), embed(merged), M2) == pytest.approx(1.5, abs=1e-9)


def test_depth_one_reduces_to_line_transport():
    p = leaf_dist((0.0, 0.5), (1.0, 0.5))
    q = leaf_dist((0.5, 1.0))
    got = nested_wasserstein(p, q, M2)
    cost, _ = quantile_cost(LineLaw([(0.0, 0.5), (1.0, 0.5)]), LineLaw([(0.5, 1.0)]), M2)
    assert got == pytest.approx(cost**0.5, abs=1e-12)


def test_isometry_randomized():
    rng = np.random.default_rng(2718)
    for _ in range(25):
        mu, nu = random_tree_pair(rng, int(rng.integers(1, 4)))
        metric = GroundMetric.usual(float(rng.choice([1.0, 2.0])))
        nd = nested_distance(mu, nu, metric).distance
        lifted = nested_wasserstein(embed(mu), embed(nu), metric)
        assert abs(nd - lifted) <= 1e-9


def test_isometry_truncated_metric():
    rng = np.random.default_rng(303)
    metric = GroundMetric.truncated(2.0, cap=1.0)
    for _ in range(5):
        mu, nu = random_tree_pair(rng, 2)
        nd = nested_distance(mu, nu, metric).distance
        lifted = nested_wasserstein(embed(mu), embed(nu), metric)
        assert abs(nd - lifted) <= 1e-9


def test_completion_witness():
    # The lifted fans converge to a limit with two x=0 atoms carrying
    # different continuations; no tree law lifts to it, and the unlifted
    # nested distances to the merged tree stay bounded away from zero.
    limit = fan_limit_nested()
    merged = merged_limit()
    previous = None
    for n in (1, 2, 4, 8, 16):
        fan = collapsing_fan(n)
        lifted_gap = nested_wasserstein(embed(fan), limit, M1)
        assert lifted_gap == pytest.approx(1.0 / n, abs=1e-12)
        if previous is not None:
            assert lifted_gap < previous
        previous = lifted_gap
        assert nested_distance(fan, merged, M1).distance >= 1.0
    values = [a.value for a in limit.atoms]
    assert values[0] == values[1]
    assert limit.atoms[0].next != limit.atoms[1].next
    for n in (1, 2, 4):
        assert embed(collapsing_fan(n)) != limit


def test_lifted_cauchy_matches_unlifted():
    fans = {n: embed(collapsing_fan(n)) for n in (2, 4, 8)}
    for n in (2, 4):
        gap = nested_wasserstein(fans[n], fans[2 * n], M1)
        assert gap <= abs(1.0 / n - 0.5 / n) + 1e-12


def test_dirac_approximation_converges():
    p = embed(merged_limit())
    for eps in (0.5, 0.25, 0.125):
        tree = dirac_approximation(p, eps)
        assert nested_wasserstein(embed(tree), p, M2) <= eps + 1e-12
    tree = dirac_approximation(p, 1e-3)
    stage1 = tree.nodes_at_stage(1)
    assert len(stage1) == 1  # a single atom stays a single (shifted) node
    assert abs(tree.node(stage1[0]).value) <= 1e-3


def test_dirac_approximation_separates_equal_values():
    limit = fan_limit_nested()
    for eps in (0.5, 0.1, 0.02):
        tree = dirac_approximation(limit, eps)
        stage1 = tree.nodes_at_stage(1)
        assert len(stage1) == 2  # equal atom values become distinct states
        assert nested_wasserstein(embed(tree), limit, M2) <= eps + 1e-12


def test_dirac_approximation_single_atom_chain():
    p = NestedDistribution((NestedAtom(1.0, 0.25, leaf_dist((2.0, 1.0))),))
    tree = dirac_approximation(p, 0.125)
    assert len(tree.leaves) == 1
    assert tree.leaf_paths()[0][0] == (0.375, 2.0)


def test_dirac_approximation_validation():
    with pytest.raises(ValidationError):
        dirac_approximation(leaf_dist((0.0, 1.0)), 0.1)
    with pytest.raises(ValidationError):
        dirac_approximation(fan_limit_nested(), 0.0)
    deep = embed(build_tree([((0.0, 1.0, 2.0), 1.0)]))
    with pytest.raises(ValidationError):
        dirac_approximation(deep, 0.1)


def test_nested_distribution_validation():
    with pytest.raises(ValidationError):
        NestedDistribution(())
    with pytest.raises(ValidationError):
        NestedDistribution((NestedAtom(0.4, 0.0, None),))
    with pytest.raises(ValidationError, match="atom mass must be positive, got 0.0"):
        NestedDistribution((NestedAtom(0.0, 0.0, None), NestedAtom(1.0, 1.0, None)))
    with pytest.raises(ValidationError, match="atom value must be finite, got inf"):
        NestedDistribution((NestedAtom(1.0, math.inf, None),))
    # A leaf atom next to an atom with a continuation: no common depth.
    with pytest.raises(ValidationError, match="depth"):
        NestedDistribution(
            (NestedAtom(0.5, 0.0, leaf_dist((0.0, 1.0))), NestedAtom(0.5, 1.0, None))
        )


def test_depth_read_off_atoms():
    assert leaf_dist((0.0, 1.0)).depth == 1
    chain = NestedDistribution((NestedAtom(1.0, 0.0, leaf_dist((0.0, 1.0))),))
    assert chain.depth == 2
    assert NestedDistribution((NestedAtom(1.0, 0.0, chain),)).depth == 3


def test_duplicate_atoms_merged():
    # Exact duplicates merge, with their masses summed.
    dist = NestedDistribution(
        (NestedAtom(0.25, 1.0, None), NestedAtom(0.25, 1.0, None), NestedAtom(0.5, 2.0, None))
    )
    assert dist.atoms == (NestedAtom(0.5, 1.0, None), NestedAtom(0.5, 2.0, None))
    assert dist == leaf_dist((2.0, 0.5), (1.0, 0.25), (1.0, 0.25))
    # Equal values with different continuations stay apart.
    up, down = leaf_dist((1.0, 1.0)), leaf_dist((-1.0, 1.0))
    pair = NestedDistribution((NestedAtom(0.5, 0.0, up), NestedAtom(0.5, 0.0, down)))
    assert len(pair.atoms) == 2
    # The merge rule is exact: values 1e-13 apart are two atoms.
    near = leaf_dist((1.0, 0.5), (1.0 + 1e-13, 0.5))
    assert [a.value for a in near.atoms] == [1.0, 1.0 + 1e-13]
    assert near != leaf_dist((1.0, 1.0))


def test_json_round_trip():
    dist = embed(collapsing_fan(3))
    text = dumps_canonical(nested_to_json(dist))
    back = nested_from_json(json.loads(text))
    assert dist == back
    limit = fan_limit_nested()
    back2 = nested_from_json(json.loads(dumps_canonical(nested_to_json(limit))))
    assert limit == back2


def test_lift_keeps_tree_probabilities_bit_for_bit():
    # The tree renormalizes these to 0.8999999999999999 and 0.1, which
    # sum to 1 - 2**-53; a second renormalization would move them.
    mu = ScenarioTree(1, [
        Node(0, None, 0, None, None),
        Node(1, 0, 1, 0.0, 0.900000000018),
        Node(2, 0, 1, 1.0, 0.100000000002),
    ])
    probs = [mu.node(k).cond_prob for k in mu.children(mu.root)]
    assert math.fsum(probs) != 1.0
    assert [a.mass for a in embed(mu).atoms] == probs
    nu = build_tree([((0.25,), 0.5), ((0.75,), 0.5)])
    for metric in (M1, M2):
        assert nested_wasserstein(embed(mu), embed(nu), metric) == nested_distance(mu, nu, metric).distance
