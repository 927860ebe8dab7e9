import json
import math

import numpy as np
import pytest

from nestedot import PathDistribution, ScenarioTree, ValidationError, build_tree
from nestedot.families import fan_vs_merged, random_tree
from nestedot.io import dumps_canonical, tree_from_json, tree_to_json
from reference import same_law, tree_to_paths


def paths_of(*pairs):
    return PathDistribution.from_pairs(pairs)


def test_single_chain():
    tree = build_tree(paths_of(((0.0, 1.0), 1.0)))
    assert tree.depth == 2
    assert len(tree.leaves) == 1
    assert tree.leaf_paths() == [((0.0, 1.0), 1.0)]
    stage1 = tree.nodes_at_stage(1)
    assert len(stage1) == 1
    assert tree.node(stage1[0]).cond_prob == 1.0


def test_merged_first_coordinate():
    tree = build_tree(paths_of(((0.0, 1.0), 0.5), ((0.0, -1.0), 0.5)))
    stage1 = tree.nodes_at_stage(1)
    assert len(stage1) == 1
    node = tree.node(stage1[0])
    assert node.value == 0.0
    kids = tree.children(stage1[0])
    assert [tree.node(k).value for k in kids] == [-1.0, 1.0]
    assert [tree.node(k).cond_prob for k in kids] == [0.5, 0.5]


def test_fan_structure():
    tree = build_tree(paths_of(((0.1, 1.0), 0.5), ((-0.1, -1.0), 0.5)))
    stage1 = tree.nodes_at_stage(1)
    assert len(stage1) == 2
    for nid in stage1:
        assert len(tree.children(nid)) == 1


def test_merge_tolerance_mass_weighted_mean():
    tree = build_tree(paths_of(((0.1, 1.0), 0.5), ((-0.1, -1.0), 0.5)), merge_tol=0.25)
    stage1 = tree.nodes_at_stage(1)
    assert len(stage1) == 1
    assert tree.node(stage1[0]).value == pytest.approx(0.0, abs=1e-15)


def test_path_distribution_validation():
    with pytest.raises(ValidationError):
        PathDistribution((), ())
    with pytest.raises(ValidationError):
        paths_of(((0.0, 1.0), 0.5), ((0.0,), 0.5))
    with pytest.raises(ValidationError):
        paths_of(((0.0, 1.0), -0.5), ((0.0, -1.0), 1.5))
    with pytest.raises(ValidationError):
        PathDistribution(((0.0, 1.0), (0.0, 1.0)), (0.5, 0.5))
    with pytest.raises(ValidationError):
        paths_of(((0.0, 1.0), 0.7))


def test_from_pairs_merges_duplicates():
    dist = paths_of(((0.0, 1.0), 0.25), ((0.0, 1.0), 0.25), ((1.0, 1.0), 0.5))
    assert len(dist.paths) == 2
    assert dict(zip(dist.paths, dist.weights))[(0.0, 1.0)] == pytest.approx(0.5)


def test_weight_renormalization():
    dist = paths_of(((0.0,), 0.5 + 2e-10), ((1.0,), 0.5))
    assert math.fsum(dist.weights) == pytest.approx(1.0, abs=1e-15)


def test_round_trip_paths_tree_paths():
    # Values reproduce exactly; weights only up to products of conditional
    # probabilities being re-derived, hence the 1e-12 mass comparison.
    rng = np.random.default_rng(42)
    for _ in range(25):
        tree = random_tree(rng, int(rng.integers(1, 4)))
        flattened = tree_to_paths(tree)
        rebuilt = build_tree(flattened, 0.0)
        assert same_law(rebuilt, tree)


def test_round_trip_distribution_identity():
    dist = paths_of(((0.0, 1.0), 0.5), ((0.0, -1.0), 0.25), ((1.0, 3.0), 0.25))
    back = tree_to_paths(build_tree(dist, 0.0))
    assert back.paths == dist.paths
    for w1, w2 in zip(back.weights, dist.weights):
        assert w1 == pytest.approx(w2, abs=1e-12)


def test_determinism_under_permutation():
    rng = np.random.default_rng(7)
    base = [((0.0, 1.0), 0.25), ((0.0, -1.0), 0.25), ((1.0, 2.0), 0.3), ((1.0, 3.0), 0.2)]
    reference = build_tree(PathDistribution.from_pairs(base))
    for _ in range(10):
        perm = [base[k] for k in rng.permutation(len(base))]
        tree = build_tree(PathDistribution.from_pairs(perm))
        assert tree.canonical_key() == reference.canonical_key()


def test_mass_conservation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        tree = random_tree(rng, 3)
        assert math.fsum(w for _, w in tree.leaf_paths()) == pytest.approx(1.0, abs=1e-9)


def test_uniform_binary_three_stages():
    pairs = []
    for a in (0.0, 1.0):
        for b in (0.0, 1.0):
            for c in (0.0, 1.0):
                pairs.append(((a, b, c), 0.125))
    tree = build_tree(PathDistribution.from_pairs(pairs))
    flattened = tree_to_paths(tree)
    assert len(flattened.paths) == 8
    assert all(w == pytest.approx(0.125, abs=1e-12) for w in flattened.weights)
    for stage in range(3):
        for nid in tree.nodes_at_stage(stage):
            assert len(tree.children(nid)) == 2


def test_structural_validation():
    from nestedot import Node

    with pytest.raises(ValidationError):
        ScenarioTree(1, [Node(0, None, 0, None, None)])  # leaf before final stage
    with pytest.raises(ValidationError):
        ScenarioTree(
            1,
            [
                Node(0, None, 0, None, None),
                Node(1, 0, 1, 0.0, 0.6),
                Node(2, 0, 1, 0.0, 0.4),  # duplicate sibling values
            ],
        )
    with pytest.raises(ValidationError):
        ScenarioTree(
            1,
            [
                Node(0, None, 0, None, None),
                Node(1, 0, 1, 0.0, 0.6),
                Node(2, 0, 1, 1.0, 0.3),  # probabilities sum to 0.9
            ],
        )
    with pytest.raises(ValidationError):
        ScenarioTree(
            2,
            [
                Node(0, None, 0, None, None),
                Node(1, 0, 2, 0.0, 1.0),  # skips a stage
            ],
        )


def test_probability_renormalized_exactly():
    from nestedot import Node

    tree = ScenarioTree(
        1,
        [
            Node(0, None, 0, None, None),
            Node(1, 0, 1, 0.0, 0.3 + 1e-10),
            Node(2, 0, 1, 1.0, 0.7),
        ],
    )
    kids = tree.children(tree.root)
    assert math.fsum(tree.node(k).cond_prob for k in kids) == pytest.approx(1.0, abs=1e-15)


def test_json_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        tree = random_tree(rng, 3)
        obj = tree_to_json(tree)
        text = dumps_canonical(obj)
        back = tree_from_json(json.loads(text))
        assert back.canonical_key() == tree.canonical_key()


def test_json_round_trip_keeps_leaf_laws_bit_for_bit():
    # Sibling groups summing to 1 within rounding used to be divided by
    # their sum again on reload, moving 4 of these trees by an ulp.
    rng = np.random.default_rng(5)
    for _ in range(1200):
        tree = random_tree(rng, int(rng.integers(1, 5)))
        back = tree_from_json(tree_to_json(tree))
        assert back.leaf_paths() == tree.leaf_paths()


def test_json_schema_shape():
    fan, _ = fan_vs_merged(2)
    obj = tree_to_json(fan)
    assert obj["depth"] == 2
    root = [d for d in obj["nodes"] if d["parent"] is None]
    assert len(root) == 1
    assert root[0]["stage"] == 0
    assert root[0]["value"] is None
    assert root[0]["prob"] is None
    for d in obj["nodes"]:
        assert set(d) == {"id", "parent", "stage", "value", "prob"}


def test_json_rejects_malformed():
    with pytest.raises(ValidationError):
        tree_from_json({"nodes": []})
    with pytest.raises(ValidationError):
        tree_from_json({"depth": 1, "nodes": [{"id": 0}]})
