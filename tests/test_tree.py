import ast
import hashlib
import json
import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nestedot.tree as tree_module
from nestedot import Node, ScenarioTree, ValidationError, build_tree
from nestedot.families import (
    collapsing_fan,
    crossed_fans,
    fan_vs_merged,
    hidden_branch_pair,
    merged_limit,
    monge_pushforward,
    perturbed_pair,
    random_adapted_map,
    random_monge_mixture,
    random_tree,
)
from nestedot.io import dumps_canonical, tree_from_json, tree_to_json
from reference import same_law


def test_single_chain():
    tree = build_tree([((0.0, 1.0), 1.0)])
    assert tree.depth == 2
    assert len(tree.leaves) == 1
    assert tree.leaf_paths() == [((0.0, 1.0), 1.0)]
    assert len(tree.values[1]) == 1
    assert tree.probs[1] == (1.0,)


def test_merged_first_coordinate():
    tree = build_tree([((0.0, 1.0), 0.5), ((0.0, -1.0), 0.5)])
    assert tree.values[1] == (0.0,)
    assert tree.starts[1] == (0, 2)  # both stage-2 nodes are its children
    assert tree.values[2] == (-1.0, 1.0)
    assert tree.probs[2] == (0.5, 0.5)


def test_fan_structure():
    tree = build_tree([((0.1, 1.0), 0.5), ((-0.1, -1.0), 0.5)])
    assert len(tree.values[1]) == 2
    assert tree.starts[1] == (0, 1, 2)  # one child each


def test_merge_tolerance_mass_weighted_mean():
    tree = build_tree([((0.1, 1.0), 0.5), ((-0.1, -1.0), 0.5)], merge_tol=0.25)
    assert len(tree.values[1]) == 1
    assert tree.values[1][0] == pytest.approx(0.0, abs=1e-15)


def test_build_tree_validation():
    for pairs, merge_tol, message in [
        ([], 0.0, "empty path list"),
        ([((0.0, 1.0), 0.5), ((0.0,), 0.5)], 0.0, "inconsistent path lengths"),
        ([((), 1.0)], 0.0, "at least one coordinate"),
        ([((0.0, math.nan), 1.0)], 0.0, "non-finite coordinate nan"),
        ([((math.inf, 1.0), 1.0)], 0.0, "non-finite coordinate inf"),
        ([((0.0, 1.0), -0.5), ((0.0, -1.0), 1.5)], 0.0, "nonpositive weight -0.5"),
        ([((0.0, 1.0), 0.0), ((0.0, -1.0), 1.0)], 0.0, "nonpositive weight 0.0"),
        ([((0.0, 1.0), math.nan)], 0.0, "nonpositive weight nan"),
        ([((0.0, 1.0), 0.7)], 0.0, "weights sum to 0.7"),
        ([((0.0,), 1e308), ((1.0,), 1e308)], 0.0, "weights sum to inf, expected 1"),
        ([((0.0, 1.0), 1.0)], -0.1, "merge_tol must be nonnegative"),
        ([((0.0, 1.0), 1.0)], math.nan, "merge_tol must be nonnegative"),
    ]:
        with pytest.raises(ValidationError, match=message):
            build_tree(pairs, merge_tol)


def test_build_tree_merges_repeated_paths():
    tree = build_tree([((0.0, 1.0), 0.25), ((1.0, 1.0), 0.5), ((0.0, 1.0), 0.25)])
    assert tree.leaf_paths() == [((0.0, 1.0), 0.5), ((1.0, 1.0), 0.5)]
    # The weights of a repeated path add up before they are checked.
    tree = build_tree([((0.0,), 0.5), ((0.0,), 0.5)])
    assert tree.leaf_paths() == [((0.0,), 1.0)]


def test_build_tree_reads_a_generator_once():
    pairs = [((1.0, 3.0), 0.25), ((0.0, 1.0), 0.5), ((0.0, -1.0), 0.25)]
    tree = build_tree(p for p in pairs)
    assert tree_to_json(tree) == tree_to_json(build_tree(pairs))


def test_signed_zeros_do_not_depend_on_input_order():
    pairs = [((0.0, 1.0), 0.5), ((-0.0, 2.0), 0.5)]
    for merge_tol in (0.0, 0.2):
        first, second = (build_tree(p, merge_tol) for p in (pairs, pairs[::-1]))
        assert dumps_canonical(tree_to_json(first)) == dumps_canonical(tree_to_json(second))


def test_weight_renormalization():
    tree = build_tree([((0.0,), 0.5 + 2e-10), ((1.0,), 0.5)])
    assert math.fsum(w for _, w in tree.leaf_paths()) == pytest.approx(1.0, abs=1e-15)


def test_round_trip_paths_tree_paths():
    # Values reproduce exactly; weights only up to products of conditional
    # probabilities being re-derived, hence the 1e-12 mass comparison.
    rng = np.random.default_rng(42)
    for _ in range(25):
        tree = random_tree(rng, int(rng.integers(1, 4)))
        rebuilt = build_tree(tree.leaf_paths(), 0.0)
        assert same_law(rebuilt, tree)


def test_round_trip_distribution_identity():
    pairs = [((0.0, 1.0), 0.5), ((0.0, -1.0), 0.25), ((1.0, 3.0), 0.25)]
    back = build_tree(pairs, 0.0).leaf_paths()
    assert [p for p, _ in back] == sorted(p for p, _ in pairs)
    for (_, w1), (_, w2) in zip(back, sorted(pairs)):
        assert w1 == pytest.approx(w2, abs=1e-12)


def test_determinism_under_permutation():
    rng = np.random.default_rng(7)
    base = [((0.0, 1.0), 0.25), ((0.0, -1.0), 0.25), ((1.0, 2.0), 0.3), ((1.0, 3.0), 0.2)]
    reference = build_tree(base)
    for _ in range(10):
        perm = [base[k] for k in rng.permutation(len(base))]
        tree = build_tree(perm)
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
    tree = build_tree(pairs)
    flattened = tree.leaf_paths()
    assert len(flattened) == 8
    assert all(w == pytest.approx(0.125, abs=1e-12) for _, w in flattened)
    for stage in range(3):
        starts = tree.starts[stage]
        assert [b - a for a, b in zip(starts, starts[1:])] == [2] * len(tree.values[stage])


_ROOT = (0, None, 0, None, None)


REJECTS = [
    (1.5, [_ROOT], r"depth must be an integer, got 1\.5"),
    (0, [_ROOT], "depth must be >= 1, got 0"),
    (1, [], "tree has no nodes"),
    (1, [_ROOT, (1, 0, 1, 0.0, 1.0), (1, 0, 1, 1.0, 1.0)], "duplicate node id 1"),
    (1, [_ROOT, (1, None, 0, None, None)], "expected exactly one root, found 2"),
    (1, [(0, None, 0, 0.0, None)], "root must have stage 0 and no value or probability"),
    (1, [_ROOT, (1, 7, 1, 0.0, 1.0)], "node 1 references unknown parent 7"),
    # A child of a last-stage node has a stage past the last one, so
    # the stage check rejects it: a last-stage node never has children.
    (
        1,
        [_ROOT, (1, 0, 1, 0.0, 1.0), (2, 1, 2, 0.0, 1.0)],
        r"node 2 has stage 2 outside 1\.\.1",
    ),
    (1, [_ROOT, (1, 0, 1, math.nan, 1.0)], "node 1 needs a finite value"),
    (1, [_ROOT, (1, 0, 1, 0.0, 0.0)], r"node 1 needs a probability in \(0, 1\]"),
    (1, [_ROOT, (1, 0, 1, 0.0, 1.5)], r"node 1 needs a probability in \(0, 1\]"),
    (1, [_ROOT], "node 0 is a leaf before stage 1"),
    (
        1,
        [_ROOT, (1, 0, 1, 0.0, 0.6), (2, 0, 1, 0.0, 0.4)],
        "children of node 0 have duplicate values",
    ),
    (
        1,
        [_ROOT, (1, 0, 1, 0.0, 0.6), (2, 0, 1, 1.0, 0.3)],
        "children of node 0 have probabilities summing to 0.8999999999999999",
    ),
    (2, [_ROOT, (1, 0, 2, 0.0, 1.0)], "node 1 is not one stage below its parent"),
]


@pytest.mark.parametrize("depth, nodes, message", REJECTS)
def test_tree_constructor_rejects(depth, nodes, message):
    with pytest.raises(ValidationError, match=message):
        ScenarioTree(depth, [Node(*fields) for fields in nodes])


@pytest.mark.parametrize("depth, nodes, message", REJECTS)
def test_tree_loader_rejects_as_the_constructor(depth, nodes, message):
    # The JSON loader only type-checks the records: every other check is
    # the constructor's, so both inputs fail with the same message.
    keys = ("id", "parent", "stage", "value", "prob")
    obj = {"depth": depth, "nodes": [dict(zip(keys, fields)) for fields in nodes]}
    with pytest.raises(ValidationError, match=message) as from_nodes:
        ScenarioTree(depth, [Node(*fields) for fields in nodes])
    with pytest.raises(ValidationError, match=message) as from_json:
        tree_from_json(obj)
    assert str(from_json.value) == str(from_nodes.value)


@pytest.mark.parametrize(
    "depth, root_stage, leaf_stage, message",
    [
        (True, 0, 1, "depth must be an integer, got True"),
        (1, 0, True, "stage of node 1 must be an integer, got True"),
        (1, 0, 1.0, r"stage of node 1 must be an integer, got 1\.0"),
        (1, False, 1, "stage of node 0 must be an integer, got False"),
        (1, 0.0, 1, r"stage of node 0 must be an integer, got 0\.0"),
    ],
)
def test_boolean_depth_and_non_integer_stages_are_rejected(depth, root_stage, leaf_stage, message):
    # ``operator.index(True)`` is 1 and ``1.0 == 1``: each used to build a
    # depth-1 tree through the constructor.  The loader type-checks a
    # record's stage itself, and leaves the depth to the constructor.
    nodes = [(0, None, root_stage, None, None), (1, 0, leaf_stage, 0.0, 1.0)]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ScenarioTree(depth, [Node(*fields) for fields in nodes])
    keys = ("id", "parent", "stage", "value", "prob")
    obj = {"depth": depth, "nodes": [dict(zip(keys, fields)) for fields in nodes]}
    loader = message if depth is True else "malformed tree node record"
    with pytest.raises(ValidationError, match=f"^{loader}"):
        tree_from_json(obj)


def test_numpy_integer_depth_and_stages_are_integers():
    one, zero = np.int64(1), np.int64(0)
    tree = ScenarioTree(one, [Node(0, None, zero, None, None), Node(1, 0, one, 0.0, 1.0)])
    assert type(tree.depth) is int and tree.leaf_paths() == [((0.0,), 1.0)]


def test_every_constructor_raise_is_reachable():
    # A raise that no input reaches is dead code posing as a check: every
    # raise in ScenarioTree.__init__ must run for some case of REJECTS.
    source = Path(tree_module.__file__)
    (cls,) = (
        node for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "ScenarioTree"
    )
    (init,) = (node for node in cls.body if getattr(node, "name", None) == "__init__")
    raises = {node.lineno for node in ast.walk(init) if isinstance(node, ast.Raise)}
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != str(source):
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for depth, nodes, _ in REJECTS:
            with pytest.raises(ValidationError):
                ScenarioTree(depth, [Node(*fields) for fields in nodes])
    finally:
        sys.settrace(previous)
    assert raises and raises <= ran, f"raise lines never run: {sorted(raises - ran)}"


def test_declared_depth_allocates_nothing_before_the_walk():
    # The declared depth comes from the input file: stage lists grow as the
    # walk reaches them, so a tiny file cannot make the constructor allocate
    # in proportion to it.
    nodes = [Node(0, None, 0, None, None), Node(1, 0, 1, 0.0, 1.0)]
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="node 1 is a leaf before stage 1000000$"):
            ScenarioTree(10**6, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_probability_renormalized_exactly():
    tree = ScenarioTree(
        1,
        [
            Node(0, None, 0, None, None),
            Node(1, 0, 1, 0.0, 0.3 + 1e-10),
            Node(2, 0, 1, 1.0, 0.7),
        ],
    )
    assert math.fsum(tree.probs[1]) == pytest.approx(1.0, abs=1e-15)


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


def _pinned_trees():
    """Families, seeded random trees, Monge-mixture and push-forward second
    marginals, and path laws with repeated paths at three merge tolerances."""
    for n in range(1, 8):
        yield collapsing_fan(n)
        yield from crossed_fans(n)
        for k in (1, 4, 16):
            yield from hidden_branch_pair(n, k)
    yield merged_limit()
    for eps in (1.0, 0.1, 0.01):
        yield from perturbed_pair(eps)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        yield random_tree(rng, int(rng.integers(1, 5)))
    rng = np.random.default_rng(99)
    for _ in range(30):
        tree = random_tree(rng, int(rng.integers(1, 4)), max_leaves=8)
        yield random_monge_mixture(rng, tree)[1]
        yield monge_pushforward(tree, random_adapted_map(rng, tree))[1]
    draw = random.Random(11)
    grid = (-1.0, -0.5, -0.05, 0.0, 0.03, 0.1, 0.25, 1.0)
    for _ in range(100):
        depth = draw.randint(1, 4)
        paths = [
            tuple(draw.choice(grid) + 0.02 * draw.random() for _ in range(depth))
            for _ in range(draw.randint(1, 8))
        ]
        pairs = [(draw.choice(paths), draw.random() + 1e-3) for _ in range(draw.randint(1, 16))]
        total = math.fsum(w for _, w in pairs)
        for merge_tol in (0.0, 0.1, 0.3):
            yield build_tree([(p, w / total) for p, w in pairs], merge_tol)


# sha256 of the trees above, computed before build_tree took (path, weight)
# pairs in place of a separately validated path law.
PINNED_TREES_SHA256 = "033e865fbc385382a4cac0cc756917fd76bb3518887ce597c52348cb295f4261"


def test_tree_bits_are_pinned():
    text = "\n".join(dumps_canonical(tree_to_json(t)) for t in _pinned_trees())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TREES_SHA256
