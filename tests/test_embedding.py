import json
import math
import sys

import numpy as np
import pytest

import nestedot.embedding
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
from nestedot.nested import tree_classes
from nestedot.tree import Node
from reference import LineLaw, quantile_cost
from test_nested import dyadic_walk

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


def test_embed_builds_one_distribution_per_class(monkeypatch):
    built = []
    real = nestedot.embedding.NestedDistribution

    def counted(atoms):
        built.append(atoms)
        return real(atoms)

    monkeypatch.setattr(nestedot.embedding, "NestedDistribution", counted)
    tree = dyadic_walk(6, 0.25, 0.75)
    lift = embed(tree)
    # 63 internal nodes, 21 internal classes: one per level of stages 0..5
    assert len(built) == len(tree_classes(tree)[0].keys) - 1 == 21
    down, up = (a.next for a in lift.atoms)
    assert down.atoms[1].next is up.atoms[0].next  # down-up and up-down meet


def test_embed_of_a_chain_past_the_recursion_limit():
    depth = sys.getrecursionlimit() + 200
    tree = build_tree([(tuple(float(k) for k in range(depth)), 1.0)])
    assert embed(tree).depth == depth


def test_subtrees_equal_but_for_the_sign_of_a_zero_share_a_lift():
    # Class keys compare floats with ==, so the second branch's -0.0 lifts
    # as the first branch's 0.0; the lifts compare equal either way.
    tree = build_tree([((1.0, 0.0, 5.0), 0.5), ((2.0, -0.0, 5.0), 0.5)])
    assert math.copysign(1.0, tree.leaf_paths()[1][0][1]) == -1.0
    lift = embed(tree)
    first, second = (a.next for a in lift.atoms)
    assert first is second
    assert math.copysign(1.0, second.atoms[0].value) == 1.0

    def branch(zero):
        return NestedDistribution((NestedAtom(1.0, zero, leaf_dist((5.0, 1.0))),))

    per_node = NestedDistribution(
        (NestedAtom(0.5, 1.0, branch(0.0)), NestedAtom(0.5, 2.0, branch(-0.0)))
    )
    assert lift == per_node
    assert nested_wasserstein(lift, per_node, M2) == 0.0
    assert "-0.0" not in dumps_canonical(nested_to_json(lift))


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
    assert len(tree.values[1]) == 1  # a single atom stays a single (shifted) node
    assert abs(tree.values[1][0]) <= 1e-3


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


def test_dirac_approximation_keeps_its_bits():
    for eps in (0.5, 0.25, 0.125, 0.1, 0.02, 1e-3):
        tree = dirac_approximation(embed(merged_limit()), eps)
        assert tree.leaf_paths() == [((eps, -1.0), 0.5), ((eps, 1.0), 0.5)]
        tree = dirac_approximation(fan_limit_nested(), eps)
        assert tree.leaf_paths() == [((eps / 2, 1.0), 0.5), ((eps, -1.0), 0.5)]
    p = NestedDistribution(
        (
            NestedAtom(0.25, -1.0, leaf_dist((0.5, 0.5), (1.5, 0.5))),
            NestedAtom(0.5, 0.3, leaf_dist((2.0, 1.0))),
            NestedAtom(0.25, 0.3, leaf_dist((-2.0, 1.0))),
        )
    )
    assert dirac_approximation(p, 0.1).leaf_paths() == [
        ((-1.0 + 0.1 / 3, 0.5), 0.125),
        ((-1.0 + 0.1 / 3, 1.5), 0.125),
        ((0.3 + 0.1 * 2 / 3, 2.0), 0.5),
        ((0.3 + 0.1, -2.0), 0.25),
    ]


def test_dirac_approximation_rejects_an_epsilon_that_merges_atoms():
    # 1e17 + 0.5 and 1e17 + 1.0 both round to 1e17, so a tree of the
    # fanned values would hold one stage-1 node: the merged law.
    far = NestedDistribution(
        (
            NestedAtom(0.5, 1e17, leaf_dist((1.0, 1.0))),
            NestedAtom(0.5, 1e17, leaf_dist((-1.0, 1.0))),
        )
    )
    with pytest.raises(ValidationError, match=r"epsilon 1\.0 merges the atoms at value 1e\+17"):
        dirac_approximation(far, 1.0)
    assert len(dirac_approximation(far, 32.0).nodes_at_stage(1)) == 2


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
    probs = list(mu.probs[1])
    assert math.fsum(probs) != 1.0
    assert [a.mass for a in embed(mu).atoms] == probs
    nu = build_tree([((0.25,), 0.5), ((0.75,), 0.5)])
    for metric in (M1, M2):
        assert nested_wasserstein(embed(mu), embed(nu), metric) == nested_distance(mu, nu, metric).distance


def _normalized_atoms(atoms):
    """The atoms as every distribution was once built: each mass divided
    by the sibling total, each value made a float, then sorted and merged."""
    total = nestedot.embedding.sibling_total((a.mass for a in atoms), str)
    return tuple(
        nestedot.embedding._merge_atoms(
            [NestedAtom(a.mass / total, float(a.value), a.next) for a in atoms]
        )
    )


NORMALIZED_CASES = {
    "unsorted": [(0.5, 1.0), (0.5, 0.0)],
    "duplicate values": [(0.25, 0.5), (0.75, 0.5)],
    "signed zeros": [(0.5, -0.0), (0.5, 0.0)],
    "zeros, other sign first": [(0.5, 0.0), (0.5, -0.0)],
    "int mass": [(1, 0.0)],
    "int value": [(0.5, 0), (0.5, 1.0)],
    "sum 1 + 1e-12": [(0.5 + 1e-12, 0.0), (0.5, 1.0)],
    "sum 1 - 1e-12": [(0.5 - 1e-12, 0.0), (0.5, 1.0)],
}


@pytest.mark.parametrize("pairs", NORMALIZED_CASES.values(), ids=NORMALIZED_CASES)
def test_atoms_that_need_it_are_still_normalized(monkeypatch, pairs):
    # Float atoms in strictly increasing value order that sum to 1 are kept
    # as given; every other input is divided and merged as it always was.
    atoms = tuple(NestedAtom(m, v, None) for m, v in pairs)
    expected = _normalized_atoms(atoms)
    merges = []
    real = nestedot.embedding._merge_atoms
    monkeypatch.setattr(
        nestedot.embedding, "_merge_atoms", lambda a: merges.append(1) or real(a)
    )
    dist = NestedDistribution(atoms)
    assert merges
    assert dist.atoms == expected and repr(dist.atoms) == repr(expected)


def test_atoms_kept_as_given_equal_the_normalized_ones():
    rng = np.random.default_rng(27)
    kept = 0
    for _ in range(300):
        n = int(rng.integers(1, 5))
        values = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 2.0], size=n).tolist()
        masses = rng.dirichlet(np.ones(n)).tolist()
        atoms = tuple(NestedAtom(m, v, None) for m, v in zip(masses, values))
        dist = NestedDistribution(atoms)
        expected = _normalized_atoms(atoms)
        assert dist.atoms == expected and repr(dist.atoms) == repr(expected)
        kept += dist.atoms == atoms and all(a is b for a, b in zip(dist.atoms, atoms))
    assert 0 < kept < 300
