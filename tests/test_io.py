import json
import math

import pytest

from nestedot import Coupling, ValidationError, build_tree, embed
from nestedot.io import (
    coupling_from_json,
    coupling_to_json,
    dumps_canonical,
    load_coupling,
    load_nested,
    load_tree,
    nested_from_json,
    nested_to_json,
    read_samples_csv,
    save_coupling,
    save_nested,
    save_tree,
    tree_from_json,
    tree_to_json,
)

# Values whose text is easy to get wrong: 0.1 is inexact in binary, 1e16
# and 1e-7 take an exponent, -0.0 has a sign, 5e-324 is the smallest
# subnormal.
SPECIAL = (0.1, 1e16, 1e-7, 5e-324, -0.0)


def _float_bits(obj):
    """Exact hex text of every float in a JSON tree, in traversal order."""
    if isinstance(obj, float):
        return [obj.hex()]
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return []
    return [bits for item in obj for bits in _float_bits(item)]


def test_files_round_trip_bit_for_bit(tmp_path):
    tree = build_tree([((0.1, 1e16), 0.1), ((0.1, 1e-7), 0.2), ((-0.0, 5e-324), 0.7)])
    plan = Coupling.from_mass_map(
        {((0.1, 1e16), (-0.0, 5e-324)): 0.1, ((1e-7, -0.0), (0.1, 1e16)): 5e-324}
    )
    dist = embed(tree)
    cases = [
        (tree_to_json(tree), save_tree, load_tree, tree_to_json, tree),
        (coupling_to_json(plan), save_coupling, load_coupling, coupling_to_json, plan),
        (nested_to_json(dist), save_nested, load_nested, nested_to_json, dist),
    ]
    for k, (before, save, load, to_json, obj) in enumerate(cases):
        assert {x.hex() for x in SPECIAL} <= set(_float_bits(before))
        path = tmp_path / f"case{k}.json"
        save(obj, path)
        after = to_json(load(path))
        assert after == before
        assert _float_bits(after) == _float_bits(before)


def test_dumps_canonical_is_sorted_and_compact():
    assert dumps_canonical({"b": [1, 0.1, None], "a": True}) == '{"a":true,"b":[1,0.1,null]}'
    assert dumps_canonical(1e16) == "1e+16"
    assert math.copysign(1.0, json.loads(dumps_canonical(-0.0))) == -1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), {"x": [float("-inf")]}, object()])
def test_dumps_canonical_rejects_what_json_cannot_hold(bad):
    with pytest.raises(ValidationError):
        dumps_canonical(bad)


def test_tree_nodes_must_be_an_array():
    with pytest.raises(ValidationError, match="must be a JSON array"):
        tree_from_json({"depth": 1, "nodes": 5})


def test_nested_atoms_must_be_an_array():
    with pytest.raises(ValidationError, match="must be a JSON array"):
        nested_from_json({"atoms": 3})
    for obj in ([], {"nodes": []}):
        with pytest.raises(ValidationError, match=r"must be \{'atoms': \[\.\.\.\]\}"):
            nested_from_json(obj)


@pytest.mark.parametrize(
    "text, weight_column, message",
    [
        (None, False, "cannot read CSV file"),
        ("", False, "CSV file has no rows"),
        ("\n\n", False, "CSV file has no rows"),
        ("a,b\n", False, "CSV file has a header but no data rows"),
        ("1\n2\n", True, "weight column requires at least one coordinate column"),
        ("weight\n1\n", False, "weight column requires at least one coordinate column"),
    ],
)
def test_samples_csv_rejects(tmp_path, text, weight_column, message):
    path = tmp_path / "samples.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValidationError, match=message):
        read_samples_csv(path, weight_column=weight_column)


@pytest.mark.parametrize("key", ["mu_path", "nu_path"])
def test_plan_paths_must_be_arrays(key):
    entry = {"mu_path": [1.0, 2.0], "nu_path": [1.0, 2.0], "mass": 1.0}
    assert len(coupling_from_json([entry])) == 1
    entry[key] = "12"  # used to read as the path (1.0, 2.0)
    with pytest.raises(ValidationError):
        coupling_from_json([entry])


def _tree_json(depth=1, **leaf):
    """A one-leaf tree in JSON form, with fields of the leaf replaced."""
    return {
        "depth": depth,
        "nodes": [
            {"id": 0, "parent": None, "stage": 0, "value": None, "prob": None},
            {"id": 1, "parent": 0, "stage": 1, "value": 0.5, "prob": 1.0, **leaf},
        ],
    }


@pytest.mark.parametrize(
    "fields",
    [
        {"depth": True},
        {"id": "1"},
        {"id": 2.7},  # used to load as node 2
        {"id": True},
        {"parent": "0"},
        {"parent": 0.0},
        {"stage": True},
        {"value": "0.5"},
        {"value": True},
        {"prob": True},
        {"prob": "1"},
    ],
)
def test_tree_loader_reads_only_json_numbers(fields):
    assert tree_from_json(_tree_json(value=1, prob=1)).leaf_paths()[0] == ((1.0,), 1.0)
    with pytest.raises(ValidationError):
        tree_from_json(_tree_json(**fields))


@pytest.mark.parametrize(
    "fields",
    [
        {"mu_path": ["1", 2]},
        {"nu_path": [True]},
        {"mass": "1"},
        {"mass": True},
    ],
)
def test_plan_loader_reads_only_json_numbers(fields):
    entry = {"mu_path": [1, 2.0], "nu_path": [1.0], "mass": 1}
    assert coupling_from_json([entry]).entries[0] == ((1.0, 2.0), (1.0,), 1.0)
    with pytest.raises(ValidationError, match="malformed plan entry"):
        coupling_from_json([{**entry, **fields}])


@pytest.mark.parametrize("fields", [{"mass": "1"}, {"mass": True}, {"value": "0"}, {"value": False}])
def test_nested_loader_reads_only_json_numbers(fields):
    atom = {"mass": 1, "value": 0, "next": None}
    assert nested_from_json({"atoms": [atom]}).atoms[0].value == 0.0
    with pytest.raises(ValidationError, match="malformed nested atom"):
        nested_from_json({"atoms": [{**atom, **fields}]})


@pytest.mark.parametrize("digits", [400, 5000])
def test_loaders_reject_integers_too_large_to_read(tmp_path, digits):
    # 400 digits overflow float(); 5000 exceed int()'s digit limit in json.
    text = json.dumps(_tree_json()).replace('"value": 0.5', '"value": 1' + "0" * digits)
    path = tmp_path / "big.json"
    path.write_text(text)
    with pytest.raises(ValidationError):
        load_tree(path)
