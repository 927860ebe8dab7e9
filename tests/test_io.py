import json
import math

import numpy as np
import pytest

import nestedot.tree
from nestedot import Coupling, CouplingEntry, ValidationError, build_tree, embed, kr_coupling
from nestedot.families import random_tree_pair
from nestedot.io import (
    coupling_from_json,
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
from test_nested import dyadic_walk

# Values whose text is easy to get wrong: 0.1 is inexact in binary, 1e16
# and 1e-7 take an exponent, -0.0 has a sign, 5e-324 is the smallest
# subnormal.
SPECIAL = (0.1, 1e16, 1e-7, 5e-324, -0.0)


def coupling_to_json(coupling):
    """A plan as the JSON value its file holds."""
    return [
        {"mu_path": list(e.mu_path), "nu_path": list(e.nu_path), "mass": e.mass}
        for e in coupling.entries
    ]


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


def test_plan_writer_matches_the_json_encoder(tmp_path):
    # save_coupling writes the text itself; it must be the encoder's, byte
    # for byte, on the values whose text is easy to get wrong.
    values = (*SPECIAL, 1e300, -1e300, 2.5)
    masses = (0.1, 1e-7, 5e-324, 1e300, 0.5, 2.0, 1e16, 1.0)
    pairs = zip(values, reversed(values), masses)
    plans = [Coupling([]), Coupling(CouplingEntry((x, -x), (y,), m) for x, y, m in pairs)]
    for k, plan in enumerate(plans):
        path = tmp_path / f"plan{k}.json"
        save_coupling(plan, path)
        assert path.read_text() == dumps_canonical(coupling_to_json(plan)) + "\n"
        assert load_coupling(path) == plan


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_plan_writer_rejects_non_finite_paths(tmp_path, bad):
    plan = Coupling([CouplingEntry((0.0, bad), (1.0, 2.0), 1.0)])
    with pytest.raises(ValidationError, match="cannot serialize: "):
        save_coupling(plan, tmp_path / "plan.json")
    assert not (tmp_path / "plan.json").exists()


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
        # Line numbers count the blank lines a reader skips.
        ("a,b\n1,2\n\n3,x\n", False, "non-numeric cell 'x' on line 4"),
        # A first row with a number in it is data: '1,x' used to be a header.
        ("1,x\n2,3\n4,5\n", False, "non-numeric cell 'x' on line 1"),
        ("1,0.5\n\n2,-1\n", True, r"weight -1\.0 on line 3 is not finite and positive"),
        ("\n1,2\n\n3\n", False, "ragged row on line 4"),
    ],
)
def test_samples_csv_rejects(tmp_path, text, weight_column, message):
    path = tmp_path / "samples.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValidationError, match=message):
        read_samples_csv(path, weight_column=weight_column)


@pytest.mark.parametrize(
    "text, samples",
    [
        # A byte-order mark used to make the first cell '\ufeff1', which
        # turned the first data row into a header.
        ("\ufeff1,2\n3,4\n5,6\n", [((1.0, 2.0), 1 / 3), ((3.0, 4.0), 1 / 3), ((5.0, 6.0), 1 / 3)]),
        ("\ufeffa,b\n1,2\n", [((1.0, 2.0), 1.0)]),
        # A header is a first row none of whose cells is a number.
        ("a,b\n1,2\n", [((1.0, 2.0), 1.0)]),
        ("x,weight\n1,1\n2,3\n", [((1.0,), 0.25), ((2.0,), 0.75)]),
    ],
)
def test_samples_csv_first_row(tmp_path, text, samples):
    path = tmp_path / "samples.csv"
    path.write_text(text, encoding="utf-8")
    assert read_samples_csv(path) == samples


def test_samples_csv_weights_sum_exactly(tmp_path):
    # Weights were divided by a plain ``sum``, whose rounding depends on the
    # Python version: before 3.12 ten weights 0.1 summed to 0.9999999999999999
    # and read back as 0.10000000000000002.
    path = tmp_path / "samples.csv"
    path.write_text("".join(f"{k},0.1\n" for k in range(10)))
    assert read_samples_csv(path, weight_column=True) == [((float(k),), 0.1) for k in range(10)]


@pytest.mark.parametrize(
    "data, message",
    [(b"\xff1,2\n3,4\n", "can't decode byte 0xff"), (b"1," + b"2" * 200_000, "field limit")],
    ids=["not-utf8", "huge-field"],
)
def test_samples_csv_unreadable_bytes(tmp_path, data, message):
    # A file that is not UTF-8, or a field past the csv module's limit,
    # used to escape as an uncaught exception.
    path = tmp_path / "samples.csv"
    path.write_bytes(data)
    with pytest.raises(ValidationError, match=f"cannot read CSV file .*{message}"):
        read_samples_csv(path)


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
        {"mu_path": [True, 2.0]},
    ],
)
def test_plan_loader_reads_only_json_numbers(fields):
    entry = {"mu_path": [1, 2.0], "nu_path": [1.0], "mass": 1}
    assert coupling_from_json([entry]).entries[0] == ((1.0, 2.0), (1.0,), 1.0)
    # In the second plan the bad entry follows one whose paths equal its
    # own by ``==`` (True == 1), so a path seen before is checked too.
    other = {"mu_path": [3.0, 2.0], "nu_path": [2.0], "mass": 1}
    for plan in ([{**entry, **fields}], [entry, {**other, **fields}]):
        with pytest.raises(ValidationError, match="malformed plan entry"):
            coupling_from_json(plan)


def _signed_json_paths(rng, plan):
    """A plan's entries as JSON objects in random order, each integral path
    value written as a JSON int, a float or, for zero, -0.0."""

    def value(v):
        if not v.is_integer():
            return v
        return [int(v), v, -v if v == 0.0 else v][rng.integers(3)]

    entries = [plan.entries[k] for k in rng.permutation(len(plan))]
    return [
        {"mu_path": list(map(value, x)), "nu_path": list(map(value, y)), "mass": m}
        for x, y, m in entries
    ]


def test_plan_loader_interns_as_the_entries_form():
    rng = np.random.default_rng(24)
    signs = set()
    for k in range(24):
        mu, nu = random_tree_pair(rng, 1 + k % 3)
        obj = _signed_json_paths(rng, kr_coupling(mu, nu).coupling)
        loaded = coupling_from_json(obj)
        assert "entries" not in loaded.__dict__
        built = Coupling(
            CouplingEntry(tuple(d["mu_path"]), tuple(d["nu_path"]), d["mass"]) for d in obj
        )
        # repr tells -0.0 from 0.0 and 1 from 1.0
        fields = ("mu_paths", "nu_paths", "cells", "masses")
        assert [repr(getattr(loaded, f)) for f in fields] == [repr(getattr(built, f)) for f in fields]
        # the first-seen sign of an equal path wins
        for d in obj:
            for key, paths in (("mu_path", loaded.mu_paths), ("nu_path", loaded.nu_paths)):
                kept = paths[paths.index(tuple(d[key]))]
                first = next(e[key] for e in obj if e[key] == d[key])
                assert repr(kept) == repr(tuple(map(float, first)))
                signs.add(repr(kept) != repr(tuple(map(float, d[key]))))
    assert signs == {False, True}


@pytest.mark.parametrize("fields", [{"mass": "1"}, {"mass": True}, {"value": "0"}, {"value": False}])
def test_nested_loader_reads_only_json_numbers(fields):
    atom = {"mass": 1, "value": 0, "next": None}
    assert nested_from_json({"atoms": [atom]}).atoms[0].value == 0.0
    with pytest.raises(ValidationError, match="malformed nested atom"):
        nested_from_json({"atoms": [{**atom, **fields}]})


@pytest.mark.parametrize("digits", [400, 5000])
def test_loaders_reject_integers_too_large_to_read(tmp_path, digits):
    # 400 digits overflow float(); 5000 exceed int()'s digit limit in json.
    big = "1" + "0" * digits
    text = json.dumps(_tree_json()).replace('"value": 0.5', f'"value": {big}')
    atom = '{"atoms":[{"mass":1,"value":%s,"next":null}]}'
    plans = ['[{"mass":1,"mu_path":[%s],"nu_path":[0.5]}]', '[{"mass":%s,"mu_path":[1],"nu_path":[0.5]}]']
    cases = [(text, load_tree), (atom % big, load_nested)]
    cases += [(plan % big, load_coupling) for plan in plans]
    for k, (body, load) in enumerate(cases):
        path = tmp_path / f"big{k}.json"
        path.write_text(body)
        with pytest.raises(ValidationError):
            load(path)


def test_tree_loader_builds_no_node_record(tmp_path, monkeypatch):
    # A loaded tree goes from the JSON records to the constructor's
    # per-stage columns as plain tuples: no Node object per record.
    tree = dyadic_walk(6, 0.5, 0.25)  # 127 nodes, a plan-roundtrip pool tree's size
    path = tmp_path / "tree.json"
    save_tree(tree, path)

    def no_node(*args, **kwargs):
        raise AssertionError("a Node was built")

    monkeypatch.setattr(nestedot.tree, "Node", no_node)
    loaded = load_tree(path)
    assert loaded.leaf_paths() == tree.leaf_paths()
    assert tree_to_json(loaded) == tree_to_json(tree)
