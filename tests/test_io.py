import json
import math

import pytest

from nestedot import Coupling, PathDistribution, ValidationError, build_tree, embed
from nestedot.io import (
    coupling_to_json,
    dumps_canonical,
    load_coupling,
    load_nested,
    load_tree,
    nested_to_json,
    save_coupling,
    save_nested,
    save_tree,
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
    law = PathDistribution.from_pairs(
        [((0.1, 1e16), 0.1), ((0.1, 1e-7), 0.2), ((-0.0, 5e-324), 0.7)]
    )
    tree = build_tree(law)
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
