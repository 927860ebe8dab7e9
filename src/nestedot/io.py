"""File formats: tree JSON, plan JSON, nested-distribution JSON, sample CSV.

Every file is written as :func:`dumps_canonical` writes it: floats as
their shortest round-trip text (every value reads back bit for bit),
object keys sorted, no spaces, so identical data produces byte-identical
files.  A tree is written off its per-stage columns and read back by
type-checking each node record and handing it to ``ScenarioTree`` as a
plain 5-tuple: the constructor's one pass does every other check and
builds the columns, with no record object per node.  A plan is written
straight from its leaf-pair form, without the encoder: each distinct
path's text is built once, and each entry fills one text template.  It
is read back into the same form: each entry is type-checked and its
paths interned as they are read, each distinct path is made floats
once, and the plan passes the one check of ``Coupling``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Iterator

from .embedding import NestedAtom, NestedDistribution
from .errors import ValidationError
from .plans import Coupling
from .tree import ScenarioTree


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no spaces, shortest round-trip floats.

    A non-finite float or a value JSON cannot hold raises
    :class:`ValidationError`.
    """
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot serialize: {exc}") from exc


def file_digest(path: str | Path) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read file {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def _array(value: Any, what: str) -> list:
    """``value`` itself if it is a JSON array, else :class:`ValidationError`."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


# What JSON numbers load as; ``bool`` is a subclass of ``int``, not one of these.
_NUMBER = frozenset((float, int))
_INTEGER = frozenset((int,))


def _typed(value: Any, types: frozenset = _NUMBER) -> Any:
    """``value`` itself if its type is one of ``types``, else TypeError."""
    if type(value) not in types:
        raise TypeError(f"unexpected JSON type {type(value).__name__}")
    return value


def _read_json(path: str | Path, what: str) -> Any:
    """The JSON value in a file.  A ValueError is bad JSON or an integer
    too long to read; both are :class:`ValidationError`."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc


def _write_json(obj: Any, path: str | Path, what: str) -> None:
    """Write ``obj`` as canonical JSON text."""
    _write_text(dumps_canonical(obj) + "\n", path, what)


def _write_text(text: str, path: str | Path, what: str) -> None:
    """Write a file's text; a path that cannot be written is
    :class:`ValidationError`."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what} file {path}: {exc}") from exc


# ---------------------------------------------------------------- trees


def tree_to_json(tree: ScenarioTree) -> dict:
    nodes = [{"id": tree.root, "parent": None, "stage": 0, "value": None, "prob": None}]
    for t in range(1, tree.depth + 1):
        parents = tree.ids[t - 1]
        nodes += [
            {"id": nid, "parent": parents[k], "stage": t, "value": value, "prob": prob}
            for nid, k, value, prob in zip(tree.ids[t], tree.up[t], tree.values[t], tree.probs[t])
        ]
    nodes.sort(key=lambda d: d["id"])
    return {"depth": tree.depth, "nodes": nodes}


def tree_from_json(obj: dict) -> ScenarioTree:
    """The tree of ``{"depth", "nodes"}``.  Each record is type-checked and
    handed to the constructor as a plain 5-tuple, which checks the rest."""
    try:
        depth = obj["depth"]
        raw = obj["nodes"]
    except (TypeError, KeyError) as exc:
        raise ValidationError("tree JSON needs 'depth' and 'nodes'") from exc
    nodes = []
    for d in _array(raw, "tree 'nodes'"):
        try:
            parent, value, prob = d["parent"], d["value"], d["prob"]
            nodes.append(
                (
                    _typed(d["id"], _INTEGER),
                    None if parent is None else _typed(parent, _INTEGER),
                    _typed(d["stage"], _INTEGER),
                    None if value is None else float(_typed(value)),
                    None if prob is None else float(_typed(prob)),
                )
            )
        except (TypeError, KeyError, OverflowError) as exc:
            raise ValidationError(f"malformed tree node record {d!r}") from exc
    return ScenarioTree(depth, nodes)


def save_tree(tree: ScenarioTree, path: str | Path) -> None:
    _write_json(tree_to_json(tree), path, "tree")


def load_tree(path: str | Path) -> ScenarioTree:
    return tree_from_json(_read_json(path, "tree"))


# ---------------------------------------------------------------- plans


def _plan_entries(obj: Any) -> Iterator[tuple[tuple, tuple, float]]:
    """Each entry of a plan's JSON value as (mu path, nu path, mass), the
    paths as read and the mass a float.  Every entry is type-checked:
    ``true == 1``, so a bad path can equal a path that was interned before."""
    for d in _array(obj, "plan JSON"):
        try:
            x, y, m = d["mu_path"], d["nu_path"], d["mass"]
            if type(m) not in _NUMBER or not _NUMBER.issuperset(map(type, x + y)):
                raise TypeError("a plan entry holds two arrays of numbers and a number")
            entry = tuple(x), tuple(y), float(m)
        except (TypeError, KeyError, OverflowError) as exc:
            raise ValidationError(f"malformed plan entry {d!r}") from exc
        yield entry


def coupling_from_json(obj: Any) -> Coupling:
    """The plan of a JSON array of ``{"mu_path", "nu_path", "mass"}``
    objects.  ``Coupling`` interns the paths as the entries are read and
    makes each distinct path floats once; a value past the float range
    is a malformed path."""
    try:
        return Coupling(_plan_entries(obj))
    except OverflowError as exc:
        raise ValidationError(f"malformed plan path: {exc}") from exc


def _float_list(values: tuple[float, ...]) -> str:
    """The canonical text of a list of floats; a value that is not finite
    raises as :func:`dumps_canonical` does."""
    if not all(map(math.isfinite, values)):
        dumps_canonical(list(values))  # raises its "cannot serialize" error
    return "[" + ",".join(map(repr, values)) + "]"


def save_coupling(coupling: Coupling, path: str | Path) -> None:
    """Write the plan's entries as :func:`dumps_canonical` would (keys
    ``mass``, ``mu_path``, ``nu_path`` in that order), building each
    distinct path's text once."""
    mu_text = list(map(_float_list, coupling.mu_paths))
    nu_text = list(map(_float_list, coupling.nu_paths))
    width = len(nu_text)
    rows = ",".join(
        f'{{"mass":{m!r},"mu_path":{mu_text[c // width]},"nu_path":{nu_text[c % width]}}}'
        for c, m in zip(coupling.cells, coupling.masses)
    )
    _write_text(f"[{rows}]\n", path, "plan")


def load_coupling(path: str | Path) -> Coupling:
    return coupling_from_json(_read_json(path, "plan"))


# ------------------------------------------------- nested distributions


def nested_to_json(dist: NestedDistribution) -> dict:
    return {
        "atoms": [
            {
                "mass": a.mass,
                "value": a.value,
                "next": None if a.next is None else nested_to_json(a.next),
            }
            for a in dist.atoms
        ]
    }


def nested_from_json(obj: Any) -> NestedDistribution:
    """Read ``{"atoms": [{"mass", "value", "next"}, ...]}``, ``next`` null or
    of the same form; the depth is read off the atoms, not stored."""
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ValidationError("nested-distribution JSON must be {'atoms': [...]}")
    atoms = []
    for d in _array(obj["atoms"], "nested 'atoms'"):
        try:
            mass, value, nxt = _typed(d["mass"]), _typed(d["value"]), d["next"]
            atom_next = None if nxt is None else nested_from_json(nxt)
            atoms.append(NestedAtom(float(mass), float(value), atom_next))
        except (TypeError, KeyError, OverflowError) as exc:
            raise ValidationError(f"malformed nested atom {d!r}") from exc
    return NestedDistribution(tuple(atoms))


def save_nested(dist: NestedDistribution, path: str | Path) -> None:
    _write_json(nested_to_json(dist), path, "nested-distribution")


def load_nested(path: str | Path) -> NestedDistribution:
    return nested_from_json(_read_json(path, "nested-distribution"))


# ----------------------------------------------------------------- csv


def read_samples_csv(
    path: str | Path, weight_column: bool = False
) -> list[tuple[tuple[float, ...], float]]:
    """(path, weight) pairs from rows of N coordinates, optionally with a
    trailing weight column.

    A first row none of whose cells parses as a number is a header, and
    must have as many fields as the data rows; any other first row is data.
    The file is read as UTF-8, skipping a byte-order mark.
    The last column holds the weights when ``weight_column`` is set or
    when the header's last field is named ``weight`` (case-insensitive).
    Without weights, rows get uniform weight.  Repeated rows stay repeated;
    :func:`~nestedot.tree.build_tree` merges them, adding their weights.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            # Each row keeps its physical line, which blank lines would shift.
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read CSV file {path}: {exc}") from exc
    if not rows:
        raise ValidationError("CSV file has no rows")

    def number(cell: str) -> float | None:
        try:
            return float(cell)
        except ValueError:
            return None

    header: list[str] | None = None
    if all(number(cell) is None for cell in rows[0][1]):
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ValidationError("CSV file has a header but no data rows")
    if header is not None and header[-1].lower() == "weight":
        weight_column = True

    width = len(rows[0][1])
    if header is not None and len(header) != width:
        raise ValidationError(
            f"CSV header has {len(header)} fields but the data rows have {width}"
        )
    parsed = []
    for line, row in rows:
        if len(row) != width:
            raise ValidationError(f"ragged row on line {line}")
        vals = [number(cell) for cell in row]
        if None in vals:
            raise ValidationError(f"non-numeric cell {row[vals.index(None)]!r} on line {line}")
        parsed.append(vals)
    if weight_column:
        if width < 2:
            raise ValidationError("weight column requires at least one coordinate column")
        for (line, _), vals in zip(rows, parsed):
            w = vals[-1]
            if not (math.isfinite(w) and w > 0.0):
                raise ValidationError(f"weight {w!r} on line {line} is not finite and positive")
        try:
            total = math.fsum(vals[-1] for vals in parsed)
        except OverflowError:  # where a plain ``sum`` would return inf
            raise ValidationError("weights sum to inf, which is not finite") from None
        return [(tuple(vals[:-1]), vals[-1] / total) for vals in parsed]
    return [(tuple(vals), 1.0 / len(parsed)) for vals in parsed]
