"""File formats: tree JSON, plan JSON, nested-distribution JSON, sample CSV.

All emitters go through :func:`dumps_canonical`, which writes floats as
their shortest round-trip text (every value reads back bit for bit) and
sorts object keys, so identical data produces byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any

from .embedding import NestedAtom, NestedDistribution
from .errors import ValidationError
from .nested import Coupling, CouplingEntry
from .tree import Node, PathDistribution, ScenarioTree


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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- trees


def tree_to_json(tree: ScenarioTree) -> dict:
    nodes = []
    for stage in range(tree.depth + 1):
        for nid in tree.nodes_at_stage(stage):
            n = tree.node(nid)
            nodes.append(
                {
                    "id": n.id,
                    "parent": n.parent,
                    "stage": n.stage,
                    "value": n.value,
                    "prob": n.cond_prob,
                }
            )
    nodes.sort(key=lambda d: d["id"])
    return {"depth": tree.depth, "nodes": nodes}


def tree_from_json(obj: dict) -> ScenarioTree:
    try:
        depth = obj["depth"]
        raw = obj["nodes"]
    except (TypeError, KeyError) as exc:
        raise ValidationError("tree JSON needs 'depth' and 'nodes'") from exc
    if not isinstance(depth, int):
        raise ValidationError("tree depth must be an integer")
    nodes = []
    for d in raw:
        try:
            value = d["value"]
            prob = d["prob"]
            nodes.append(
                Node(
                    id=int(d["id"]),
                    parent=None if d["parent"] is None else int(d["parent"]),
                    stage=int(d["stage"]),
                    value=None if value is None else float(value),
                    cond_prob=None if prob is None else float(prob),
                )
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError(f"malformed tree node record {d!r}") from exc
    return ScenarioTree(depth, nodes)


def save_tree(tree: ScenarioTree, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(tree_to_json(tree)) + "\n")


def load_tree(path: str | Path) -> ScenarioTree:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read tree file {path}: {exc}") from exc
    return tree_from_json(obj)


# ---------------------------------------------------------------- plans


def coupling_to_json(coupling: Coupling) -> list[dict]:
    return [
        {"mu_path": list(e.mu_path), "nu_path": list(e.nu_path), "mass": e.mass}
        for e in coupling.entries
    ]


def coupling_from_json(obj: Any) -> Coupling:
    if not isinstance(obj, list):
        raise ValidationError("plan JSON must be an array of entries")
    entries = []
    for d in obj:
        try:
            entries.append(
                CouplingEntry(
                    tuple(float(v) for v in d["mu_path"]),
                    tuple(float(v) for v in d["nu_path"]),
                    float(d["mass"]),
                )
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError(f"malformed plan entry {d!r}") from exc
    return Coupling(tuple(entries))


def save_coupling(coupling: Coupling, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(coupling_to_json(coupling)) + "\n")


def load_coupling(path: str | Path) -> Coupling:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read plan file {path}: {exc}") from exc
    return coupling_from_json(obj)


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
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ValidationError("nested-distribution JSON must be {'atoms': [...]}")
    atoms = []
    depth = None
    for d in obj["atoms"]:
        try:
            nxt = d["next"]
            atom_next = None if nxt is None else nested_from_json(nxt)
            atoms.append(NestedAtom(float(d["mass"]), float(d["value"]), atom_next))
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError(f"malformed nested atom {d!r}") from exc
        d_depth = 1 if atom_next is None else atom_next.depth + 1
        if depth is None:
            depth = d_depth
        elif depth != d_depth:
            raise ValidationError("nested atoms disagree on recursion depth")
    if depth is None:
        raise ValidationError("nested distribution needs at least one atom")
    return NestedDistribution(tuple(atoms), depth)


def save_nested(dist: NestedDistribution, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(nested_to_json(dist)) + "\n")


def load_nested(path: str | Path) -> NestedDistribution:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read nested-distribution file {path}: {exc}") from exc
    return nested_from_json(obj)


# ----------------------------------------------------------------- csv


def read_samples_csv(path: str | Path, weight_column: bool = False) -> PathDistribution:
    """Rows of N coordinates, optionally with a trailing weight column.

    A first row that fails to parse as numbers is treated as a header; a
    header whose last field is named ``weight`` (case-insensitive) marks
    the weight column.  For headerless files pass ``weight_column=True``
    to treat the last column as weights.  Without weights, rows get
    uniform weight; duplicate rows are merged with summed weight.
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise ValidationError(f"cannot read CSV file {path}: {exc}") from exc
    if not rows:
        raise ValidationError("CSV file has no rows")

    def parse_row(row: list[str], lineno: int) -> list[float]:
        out = []
        for cell in row:
            try:
                out.append(float(cell))
            except ValueError as exc:
                raise ValidationError(
                    f"non-numeric cell {cell!r} on line {lineno}"
                ) from exc
        return out

    header: list[str] | None = None
    try:
        parse_row(rows[0], 1)
    except ValidationError:
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ValidationError("CSV file has a header but no data rows")
    if header is not None:
        weight_column = header[-1].lower() == "weight"

    width = len(rows[0])
    parsed = []
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(f"ragged row on line {k + 1 + (header is not None)}")
        parsed.append(parse_row(row, k + 1 + (header is not None)))
    if weight_column:
        if width < 2:
            raise ValidationError("weight column requires at least one coordinate column")
        raw = [vals[-1] for vals in parsed]
        if any(w <= 0.0 for w in raw):
            raise ValidationError("weights must be positive")
        total = sum(raw)
        pairs = [(tuple(vals[:-1]), vals[-1] / total) for vals in parsed]
    else:
        pairs = [(tuple(vals), 1.0 / len(parsed)) for vals in parsed]
    return PathDistribution.from_pairs(pairs)
