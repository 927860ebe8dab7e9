"""Scenario trees: finitely supported process laws with their filtration.

A law of an N-step real-valued process is stored as a rooted tree.  A node
at stage t carries the coordinate value x_t and the conditional probability
of reaching it from its parent; the root is virtual (stage 0, no value).
Because sibling values are pairwise distinct, every node is identified by
its history (x_1, ..., x_t), and a valid tree is determined by its leaf
path law alone: :func:`build_tree` builds it from (path, weight) pairs.
A tree is held as per-stage columns over its nodes in history order (node
ids, parent positions, values, conditional probabilities, masses, paths),
so a node's position in its stage is its rank, and a leaf's position its
rank among the leaf paths.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ValidationError
from .tolerances import ROUNDING, TOL


def sibling_total(masses: Iterable[float], mismatch: Callable[[float], str]) -> float:
    """Divisor of sibling masses: their ``fsum``, which must lie within ``TOL``
    of 1 (else ``mismatch(sum)`` is raised), or 1.0 within ``ROUNDING`` of 1,
    so that normalized masses keep their bits: a reloaded tree is unchanged
    and a lift reproduces its tree's distances exactly."""
    total = math.fsum(masses)
    if abs(total - 1.0) > TOL:
        raise ValidationError(mismatch(total))
    return 1.0 if abs(total - 1.0) <= ROUNDING else total


class Node(NamedTuple):
    """One node record, the form the constructor reads; any 5-tuple of
    these fields will do."""

    id: int
    parent: int | None
    stage: int
    value: float | None
    cond_prob: float | None


_VALUE = operator.itemgetter(3)


def _integer(value, what: str) -> int:
    """``value`` as an int.  A bool is rejected, though ``operator.index``
    takes it, and so is a float, though ``1.0 == 1``."""
    if type(value) is not bool:
        try:
            return int(operator.index(value))
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


class ScenarioTree:
    """Validated, immutable scenario tree, held as per-stage columns.

    Stage t = 0..depth lists its nodes in history order (siblings by
    value) as ``ids[t]``, ``up[t]`` (parent positions in stage t-1),
    ``values[t]``, ``probs[t]`` (None at the root), ``masses[t]`` and
    ``paths[t]``; node k's children are positions ``starts[t][k]`` up to
    ``starts[t][k + 1]`` of stage t+1.  Construction reads ``Node``s or
    plain 5-tuples, checks each one's fields, then fills the columns in one
    validated top-down pass: single virtual root, leaves all at the final
    stage, conditional probabilities in (0, 1] summing to one per node,
    pairwise distinct sibling values.  Each sibling group is sorted by
    value and renormalized exactly, unless it already sums to 1 within
    ``ROUNDING``.  The package addresses a node by its stage and position
    only; the ids (``ids``, ``root``) are kept for the file format
    (``io.tree_to_json``).  Instances never mutate and are safe for
    concurrent reads.
    """

    def __init__(self, depth: int, nodes: Iterable[Node]):
        depth = _integer(depth, "depth")
        if depth < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")
        records = list(nodes)
        if not records:
            raise ValidationError("tree has no nodes")
        by_id: dict[int, tuple] = {}
        roots = []
        for rec in records:
            if type(rec[2]) is not int:
                _integer(rec[2], f"stage of node {rec[0]}")
            if rec[0] in by_id:
                raise ValidationError(f"duplicate node id {rec[0]}")
            by_id[rec[0]] = rec
            if rec[1] is None:
                roots.append(rec)
        if len(roots) != 1:
            raise ValidationError(f"expected exactly one root, found {len(roots)}")
        root = roots[0]
        if root[2] != 0 or root[3] is not None or root[4] is not None:
            raise ValidationError("root must have stage 0 and no value or probability")

        children: dict[int, list[tuple]] = {}
        for rec in records:
            nid, parent, stage, value, prob = rec
            if parent is None:
                continue
            above = by_id.get(parent)
            if above is None:
                raise ValidationError(f"node {nid} references unknown parent {parent}")
            if stage != above[2] + 1:
                raise ValidationError(f"node {nid} is not one stage below its parent")
            if not (1 <= stage <= depth):
                raise ValidationError(f"node {nid} has stage {stage} outside 1..{depth}")
            if value is None or not math.isfinite(value):
                raise ValidationError(f"node {nid} needs a finite value")
            if prob is None or not (0.0 < prob <= 1.0 + TOL):
                raise ValidationError(f"node {nid} needs a probability in (0, 1]")
            children.setdefault(parent, []).append(rec)

        # Every non-root node sits one stage below a known parent, so one
        # pass from the root, stage by stage, reaches them all; siblings
        # join it in value order, so each stage comes out in history order.
        # A stage's columns are added once the pass has reached it.
        columns = ([(root[0],)], [()], [(None,)], [(None,)], [(1.0,)], [((),)])
        ids, _, _, _, masses, paths = columns
        starts = []
        for stage in range(depth + 1):
            rows, bounds = [], [0]
            for k, (pid, mass, path) in enumerate(zip(ids[stage], masses[stage], paths[stage])):
                kids = children.get(pid)
                if kids is None:
                    if stage != depth:
                        raise ValidationError(f"node {pid} is a leaf before stage {depth}")
                else:
                    kids.sort(key=_VALUE)
                    total = sibling_total(
                        [rec[4] for rec in kids],
                        lambda s: f"children of node {pid} have probabilities summing to {s}",
                    )
                    if len({rec[3] for rec in kids}) != len(kids):
                        raise ValidationError(f"children of node {pid} have duplicate values")
                    for nid, _, _, value, prob in kids:
                        value, prob = float(value), prob / total
                        rows.append((nid, k, value, prob, mass * prob, path + (value,)))
                bounds.append(len(rows))
            starts.append(tuple(bounds))
            if not rows:
                break
            for column, stage_column in zip(columns, zip(*rows)):
                column.append(stage_column)
        self.depth, self.root, self.starts = depth, root[0], tuple(starts)
        self.ids, self.up, self.values, self.probs, self.masses, self.paths = map(tuple, columns)

    def nodes_at_stage(self, stage: int) -> tuple[int, ...]:
        return self.ids[stage]

    @property
    def leaves(self) -> tuple[int, ...]:
        return self.ids[self.depth]

    def leaf_paths(self) -> list[tuple[tuple[float, ...], float]]:
        """Root-to-leaf paths with their unconditional weights."""
        return list(zip(self.paths[self.depth], self.masses[self.depth]))

    def canonical_key(self) -> str:
        """Total-order key; equal keys mean equal trees (same path law).

        No solver orders its operands by it: each subproblem of the
        recursion picks its own orientation (``nested._solve``).
        """
        return repr(tuple(self.leaf_paths()))

    def __repr__(self):
        return (
            f"ScenarioTree(depth={self.depth}, nodes={sum(map(len, self.ids))}, "
            f"leaves={len(self.leaves)})"
        )


def _group_by_coord(entries, coord, tol):
    """Greedy grouping of entries by one coordinate.

    Entries are sorted by the coordinate and a new group starts whenever
    the gap to the previous member exceeds ``tol`` (for tol 0 this is exact
    grouping).  The group value is the mass-weighted mean of the member
    coordinates.  Each group comes with its shift: the largest distance
    from a member's coordinate to the group value, which one of its two
    end members has.
    """
    ordered = sorted(entries, key=lambda e: e[0][coord])
    groups = []
    current = [ordered[0]]
    last = ordered[0][0][coord]
    for e in ordered[1:]:
        v = e[0][coord]
        if v - last > tol:
            groups.append(current)
            current = [e]
        else:
            current.append(e)
        last = v
    groups.append(current)
    out = []
    for g in groups:
        mass = math.fsum(w for _, w in g)
        low, high = g[0][0][coord], g[-1][0][coord]
        if low == high:
            value, shift = low, 0.0
        else:
            value = math.fsum(p[coord] * w for p, w in g) / mass
            shift = max(value - low, high - value)
        out.append((value, mass, g, shift))
    return out


def build_tree(
    pairs: Iterable[tuple[Sequence[float], float]], merge_tol: float = 0.0
) -> ScenarioTree:
    """Build the scenario tree of a path law given as (path, weight) pairs.

    ``pairs`` is read once, so a generator will do.  Repeated paths merge,
    their weights added in input order.  The paths must be nonempty, of
    one length and finite, the merged weights finite and positive with a
    sum within ``TOL`` of 1; each weight is then divided by that sum.
    Two partial histories share a node when their coordinates agree within
    ``merge_tol`` under the greedy adjacent-gap rule above; merged node
    values are mass-weighted means.  Paths are sorted before merging, so
    the output does not depend on input order.  With ``merge_tol`` 0 the
    induced path law of the result equals the input exactly.
    """
    return merged_tree(pairs, merge_tol)[0]


def merged_tree(
    pairs: Iterable[tuple[Sequence[float], float]], merge_tol: float
) -> tuple[ScenarioTree, float]:
    """``build_tree``, and the largest distance from a path coordinate to
    the value of the node it merged into (0.0 when nothing moved)."""
    law: dict[tuple[float, ...], float] = {}
    for path, w in pairs:
        key = tuple(float(v) for v in path)
        law[key] = law.get(key, 0.0) + float(w)
    if not law:
        raise ValidationError("empty path list")
    depth = len(next(iter(law)))
    if depth < 1:
        raise ValidationError("paths must have at least one coordinate")
    for path in law:
        if len(path) != depth:
            raise ValidationError("inconsistent path lengths")
        for v in path:
            if not math.isfinite(v):
                raise ValidationError(f"non-finite coordinate {v!r}")
    for w in law.values():
        if not (math.isfinite(w) and w > 0.0):
            raise ValidationError(f"nonpositive weight {w!r}")
    total = math.fsum(law.values())
    if abs(total - 1.0) > TOL:
        raise ValidationError(f"weights sum to {total}, expected 1")
    if not (math.isfinite(merge_tol) and merge_tol >= 0.0):
        raise ValidationError(f"merge_tol must be nonnegative, got {merge_tol!r}")
    nodes = [Node(0, None, 0, None, None)]
    # Every mass is an fsum; the sort decides which of a 0.0 and a -0.0
    # that share a node names it.
    queue = [(0, [(path, w / total) for path, w in sorted(law.items())], 0)]
    max_shift = 0.0
    for pid, entries, stage in queue:
        if stage == depth:
            continue
        total = math.fsum(w for _, w in entries)
        for value, mass, group, shift in _group_by_coord(entries, stage, merge_tol):
            nid = len(nodes)
            nodes.append(Node(nid, pid, stage + 1, value, mass / total))
            queue.append((nid, group, stage + 1))
            max_shift = max(max_shift, shift)
    return ScenarioTree(depth, nodes), max_shift
