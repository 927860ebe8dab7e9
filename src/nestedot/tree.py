"""Scenario trees: finitely supported process laws with their filtration.

A law of an N-step real-valued process is stored as a rooted tree.  A node
at stage t carries the coordinate value x_t and the conditional probability
of reaching it from its parent; the root is virtual (stage 0, no value).
Because sibling values are pairwise distinct, every node is identified by
its history (x_1, ..., x_t), and a valid tree is determined by its leaf
path law alone: :func:`build_tree` builds it from (path, weight) pairs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


@dataclass(frozen=True)
class Node:
    id: int
    parent: int | None
    stage: int
    value: float | None
    cond_prob: float | None


class ScenarioTree:
    """Validated, immutable scenario tree.

    Construction checks each node's fields, then makes one validated
    top-down pass: single virtual root, leaves all at the final stage,
    conditional probabilities in (0, 1] summing to one per node, pairwise
    distinct sibling values.  Each sibling group is sorted by value and
    renormalized exactly, unless it already sums to 1 within ``ROUNDING``.
    Instances never mutate afterwards and are safe for concurrent reads.
    """

    def __init__(self, depth: int, nodes: Iterable[Node]):
        try:
            depth = int(operator.index(depth))
        except TypeError:
            raise ValidationError(f"depth must be an integer, got {depth!r}") from None
        if depth < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")
        node_list = list(nodes)
        if not node_list:
            raise ValidationError("tree has no nodes")
        by_id: dict[int, Node] = {}
        for n in node_list:
            if n.id in by_id:
                raise ValidationError(f"duplicate node id {n.id}")
            by_id[n.id] = n
        roots = [n for n in node_list if n.parent is None]
        if len(roots) != 1:
            raise ValidationError(f"expected exactly one root, found {len(roots)}")
        root = roots[0]
        if root.stage != 0 or root.value is not None or root.cond_prob is not None:
            raise ValidationError("root must have stage 0 and no value or probability")

        children: dict[int, list[int]] = {n.id: [] for n in node_list}
        for n in node_list:
            if n.parent is None:
                continue
            if n.parent not in by_id:
                raise ValidationError(f"node {n.id} references unknown parent {n.parent}")
            if n.stage != by_id[n.parent].stage + 1:
                raise ValidationError(f"node {n.id} is not one stage below its parent")
            if not (1 <= n.stage <= depth):
                raise ValidationError(f"node {n.id} has stage {n.stage} outside 1..{depth}")
            if n.value is None or not math.isfinite(n.value):
                raise ValidationError(f"node {n.id} needs a finite value")
            if n.cond_prob is None or not (0.0 < n.cond_prob <= 1.0 + TOL):
                raise ValidationError(f"node {n.id} needs a probability in (0, 1]")
            children[n.parent].append(n.id)

        # Every non-root node sits one stage below a known parent, so one
        # walk from the root reaches them all; siblings join it in value
        # order, so each stage comes out in history order.
        self.depth = depth
        self.root = root.id
        self._nodes = {root.id: root}
        self._children: dict[int, tuple[int, ...]] = {}
        stages: list[list[int]] = []
        self._paths: dict[int, tuple[float, ...]] = {root.id: ()}
        self._masses: dict[int, float] = {root.id: 1.0}
        order = [root.id]
        for pid in order:
            stage = self._nodes[pid].stage
            if stage == len(stages):  # the walk reaches the stages in order
                stages.append([])
            stages[stage].append(pid)
            kids = sorted(children[pid], key=lambda k: by_id[k].value)
            self._children[pid] = tuple(kids)
            if not kids:
                if stage != depth:
                    raise ValidationError(f"node {pid} is a leaf before stage {depth}")
                continue
            total = sibling_total(
                (by_id[k].cond_prob for k in kids),
                lambda s: f"children of node {pid} have probabilities summing to {s}",
            )
            if len({by_id[k].value for k in kids}) != len(kids):
                raise ValidationError(f"children of node {pid} have duplicate values")
            for k in kids:
                n = by_id[k]
                child = Node(n.id, pid, n.stage, float(n.value), n.cond_prob / total)
                self._nodes[k] = child
                self._paths[k] = self._paths[pid] + (child.value,)
                self._masses[k] = self._masses[pid] * child.cond_prob
            order += kids
        self._stages = tuple(map(tuple, stages))

    def node(self, nid: int) -> Node:
        return self._nodes[nid]

    def children(self, nid: int) -> tuple[int, ...]:
        return self._children[nid]

    def nodes_at_stage(self, stage: int) -> tuple[int, ...]:
        return self._stages[stage]

    @property
    def leaves(self) -> tuple[int, ...]:
        return self._stages[self.depth]

    def path(self, nid: int) -> tuple[float, ...]:
        """History (x_1, ..., x_t) of the node."""
        return self._paths[nid]

    def mass(self, nid: int) -> float:
        """Unconditional probability of reaching the node."""
        return self._masses[nid]

    def leaf_paths(self) -> list[tuple[tuple[float, ...], float]]:
        """Root-to-leaf paths with their unconditional weights."""
        return [(self._paths[k], self._masses[k]) for k in self.leaves]

    def canonical_key(self) -> str:
        """Total-order key; equal keys mean equal trees (same path law).

        No solver orders its operands by it: each subproblem of the
        recursion picks its own orientation (``nested._solve``).
        """
        return repr(tuple(self.leaf_paths()))

    def __repr__(self):
        return (
            f"ScenarioTree(depth={self.depth}, nodes={len(self._nodes)}, "
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
