"""Seeded input generators and seed-independent reference bounds.

The generators use only the standard library, so the program under test
sees nothing of them but the tree JSON files they write.  Every value is a
multiple of 1/8 and every walk probability a multiple of 1/16: dyadic
numbers are exact in binary floating point, so in a recombining walk
up-then-down lands on bit-identically the same value as down-then-up.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from pathlib import Path


class Tree:
    """A tree in the program's JSON format, kept as parallel node lists."""

    def __init__(self, depth: int):
        self.depth = depth
        self.parent = [None]
        self.stage = [0]
        self.value = [None]
        self.prob = [None]
        self.mass = [1.0]

    def add(self, parent: int, value: float, prob: float) -> int:
        self.parent.append(parent)
        self.stage.append(self.stage[parent] + 1)
        self.value.append(value)
        self.prob.append(prob)
        self.mass.append(self.mass[parent] * prob)
        return len(self.parent) - 1

    def to_json(self) -> dict:
        nodes = [
            {"id": k, "parent": self.parent[k], "stage": self.stage[k],
             "value": self.value[k], "prob": self.prob[k]}
            for k in range(len(self.parent))
        ]
        return {"depth": self.depth, "nodes": nodes}

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_json(), separators=(",", ":")) + "\n")

    def marginal(self, stage: int) -> dict[float, float]:
        """Law of the stage-``stage`` coordinate."""
        out: dict[float, float] = {}
        for k, t in enumerate(self.stage):
            if t == stage:
                out[self.value[k]] = out.get(self.value[k], 0.0) + self.mass[k]
        return out

    def root_children(self) -> int:
        return self.parent.count(0)


def full_tree(rng: random.Random, branching: list[int]) -> Tree:
    """Full tree with ``branching[t]`` children per stage-t node: random
    distinct 1/8-lattice values per sibling group and random conditional
    probabilities."""
    tree = Tree(len(branching))
    frontier = [0]
    for width in branching:
        nxt = []
        for parent in frontier:
            values = rng.sample(range(-24, 25), width)
            weights = [rng.randint(1, 8) for _ in range(width)]
            total = sum(weights)
            for v, w in zip(values, weights):
                nxt.append(tree.add(parent, v / 8, w / total))
        frontier = nxt
    return tree


def walk_tree(depth: int, step: float, up: float) -> Tree:
    """Binomial walk from 0 with constant step and up-probability, stored
    as a full binary tree (2**depth leaves, one node per history)."""
    tree = Tree(depth)
    frontier = [(0, 0.0)]
    for _ in range(depth):
        nxt = []
        for parent, x in frontier:
            nxt.append((tree.add(parent, x - step, 1.0 - up), x - step))
            nxt.append((tree.add(parent, x + step, up), x + step))
        frontier = nxt
    return tree


def random_walk(rng: random.Random, depth: int, up: float | None = None) -> Tree:
    step = rng.randint(1, 8) / 8
    if up is None:
        up = rng.randint(2, 14) / 16
    return walk_tree(depth, step, up)


def walk_pair_distinct_probs(rng: random.Random, depth: int) -> tuple[Tree, Tree]:
    """Two walks whose up-probabilities differ, so every stage of the
    Knothe-Rosenblatt refinement splits (3**depth plan entries)."""
    up_a, up_b = (k / 16 for k in rng.sample(range(2, 15), 2))
    return random_walk(rng, depth, up_a), random_walk(rng, depth, up_b)


# ------------------------------------------------------------ bounds


def _w1d_power(a: dict[float, float], b: dict[float, float], p: float) -> float:
    """W_p^p between two laws on the line, by the quantile coupling."""
    xa, ca = _cdf(a)
    xb, cb = _cdf(b)
    total = prev = 0.0
    for u in sorted(set(ca) | set(cb)):
        mid = 0.5 * (prev + u)
        qa = xa[bisect.bisect_left(ca, mid)]
        qb = xb[bisect.bisect_left(cb, mid)]
        total += (u - prev) * abs(qa - qb) ** p
        prev = u
    return total


def _cdf(law: dict[float, float]) -> tuple[list[float], list[float]]:
    locs = sorted(law)
    cum = list(itertools.accumulate(law[x] for x in locs))
    cum[-1] = 1.0
    return locs, cum


def cost_bounds(mu: Tree, nu: Tree, p: float = 2.0) -> tuple[float, float]:
    """Bounds on the p-th-power cost of every coupling the CLI reports.

    The cost is a sum over stages, so any coupling costs at least the sum
    of the stage-marginal W_p^p (lower); the independent coupling is
    bicausal, so the nested optimum costs at most its cost (upper).
    """
    lower = upper = 0.0
    for t in range(1, mu.depth + 1):
        a, b = mu.marginal(t), nu.marginal(t)
        lower += _w1d_power(a, b, p)
        upper += sum(ma * mb * abs(x - y) ** p for x, ma in a.items() for y, mb in b.items())
    return lower, upper

