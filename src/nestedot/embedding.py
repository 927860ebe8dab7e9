"""Nested distributions and the isometric lift of tree laws.

A nested distribution of depth N is a finite distribution over elements
(value, nested distribution of depth N-1), bottoming out in plain reals.
Two atoms merge, adding their masses, only when their values and
continuations are exactly equal, and distributions compare by the
dataclasses' own ``==``, masses included.  Lifting a tree replaces every
node by (its value, the lift of its child law); the recursive Wasserstein
distance between lifts reproduces the nested distance exactly, and the
lifted space also contains the limits that the tree laws themselves miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .metrics import GroundMetric
from .nested import SubtreeClasses, backward, check_depths
from .tree import ScenarioTree, build_tree, sibling_total


@dataclass(frozen=True)
class NestedAtom:
    mass: float
    value: float
    next: "NestedDistribution | None"


@dataclass(frozen=True)
class NestedDistribution:
    """Finite distribution over (value, deeper nested distribution) pairs.

    The depth is read off the atoms, whose continuations must agree on it.
    """

    atoms: tuple[NestedAtom, ...]
    depth: int = field(init=False)

    def __post_init__(self):
        if not self.atoms:
            raise ValidationError("nested distribution needs at least one atom")
        head = self.atoms[0].next
        depth = 1 if head is None else head.depth + 1
        for a in self.atoms:
            if not (math.isfinite(a.mass) and a.mass > 0.0):
                raise ValidationError(f"atom mass must be positive, got {a.mass!r}")
            if not math.isfinite(a.value):
                raise ValidationError(f"atom value must be finite, got {a.value!r}")
            if (1 if a.next is None else a.next.depth + 1) != depth:
                raise ValidationError("nested atoms disagree on recursion depth")
        total = sibling_total(
            (a.mass for a in self.atoms), lambda s: f"atom masses sum to {s}, expected 1"
        )
        atoms = _merge_atoms(
            [NestedAtom(a.mass / total, float(a.value), a.next) for a in self.atoms]
        )
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "depth", depth)


def _merge_atoms(atoms: list[NestedAtom]) -> list[NestedAtom]:
    """Sort atoms by value; merge exactly equal (value, continuation), adding masses."""
    out: list[NestedAtom] = []
    for a in sorted(atoms, key=lambda a: a.value):
        k = len(out)
        while k and out[k - 1].value == a.value:  # the run of a's value
            k -= 1
            b = out[k]
            if b.next == a.next:
                out[k] = NestedAtom(b.mass + a.mass, b.value, b.next)
                break
        else:
            out.append(a)
    return out


def embed(tree: ScenarioTree) -> NestedDistribution:
    """Lift a tree law to its nested distribution.

    Each stage-t node becomes (value, distribution of its lifted
    children).  Sibling values are distinct, so no atoms merge and the
    lifted masses are the tree's probabilities bit for bit.
    """

    def lift(node: int) -> NestedDistribution:
        atoms = []
        for k in tree.children(node):
            child = tree.node(k)
            nxt = None if child.stage == tree.depth else lift(k)
            atoms.append(NestedAtom(child.cond_prob, child.value, nxt))
        return NestedDistribution(tuple(atoms))

    return lift(tree.root)


def nested_wasserstein(
    p: NestedDistribution, q: NestedDistribution, metric: GroundMetric
) -> float:
    """Recursive Wasserstein distance between nested distributions.

    Element distances add the base cost of the values to the optimal
    transport cost between the continuations.  This is the backward
    recursion of :func:`nested_distance`, run over the exact atom classes
    of the two distributions (keyed by mass, value and the class of the
    continuation), so equal sub-distributions are solved once.  Lifted
    masses are the tree's probabilities bit for bit and each subproblem
    picks its own orientation, so the lift of two trees gives their nested
    distance bit for bit, in either order.
    """
    check_depths(p, q)

    def intern(classes: SubtreeClasses, d: NestedDistribution) -> int:
        return classes.intern(
            tuple(
                (a.value, a.mass, 0 if a.next is None else intern(classes, a.next))
                for a in d.atoms
            )
        )

    first, second = SubtreeClasses(), SubtreeClasses()
    root_p, root_q = intern(first, p), intern(second, q)
    return metric.root(backward(first, second, metric)[root_p, root_q][0])


def dirac_approximation(p: NestedDistribution, epsilon: float) -> ScenarioTree:
    """Tree law approximating a depth-2 nested distribution.

    Stage-1 values fan out the atom values by the deterministic rule
    ``a_j + epsilon * j / k`` (1-based j over k atoms), so they stay within
    epsilon of the originals while becoming pairwise distinct; stage-2
    conditionals are copied verbatim.  The lift of the result converges to
    ``p`` as epsilon tends to zero.
    """
    if p.depth != 2:
        raise ValidationError("dirac_approximation expects a depth-2 nested distribution")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    k = len(p.atoms)
    pairs = []
    for j, atom in enumerate(p.atoms, start=1):
        first = atom.value + epsilon * j / k
        for leaf in atom.next.atoms:
            pairs.append(((first, leaf.value), atom.mass * leaf.mass))
    return build_tree(pairs)
