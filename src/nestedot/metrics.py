"""Base metrics on the line and the induced product cost on paths."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ValidationError
from .transport import np

USUAL = "usual"
TRUNCATED = "truncated"
# The one report of a sum of finite per-stage costs that passes the float range.
PATH_COST_OVERFLOW = "cost overflows: a path cost passes the float range"


def add_stages(stage_costs: Iterable):
    """The path cost of one path pair from its per-stage costs (floats), or
    of many path pairs at once (arrays): the stages are added one by one,
    stage 1 first.  Every path cost of the package is added in this one
    order, so all have the same bits: here (``GroundMetric.path_cost``, the
    stage layout of W and the oracle), or as a running sum in ``plans``
    (``Coupling.cost``, and the walk that prices Knothe-Rosenblatt plans).
    ``sum`` is not used, as from Python 3.12 on it compensates float sums.
    A sum past the float range is rejected."""
    total = 0.0
    with np.errstate(over="ignore"):  # an overflow is inf, rejected below
        for cost in stage_costs:
            total = total + cost
    if not np.isfinite(total).all():
        raise ValidationError(PATH_COST_OVERFLOW)
    return total


@dataclass(frozen=True)
class GroundMetric:
    """Base metric on the real line plus the order of the product cost.

    ``usual`` is the absolute difference, ``truncated`` clips it at ``cap``
    (so ``truncated`` with cap 1 is ``|a - b| ∧ 1``).  The cost of a pair of
    length-N paths is the sum of per-coordinate p-th powers of the base
    distance; solvers carry these p-th powers throughout and the single
    1/p root is applied at API boundaries.

    Instances are immutable value objects and freely shareable.
    """

    kind: str = USUAL
    p: float = 2.0
    cap: float = 1.0

    def __post_init__(self):
        if self.kind not in (USUAL, TRUNCATED):
            raise ValidationError(f"unknown base metric kind {self.kind!r}")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValidationError(f"order p must satisfy p >= 1, got {self.p}")
        if self.kind == TRUNCATED and not (math.isfinite(self.cap) and self.cap > 0.0):
            raise ValidationError(f"truncation cap must be positive, got {self.cap}")

    @classmethod
    def usual(cls, p: float = 2.0) -> "GroundMetric":
        return cls(kind=USUAL, p=float(p))

    @classmethod
    def truncated(cls, p: float = 2.0, cap: float = 1.0) -> "GroundMetric":
        return cls(kind=TRUNCATED, p=float(p), cap=float(cap))

    def base_cost(self, a: float, b: float) -> float:
        """p-th power of the base distance; one too large for a float is rejected."""
        d = abs(a - b)
        if self.kind == TRUNCATED and d > self.cap:
            d = self.cap
        try:
            return d ** self.p
        except OverflowError:
            raise ValidationError(
                f"cost overflows: base distance {d!r} to the power {self.p}"
            ) from None

    def path_cost(self, x: Sequence[float], y: Sequence[float]) -> float:
        """Sum over coordinates of the p-th power of the base distance, added
        by ``add_stages``; a sum too large for a float is rejected."""
        if len(x) != len(y):
            raise ValidationError(f"path length mismatch: {len(x)} vs {len(y)}")
        return add_stages(self.base_cost(a, b) for a, b in zip(x, y))

    def root(self, cost_p: float) -> float:
        """Map an accumulated p-th-power cost back to distance scale."""
        if cost_p < 0.0:
            cost_p = 0.0
        return cost_p ** (1.0 / self.p)
