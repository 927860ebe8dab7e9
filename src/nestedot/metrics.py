"""Base metrics on the line and the induced product cost on paths."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError

USUAL = "usual"
TRUNCATED = "truncated"
# The one report of a sum of finite per-stage costs that passes the float range.
PATH_COST_OVERFLOW = "cost overflows: a path cost passes the float range"


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
        """Sum over coordinates of the p-th power of the base distance; a sum
        too large for a float is rejected."""
        if len(x) != len(y):
            raise ValidationError(f"path length mismatch: {len(x)} vs {len(y)}")
        total = sum(self.base_cost(a, b) for a, b in zip(x, y))
        if not math.isfinite(total):
            raise ValidationError(PATH_COST_OVERFLOW)
        return total

    def root(self, cost_p: float) -> float:
        """Map an accumulated p-th-power cost back to distance scale."""
        if cost_p < 0.0:
            cost_p = 0.0
        return cost_p ** (1.0 / self.p)
