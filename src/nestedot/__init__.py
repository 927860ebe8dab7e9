"""Information-aware distances between laws of finite discrete-time processes.

Process laws live on scenario trees.  The package computes the nested
(bicausal) transport distance by backward recursion, the Knothe-Rosenblatt
rearrangement distance and the classical Wasserstein distance, verifies
causality properties of couplings, splits non-extreme causal couplings,
and lifts tree laws into nested distributions where the nested distance
becomes a plain Wasserstein distance.
"""

from .causality import (
    CausalityReport,
    SplitResult,
    Violation,
    detect_monge,
    is_bicausal,
    is_causal,
    split_non_extreme,
)
from .embedding import (
    NestedAtom,
    NestedDistribution,
    dirac_approximation,
    embed,
    nested_wasserstein,
)
from .errors import (
    AlreadyExtremeError,
    NotCausalError,
    SizeGuardError,
    ValidationError,
)
from .knothe import KRCoupling, kr_coupling, kr_distance
from .metrics import GroundMetric
from .nested import (
    NestedResult,
    brute_force_bicausal,
    cauchy_check,
    nested_distance,
    wasserstein_distance,
)
from .plans import Coupling, CouplingEntry
from .transport import OTResult, TransportPlan, solve_ot
from .tree import Node, ScenarioTree, build_tree

__version__ = "0.1.0"

__all__ = [
    "AlreadyExtremeError",
    "CausalityReport",
    "Coupling",
    "CouplingEntry",
    "GroundMetric",
    "KRCoupling",
    "NestedAtom",
    "NestedDistribution",
    "NestedResult",
    "Node",
    "NotCausalError",
    "OTResult",
    "ScenarioTree",
    "SizeGuardError",
    "SplitResult",
    "TransportPlan",
    "ValidationError",
    "Violation",
    "brute_force_bicausal",
    "build_tree",
    "cauchy_check",
    "detect_monge",
    "dirac_approximation",
    "embed",
    "is_bicausal",
    "is_causal",
    "kr_coupling",
    "kr_distance",
    "nested_distance",
    "nested_wasserstein",
    "solve_ot",
    "split_non_extreme",
    "wasserstein_distance",
]
