"""Phased matroids: phirotopes, canonical forms and realizability.

The package decides, in polynomial time, whether a uniform phased matroid
that is not essentially oriented is realizable over the complex numbers, and
if so produces its unique canonical realization.
"""

from .canonical import (
    CanonicalizationResult,
    SpanningForest,
    associated_bipartite_graph,
    canonical_spanning_forest,
    canonicalize,
    entry_phase,
    is_canonical,
    is_essentially_oriented,
    minor_phase,
)
from .errors import (
    DegenerateTriangleError,
    DisconnectedGraphError,
    EssentiallyOrientedError,
    FirstSubsetNotBasisError,
    IndexOutOfRangeError,
    InfeasibleTriangleError,
    InvalidPhirotopeError,
    NotCanonicalError,
    PhasedMatroidError,
    RankDeficientError,
)
from .matrices import ComplexMatrix
from .phases import DEFAULT_TOLERANCE, ZERO, Phase, Tolerance, phase_of
from .phirotopes import Phirotope, Rephasing, from_matrix, is_uniform, rephase, scale_global
from .realization import (
    NotRealizable,
    Realizable,
    RealizabilityVerdict,
    Unsupported,
    Witness,
    decide_realizability,
    normalize_to_tree,
    reconstruct,
    verify,
)

__version__ = "0.1.0"

# The names README, docs/formats.md, the CLI or a demo reach, and the types
# and exceptions that those functions return or raise.
__all__ = [
    # canonical
    "CanonicalizationResult", "SpanningForest", "associated_bipartite_graph",
    "canonical_spanning_forest", "canonicalize", "entry_phase", "is_canonical",
    "is_essentially_oriented", "minor_phase",
    # errors
    "DegenerateTriangleError", "DisconnectedGraphError", "EssentiallyOrientedError",
    "FirstSubsetNotBasisError", "IndexOutOfRangeError", "InfeasibleTriangleError",
    "InvalidPhirotopeError", "NotCanonicalError", "PhasedMatroidError",
    "RankDeficientError",
    # matrices
    "ComplexMatrix",
    # phases
    "DEFAULT_TOLERANCE", "ZERO", "Phase", "Tolerance", "phase_of",
    # phirotopes
    "Phirotope", "Rephasing", "from_matrix", "is_uniform", "rephase", "scale_global",
    # realization
    "NotRealizable", "Realizable", "RealizabilityVerdict", "Unsupported", "Witness",
    "decide_realizability", "normalize_to_tree", "reconstruct", "verify",
]
