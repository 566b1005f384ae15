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
    shuffle_sign,
)
from .errors import (
    DegenerateTriangleError,
    DisconnectedGraphError,
    EssentiallyOrientedError,
    FirstSubsetNotBasisError,
    IndexOutOfRangeError,
    InfeasibleTriangleError,
    InvalidPhirotopeError,
    NonSpanningForestError,
    NotCanonicalError,
    PhasedMatroidError,
    RankDeficientError,
    SingularLeadingBlockError,
    UnsupportedMinorSizeError,
    ZeroScalarError,
)
from .matrices import (
    ComplexMatrix,
    all_maximal_minors,
    maximal_minor,
    scale,
    to_standard_form,
)
from .phases import (
    DEFAULT_TOLERANCE,
    MINUS_ONE,
    ONE,
    ZERO,
    Phase,
    Tolerance,
    TriangleEquation,
    circular_distance,
    phase_of,
    triangle_solve,
    zero_in_hypersum,
)
from .phirotopes import (
    Phirotope,
    Rephasing,
    from_matrix,
    is_uniform,
    rephase,
    scale_global,
    sort_with_sign,
)
from .realization import (
    NotRealizable,
    Realizable,
    RealizabilityVerdict,
    Unsupported,
    Witness,
    decide_realizability,
    normalize_to_tree,
    rank2_norm,
    reconstruct,
    verify,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
