"""Exception hierarchy for the phased-matroids package."""


class PhasedMatroidError(Exception):
    """Base class for all package-specific errors."""


class IndexOutOfRangeError(PhasedMatroidError, IndexError):
    """A ground-set or row index falls outside its valid range."""


class RankDeficientError(PhasedMatroidError):
    """A matrix has no nonzero maximal minor."""


class DegenerateTriangleError(PhasedMatroidError):
    """A triangular equation cannot be solved because its directions are
    (anti)parallel within tolerance."""


class InfeasibleTriangleError(DegenerateTriangleError):
    """A triangular equation has no solution with strictly positive norms.

    Subclasses :class:`DegenerateTriangleError` because a singular linear
    system (gamma equal to plus/minus the known side's phase) also admits no
    strictly positive solution under the equation's invariants; callers that
    only care about "unsolvable" can catch the base class.
    """


class FirstSubsetNotBasisError(PhasedMatroidError):
    """{1, ..., r} is not a basis of the underlying matroid."""


class DisconnectedGraphError(PhasedMatroidError):
    """The associated bipartite graph is disconnected (e.g. a direct sum)."""


class NotCanonicalError(PhasedMatroidError):
    """A phirotope expected to be in canonical form, or uniform, is not."""


class EssentiallyOrientedError(PhasedMatroidError):
    """Reconstruction requires a non-real anchor entry, but none exists."""


class InvalidPhirotopeError(PhasedMatroidError):
    """The full Grassmann-Pluecker sweep found violations, listed in
    ``violations``; raised only by ``Phirotope._require_gp``."""

    def __init__(self, violations):
        self.violations = violations
        preview = ", ".join(f"X={x} Y={y}" for x, y in violations[:3])
        more = "" if len(violations) <= 3 else f" (+{len(violations) - 3} more)"
        super().__init__(f"Grassmann-Pluecker violations: {preview}{more}")
