"""Reconstruction and realizability decisions for uniform phased matroids.

A uniform canonical phirotope that is not essentially oriented has at most
one realization in canonical form.  Its entry phases are forced directly; the
entry norms are recovered by a four-pass sweep of triangular equations, each
equating a forced 2x2 minor phase with the phase of a difference of two known
sides.  A final full verification of every maximal minor phase then decides
realizability: the phirotope is realizable iff the reconstructed candidate
reproduces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .canonical import (
    CanonicalizationResult,
    _scan_forest,
    canonicalize,
    entry_phase,
    is_real_valued,
    minor_phase,
    _pinned_on,
    tree_potentials,
)
from .errors import (
    DisconnectedGraphError,
    EssentiallyOrientedError,
    InfeasibleTriangleError,
    NotCanonicalError,
    PhasedMatroidError,
)
from .matrices import ComplexMatrix
from .phases import VERIFY_TOLERANCE, Phase, triangle_solve
from .phirotopes import Phirotope, Rephasing, is_uniform, minor_phases

ESSENTIALLY_ORIENTED = "essentially_oriented"
NOT_UNIFORM = "not_uniform"
NOT_A_PHIROTOPE = "not_a_phirotope"
DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class Witness:
    """A basis where a candidate matrix disagrees with the phirotope."""

    basis: tuple
    expected: Phase
    computed: Phase


@dataclass(frozen=True)
class Realizable:
    matrix: ComplexMatrix
    rho: Rephasing
    global_phase: Phase


@dataclass(frozen=True)
class NotRealizable:
    witness: Optional[Witness] = None
    infeasible_equation: Optional[str] = None
    matrix: Optional[ComplexMatrix] = None


@dataclass(frozen=True)
class Unsupported:
    reason: str
    detail: Optional[str] = None


RealizabilityVerdict = Union[Realizable, NotRealizable, Unsupported]


def _solve_entry(phi, alpha, norms, i, m, j, k):
    """Solve for the norm at 1-based (i, j) from the 2x2 minor on rows {i, m}
    and columns {j, k}, where the other three norms are known; the solution
    is written into ``norms``."""
    a, b = min(i, m), max(i, m)
    c, d = min(j, k), max(j, k)
    ac, ad = norms.item(a - 1, c - 1), norms.item(a - 1, d - 1)
    bc, bd = norms.item(b - 1, c - 1), norms.item(b - 1, d - 1)
    gamma = minor_phase(phi, (a, b), (c, d))
    phase1 = alpha[(a, c)] * alpha[(b, d)]
    phase2 = alpha[(a, d)] * alpha[(b, c)]
    if (i, j) in ((a, c), (b, d)):
        cofactor = bd if (i, j) == (a, c) else ac
        s1, s2 = None, ad * bc
    else:
        cofactor = bc if (i, j) == (a, d) else ad
        s1, s2 = ac * bd, None
    try:
        solved = triangle_solve(gamma, phase1, phase2, s1, s2, phi.tolerance)
    except InfeasibleTriangleError as exc:
        raise InfeasibleTriangleError(
            f"minor rows {{{a},{b}}} cols {{{c},{d}}}: {exc}") from exc
    norms[i - 1, j - 1] = solved / cofactor


def reconstruct(canon: CanonicalizationResult) -> ComplexMatrix:
    """Rebuild the canonical realization (I|N) of uniform ``canon.canonical``.

    Entry phases come straight from the phirotope; tree norms are 1; the rest
    are solved in four passes of triangular equations (row-major within a
    pass), each against an anchor built from non-real entries.  Phases are
    judged within ``canon.canonical.tolerance``.  Raises
    :class:`NotCanonicalError` unless it is uniform and pinned on
    ``canon.forest``, :class:`EssentiallyOrientedError` if some entry needs
    pass 4 and no non-real entry exists, and :class:`InfeasibleTriangleError`
    when some equation has no positive solution (evidence of non-realizability).
    """
    canonical = canon.canonical
    r, n = canonical.r, canonical.n
    if not (is_uniform(canonical) and _pinned_on(canonical, canon.forest)):
        raise NotCanonicalError("reconstruction requires a uniform canonical phirotope")

    alpha = {(i, j): entry_phase(canonical, i, j)
             for i in range(1, r + 1) for j in range(r + 1, n + 1)}
    free = [(i, j) for i in range(1, r) for j in range(r + 2, n + 1)]
    real = {key: alpha[key].is_real(canonical.tolerance) for key in free}
    non_real = [key for key in free if not real[key]]
    row_anchor, col_anchor = {}, {}  # first non-real column of a row, row of a column
    for i, j in non_real:
        row_anchor.setdefault(i, j)
        col_anchor.setdefault(j, i)
    plan = []  # (pass, i, j, m, k): solve (i, j) from the minor on rows {i, m}, cols {j, k}
    for i, j in free:
        if not real[(i, j)]:  # against the all-ones row r and column r+1
            plan.append((1, i, j, r, r + 1))
        elif i in row_anchor:
            plan.append((2, i, j, r, row_anchor[i]))
        elif j in col_anchor:
            plan.append((3, i, j, col_anchor[j], r + 1))
        elif non_real:  # all-real row and column: against the first non-real entry
            plan.append((4, i, j) + non_real[0])
        else:
            raise EssentiallyOrientedError(
                "no non-real entry available to anchor the reconstruction")
    norms = np.full((r, n), np.nan)  # the identity block, the all-ones tree, nan where unknown
    norms[:, :r] = np.eye(r)
    norms[r - 1, r:] = 1.0
    norms[:, r] = 1.0
    for _, i, j, m, k in sorted(plan):
        _solve_entry(canonical, alpha, norms, i, m, j, k)

    angles = np.zeros((r, n))
    for (i, j), p in alpha.items():
        angles[i - 1, j - 1] = p.angle
    return ComplexMatrix(norms, angles)


def verify(phi: Phirotope, m: ComplexMatrix) -> Optional[Witness]:
    """Compare every value of phi with the minor phases of m, within
    ``VERIFY_TOLERANCE``.

    Returns the lexicographically first mismatching basis as a witness, or
    ``None`` when the matrix realizes the phirotope.
    """
    if m.rows != phi.r or m.cols != phi.n:
        raise ValueError("matrix dimensions do not match the phirotope")
    computed = minor_phases(m)
    for basis, expected in phi.values.items():
        if not expected.isclose(computed[basis], VERIFY_TOLERANCE):
            return Witness(basis, expected, computed[basis])
    return None


def _decide_from_reconstruction(phi: Phirotope) -> RealizabilityVerdict:
    """The verdict of uniformity, canonicalization, reconstruction and
    verification, without the Grassmann-Pluecker check."""
    if not is_uniform(phi):
        return Unsupported(NOT_UNIFORM)
    try:
        canon = canonicalize(phi)
    except DisconnectedGraphError as exc:
        return Unsupported(DISCONNECTED, detail=str(exc))
    if is_real_valued(canon.canonical):
        return Unsupported(ESSENTIALLY_ORIENTED)
    try:
        matrix = reconstruct(canon)
    except InfeasibleTriangleError as exc:
        return NotRealizable(infeasible_equation=str(exc))
    except EssentiallyOrientedError as exc:
        return Unsupported(ESSENTIALLY_ORIENTED, detail=str(exc))
    witness = verify(canon.canonical, matrix)
    if witness is not None:
        return NotRealizable(witness=witness, matrix=matrix)
    return Realizable(matrix, canon.rho, canon.global_phase)


def decide_realizability(phi: Phirotope) -> RealizabilityVerdict:
    """Full realizability pipeline for a phirotope.

    Requires uniformity, canonicalizes, refuses essentially oriented inputs
    (deciding those is the oriented-matroid problem), reconstructs the
    canonical realization and verifies it.  Verification is always the last
    gate before a Realizable verdict, and a verified matrix certifies the
    Grassmann-Pluecker relations, because the minors of a matrix satisfy them;
    so the GP sweep (``Phirotope.check_gp``, in blocks of bounded memory)
    runs only when the pipeline ends in another verdict or raises a
    ``PhasedMatroidError``.  A GP violation then gives
    ``Unsupported(NOT_A_PHIROTOPE)``; otherwise the pipeline's verdict stands,
    or its error is raised again.
    """
    try:
        verdict = _decide_from_reconstruction(phi)
    except PhasedMatroidError as exc:
        verdict = exc
    if isinstance(verdict, Realizable):
        return verdict
    violations = phi.check_gp()
    if violations:
        x, y = violations[0]
        return Unsupported(NOT_A_PHIROTOPE,
                           detail=f"{len(violations)} violations, first at X={x}, Y={y}")
    if isinstance(verdict, PhasedMatroidError):
        raise verdict
    return verdict


def normalize_to_tree(m: ComplexMatrix, values: Sequence[float]) -> ComplexMatrix:
    """Rescale a standard-form matrix so each spanning-forest edge carries a prescribed norm.

    The forest is ``canonical_spanning_forest``'s scan over the nonzero entries
    (i, j), i <= r < j, of m, and ``values`` follow its edges: for a standard-form
    realization of phi, ``canonical_spanning_forest(phi).edges``.  Row and column
    scalars are positive reals propagated along the forest, one tree per component,
    so all phases and columns 1..r, which must be diagonal, are unchanged; the
    result is the unique such scaling-equivalent matrix.
    """
    r, n = m.rows, m.cols
    for i, k in np.argwhere(m.norms[:, :r] != 0.0) + 1:
        if i != k:
            raise ValueError(f"columns 1..{r} must be diagonal, but entry ({i}, {k}) is nonzero")
    forest = _scan_forest(r, n, {(i, j) for i in range(1, r + 1) for j in range(r + 1, n + 1)
                                 if m.norms[i - 1, j - 1] != 0.0})
    values = list(values)
    if len(values) != len(forest.edges):
        raise ValueError(f"need {len(forest.edges)} values, one per forest edge, got {len(values)}")
    if not all(0.0 < v < math.inf for v in values):  # NaN fails both comparisons
        raise ValueError("tree values must be positive and finite")
    deltas = [math.log(v) - math.log(m.entry_norm(i, j)) for (i, j), v in zip(forest.edges, values)]
    # q = -log(row scalar) on rows and +log(column scalar) on columns, so the
    # factor on entry (i, j) is exp(q[j] - q[i]) and an edge fixes q[j] - q[i]
    q = tree_potentials(n, forest.edges, deltas, 1)

    norms = m.norms.copy()
    for i in range(1, r + 1):
        for j in range(r + 1, n + 1):
            norms[i - 1, j - 1] *= math.exp(q[j] - q[i])
    return ComplexMatrix(norms, m.angles)
