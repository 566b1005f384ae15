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
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .canonical import (
    CanonicalizationResult,
    _entry_angles,
    _minor_angles,
    _pinned_on,
    _real,
    _scan_forest,
    canonicalize,
    is_real_valued,
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
from .phases import (
    VERIFY_TOLERANCE,
    Phase,
    _circular_distance_array,
    _normalize_array,
    triangle_solve,
)
from .phirotopes import Phirotope, Rephasing, _bases, _phase, is_uniform, minor_phases

ESSENTIALLY_ORIENTED = "essentially_oriented"
NOT_UNIFORM = "not_uniform"
NOT_A_PHIROTOPE = "not_a_phirotope"
DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class Witness:
    """A basis where a candidate matrix disagrees with the phirotope.

    ``disagreeing`` marks every such basis, one read-only bool per basis in
    lex order, when the witness comes from ``verify``; it takes no part in
    comparison or repr.
    """

    basis: tuple
    expected: Phase
    computed: Phase
    disagreeing: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


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


def reconstruct(canon: CanonicalizationResult) -> ComplexMatrix:
    """Rebuild the canonical realization (I|N) of uniform ``canon.canonical``.

    Entry phases come straight from the phirotope; tree norms are 1; the rest
    are solved in four passes of triangular equations, each against an
    anchor built from non-real entries.  An equation reads only norms of
    earlier passes, so the phases of every equation are gathered at once and
    the equations are solved one at a time, by pass and then in row-major
    order.  Phases are judged within ``canon.canonical.tolerance``.  Raises
    :class:`NotCanonicalError` unless it is uniform and pinned on
    ``canon.forest``, :class:`EssentiallyOrientedError` if some entry needs
    pass 4 and no non-real entry exists, and :class:`InfeasibleTriangleError`
    when some equation has no positive solution (evidence of non-realizability),
    naming the first such equation in pass and row-major order.
    """
    canonical = canon.canonical
    r, n = canonical.r, canonical.n
    if not (is_uniform(canonical) and _pinned_on(canonical, canon.forest)):
        raise NotCanonicalError("reconstruction requires a uniform canonical phirotope")

    entries = _entry_angles(canonical)
    norms = np.full((r, n), np.nan)  # the identity block, the all-ones tree, nan where unknown
    norms[:, :r] = np.eye(r)
    norms[r - 1, r:] = 1.0
    norms[:, r] = 1.0
    # the free entries (i, j), i < r and j > r + 1, at [i - 1, j - r - 2]
    non_real = ~_real(entries[:r - 1, 1:], canonical.tolerance.eps)
    if non_real.size:
        if not non_real.any():
            raise EssentiallyOrientedError(
                "no non-real entry available to anchor the reconstruction")
        in_row, in_col = non_real.any(axis=1)[:, None], non_real.any(axis=0)
        row_anchor = non_real.argmax(axis=1)[:, None] + r + 2  # its first non-real column
        col_anchor = non_real.argmax(axis=0) + 1  # its first non-real row
        first = np.unravel_index(non_real.argmax(), non_real.shape)  # in row-major order
        # pass 1: non-real, against the all-ones row r and column r + 1;
        # pass 2: against the row's anchor; pass 3: against the column's
        # anchor; pass 4: all-real row and column, against the first non-real
        # entry.  (i, j) is solved from the minor on rows {i, m}, columns {j, k}.
        passes = np.where(non_real, 1, np.where(in_row, 2, np.where(in_col, 3, 4)))
        m = np.where(passes <= 2, r, np.where(passes == 3, col_anchor, first[0] + 1))
        k = np.where(passes % 2 == 1, r + 1, np.where(passes == 2, row_anchor, first[1] + r + 2))
        order = np.argsort(passes, axis=None, kind="stable")  # by pass, then row-major
        i, j = np.unravel_index(order, passes.shape)
        i, j, m, k = i + 1, j + r + 2, m.flat[order], k.flat[order]
        a, b = np.minimum(i, m), np.maximum(i, m)
        c, d = np.minimum(j, k), np.maximum(j, k)
        rows, cols = np.array([a, a, b, b]) - 1, np.array([c, d, d, c]) - r - 1
        # the phases of the products ac*bd and ad*bc of entries, as Phase products
        phase1, phase2 = _normalize_array(entries[rows[:2], cols[:2]] + entries[rows[2:], cols[2:]])
        gammas = _minor_angles(canonical, (a, b), (c, d))
        table = norms.tolist()
        for row, col, top, bottom, left, right, gamma, alpha, beta in zip(
                *np.array([i, j, a, b, c, d]).tolist(), gammas.tolist(), phase1.tolist(),
                phase2.tolist()):
            if (row == top) == (col == left):  # (row, col) is (a, c) or (b, d): s1 unknown
                sides = None, table[top - 1][right - 1] * table[bottom - 1][left - 1]
            else:
                sides = table[top - 1][left - 1] * table[bottom - 1][right - 1], None
            try:
                solved = triangle_solve(gamma, alpha, beta, *sides, canonical.tolerance)
            except InfeasibleTriangleError as exc:
                raise InfeasibleTriangleError(
                    f"minor rows {{{top},{bottom}}} cols {{{left},{right}}}: {exc}") from exc
            # over the opposite corner (m, k) = (a + b - i, c + d - j)
            table[row - 1][col - 1] = solved / table[top + bottom - row - 1][left + right - col - 1]
        norms = np.array(table)

    angles = np.zeros((r, n))
    angles[:, r:] = entries
    return ComplexMatrix(norms, angles)


def verify(phi: Phirotope, m: ComplexMatrix) -> Optional[Witness]:
    """Compare every value of phi with the minor phases of m, within
    ``VERIFY_TOLERANCE``.

    Returns the lexicographically first mismatching basis as a witness, with
    every mismatch marked in its ``disagreeing``, or ``None`` when the matrix
    realizes the phirotope.
    """
    if m.rows != phi.r or m.cols != phi.n:
        raise ValueError("matrix dimensions do not match the phirotope")
    expected, computed = phi.angles, minor_phases(m)
    zero = np.isnan(expected)
    agree = np.where(zero, np.isnan(computed),
                     _circular_distance_array(expected, computed) < VERIFY_TOLERANCE.eps)
    if agree.all():
        return None
    disagreeing = ~agree
    disagreeing.flags.writeable = False
    k = np.argmax(disagreeing)  # the first mismatch
    return Witness(tuple(_bases(phi.n, phi.r)[k].tolist()),
                   _phase(expected.item(k)), _phase(computed.item(k)), disagreeing)


def _decide(phi: Phirotope):
    """(canon, verdict): the realizability pipeline and its one
    Grassmann-Pluecker gate.

    The pipeline checks uniformity, canonicalizes, refuses essentially
    oriented inputs, reconstructs and verifies; canon is None when phi is
    not uniform or ``canonicalize`` raised, and a ``PhasedMatroidError``
    raised is the verdict.  A Realizable verdict is returned as it is: its
    verified matrix certifies the relations, because the minors of a matrix
    satisfy them.  After a failed verification the matrix still certifies
    every relation that reads only bases where it agrees with the canonical
    phirotope, since GP is invariant under rephasing; so the sweep (that of
    ``Phirotope.check_gp``, in blocks of bounded memory) reads only the
    relations with a term on a basis of the witness's ``disagreeing`` set
    (all of them when that set is large).  Every other verdict sweeps all
    pairs.  A violation makes the verdict ``Unsupported(NOT_A_PHIROTOPE)``,
    with the swept count of violations and the first of them, the only one
    decoded; otherwise the verdict stands, a ``PhasedMatroidError`` too,
    which the caller raises.
    """
    canon = touching = None
    try:
        if not is_uniform(phi):
            verdict = Unsupported(NOT_UNIFORM)
        else:
            canon = canonicalize(phi)
            if is_real_valued(canon.canonical):
                verdict = Unsupported(ESSENTIALLY_ORIENTED)
            else:
                matrix = reconstruct(canon)
                witness = verify(canon.canonical, matrix)
                if witness is None:
                    return canon, Realizable(matrix, canon.rho, canon.global_phase)
                touching = witness.disagreeing
                verdict = NotRealizable(witness=witness, matrix=matrix)
    except DisconnectedGraphError as exc:
        verdict = Unsupported(DISCONNECTED, detail=str(exc))
    except InfeasibleTriangleError as exc:
        verdict = NotRealizable(infeasible_equation=str(exc))
    except EssentiallyOrientedError as exc:
        verdict = Unsupported(ESSENTIALLY_ORIENTED, detail=str(exc))
    except PhasedMatroidError as exc:
        verdict = exc
    count, first = phi._first_gp_violation(touching)
    if count:
        x, y = first
        verdict = Unsupported(NOT_A_PHIROTOPE, detail=f"{count} violations, first at X={x}, Y={y}")
    return canon, verdict


def decide_realizability(phi: Phirotope) -> RealizabilityVerdict:
    """Full realizability pipeline for a phirotope: uniformity,
    canonicalization, refusal of essentially oriented inputs (deciding those
    is the oriented-matroid problem), reconstruction of the canonical
    realization, its verification, and the Grassmann-Pluecker gate of
    ``_decide``.  A pipeline error that the gate leaves standing is raised."""
    verdict = _decide(phi)[1]
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
    forest = _scan_forest(r, n, m.norms[:, r:] != 0.0)
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
