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
    SpanningForest,
    _UnionFind,
    canonicalize,
    entry_phase,
    is_canonical,
    minor_phase,
)
from .errors import (
    DegenerateTriangleError,
    DisconnectedGraphError,
    EssentiallyOrientedError,
    InfeasibleTriangleError,
    NonSpanningForestError,
    NotCanonicalError,
)
from .matrices import ComplexMatrix, all_maximal_minors
from .phases import (
    DEFAULT_TOLERANCE,
    Phase,
    Tolerance,
    TriangleEquation,
    phase_of,
    triangle_solve,
)
from .phirotopes import Phirotope, Rephasing, is_uniform

#: Default tolerance for comparing phirotope values against computed minor
#: phases; looser than the angular tolerance because reconstructed norms carry
#: accumulated floating error from the triangle solves.
VERIFY_TOLERANCE = Tolerance(1e-6)

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


@dataclass
class NormGrid:
    """Partially-filled entry norms of a canonical realization.

    Tree entries (row r and column r+1) are fixed to 1; the remaining norms
    are filled in by the reconstruction passes.  Entries are keyed by 1-based
    (row, column) with column > rank.
    """

    rank: int
    ground_size: int
    norms: dict = field(default_factory=dict)

    def __post_init__(self):
        r, n = self.rank, self.ground_size
        for i in range(1, r + 1):
            self.norms[(i, r + 1)] = 1.0
        for j in range(r + 1, n + 1):
            self.norms[(r, j)] = 1.0

    def known(self, i: int, j: int) -> bool:
        return (i, j) in self.norms

    def __getitem__(self, key) -> float:
        return self.norms[key]

    def __setitem__(self, key, value: float):
        if value <= 0.0:
            raise ValueError("entry norms must be positive")
        self.norms[key] = value

    def missing(self):
        r, n = self.rank, self.ground_size
        return [(i, j) for i in range(1, r) for j in range(r + 2, n + 1)
                if (i, j) not in self.norms]


def _solve_entry(phi, alpha, grid, i, m, j, k, tol):
    """Solve for the norm at (i, j) from the 2x2 minor on rows {i, m} and
    columns {j, k}, where the other three norms are known."""
    a, b = min(i, m), max(i, m)
    c, d = min(j, k), max(j, k)
    gamma = minor_phase(phi, (a, b), (c, d))
    phase1 = alpha[(a, c)] * alpha[(b, d)]
    phase2 = alpha[(a, d)] * alpha[(b, c)]
    in_first = (i, j) in ((a, c), (b, d))
    if in_first:
        cofactor = grid[(b, d)] if (i, j) == (a, c) else grid[(a, c)]
        s2 = grid[(a, d)] * grid[(b, c)]
        eq = TriangleEquation(gamma, phase1, phase2, s1=None, s2=s2)
    else:
        cofactor = grid[(b, c)] if (i, j) == (a, d) else grid[(a, d)]
        s1 = grid[(a, c)] * grid[(b, d)]
        eq = TriangleEquation(gamma, phase1, phase2, s1=s1, s2=None)
    try:
        solved, _ = triangle_solve(eq, tol)
    except InfeasibleTriangleError as exc:
        raise InfeasibleTriangleError(
            f"minor rows {{{a},{b}}} cols {{{c},{d}}}: {exc}") from exc
    grid[(i, j)] = solved / cofactor
    return grid[(i, j)]


def reconstruct(canonical: Phirotope, tol: Tolerance = DEFAULT_TOLERANCE) -> ComplexMatrix:
    """Rebuild the canonical realization (I|N) of a uniform canonical phirotope.

    Entry phases come straight from the phirotope; tree norms are 1; the rest
    are solved in four passes of triangular equations, anchored at non-real
    entries (smallest row-major anchor when several exist).  Raises
    :class:`EssentiallyOrientedError` if no non-real anchor exists and
    :class:`InfeasibleTriangleError` when some equation has no positive
    solution (evidence of non-realizability).
    """
    r, n = canonical.r, canonical.n
    if not is_uniform(canonical):
        raise NotCanonicalError("reconstruction requires a uniform phirotope")
    if not is_canonical(canonical, tol):
        raise NotCanonicalError("phirotope is not in canonical form")

    alpha = {(i, j): entry_phase(canonical, i, j)
             for i in range(1, r + 1) for j in range(r + 1, n + 1)}
    real = {key: p.is_real(tol) for key, p in alpha.items()}
    grid = NormGrid(r, n)

    free_cols = range(r + 2, n + 1)
    # pass 1: non-real entries, against the all-ones row r and column r+1
    for i in range(1, r):
        for j in free_cols:
            if not real[(i, j)]:
                _solve_entry(canonical, alpha, grid, i, r, j, r + 1, tol)
    # pass 2: real entries in a row that has a non-real entry
    for i in range(1, r):
        anchors = [j for j in free_cols if not real[(i, j)]]
        if not anchors:
            continue
        k = anchors[0]
        for j in free_cols:
            if real[(i, j)]:
                _solve_entry(canonical, alpha, grid, i, r, j, k, tol)
    # pass 3: all-real rows, entries in a column that has a non-real entry
    for i in range(1, r):
        if any(not real[(i, j)] for j in free_cols):
            continue
        for j in free_cols:
            col_anchors = [m for m in range(1, r) if not real[(m, j)]]
            if col_anchors:
                _solve_entry(canonical, alpha, grid, i, col_anchors[0], j, r + 1, tol)
    # pass 4: all-real rows and columns, against any non-real anchor entry
    anchor = next(((m, k) for m in range(1, r) for k in free_cols if not real[(m, k)]), None)
    for (i, j) in grid.missing():
        if anchor is None:
            raise EssentiallyOrientedError(
                "no non-real entry available to anchor the reconstruction")
        m, k = anchor
        _solve_entry(canonical, alpha, grid, i, m, j, k, tol)

    norms = np.zeros((r, n))
    angles = np.zeros((r, n))
    norms[:, :r] = np.eye(r)
    for i in range(1, r + 1):
        for j in range(r + 1, n + 1):
            norms[i - 1, j - 1] = grid[(i, j)]
            angles[i - 1, j - 1] = alpha[(i, j)].angle
    return ComplexMatrix(norms, angles)


def verify(phi: Phirotope, m: ComplexMatrix,
           tol: Tolerance = VERIFY_TOLERANCE) -> Optional[Witness]:
    """Compare every value of phi with the minor phases of m.

    Returns the lexicographically first mismatching basis as a witness, or
    ``None`` when the matrix realizes the phirotope.
    """
    if m.rows != phi.r or m.cols != phi.n:
        raise ValueError("matrix dimensions do not match the phirotope")
    minors = all_maximal_minors(m)
    for basis in phi.sorted_bases():
        expected = phi.values[basis]
        computed = phase_of(minors[basis])
        if not expected.isclose(computed, tol):
            return Witness(basis, expected, computed)
    return None


def decide_realizability(phi: Phirotope,
                         verify_tol: Tolerance = VERIFY_TOLERANCE) -> RealizabilityVerdict:
    """Full realizability pipeline for a phirotope.

    Validates the Grassmann-Pluecker relations, requires uniformity,
    canonicalizes, refuses essentially oriented inputs (deciding those is the
    oriented-matroid problem), reconstructs the canonical realization and
    verifies it.  Verification is always the last gate before a Realizable
    verdict.
    """
    violations = phi.check_gp()
    if violations:
        x, y = violations[0]
        return Unsupported(NOT_A_PHIROTOPE,
                           detail=f"{len(violations)} violations, first at X={x}, Y={y}")
    if not is_uniform(phi):
        return Unsupported(NOT_UNIFORM)
    try:
        canon = canonicalize(phi)
    except DisconnectedGraphError as exc:
        return Unsupported(DISCONNECTED, detail=str(exc))
    if all(p.is_real(phi.tolerance) for p in canon.canonical.values.values()):
        return Unsupported(ESSENTIALLY_ORIENTED)
    try:
        matrix = reconstruct(canon.canonical, phi.tolerance)
    except InfeasibleTriangleError as exc:
        return NotRealizable(infeasible_equation=str(exc))
    except EssentiallyOrientedError as exc:
        return Unsupported(ESSENTIALLY_ORIENTED, detail=str(exc))
    witness = verify(canon.canonical, matrix, verify_tol)
    if witness is not None:
        return NotRealizable(witness=witness, matrix=matrix)
    return Realizable(matrix, canon.rho, canon.global_phase)


def rank2_norm(canonical: Phirotope, j: int, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Norm of entry (1, j) of the canonical realization of a rank-2 phirotope.

    Solved through the general triangular-equation machinery; the classical
    sine-ratio formula is equivalent up to sign conventions.
    """
    if canonical.r != 2:
        raise ValueError("rank2_norm requires a rank-2 phirotope")
    if not (3 < j <= canonical.n):
        raise ValueError(f"column {j} outside (3, {canonical.n}]")
    if not is_canonical(canonical, tol):
        raise NotCanonicalError("phirotope is not in canonical form")
    alpha = {(i, c): entry_phase(canonical, i, c)
             for i in (1, 2) for c in (3, j)}
    grid = NormGrid(2, canonical.n)
    return _solve_entry(canonical, alpha, grid, 1, 2, j, 3, tol)


def normalize_to_tree(m: ComplexMatrix, forest: SpanningForest,
                      values: Sequence[float]) -> ComplexMatrix:
    """Rescale a standard-form matrix so each forest edge carries a prescribed norm.

    Row and column scalars are positive reals propagated along the forest, so
    all phases are unchanged and the standard form is preserved.  The result
    is the unique such scaling-equivalent matrix.
    """
    r, n = m.rows, m.cols
    values = list(values)
    if len(values) != len(forest.edges):
        raise ValueError("need one value per forest edge")
    if any(v <= 0.0 for v in values):
        raise ValueError("tree values must be positive")
    uf = _UnionFind(n + 1)
    adjacency = {v: [] for v in range(1, n + 1)}
    for (i, j), val in zip(forest.edges, values):
        if not (1 <= i <= r < j <= n):
            raise NonSpanningForestError(f"edge ({i}, {j}) is not row-column")
        if not uf.union(i, j):
            raise NonSpanningForestError(f"edge ({i}, {j}) closes a cycle")
        if m.entry_norm(i, j) == 0.0:
            raise NonSpanningForestError(f"forest edge ({i}, {j}) sits on a zero entry")
        # log-potential constraint p[i] + p[j] = delta, symmetric in i and j
        delta = math.log(val) - math.log(m.entry_norm(i, j))
        adjacency[i].append((j, delta))
        adjacency[j].append((i, delta))

    potential = {}
    for root in range(1, n + 1):
        if root in potential:
            continue
        potential[root] = 0.0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, delta in adjacency[v]:
                if w in potential:
                    continue
                potential[w] = delta - potential[v]
                stack.append(w)

    norms = m.norms.copy()
    for i in range(1, r + 1):
        for j in range(r + 1, n + 1):
            norms[i - 1, j - 1] *= math.exp(potential[i] + potential[j])
    return ComplexMatrix(norms, m.angles)
