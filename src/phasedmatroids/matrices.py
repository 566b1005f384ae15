"""Minimal complex linear algebra for realization matrices.

Matrices are stored in polar form (entrywise norm and phase) because phases
are the primary observable; determinants are computed in Cartesian form and
converted back.  Row and column indices in the public API are 1-based, to
match the ground-set conventions used throughout the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    SingularLeadingBlockError,
    ZeroScalarError,
)
from .phases import ZERO, ZERO_MAGNITUDE_CUTOFF, Phase

#: Most complex entries ``all_maximal_minors`` stacks for one determinant call,
#: bar a single larger r x r block, so memory does not grow with r**2 x minors.
DET_STACK_ENTRIES = 2**16


@dataclass(frozen=True)
class ComplexMatrix:
    """A dense r x n complex matrix in (norm, phase) form, r <= n.

    ``norms`` and ``angles`` are r x n float arrays; ``angles[i, j]`` is
    meaningful only where ``norms[i, j] > 0`` (zero entries keep angle 0).
    """

    norms: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        norms = np.asarray(self.norms, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        if norms.shape != angles.shape or norms.ndim != 2:
            raise ValueError("norms and angles must be equal-shape 2-d arrays")
        if norms.shape[0] > norms.shape[1]:
            raise ValueError("matrix must have at least as many columns as rows")
        if not (np.isfinite(norms).all() and np.isfinite(angles).all()):
            raise ValueError("entry norms and angles must be finite")
        if (norms < 0).any():
            raise ValueError("entry norms must be nonnegative")
        angles = np.where(norms > 0, np.mod(angles, 2 * np.pi), 0.0)
        norms = norms.copy()
        norms.flags.writeable = False
        angles.flags.writeable = False
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "angles", angles)

    @property
    def rows(self) -> int:
        return self.norms.shape[0]

    @property
    def cols(self) -> int:
        return self.norms.shape[1]

    @classmethod
    def from_complex(cls, arr) -> "ComplexMatrix":
        """Entries of magnitude below ``ZERO_MAGNITUDE_CUTOFF`` become zero."""
        a = np.asarray(arr, dtype=complex)
        norms = np.abs(a)
        angles = np.angle(a)
        zero = norms < ZERO_MAGNITUDE_CUTOFF
        norms = np.where(zero, 0.0, norms)
        angles = np.where(zero, 0.0, angles)
        return cls(norms, angles)

    def to_complex(self) -> np.ndarray:
        return self.norms * np.exp(1j * self.angles)

    def entry_phase(self, i: int, j: int) -> Phase:
        """Phase of the entry at 1-based (i, j), exact from storage."""
        self._check_index(i, j)
        if self.norms[i - 1, j - 1] == 0.0:
            return ZERO
        return Phase.from_angle(self.angles[i - 1, j - 1])

    def entry_norm(self, i: int, j: int) -> float:
        self._check_index(i, j)
        return float(self.norms[i - 1, j - 1])

    def _check_index(self, i: int, j: int):
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexOutOfRangeError(f"entry ({i}, {j}) outside {self.rows} x {self.cols}")

    def max_distance(self, other: "ComplexMatrix") -> float:
        """Largest entrywise complex distance to another matrix."""
        return float(np.abs(self.to_complex() - other.to_complex()).max())


def _dets(stacked: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square complex blocks, shape (k, r, r):
    cofactor expansion up to 3x3, LU with partial pivoting (LAPACK) beyond."""
    r = stacked.shape[1]
    if r == 1:
        return stacked[:, 0, 0]
    if r == 2:
        return stacked[:, 0, 0] * stacked[:, 1, 1] - stacked[:, 0, 1] * stacked[:, 1, 0]
    if r == 3:
        return (
            stacked[:, 0, 0] * (stacked[:, 1, 1] * stacked[:, 2, 2] - stacked[:, 1, 2] * stacked[:, 2, 1])
            - stacked[:, 0, 1] * (stacked[:, 1, 0] * stacked[:, 2, 2] - stacked[:, 1, 2] * stacked[:, 2, 0])
            + stacked[:, 0, 2] * (stacked[:, 1, 0] * stacked[:, 2, 1] - stacked[:, 1, 1] * stacked[:, 2, 0])
        )
    return np.linalg.det(stacked)


def maximal_minor(m: ComplexMatrix, columns) -> complex:
    """Determinant of the selected columns (1-based, in the given order).

    Repeated columns give 0 exactly.
    """
    cols = tuple(columns)
    if len(cols) != m.rows:
        raise ValueError(f"need exactly {m.rows} column indices, got {len(cols)}")
    for j in cols:
        if not (1 <= j <= m.cols):
            raise IndexOutOfRangeError(f"column {j} outside [1, {m.cols}]")
    if len(set(cols)) != len(cols):
        return 0j
    block = m.to_complex()[:, [j - 1 for j in cols]]
    return complex(_dets(block[None])[0])


def all_maximal_minors(m: ComplexMatrix) -> dict[tuple, complex]:
    """Determinants of all sorted r-subsets of columns, batch-computed in
    stacks of at most ``DET_STACK_ENTRIES`` entries."""
    r, n = m.rows, m.cols
    arr = m.to_complex()
    subsets = list(itertools.combinations(range(n), r))
    step = max(1, DET_STACK_ENTRIES // (r * r))  # stacks of shape (step, r, r), one alive at a time
    dets = itertools.chain.from_iterable(_dets(arr[:, np.asarray(subsets[k:k + step])].transpose(1, 0, 2))
                                         for k in range(0, len(subsets), step))
    return {tuple(j + 1 for j in sub): complex(d) for sub, d in zip(subsets, dets)}


def scale(m: ComplexMatrix, row_scalars, col_scalars) -> ComplexMatrix:
    """Multiply entry (i, j) by row_scalars[i] * col_scalars[j] (all nonzero)."""
    rs = np.asarray(row_scalars, dtype=complex)
    cs = np.asarray(col_scalars, dtype=complex)
    if rs.shape != (m.rows,) or cs.shape != (m.cols,):
        raise ValueError("need one scalar per row and per column")
    if (np.abs(rs) < ZERO_MAGNITUDE_CUTOFF).any() or (np.abs(cs) < ZERO_MAGNITUDE_CUTOFF).any():
        raise ZeroScalarError("row and column scalars must be nonzero")
    norms = m.norms * np.abs(rs)[:, None] * np.abs(cs)[None, :]
    angles = m.angles + np.angle(rs)[:, None] + np.angle(cs)[None, :]
    return ComplexMatrix(norms, np.where(norms > 0, angles, 0.0))


def to_standard_form(m: ComplexMatrix) -> ComplexMatrix:
    """The unique (I|N) representative of the left GL(r) orbit of m.

    Requires columns 1..r linearly independent.
    """
    r = m.rows
    arr = m.to_complex()
    lead = arr[:, :r]
    if abs(_dets(lead[None])[0]) < ZERO_MAGNITUDE_CUTOFF:
        raise SingularLeadingBlockError("columns 1..r are not a basis")
    reduced = np.linalg.solve(lead, arr)
    reduced[:, :r] = np.eye(r)
    return ComplexMatrix.from_complex(reduced)
