"""Minimal complex linear algebra for realization matrices.

Matrices are stored in polar form (entrywise norm and phase) because phases
are the primary observable; determinants are computed in Cartesian form and
converted back.  Row and column indices in the public API are 1-based, to
match the ground-set conventions used throughout the package.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError
from .phases import ZERO, ZERO_MAGNITUDE_CUTOFF, Phase

#: Most complex entries ``all_maximal_minors`` stacks for one determinant call,
#: bar a single larger r x r block, so memory does not grow with r**2 x minors.
DET_STACK_ENTRIES = 2**16


def _is_integer(k) -> bool:
    """Whether k can be an index or a JSON count: a numpy integer, or a Python
    int that is not a bool (an int to isinstance, and how Python's json reads
    true and false).  Python ints are tested first: JSON parsing tests each."""
    return isinstance(k, int) and not isinstance(k, bool) or isinstance(k, np.integer)


@functools.lru_cache(maxsize=8)
def _bases(n: int, r: int) -> np.ndarray:
    """The sorted r-subsets of [n], one per row in lex order; read-only."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), r))
    bases = np.fromiter(flat, dtype=np.intp, count=math.comb(n, r) * r).reshape(-1, r)
    bases.flags.writeable = False
    return bases


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
        if not 1 <= norms.shape[0] <= norms.shape[1]:
            raise ValueError("matrix must have at least one row and as many columns as rows")
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
        return cls(np.where(norms < ZERO_MAGNITUDE_CUTOFF, 0.0, norms), np.angle(a))

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
        if not (_is_integer(i) and _is_integer(j) and 1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexOutOfRangeError(f"entry ({i!r}, {j!r}) outside {self.rows} x {self.cols}")


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


def all_maximal_minors(m: ComplexMatrix) -> np.ndarray:
    """Determinants of all sorted r-subsets of columns, in lex order of the
    subsets, batch-computed in stacks of at most ``DET_STACK_ENTRIES`` entries."""
    arr, subsets = m.to_complex(), _bases(m.cols, m.rows) - 1
    step = max(1, DET_STACK_ENTRIES // m.rows**2)  # stacks (step, r, r), one alive at a time
    return np.concatenate([_dets(arr[:, subsets[k:k + step]].transpose(1, 0, 2))
                           for k in range(0, len(subsets), step)])
