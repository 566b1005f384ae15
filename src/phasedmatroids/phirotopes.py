"""Phirotopes: alternating phase-valued maps on r-subsets of a ground set.

Values are stored once per sorted r-subset; evaluation on arbitrary ordered
tuples computes the sign of the sorting permutation on the fly.  Validation
checks the combinatorial complex Grassmann-Pluecker relations: for every
(r+1)-subset X and (r-1)-subset Y the alternating term multiset must contain
zero in its hypersum.  Y-subsets overlapping X are not skipped; since the map
is alternating, reorderings of Y change all terms by a common sign, which
never affects zero membership, so quantifying over sorted Y loses nothing.
The rule is stated in docs/formats.md, section "Grassmann-Pluecker check".
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidPhirotopeError,
    PhasedMatroidError,
    RankDeficientError,
)
from .matrices import ComplexMatrix, all_maximal_minors
from .phases import (
    DEFAULT_TOLERANCE,
    ZERO,
    ZERO_MAGNITUDE_CUTOFF,
    Phase,
    Tolerance,
    circular_distance,
    zero_in_hypersum_batch,
)

#: (X, Y) pairs per kernel call of ``Phirotope.check_gp``.  The sweep holds one
#: block of terms at a time, so its memory is bounded by (r+1) times this.
GP_BLOCK_COLUMNS = 2**16

#: Most values ``from_matrix`` computes: its C(n, r) values can far outgrow the
#: matrix it reads, while a phirotope input already lists its values.
MAX_MATRIX_MINORS = 2**16


def sort_with_sign(indices: Sequence[int]):
    """Sort a tuple and return (sorted tuple, sign of the sorting permutation).

    The sign is computed by insertion-sort inversion counting; repeated
    entries return sign 0.
    """
    items = list(indices)
    inversions = 0
    for k in range(1, len(items)):
        x = items[k]
        j = k - 1
        while j >= 0 and items[j] > x:
            items[j + 1] = items[j]
            j -= 1
            inversions += 1
        items[j + 1] = x
    for a, b in zip(items, items[1:]):
        if a == b:
            return tuple(items), 0
    return tuple(items), (-1) ** (inversions % 2)


@dataclass(frozen=True)
class Rephasing:
    """One nonzero phase per ground element, acting multiplicatively; element
    k's phase is ``rho[k - 1]``."""

    rho: tuple

    def __post_init__(self):
        rho = tuple(self.rho)
        if any(p.is_zero for p in rho):
            raise ValueError("rephasing entries must be nonzero phases")
        object.__setattr__(self, "rho", rho)

    def __len__(self):
        return len(self.rho)

    def inverse(self) -> "Rephasing":
        return Rephasing(tuple(p.inverse() for p in self.rho))

    @classmethod
    def identity(cls, n: int) -> "Rephasing":
        return cls(tuple(Phase(0.0) for _ in range(n)))


class Phirotope:
    """A rank-r phirotope on ground set [n], stored on sorted r-subsets.

    Construction validates the Grassmann-Pluecker relations unless
    ``validate=False``; deferred validation exists for performance-sensitive
    paths whose output is valid by construction, and for building deliberately
    invalid fixtures.
    """

    def __init__(self, ground_size: int, rank: int,
                 values: Mapping[tuple, Phase],
                 tolerance: Tolerance = DEFAULT_TOLERANCE,
                 validate: bool = True):
        if not (1 <= rank <= ground_size):
            raise ValueError("need 1 <= rank <= ground size")
        self.n = ground_size
        self.r = rank
        self.tolerance = tolerance
        vals = {}  # in lex order of the bases
        for b in itertools.combinations(range(1, ground_size + 1), rank):
            if b not in values:
                raise ValueError(f"missing value for basis {b}")
            vals[b] = values[b]
        self.values = vals
        if all(p.is_zero for p in vals.values()):
            raise ValueError("a phirotope is not identically zero")
        if validate:
            violations = self.check_gp()
            if violations:
                raise InvalidPhirotopeError(violations)

    def value(self, basis) -> Phase:
        return self.values[tuple(sorted(basis))]

    def evaluate(self, indices: Sequence[int]) -> Phase:
        """Alternating evaluation on an arbitrary ordered r-tuple."""
        idx = tuple(indices)
        if len(idx) != self.r:
            raise ValueError(f"need {self.r} indices, got {len(idx)}")
        for k in idx:
            if not (1 <= k <= self.n):
                raise IndexOutOfRangeError(f"index {k} outside [1, {self.n}]")
        srt, sign = sort_with_sign(idx)
        if sign == 0:
            return ZERO
        return self.values[srt].times_sign(sign)

    def check_gp(self):
        """All (X, Y) pairs violating the Grassmann-Pluecker relations.

        X ranges over sorted (r+1)-subsets and Y over sorted (r-1)-subsets of
        [n]; the result is lexicographically sorted and empty iff the map is a
        valid phirotope.  X is swept in lex order, about ``GP_BLOCK_COLUMNS``
        pairs per kernel call, so memory does not grow with the pair count.
        """
        n, r = self.n, self.r
        if n < r + 1:
            return []
        units = {b: p.unit() for b, p in self.values.items()}
        xsubs = list(itertools.combinations(range(1, n + 1), r + 1))
        ysubs = list(itertools.combinations(range(1, n + 1), r - 1))
        # ey[e, Y] = phi(e, *Y), 0 when e is in Y; row 0 is unused
        ey = np.zeros((n + 1, len(ysubs)), dtype=complex)
        for iy, y in enumerate(ysubs):
            for e in range(1, n + 1):
                if e not in y:
                    srt, sign = sort_with_sign((e,) + y)
                    ey[e, iy] = sign * units[srt]
        # dxT[k, X] = (-1)^(k+1) phi(X minus its k-th element), k = 0..r
        dxT = np.array([[(-1) ** (k + 1) * units[x[:k] + x[k + 1:]] for x in xsubs]
                        for k in range(r + 1)])
        xarr = np.asarray(xsubs).T
        # X in blocks of about GP_BLOCK_COLUMNS pairs; terms[k, X, Y] in C order,
        # so that a block is an (r+1, pairs) kernel input without a copy
        ny = len(ysubs)
        step = max(1, GP_BLOCK_COLUMNS // ny)
        bad = []
        for s in range(0, len(xsubs), step):
            terms = np.multiply(dxT[:, s:s + step, None], ey[xarr[:, s:s + step]], order="C")
            ok = zero_in_hypersum_batch(terms.reshape(r + 1, -1), self.tolerance.eps)
            bad.extend((s * ny + np.flatnonzero(~ok)).tolist())
        return [(xsubs[i // ny], ysubs[i % ny]) for i in bad]

    def __eq__(self, other):
        if not isinstance(other, Phirotope):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self.values == other.values

    def isclose(self, other: "Phirotope") -> bool:
        if self.n != other.n or self.r != other.r:
            return False
        return self.max_angular_distance(other) < self.tolerance.eps

    def max_angular_distance(self, other: "Phirotope") -> float:
        """Largest circular distance between corresponding nonzero values;
        infinity on a zero/nonzero mismatch.  Both must have the same (n, r)."""
        if (self.n, self.r) != (other.n, other.r):
            raise ValueError(f"cannot compare a ({self.r}, {self.n}) phirotope "
                             f"with a ({other.r}, {other.n}) one")
        worst = 0.0
        for b, p in self.values.items():
            q = other.values[b]
            if p.is_zero != q.is_zero:
                return math.inf
            if not p.is_zero:
                worst = max(worst, circular_distance(p.angle, q.angle))
        return worst

    def __repr__(self):
        return f"Phirotope(n={self.n}, r={self.r})"


def minor_phases(m: ComplexMatrix) -> dict[tuple, Phase]:
    """Phase of every maximal minor of m, basis -> Phase in lex order.

    A minor is zero when its magnitude is below ``ZERO_MAGNITUDE_CUTOFF``
    times the largest minor magnitude of m, so which minors vanish does not
    depend on the scale of m.  Minors that overflow, or whose cutoff is not a
    normal float, are recomputed from m times the power of two that puts its
    largest norm in [0.5, 1); other matrices are used as they are, because
    LAPACK's determinant (r > 3) rounds its phases differently at another scale.
    """
    with np.errstate(all="ignore"):  # overflow is detected below
        minors = all_maximal_minors(m)
    magnitudes = np.abs(list(minors.values()))
    if not (np.isfinite(magnitudes).all()
            and ZERO_MAGNITUDE_CUTOFF * magnitudes.max() >= np.finfo(float).tiny):
        exponent = np.frexp(m.norms.max())[1]
        minors = all_maximal_minors(ComplexMatrix(np.ldexp(m.norms, -exponent), m.angles))
    cutoff = ZERO_MAGNITUDE_CUTOFF * max(map(abs, minors.values()))
    return {b: ZERO if d == 0 or abs(d) < cutoff else Phase.from_angle(cmath.phase(d))
            for b, d in minors.items()}


def from_matrix(m: ComplexMatrix, tolerance: Tolerance = DEFAULT_TOLERANCE) -> Phirotope:
    """The phirotope of a full-row-rank matrix: basis -> phase of its minor.

    The output satisfies the Grassmann-Pluecker relations by construction
    (minors of an actual matrix satisfy the classical relations), so
    construction-time validation is skipped.  Above ``MAX_MATRIX_MINORS``
    minors, raises :class:`PhasedMatroidError` before listing a subset.
    """
    count = math.comb(m.cols, m.rows)
    if count > MAX_MATRIX_MINORS:
        raise PhasedMatroidError(
            f"C({m.cols}, {m.rows}) = {count} maximal minors exceed the cap of {MAX_MATRIX_MINORS}")
    values = minor_phases(m)
    if all(p.is_zero for p in values.values()):
        raise RankDeficientError("matrix has no nonzero maximal minor")
    return Phirotope(m.cols, m.rows, values, tolerance, validate=False)


def rephase(phi: Phirotope, rho: Rephasing) -> Phirotope:
    """Multiply each value by the product of rho over its basis."""
    if len(rho) != phi.n:
        raise ValueError("rephasing length must equal the ground size")
    values = {}
    for b, p in phi.values.items():
        q = p
        for k in b:
            q = q * rho.rho[k - 1]
        values[b] = q
    return Phirotope(phi.n, phi.r, values, phi.tolerance, validate=False)


def scale_global(phi: Phirotope, alpha: Phase) -> Phirotope:
    """Multiply every value by a nonzero phase; same phased matroid."""
    if alpha.is_zero:
        raise ValueError("global phase must be nonzero")
    values = {b: alpha * p for b, p in phi.values.items()}
    return Phirotope(phi.n, phi.r, values, phi.tolerance, validate=False)


def is_uniform(phi: Phirotope) -> bool:
    """True iff no value is zero (every r-subset is a basis)."""
    return all(not p.is_zero for p in phi.values.values())
