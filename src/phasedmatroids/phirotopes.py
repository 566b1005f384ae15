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
from .matrices import ComplexMatrix, _is_integer, all_maximal_minors
from .phases import (
    DEFAULT_TOLERANCE,
    TAU,
    ZERO,
    ZERO_MAGNITUDE_CUTOFF,
    Phase,
    Tolerance,
    circular_distance,
    zero_in_hypersum_batch,
)

#: (X, Y) pairs per kernel call of ``Phirotope.check_gp``.  The sweep holds one
#: block of terms at a time, so its memory is bounded by (r+1) times this.
GP_BLOCK_COLUMNS = 2**14

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


def _lex_rank(subsets: np.ndarray, n: int) -> np.ndarray:
    """Position of each sorted s-subset of [n], along the last axis of
    ``subsets``, in the order of ``itertools.combinations(range(1, n + 1), s)``:
    C(n, s) - 1 - sum_i C(n - c_i, s - i + 1), with 1-based c_i and i."""
    s = subsets.shape[-1]
    binom = np.array([[math.comb(a, b) for b in range(s + 1)] for a in range(n + 1)])
    return binom[n, s] - 1 - binom[n - subsets, np.arange(s, 0, -1)].sum(axis=-1)


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
        if len(values) != len(vals):
            key = next(k for k in values if k not in vals)
            raise ValueError(f"key {key!r} is not a sorted {rank}-subset of [1, {ground_size}]")
        self.values = vals
        if all(p.is_zero for p in vals.values()):
            raise ValueError("a phirotope is not identically zero")
        if validate:
            violations = self.check_gp()
            if violations:
                raise InvalidPhirotopeError(violations)

    def evaluate(self, indices: Sequence[int]) -> Phase:
        """Alternating evaluation on an arbitrary ordered r-tuple."""
        idx = tuple(indices)
        if len(idx) != self.r:
            raise ValueError(f"need {self.r} indices, got {len(idx)}")
        for k in idx:
            if not (_is_integer(k) and 1 <= k <= self.n):
                raise IndexOutOfRangeError(f"index {k!r} is not an integer in [1, {self.n}]")
        srt, sign = sort_with_sign(idx)
        if sign == 0:
            return ZERO
        p = self.values[srt]
        return p if sign > 0 else -p

    def check_gp(self):
        """All (X, Y) pairs violating the Grassmann-Pluecker relations.

        X ranges over sorted (r+1)-subsets and Y over sorted (r-1)-subsets of
        [n]; the result is lexicographically sorted and empty iff the map is a
        valid phirotope.  X is swept in lex order, about ``GP_BLOCK_COLUMNS``
        pairs per kernel call, and each block's X side is built on its own,
        so memory does not grow with the pair count.  A term's angle is the
        sum of two stored angles, each with its sign folded in as +-pi; NaN
        stands for a zero value and carries through the sums.
        """
        n, r = self.n, self.r
        ground = range(1, n + 1)
        ang = np.array([math.nan if p.is_zero else p.angle for p in self.values.values()])
        neg = ang + math.pi  # the angles of -phi, in [0, 2*pi) like ang
        neg -= TAU * (neg >= TAU)
        # ey[e, Y] = angle of phi(e, *Y), NaN when e is in Y; row 0 is unused.
        # When Y is the basis b without its k-th element e, phi(e, *Y) = (-1)^k phi(b).
        ysubs = list(itertools.combinations(ground, r - 1))
        ny = len(ysubs)
        bases = np.array(list(itertools.combinations(ground, r)))
        ey = np.full((n + 1, ny), math.nan)
        for k in range(r):
            ey[bases[:, k], _lex_rank(np.delete(bases, k, axis=1), n)] = neg if k % 2 else ang
        # X in blocks of about GP_BLOCK_COLUMNS pairs; terms[k, X, Y] in C order,
        # so that a block is an (r+1, pairs) kernel input without a copy
        drop = [[j for j in range(r + 1) if j != k] for k in range(r + 1)]
        xsubs = itertools.combinations(ground, r + 1)
        step = max(1, GP_BLOCK_COLUMNS // ny)
        bad = []
        while block := list(itertools.islice(xsubs, step)):
            xs = np.array(block)
            rank = _lex_rank(xs[:, drop], n)  # rank[X, k]: X minus its k-th element
            terms = np.empty((r + 1, len(block), ny))
            for k in range(r + 1):
                # the term's sign (-1)^(k+1) goes with phi(X minus x_k)
                dx = (neg if k % 2 == 0 else ang)[rank[:, k]]
                np.add(dx[:, None], ey[xs[:, k]], out=terms[k])
            terms -= TAU * (terms >= TAU)
            ok = zero_in_hypersum_batch(terms.reshape(r + 1, -1), self.tolerance.eps)
            bad.extend((block[i // ny], ysubs[i % ny]) for i in np.flatnonzero(~ok).tolist())
        return bad

    def __eq__(self, other):
        if not isinstance(other, Phirotope):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self.values == other.values

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
        magnitudes = np.hypot(minors.real, minors.imag)  # as Python abs, bit for bit; np.abs is not
    if not (np.isfinite(magnitudes).all()
            and ZERO_MAGNITUDE_CUTOFF * magnitudes.max() >= np.finfo(float).tiny):
        exponent = np.frexp(m.norms.max())[1]
        minors = all_maximal_minors(ComplexMatrix(np.ldexp(m.norms, -exponent), m.angles))
        magnitudes = np.hypot(minors.real, minors.imag)
    cutoff = ZERO_MAGNITUDE_CUTOFF * magnitudes.max()
    bases = itertools.combinations(range(1, m.cols + 1), m.rows)
    return {b: ZERO if d == 0 or a < cutoff else Phase.from_angle(cmath.phase(d))
            for b, d, a in zip(bases, minors.tolist(), magnitudes.tolist())}


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
