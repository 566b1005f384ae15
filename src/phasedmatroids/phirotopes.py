"""Phirotopes: alternating phase-valued maps on r-subsets of a ground set.

Values are stored once per sorted r-subset, as one angle array in lex order
of the subsets; evaluation on arbitrary ordered tuples computes the sign of
the sorting permutation on the fly.  Validation checks the combinatorial
complex Grassmann-Pluecker relations: for every (r+1)-subset X and
(r-1)-subset Y the alternating term multiset must contain zero in its
hypersum.  Y-subsets overlapping X are not skipped; since the map is
alternating, reorderings of Y change all terms by a common sign, which never
affects zero membership, so quantifying over sorted Y loses nothing.
The rule is stated in docs/formats.md, section "Grassmann-Pluecker check".
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
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
    _circular_distance_array,
    _normalize_array,
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


@functools.lru_cache(maxsize=8)
def _bases(n: int, r: int) -> np.ndarray:
    """The sorted r-subsets of [n], one per row in lex order; read-only."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), r))
    bases = np.fromiter(flat, dtype=np.intp, count=math.comb(n, r) * r).reshape(-1, r)
    bases.flags.writeable = False
    return bases


def _basis_rank(basis: Sequence[int], n: int) -> int:
    """``_lex_rank`` of one sorted subset, in Python integers."""
    s = len(basis)
    return math.comb(n, s) - 1 - sum(math.comb(n - c, s - i) for i, c in enumerate(basis))


def _phase(angle: float) -> Phase:
    """The phase of a stored angle: NaN is the zero phase."""
    return ZERO if math.isnan(angle) else Phase(angle)


def _in_lex_order(n: int, r: int, values: Mapping) -> list:
    """The values of a mapping keyed by the sorted r-subsets of [n], listed in
    lex order of the keys; ValueError unless it has exactly those keys."""
    # C(n, r) >= n for r < n: a shorter mapping is refused before listing a
    # subset or computing C(n, r), which take minutes for n in the millions
    if len(values) < (n if r < n else 1):
        raise ValueError(f"expected C({n}, {r}) values, got {len(values)}: "
                         "every sorted r-subset must appear exactly once")
    ordered = []
    for b in itertools.combinations(range(1, n + 1), r):
        if b not in values:
            raise ValueError(f"missing value for basis {b}")
        ordered.append(values[b])
    if len(values) != len(ordered):
        bases = set(itertools.combinations(range(1, n + 1), r))
        key = next(k for k in values if k not in bases)
        raise ValueError(f"key {key!r} is not a sorted {r}-subset of [1, {n}]")
    return ordered


class Phirotope:
    """A rank-r phirotope on ground set [n].

    ``angles`` holds one value per sorted r-subset, in lex order of the
    subsets (``itertools.combinations``, the index ``_lex_rank`` gives): its
    angle in [0, 2*pi), or NaN for the zero phase.  The array is read-only and
    every per-value operation reads it; ``values`` lists the same values as
    Phases, built on first use.

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
        ordered = _in_lex_order(ground_size, rank, values)
        angles = np.array([math.nan if p.is_zero else p.angle for p in ordered], dtype=float)
        self._store(ground_size, rank, angles, tolerance, validate)

    @classmethod
    def _from_angles(cls, ground_size: int, rank: int, angles: np.ndarray,
                     tolerance: Tolerance, validate: bool = False) -> "Phirotope":
        """The phirotope whose ``angles`` is ``angles`` itself, which must be
        C(n, r) normalized angles or NaN in lex order; it becomes read-only."""
        phi = cls.__new__(cls)
        phi._store(ground_size, rank, angles, tolerance, validate)
        return phi

    def _store(self, n, r, angles, tolerance, validate):
        self.n = n
        self.r = r
        self.tolerance = tolerance
        angles.flags.writeable = False
        self.angles = angles
        if np.isnan(angles).all():
            raise ValueError("a phirotope is not identically zero")
        if validate:
            violations = self.check_gp()
            if violations:
                raise InvalidPhirotopeError(violations)

    @functools.cached_property
    def values(self) -> Mapping[tuple, Phase]:
        """basis -> Phase, in lex order of the bases; read-only."""
        bases = itertools.combinations(range(1, self.n + 1), self.r)
        return MappingProxyType(dict(zip(bases, map(_phase, self.angles.tolist()))))

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
        p = _phase(self.angles.item(_basis_rank(srt, self.n)))
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
        ang = self.angles
        neg = ang + math.pi  # the angles of -phi, in [0, 2*pi) like ang
        neg -= TAU * (neg >= TAU)
        # ey[e, Y] = angle of phi(e, *Y), NaN when e is in Y; row 0 is unused.
        # When Y is the basis b without its k-th element e, phi(e, *Y) = (-1)^k phi(b).
        ysubs = list(itertools.combinations(ground, r - 1))
        ny = len(ysubs)
        bases = _bases(n, r)
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
        return (self.n == other.n and self.r == other.r
                and np.array_equal(self.angles, other.angles, equal_nan=True))

    def max_angular_distance(self, other: "Phirotope") -> float:
        """Largest circular distance between corresponding nonzero values;
        infinity on a zero/nonzero mismatch.  Both must have the same (n, r)."""
        if (self.n, self.r) != (other.n, other.r):
            raise ValueError(f"cannot compare a ({self.r}, {self.n}) phirotope "
                             f"with a ({other.r}, {other.n}) one")
        zero = np.isnan(self.angles)
        if (zero != np.isnan(other.angles)).any():
            return math.inf
        distances = _circular_distance_array(self.angles[~zero], other.angles[~zero])
        return float(distances.max(initial=0.0))

    def __repr__(self):
        return f"Phirotope(n={self.n}, r={self.r})"


def minor_phases(m: ComplexMatrix) -> np.ndarray:
    """The phase angle of every maximal minor of m, in lex order of the bases:
    in [0, 2*pi), or NaN for a zero minor.

    A minor is zero when its magnitude is below ``ZERO_MAGNITUDE_CUTOFF``
    times the largest minor magnitude of m, so which minors vanish does not
    depend on the scale of m.  Minors that overflow, or whose cutoff is not a
    normal float, are recomputed from m times the power of two that puts its
    largest norm in [0.5, 1); other matrices are used as they are, because
    LAPACK's determinant (r > 3) rounds its phases differently at another scale.
    Each angle is ``cmath.phase`` of its minor: ``np.angle`` differs from it in
    the last bit on some minors, and those bits reach the output.
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
    angles = np.array([cmath.phase(d) for d in minors.tolist()])
    angles[(minors == 0) | (magnitudes < cutoff)] = math.nan
    return _normalize_array(angles)


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
    angles = minor_phases(m)
    if np.isnan(angles).all():
        raise RankDeficientError("matrix has no nonzero maximal minor")
    return Phirotope._from_angles(m.cols, m.rows, angles, tolerance)


def rephase(phi: Phirotope, rho: Rephasing) -> Phirotope:
    """Multiply each value by the product of rho over its basis: the angle of
    rho at each element of the basis in turn is added and normalized."""
    if len(rho) != phi.n:
        raise ValueError("rephasing length must equal the ground size")
    rho_angles = np.array([p.angle for p in rho.rho])
    bases = _bases(phi.n, phi.r)
    angles = phi.angles
    for k in range(phi.r):
        angles = _normalize_array(angles + rho_angles[bases[:, k] - 1])
    return Phirotope._from_angles(phi.n, phi.r, angles, phi.tolerance)


def scale_global(phi: Phirotope, alpha: Phase) -> Phirotope:
    """Multiply every value by a nonzero phase; same phased matroid."""
    if alpha.is_zero:
        raise ValueError("global phase must be nonzero")
    return Phirotope._from_angles(phi.n, phi.r, _normalize_array(alpha.angle + phi.angles),
                                  phi.tolerance)


def is_uniform(phi: Phirotope) -> bool:
    """True iff no value is zero (every r-subset is a basis)."""
    return not np.isnan(phi.angles).any()
