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
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidPhirotopeError,
    PhasedMatroidError,
    RankDeficientError,
)
from .matrices import ComplexMatrix, _bases, _is_integer, all_maximal_minors
from .phases import (
    DEFAULT_TOLERANCE,
    TAU,
    ZERO,
    ZERO_MAGNITUDE_CUTOFF,
    Phase,
    Tolerance,
    _circular_distance_array,
    _normalize_array,
    _opposite,
    zero_in_hypersum_batch,
)

#: (X, Y) pairs per kernel call of ``Phirotope.check_gp``.  The sweep holds one
#: block of terms at a time, so its memory is bounded by (r+1) times this.
GP_BLOCK_COLUMNS = 2**14

#: Most (X, Y) pairs one ``Phirotope.check_gp`` call sweeps.  Blocking bounds
#: the sweep's memory and this bounds its time: C(16, 7) * C(16, 5), about
#: 5e7 pairs, takes seconds.
MAX_GP_PAIRS = 2**24

#: Most values ``from_matrix`` computes: its C(n, r) values can far outgrow the
#: matrix it reads, while a phirotope input already lists its values.
MAX_MATRIX_MINORS = 2**16


def sort_with_sign(indices: Sequence[int]):
    """Sort a tuple and return (sorted tuple, sign of the sorting permutation):
    the parity of the inversion count; repeated entries return sign 0.
    """
    items = tuple(indices)
    srt = tuple(sorted(items))
    if any(a == b for a, b in zip(srt, srt[1:])):
        return srt, 0
    return srt, (-1) ** (sum(x > y for x, y in itertools.combinations(items, 2)) % 2)


def _lex_rank(subsets: np.ndarray, n: int) -> np.ndarray:
    """Position of each sorted s-subset of [n], along the last axis of
    ``subsets``, in the order of ``itertools.combinations(range(1, n + 1), s)``:
    C(n, s) - 1 - sum_i C(n - c_i, s - i + 1), with 1-based c_i and i."""
    s = subsets.shape[-1]
    total, terms = _rank_terms(n, s)
    return total - 1 - terms[np.arange(s), subsets - np.arange(1, s + 1)].sum(axis=-1)


@functools.lru_cache(maxsize=32)
def _rank_terms(n: int, s: int):
    """C(n, s) and the terms of ``_lex_rank``: C(n - i - t, s - i + 1) at
    [i - 1, t], for the i-th element i + t of a sorted s-subset of [n], so
    0 <= t <= n - s; read-only.  Each term is below C(n, s), so the table is
    int64 wherever C(n, s) fits, and it has s (n - s + 1) entries."""
    total = math.comb(n, s)
    terms = np.array([[math.comb(n - i - t, s - i + 1) for t in range(n - s + 1)]
                      for i in range(1, s + 1)],
                     dtype=np.int64 if total < 2**63 else object).reshape(s, n - s + 1)
    terms.flags.writeable = False
    return terms.dtype.type(total), terms


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
def _scatter_ranks(n: int, r: int) -> np.ndarray:
    """ranks[k, b]: the ``_lex_rank`` of basis b of ``_bases(n, r)`` without
    its k-th element, an (r-1)-subset; read-only."""
    bases = _bases(n, r)
    ranks = np.array([_lex_rank(np.delete(bases, k, axis=1), n) for k in range(r)])
    ranks.flags.writeable = False
    return ranks


def _gp_rectangles(n: int, r: int, touching):
    """The (X, Y) pairs ``Phirotope.check_gp`` sweeps and their count.

    The pairs come as a lazy sequence of rectangles (xs, ys), no pair in two:
    the X in the rows of xs, an array of sorted (r+1)-subsets, by the Y that
    ys (a slice or an index array) picks from the lex-ordered (r-1)-subsets.
    Every pair is swept, X in lex order and blocks of ``GP_BLOCK_COLUMNS``,
    unless ``touching`` marks a set D of bases small enough that
    |D| * ((n-r) C(n, r-1) + r C(n-1, r)), which bounds the pairs with a term
    on D, is below the full count C(n, r+1) C(n, r-1); then only those pairs.
    """
    ny = math.comb(n, r - 1)
    total = math.comb(n, r + 1) * ny
    if touching is not None:
        touching = np.asarray(touching, dtype=bool)
        if touching.sum() * ((n - r) * ny + r * math.comb(n - 1, r)) < total:
            return _touching_rectangles(touching, n, r, ny)
    xsubs = itertools.combinations(range(1, n + 1), r + 1)
    step = max(1, GP_BLOCK_COLUMNS // ny)
    blocks = iter(lambda: list(itertools.islice(xsubs, step)), [])
    return ((np.array(block), slice(None)) for block in blocks), total


def _touching_rectangles(touching: np.ndarray, n: int, r: int, ny: int):
    """``_gp_rectangles`` for the pairs with a term on a basis B in D:
    phi(X minus x_k) reads B when X = B + {a}, which takes every Y, and
    phi(x_k, Y) reads B when Y = B - {e} and x_k = e.  So the pairs are X in
    S_A = {B + {a}} with every Y, and, outside S_A, each Y with the X that
    meet E_Y = {e : Y + {e} in D}; Y with the same E_Y share a rectangle."""
    bases = _bases(n, r)
    d = bases[touching]
    # S_A: B + {a} for each a not in B, each X once, keyed by its lex rank
    rows, a = np.nonzero(~(d[:, :, None] == np.arange(1, n + 1)).any(axis=1))
    xa = _inserted(d[rows], a + 1)
    in_a = dict(zip(_lex_rank(xa, n).tolist(), range(len(xa))))
    xa = xa[list(in_a.values())]
    # E_Y for each Y = B - {e}, then the Y of each E_Y
    e_of_y = {}
    for k, ranks in enumerate(_scatter_ranks(n, r)[:, touching]):
        for y, e in zip(ranks.tolist(), d[:, k].tolist()):
            e_of_y.setdefault(y, set()).add(e)
    groups = {}
    for y, es in sorted(e_of_y.items()):
        groups.setdefault(tuple(sorted(es)), []).append(y)
    # X meeting E: C(n, r+1) - C(n - |E|, r+1), less those in S_A
    count = len(xa) * ny + sum(
        (math.comb(n, r + 1) - math.comb(n - len(es), r + 1) - int(_meets(xa, es).sum()))
        * len(yg) for es, yg in groups.items())

    def rectangles():
        drop = [[j for j in range(r + 1) if j != k] for k in range(r + 1)]
        step = max(1, GP_BLOCK_COLUMNS // ny)
        for i in range(0, len(xa), step):
            yield xa[i:i + step], slice(None)
        for es, yg in groups.items():
            # X meeting E, each once: e, its least element of E, plus an
            # r-subset avoiding e and the smaller elements of E
            parts = []
            for i, e in enumerate(es):
                others = bases[~_meets(bases, es[:i + 1])]
                parts.append(_inserted(others, np.full(len(others), e)))
            xs = np.concatenate(parts)
            # outside S_A: no X minus one of its elements is in D
            xs = xs[~touching[_lex_rank(xs[:, drop], n)].any(axis=1)]
            step = max(1, GP_BLOCK_COLUMNS // len(yg))
            for i in range(0, len(xs), step):
                yield xs[i:i + step], np.array(yg)

    return rectangles(), count


def _inserted(subsets: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Each sorted row of subsets with e, one element per row and not in it,
    inserted in order."""
    at = (subsets < e[:, None]).sum(axis=1, keepdims=True)
    cols = np.arange(subsets.shape[1] + 1)
    pad = np.zeros((len(subsets), 1), dtype=subsets.dtype)
    return np.where(cols < at, np.hstack([subsets, pad]),
                    np.where(cols == at, e[:, None], np.hstack([pad, subsets])))


def _meets(subsets: np.ndarray, elements) -> np.ndarray:
    """Whether each row of subsets holds one of the elements."""
    return (subsets[:, :, None] == np.asarray(elements)).any(axis=(1, 2))


def _gp_blocks(rectangles, every_y: np.ndarray):
    """Consecutive rectangles (xs, ys) in blocks of at most ``GP_BLOCK_COLUMNS``
    pairs, a rectangle alone when it has more.  Yields (block, pair count),
    each rectangle of a block as (xs, ys, the Y indices ``every_y[ys]``)."""
    block, width = [], 0
    for xs, ys in rectangles:
        ycols = every_y[ys]
        size = len(xs) * len(ycols)
        if block and width + size > GP_BLOCK_COLUMNS:
            yield block, width
            block, width = [], 0
        block.append((xs, ys, ycols))
        width += size
    if block:
        yield block, width


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

    The mapping constructor, the library's boundary for outside input,
    checks every Grassmann-Pluecker relation and raises
    :class:`InvalidPhirotopeError` on a violation.  Construction from angle
    arrays (``_from_angles``: JSON parse, ``from_matrix``, ``rephase``,
    ``scale_global``, ``canonicalize``) checks none; a caller that needs the
    relations runs ``check_gp`` or ``_require_gp``.
    """

    def __init__(self, ground_size: int, rank: int,
                 values: Mapping[tuple, Phase],
                 tolerance: Tolerance = DEFAULT_TOLERANCE):
        if not (1 <= rank <= ground_size):
            raise ValueError("need 1 <= rank <= ground size")
        ordered = _in_lex_order(ground_size, rank, values)
        angles = np.array([math.nan if p.is_zero else p.angle for p in ordered], dtype=float)
        self._store(ground_size, rank, angles, tolerance)
        self._require_gp()

    @classmethod
    def _from_angles(cls, ground_size: int, rank: int, angles: np.ndarray,
                     tolerance: Tolerance) -> "Phirotope":
        """The phirotope whose ``angles`` is ``angles`` itself, which must be
        C(n, r) normalized angles or NaN in lex order; it becomes read-only.
        The Grassmann-Pluecker relations are not checked."""
        phi = cls.__new__(cls)
        phi._store(ground_size, rank, angles, tolerance)
        return phi

    def _store(self, n, r, angles, tolerance):
        self.n = n
        self.r = r
        self.tolerance = tolerance
        angles.flags.writeable = False
        self.angles = angles
        if np.isnan(angles).all():
            raise ValueError("a phirotope is not identically zero")

    def _require_gp(self):
        """The one validity gate: raises :class:`InvalidPhirotopeError` with
        the list of ``check_gp()`` unless it is empty."""
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
        p = _phase(self.angles.item(_lex_rank(np.array(srt), self.n)))
        return p if sign > 0 else -p

    def check_gp(self, touching: Optional[np.ndarray] = None):
        """The (X, Y) pairs violating the Grassmann-Pluecker relations.

        X ranges over sorted (r+1)-subsets and Y over sorted (r-1)-subsets of
        [n]; the result is lexicographically sorted.  Without ``touching`` every
        pair is swept, and the result is empty iff the map is a valid
        phirotope.  ``touching`` is a boolean mask D over the bases in lex
        order: then only the pairs with a term that reads a basis in D are
        swept, unless |D| times the pairs one basis can touch reaches the full
        count, when every pair is (``_gp_rectangles``).

        The pairs go to the kernel in blocks of at most ``GP_BLOCK_COLUMNS``
        (one X and all its Y when those are more), each built in turn into
        one buffer, so memory does not grow with the pair count.  Above
        ``MAX_GP_PAIRS`` swept pairs, raises :class:`PhasedMatroidError`
        before building any table.  A term's angle is the sum of two stored
        angles, each with its sign folded in as +-pi; NaN stands for a zero
        value and carries through the sums.
        """
        sweep = self._gp_sweep(touching)
        ysubs = list(itertools.combinations(range(1, self.n + 1), self.r - 1))
        bad = []
        for xs, ycols, miss in sweep:
            rows, cols = np.nonzero(miss)
            xsubs = list(map(tuple, xs.tolist()))
            bad.extend(zip(map(xsubs.__getitem__, rows.tolist()),
                           map(ysubs.__getitem__, ycols[cols].tolist())))
        bad.sort()
        return bad

    def _first_gp_violation(self, touching: Optional[np.ndarray] = None):
        """(count, first): the length of ``check_gp(touching)`` and its first
        pair, None when it is empty, decoding no other pair."""
        n, r = self.n, self.r
        count, first = 0, None
        for xs, ycols, miss in self._gp_sweep(touching):
            count += int(miss.sum())
            rows = np.flatnonzero(miss.any(axis=1))
            x = rows[np.argmin(_lex_rank(xs[rows], n))]  # the least X with a violation
            key = (tuple(xs[x].tolist()), ycols.item(np.argmax(miss[x])))  # ycols ascend
            first = key if first is None else min(first, key)
        if first is None:
            return 0, None
        x, y = first
        return count, (x, next(itertools.islice(
            itertools.combinations(range(1, n + 1), r - 1), y, None)))

    def _gp_sweep(self, touching):
        """The sweep of ``check_gp``, which checks its arguments and the pair
        cap at once and then runs lazily: for each rectangle (xs, ycols) of
        ``_gp_rectangles`` with a violation, it yields xs, the lex indices
        ycols of its Y, in ascending order, and the boolean array miss with
        miss[a, b] True iff the pair (xs[a], Y number ycols[b]) violates."""
        n, r = self.n, self.r
        if touching is not None and np.shape(touching) != self.angles.shape:
            raise ValueError(f"touching must mark each of the {self.angles.size} bases")
        rectangles, pairs = _gp_rectangles(n, r, touching)
        if pairs > MAX_GP_PAIRS:
            raise PhasedMatroidError(
                f"{pairs} Grassmann-Pluecker pairs exceed the cap of {MAX_GP_PAIRS}")
        ang = self.angles
        neg = _opposite(ang)  # the angles of -phi
        # ey[e, Y] = angle of phi(e, *Y), NaN when e is in Y; row 0 is unused.
        # When Y is the basis b without its k-th element e, phi(e, *Y) = (-1)^k phi(b).
        ny = math.comb(n, r - 1)
        bases = _bases(n, r)
        ey = np.full((n + 1, ny), math.nan)
        for k, ranks in enumerate(_scatter_ranks(n, r)):
            ey[bases[:, k], ranks] = neg if k % 2 else ang
        return self._gp_misses(rectangles, pairs, ey, neg)

    def _gp_misses(self, rectangles, pairs, ey, neg):
        """The lazy part of ``_gp_sweep``, with its tables ey and neg."""
        n, r, ang = self.n, self.r, self.angles
        drop = [[j for j in range(r + 1) if j != k] for k in range(r + 1)]
        # one buffer for every block that fits, so that the blocks do not
        # allocate and fault in fresh pages one after another
        buffer = np.empty((r + 1, min(pairs, GP_BLOCK_COLUMNS)))
        for block, width in _gp_blocks(rectangles, np.arange(ey.shape[1])):
            # terms[k, pair]; a rectangle's pairs are consecutive, X-major
            terms = buffer[:, :width] if width <= buffer.shape[1] else np.empty((r + 1, width))
            spans, start = [], 0
            for xs, ys, ycols in block:
                rank = _lex_rank(xs[:, drop], n)  # rank[X, k]: X minus its k-th element
                eyc = ey[:, ys]
                stop = start + len(xs) * len(ycols)
                for k in range(r + 1):
                    # the term's sign (-1)^(k+1) goes with phi(X minus x_k)
                    dx = (neg if k % 2 == 0 else ang)[rank[:, k]]
                    np.add(dx[:, None], eyc[xs[:, k]],
                           out=terms[k, start:stop].reshape(len(xs), -1))
                spans.append((start, stop, xs, ycols))
                start = stop
            terms -= TAU * (terms >= TAU)
            ok = zero_in_hypersum_batch(terms, self.tolerance.eps)
            if ok.all():
                continue
            for start, stop, xs, ycols in spans:
                miss = ~ok[start:stop].reshape(len(xs), len(ycols))
                if miss.any():
                    yield xs, ycols, miss

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
    (minors of an actual matrix satisfy the classical relations), and, like
    every construction from angles, is not checked.  Above
    ``MAX_MATRIX_MINORS`` minors, raises :class:`PhasedMatroidError` before
    listing a subset.
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
