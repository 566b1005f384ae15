"""Canonicalization machinery: bipartite graph, spanning forest, rephasing.

Every phirotope with {1, ..., r} a basis and a connected associated bipartite
graph can be rephased (plus a global phase) so that the entries along the
canonical spanning tree of any standard-form realization carry phase 1 and
the value on {1, ..., r} is 1.  Whether the result takes only real values
decides essential orientability.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    FirstSubsetNotBasisError,
    IndexOutOfRangeError,
    PhasedMatroidError,
)
from .matrices import _is_integer
from .phases import (
    VERIFY_TOLERANCE,
    Phase,
    _circular_distance_array,
    _opposite,
)
from .phirotopes import Phirotope, Rephasing, _bases, _lex_rank, _phase, rephase, scale_global


def entry_phase(phi: Phirotope, i: int, j: int) -> Phase:
    """Forced phase of entry (i, j), j > rank, in any standard-form realization:
    the 1 x 1 minor on row i and column j."""
    return minor_phase(phi, (i,), (j,))


def minor_phase(phi: Phirotope, row_subset, col_subset) -> Phase:
    """Forced phase of the k x k minor on rows H and columns J (> rank) in any
    standard-form realization (I|N), for any k <= min(r, n - r).

    It is phi at (1, ..., r) with the sorted rows of H replaced by the sorted
    columns of J: that r x r minor of (I|N) is the k x k minor of N, so
    ``Phirotope.evaluate`` gives its phase with the sign of sorting the tuple.
    """
    if not all(_is_integer(k) for k in (*row_subset, *col_subset)):
        raise IndexOutOfRangeError(f"minor indices must be integers: {row_subset}, {col_subset}")
    rows, cols = sorted(row_subset), sorted(col_subset)
    r, n = phi.r, phi.n
    if not (len(set(rows)) == len(rows) == len(set(cols)) == len(cols)
            and all(1 <= i <= r for i in rows) and all(r < j <= n for j in cols)):
        raise ValueError(f"a minor needs distinct rows in [1, {r}] and as many "
                         f"distinct columns in ({r}, {n}], got {rows} and {cols}")
    indices = list(range(1, r + 1))
    for i, j in zip(rows, cols):
        indices[i - 1] = j
    return phi.evaluate(indices)


@functools.lru_cache(maxsize=16)
def _minor_ranks(r: int, n: int, k: int) -> np.ndarray:
    """The lex rank of the r-subset {1..r} - H + J at
    [h_1 - 1, ..., h_k - 1, j_1 - r - 1, ..., j_k - r - 1], for every
    h_1 < ... < h_k <= r < j_1 < ... < j_k (0 elsewhere), k = 1 or 2;
    read-only.  The cache holds both k for up to 8 sizes (r, n)."""
    first = np.arange(1, r + 1)
    rows = np.array(list(itertools.combinations(first.tolist(), k)), dtype=np.intp).reshape(-1, k)
    cols = np.array(list(itertools.combinations(range(r + 1, n + 1), k)),
                    dtype=np.intp).reshape(-1, k)
    kept = (first != rows[:, :, None]).all(axis=1)
    keep = np.broadcast_to(first, kept.shape)[kept].reshape(len(rows), r - k)
    shape = (len(rows), len(cols))
    subsets = np.concatenate([np.broadcast_to(keep[:, None], shape + (r - k,)),
                              np.broadcast_to(cols[None], shape + (k,))], axis=-1)
    ranks = np.zeros((r,) * k + (n - r,) * k, dtype=np.intp)
    ranks[tuple(rows.T[:, :, None] - 1) + tuple(cols.T - r - 1)] = _lex_rank(subsets, n)
    ranks.flags.writeable = False
    return ranks


def _minor_angles(phi: Phirotope, rows, cols) -> np.ndarray:
    """The angle of ``minor_phase(phi, H, J)``, NaN for zero, bit for bit,
    for each entry of the broadcast index arrays rows = (h_1, ..., h_k) and
    cols = (j_1, ..., j_k), h_1 < ... < h_k <= r < j_1 < ... < j_k, k = 1 or
    2: phi on {1..r} - H + J, turned by pi where sorting (1..r) with each j_t
    in place h_t is odd.  Moving j_k, then j_(k-1), ..., to the back takes
    r - h_t - (k - t) transpositions for j_t, k r - sum(H) - k (k - 1) / 2
    in all."""
    r, k = phi.r, len(rows)
    index = (*(h - 1 for h in rows), *(j - (r + 1) for j in cols))
    angles = phi.angles[_minor_ranks(r, phi.n, k)[index]]
    odd = (k * r - k * (k - 1) // 2 - sum(rows)) % 2 == 1
    return np.where(odd, _opposite(angles), angles)


def _entry_angles(phi: Phirotope) -> np.ndarray:
    """The angle of ``entry_phase(phi, i, j)`` at [i - 1, j - r - 1] for every
    i <= r < j, NaN for zero, bit for bit: the k = 1 reading of
    ``_minor_angles``."""
    r = phi.r
    return _minor_angles(phi, (np.arange(1, r + 1)[:, None],), (np.arange(r + 1, phi.n + 1),))


def associated_bipartite_graph(phi: Phirotope) -> frozenset:
    """The edges (i, j), i <= r < j, of the bipartite graph of phi's underlying
    matroid: (i, j) is an edge iff {1..r} - {i} + {j} is a basis.  Read from
    r(n-r)+1 values, since the bases are the supports of the nonzero values.

    phi must satisfy the Grassmann-Pluecker relations, as checked and
    matrix-born phirotopes do; the supports then satisfy the basis-exchange
    axiom, which is not checked.  Proof: take bases B1, B2 and x in B1 - B2.
    The relation at X = B2 + {x}, Y = B1 - {x} has the nonzero term
    phi(B2) phi(x, Y) for x; the terms for elements of Y vanish.  A lone
    nonzero term never has 0 in its hypersum (``zero_in_hypersum_batch`` is
    False on every row with exactly one nonzero entry, at any eps), so some y
    in B2 - B1 gives a nonzero term too, and phi(y, Y) != 0 says
    B1 - {x} + {y} is a basis.
    """
    return frozenset((i + 1, j + phi.r + 1) for i, j in np.argwhere(_entry_table(phi)[1]).tolist())


def _entry_table(phi: Phirotope) -> tuple:
    """``_entry_angles(phi)`` and its nonzero mask, once {1..r} is checked to be a basis."""
    if math.isnan(phi.angles[0]):  # {1..r} is the first basis in lex order
        raise FirstSubsetNotBasisError("{1..r} must be a basis")
    entries = _entry_angles(phi)
    return entries, ~np.isnan(entries)


@dataclass(frozen=True)
class SpanningForest:
    """An acyclic edge subset spanning all n vertices of the bipartite graph."""

    edges: tuple
    component_count: int


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def tree_potentials(n: int, edges, deltas, root: int) -> dict:
    """Potentials p on the vertices 1..n with p[j] - p[i] = delta on each
    forest edge (i, j), by a walk from ``root`` and then from the smallest
    unreached vertex of each remaining component; each start has potential 0."""
    adjacency = {v: [] for v in range(1, n + 1)}
    for (i, j), delta in zip(edges, deltas):
        adjacency[i].append((j, delta))
        adjacency[j].append((i, -delta))
    potential = {}
    for start in (root, *range(1, n + 1)):
        if start in potential:
            continue
        potential[start] = 0.0
        stack = [start]
        while stack:
            v = stack.pop()
            for w, delta in adjacency[v]:
                if w not in potential:
                    potential[w] = potential[v] + delta
                    stack.append(w)
    return potential


def _scan_forest(r: int, n: int, nonzero: np.ndarray) -> SpanningForest:
    """Deterministic greedy spanning forest of the bipartite graph on rows
    1..r and columns r+1..n with an edge (i, j) where ``nonzero[i - 1, j - r - 1]``.

    A scan of columns in ascending order, rows bottom-to-top within a column
    (``nonzero`` flipped and transposed, in row-major order), adds every edge
    that does not close a cycle.  Each row's edge to its smallest incident
    column is always added, since the scan reaches it while the row is still
    isolated.  A forest on n vertices has n - |edges| components.
    """
    uf = _UnionFind(n + 1)
    chosen = [(r - i, r + 1 + j) for j, i in np.argwhere(nonzero[::-1].T).tolist()
              if uf.union(r - i, r + 1 + j)]
    return SpanningForest(tuple(sorted(chosen)), n - len(chosen))


def canonical_spanning_forest(phi: Phirotope) -> SpanningForest:
    """The greedy scan forest (``_scan_forest``) of phi's associated bipartite graph."""
    return _scan_forest(phi.r, phi.n, _entry_table(phi)[1])


@dataclass(frozen=True)
class CanonicalizationResult:
    """Rephasing, global phase, the resulting canonical phirotope and the
    canonical spanning forest its values are pinned on."""

    rho: Rephasing
    global_phase: Phase
    canonical: Phirotope
    forest: SpanningForest


def _tree_targets(r: int, n: int, forest: SpanningForest) -> tuple:
    """The pinned bases' lex ranks and their target angles, as two arrays:
    {1..r} -> 0, and {1..r}-{i}+{j} -> pi*(r-i) mod 2*pi for every forest
    edge (i, j), the value that makes entry (i, j) of a standard-form
    realization phase 1."""
    exchange = _minor_ranks(r, n, 1)
    ranks = [0] + [exchange[i - 1, j - r - 1] for i, j in forest.edges]
    targets = [0.0] + [0.0 if (r - i) % 2 == 0 else math.pi for i, _ in forest.edges]
    return np.array(ranks, dtype=np.intp), np.array(targets)


def _pinned_on(phi: Phirotope, forest: SpanningForest) -> bool:
    """True iff phi meets every pin of ``forest`` within ``phi.tolerance``."""
    ranks, targets = _tree_targets(phi.r, phi.n, forest)
    return bool((_circular_distance_array(phi.angles[ranks], targets) < phi.tolerance.eps).all())


def canonicalize(phi: Phirotope) -> CanonicalizationResult:
    """Rephase and globally scale a phirotope into canonical form.

    The rephasing is propagated along the canonical spanning tree with the
    gauge rho[r+1] = 1 (rho[1] = 1 when n = r = 1); the global phase then
    normalizes the value on {1, ..., r} to 1.  Requires phi to satisfy the
    Grassmann-Pluecker relations (checked or matrix-born phirotopes do),
    {1..r} to be a basis and the associated bipartite graph to be connected
    (direct sums are rejected).
    """
    r, n = phi.r, phi.n
    entries, nonzero = _entry_table(phi)
    forest = _scan_forest(r, n, nonzero)
    if forest.component_count != 1:
        raise DisconnectedGraphError(
            f"associated bipartite graph has {forest.component_count} components")

    first_angle = phi.angles.item(0)  # the value on {1..r}
    # tree edge (i, j) forces rho[j] - rho[i] = ang(phi(1..r)) - ang(entry_phase)
    deltas = [first_angle - entries.item(i - 1, j - r - 1) for (i, j) in forest.edges]
    rho_angle = tree_potentials(n, forest.edges, deltas, min(r + 1, n))
    rho = Rephasing(tuple(Phase.from_angle(rho_angle[k]) for k in range(1, n + 1)))
    # 0.0 - x is -x except that it gives 0.0, not -0.0, for x = 0.0
    alpha = Phase.from_angle(0.0 - first_angle - sum(rho_angle[k] for k in range(1, r + 1)))
    scaled = scale_global(rephase(phi, rho), alpha)

    # pinned values are assigned exactly, not left to float accumulation
    ranks, targets = _tree_targets(r, n, forest)
    angles = scaled.angles.copy()
    off = np.flatnonzero(_circular_distance_array(angles[ranks], targets) > VERIFY_TOLERANCE.eps)
    if off.size:
        k = off[0]
        basis = tuple(_bases(n, r)[ranks[k]].tolist())
        raise PhasedMatroidError(f"canonicalization failed to pin basis {basis}: "
                                 f"got {_phase(angles[ranks[k]])}, want {Phase(targets[k])}")
    angles[ranks] = targets
    canonical = Phirotope._from_angles(n, r, angles, phi.tolerance)
    return CanonicalizationResult(rho, alpha, canonical, forest)


def is_canonical(phi: Phirotope) -> bool:
    """True iff {1..r} is a basis and phi meets every pin of its canonical
    spanning forest (``_tree_targets``) within ``phi.tolerance``."""
    if math.isnan(phi.angles[0]):
        return False
    return _pinned_on(phi, canonical_spanning_forest(phi))


def _real(angles: np.ndarray, eps: float) -> np.ndarray:
    """Whether each angle is within eps of 0 or pi, as ``Phase.is_real``
    judges it; False for NaN."""
    return ((_circular_distance_array(angles, 0.0) < eps)
            | (_circular_distance_array(angles, math.pi) < eps))


def is_real_valued(phi: Phirotope) -> bool:
    """True iff every value is 0 or within ``phi.tolerance`` of +1 or -1."""
    return bool(_real(phi.angles[~np.isnan(phi.angles)], phi.tolerance.eps).all())


def is_essentially_oriented(phi: Phirotope) -> bool:
    """True iff the canonical form takes values in {-1, 0, +1} only, within
    ``phi.tolerance``."""
    return is_real_valued(canonicalize(phi).canonical)
