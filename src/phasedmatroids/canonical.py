"""Canonicalization machinery: bipartite graph, spanning forest, rephasing.

Every phirotope with {1, ..., r} a basis and a connected associated bipartite
graph can be rephased (plus a global phase) so that the entries along the
canonical spanning tree of any standard-form realization carry phase 1 and
the value on {1, ..., r} is 1.  Whether the result takes only real values
decides essential orientability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DisconnectedGraphError,
    FirstSubsetNotBasisError,
    IndexOutOfRangeError,
    PhasedMatroidError,
)
from .matrices import _is_integer
from .phases import VERIFY_TOLERANCE, Phase, circular_distance
from .phirotopes import Phirotope, Rephasing, rephase, scale_global


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


def associated_bipartite_graph(phi: Phirotope) -> frozenset:
    """The edges (i, j), i <= r < j, of the bipartite graph of phi's underlying
    matroid: (i, j) is an edge iff {1..r} - {i} + {j} is a basis.  Read from
    r(n-r)+1 values, since the bases are the supports of the nonzero values.

    phi must satisfy the Grassmann-Pluecker relations, as validated and
    matrix-born phirotopes do; the supports then satisfy the basis-exchange
    axiom, which is not checked.  Proof: take bases B1, B2 and x in B1 - B2.
    The relation at X = B2 + {x}, Y = B1 - {x} has the nonzero term
    phi(B2) phi(x, Y) for x; the terms for elements of Y vanish.  A lone
    nonzero term never has 0 in its hypersum (``zero_in_hypersum_batch`` is
    False on every row with exactly one nonzero entry, at any eps), so some y
    in B2 - B1 gives a nonzero term too, and phi(y, Y) != 0 says
    B1 - {x} + {y} is a basis.
    """
    r, n = phi.r, phi.n
    first = tuple(range(1, r + 1))
    if phi.values[first].is_zero:
        raise FirstSubsetNotBasisError("{1..r} must be a basis")
    return frozenset((i, j) for i in first for j in range(r + 1, n + 1)
                     if not phi.values[first[:i - 1] + first[i:] + (j,)].is_zero)


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


def _scan_forest(r: int, n: int, edges) -> SpanningForest:
    """Deterministic greedy spanning forest of the bipartite graph on rows
    1..r and columns r+1..n whose edges (i, j) are the members of ``edges``.

    A scan of columns in ascending order (rows bottom-to-top within a column)
    adds every edge that does not close a cycle.  Each row's edge to its
    smallest incident column is always added, since the scan reaches it while
    the row is still isolated.  A forest on n vertices has n - |edges|
    components.
    """
    uf = _UnionFind(n + 1)
    chosen = [(i, j) for j in range(r + 1, n + 1) for i in range(r, 0, -1)
              if (i, j) in edges and uf.union(i, j)]
    return SpanningForest(tuple(sorted(chosen)), n - len(chosen))


def canonical_spanning_forest(phi: Phirotope) -> SpanningForest:
    """The greedy scan forest (``_scan_forest``) of phi's associated bipartite graph."""
    return _scan_forest(phi.r, phi.n, associated_bipartite_graph(phi))


@dataclass(frozen=True)
class CanonicalizationResult:
    """Rephasing, global phase, the resulting canonical phirotope and the
    canonical spanning forest its values are pinned on."""

    rho: Rephasing
    global_phase: Phase
    canonical: Phirotope
    forest: SpanningForest


def _tree_targets(r: int, forest: SpanningForest) -> dict:
    """Pinned bases with their target phases: {1..r} -> 1, and
    {1..r}-{i}+{j} -> (-1)**(r-i) for every forest edge (i, j), which makes
    the entry (i, j) of a standard-form realization phase 1."""
    first = tuple(range(1, r + 1))
    targets = {first: Phase(0.0)}
    for i, j in forest.edges:
        targets[first[:i - 1] + first[i:] + (j,)] = Phase(0.0 if (r - i) % 2 == 0 else math.pi)
    return targets


def _pinned_on(phi: Phirotope, forest: SpanningForest) -> bool:
    """True iff phi meets every pin of ``forest`` within ``phi.tolerance``."""
    return all(phi.values[b].isclose(t, phi.tolerance) for b, t in _tree_targets(phi.r, forest).items())


def canonicalize(phi: Phirotope) -> CanonicalizationResult:
    """Rephase and globally scale a phirotope into canonical form.

    The rephasing is propagated along the canonical spanning tree with the
    gauge rho[r+1] = 1 (rho[1] = 1 when n = r = 1); the global phase then
    normalizes the value on {1, ..., r} to 1.  Requires phi to satisfy the
    Grassmann-Pluecker relations (validated and matrix-born phirotopes do),
    {1..r} to be a basis and the associated bipartite graph to be connected
    (direct sums are rejected).
    """
    r, n = phi.r, phi.n
    forest = canonical_spanning_forest(phi)
    if forest.component_count != 1:
        raise DisconnectedGraphError(
            f"associated bipartite graph has {forest.component_count} components")

    first_value = phi.values[tuple(range(1, r + 1))]
    # tree edge (i, j) forces rho[j] - rho[i] = ang(phi(1..r)) - ang(entry_phase)
    deltas = [first_value.angle - entry_phase(phi, i, j).angle for (i, j) in forest.edges]
    rho_angle = tree_potentials(n, forest.edges, deltas, min(r + 1, n))
    rho = Rephasing(tuple(Phase.from_angle(rho_angle[k]) for k in range(1, n + 1)))
    alpha = Phase.from_angle(-first_value.angle - sum(rho_angle[k] for k in range(1, r + 1)))
    canonical = scale_global(rephase(phi, rho), alpha)

    # pinned values are assigned exactly, not left to float accumulation
    for basis, target in _tree_targets(r, forest).items():
        got = canonical.values[basis]
        if circular_distance(got.angle, target.angle) > VERIFY_TOLERANCE.eps:
            raise PhasedMatroidError(
                f"canonicalization failed to pin basis {basis}: got {got}, want {target}")
        canonical.values[basis] = target
    return CanonicalizationResult(rho, alpha, canonical, forest)


def is_canonical(phi: Phirotope) -> bool:
    """True iff {1..r} is a basis and phi meets every pin of its canonical
    spanning forest (``_tree_targets``) within ``phi.tolerance``."""
    if phi.values[tuple(range(1, phi.r + 1))].is_zero:
        return False
    return _pinned_on(phi, canonical_spanning_forest(phi))


def is_real_valued(phi: Phirotope) -> bool:
    """True iff every value is 0 or within ``phi.tolerance`` of +1 or -1."""
    return all(p.is_real(phi.tolerance) for p in phi.values.values())


def is_essentially_oriented(phi: Phirotope) -> bool:
    """True iff the canonical form takes values in {-1, 0, +1} only, within
    ``phi.tolerance``."""
    return is_real_valued(canonicalize(phi).canonical)
