"""Independent brute-force oracles and reference constructions used to pin
expected test values."""

import cmath
import itertools
import math

import numpy as np
from scipy.optimize import lsq_linear

from phasedmatroids import ZERO, ComplexMatrix, Phase
from phasedmatroids.matrices import all_maximal_minors
from phasedmatroids.phases import (
    DEFAULT_TOLERANCE,
    VERIFY_TOLERANCE,
    ZERO_MAGNITUDE_CUTOFF,
    circular_distance,
    zero_in_hypersum_batch,
)


def unit(p):
    """A phase as a complex number, 0 for the zero phase."""
    return 0j if p.is_zero else cmath.exp(1j * p.angle)


def isclose(p, q, tol=DEFAULT_TOLERANCE):
    """Both phases zero, or both nonzero within ``tol`` on the circle."""
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    return circular_distance(p.angle, q.angle) < tol.eps


def zero_in_hypersum_bruteforce(phases, residual_threshold=1e-7):
    """Does some strictly positive combination of the given phases vanish?

    Solves the bounded least-squares problem min ||A x|| over coefficients in
    [1e-6, 1], where the columns of A are the unit vectors of the nonzero
    phases.  The problem is convex, so the solver finds the global optimum;
    a residual below the threshold certifies a strictly positive combination
    summing to (numerical) zero.  Zero phases contribute nothing and are
    dropped; a nonempty all-zero set trivially sums to zero.
    """
    units = [unit(p) for p in phases if not p.is_zero]
    if not units:
        return len(list(phases)) > 0
    if len(units) == 1:
        return False
    a = np.array([[u.real for u in units], [u.imag for u in units]])
    res = lsq_linear(a, np.zeros(2), bounds=(1e-6, 1.0))
    return float(np.linalg.norm(a @ res.x)) < residual_threshold


def minor_det(m, rows, cols):
    """Determinant of an arbitrary submatrix, 1-based indices."""
    arr = m.to_complex()
    block = arr[np.ix_([i - 1 for i in rows], [j - 1 for j in cols])]
    return complex(np.linalg.det(block))


def angles_of(units):
    """The kernel input of an array of unit complex numbers and zeros: the
    angle in [0, 2*pi), from ``np.angle`` plus 2*pi where negative, and NaN
    where the magnitude is at most 0.5 (a zero phase)."""
    units = np.asarray(units)
    ang = np.angle(units)
    ang += 2.0 * np.pi * (ang < 0)
    ang[np.abs(units) <= 0.5] = np.nan
    return ang


def zero_in_hypersum(phases, eps=1e-9):
    """The one-column call of ``zero_in_hypersum_batch``: zero phases add
    nothing, and the empty set has no combination, so it gives False."""
    units = [unit(p) for p in phases]
    return bool(units) and bool(zero_in_hypersum_batch(angles_of(np.array(units)[:, None]), eps)[0])


def standard_form(m):
    """The (I|N) representative of the left GL(r) orbit of m, by
    ``np.linalg.solve``; ValueError when columns 1..r are not a basis."""
    r = m.rows
    arr = m.to_complex()
    if abs(np.linalg.det(arr[:, :r])) < 1e-12:
        raise ValueError("columns 1..r are not a basis")
    reduced = np.linalg.solve(arr[:, :r], arr)
    reduced[:, :r] = np.eye(r)
    return ComplexMatrix.from_complex(reduced)


def scaled(m, row_scalars, col_scalars):
    """m with entry (i, j) multiplied by row_scalars[i] * col_scalars[j]."""
    rows = np.asarray(row_scalars, dtype=complex)[:, None]
    cols = np.asarray(col_scalars, dtype=complex)[None, :]
    return ComplexMatrix.from_complex(rows * m.to_complex() * cols)


def max_entry_distance(a, b):
    """Largest entrywise complex distance between two matrices."""
    return float(np.abs(a.to_complex() - b.to_complex()).max())


def canonical_pins(r, forest_edges):
    """The values a canonical phirotope takes by definition: 1 on {1..r} and
    (-1)**(r-i) on {1..r} - {i} + {j} for each spanning-forest edge (i, j),
    the phirotope value that makes entry (i, j) of (I|N) a positive real."""
    first = tuple(range(1, r + 1))
    pins = {first: Phase(0.0)}
    for i, j in forest_edges:
        basis = tuple(sorted(set(first) - {i} | {j}))
        pins[basis] = Phase(0.0 if (r - i) % 2 == 0 else math.pi)
    return pins


def zero_in_hypersum_row_major(units, eps):
    """The zero-membership kernel in its earlier row-major layout: ``units``
    has shape (rows, m), one phase set per row, sorted with ``ndarray.sort``
    and reduced along the short axis.  Kept as the bit-for-bit reference for
    the column-major kernel ``phases.zero_in_hypersum_batch``."""
    tau = 2.0 * np.pi
    rows, m = units.shape
    nz = np.abs(units) > 0.5
    cnt = nz.sum(axis=1)
    ang = np.angle(units)
    ang += tau * (ang < 0)
    ang = np.where(nz, ang, tau)
    ang.sort(axis=1)
    np.minimum(ang, np.take_along_axis(ang, np.maximum(cnt - 1, 0)[:, None], axis=1), out=ang)
    gaps = np.empty((rows, m))
    gaps[:, :-1] = np.diff(ang, axis=1)
    gaps[:, -1] = tau - (ang[:, -1] - ang[:, 0])
    full = gaps.max(axis=1) < np.pi - eps
    two = ~full & ((gaps > eps).sum(axis=1) == 2)
    a = ang[two]
    other = np.where(a - a[:, :1] > eps, a, np.inf).min(axis=1)
    d = np.abs(other - a[:, 0])
    antip = np.zeros(rows, dtype=bool)
    antip[two] = np.abs(np.minimum(d, tau - d) - np.pi) < eps
    return (cnt == 0) | full | antip


def basis_exchange_failure(bases):
    """A triple (B1, B2, x), x in B1 - B2, such that B1 - {x} + {y} is a basis
    for no y in B2 - B1; None when the set system satisfies the
    basis-exchange axiom.  Brute force over all pairs of bases."""
    family = [frozenset(b) for b in sorted({tuple(sorted(b)) for b in bases})]
    members = set(family)
    for b1 in family:
        for b2 in family:
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in members for y in b2 - b1):
                    return sorted(b1), sorted(b2), x
    return None


def two_pass_spanning_forest(r, n, edges):
    """The canonical spanning forest by its earlier two-pass rule: first the
    edge to the smallest incident column of each row, then a scan of columns
    in ascending order (rows bottom-to-top) adding every edge that closes no
    cycle.  Returns the sorted edges and the component count, counted by a
    sweep over the roots of 1..n."""
    parent = list(range(n + 1))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    chosen = []

    def add(i, j):
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
            chosen.append((i, j))

    for i in range(1, r + 1):
        incident = [j for j in range(r + 1, n + 1) if (i, j) in edges]
        if incident:
            add(i, incident[0])
    for j in range(r + 1, n + 1):
        for i in range(r, 0, -1):
            if (i, j) in edges:
                add(i, j)
    return tuple(sorted(chosen)), len({root(v) for v in range(1, n + 1)})


# The per-basis Phase loops that rephasing, global scaling, the real-value test
# and verification ran before a phirotope stored one angle array; kept as the
# bit-for-bit references for the array versions.  Each returns basis -> Phase
# in lex order, or the verdict of its loop.

def minor_phases_reference(m):
    """basis -> Phase of each maximal minor of m: ``Phase.from_angle`` of
    ``cmath.phase`` per minor, with ``phirotopes.minor_phases``' zero cutoff
    and rescaling."""
    with np.errstate(all="ignore"):
        minors = all_maximal_minors(m)
        magnitudes = np.hypot(minors.real, minors.imag)
    if not (np.isfinite(magnitudes).all()
            and ZERO_MAGNITUDE_CUTOFF * magnitudes.max() >= np.finfo(float).tiny):
        exponent = np.frexp(m.norms.max())[1]
        minors = all_maximal_minors(ComplexMatrix(np.ldexp(m.norms, -exponent), m.angles))
        magnitudes = np.hypot(minors.real, minors.imag)
    cutoff = ZERO_MAGNITUDE_CUTOFF * magnitudes.max()
    bases = itertools.combinations(range(1, m.cols + 1), m.rows)
    return {b: ZERO if d == 0 or a < cutoff else Phase.from_angle(cmath.phase(d))
            for b, d, a in zip(bases, minors.tolist(), magnitudes.tolist())}


def rephase_reference(phi, rho):
    """Each value times rho at each element of its basis in turn."""
    values = {}
    for b, p in phi.values.items():
        q = p
        for k in b:
            q = q * rho.rho[k - 1]
        values[b] = q
    return values


def scale_global_reference(phi, alpha):
    """Each value times alpha."""
    return {b: alpha * p for b, p in phi.values.items()}


def is_real_valued_reference(phi):
    """Every value is zero or within ``phi.tolerance`` of +1 or -1."""
    return all(p.is_real(phi.tolerance) for p in phi.values.values())


def verify_reference(phi, m):
    """(basis, expected, computed) at the first basis in lex order where phi
    and the minor phases of m differ beyond ``VERIFY_TOLERANCE``; None when
    they agree everywhere."""
    computed = minor_phases_reference(m)
    for basis, expected in phi.values.items():
        if not isclose(expected, computed[basis], VERIFY_TOLERANCE):
            return basis, expected, computed[basis]
    return None


def gp_pairs_touching(n, r, disagreeing):
    """Every (X, Y) pair of the Grassmann-Pluecker sweep with a term on a
    basis in ``disagreeing`` (sorted r-subsets), in lex order of (X, Y):
    phi(X minus x_k), or phi(x_k, Y) with x_k not in Y, is such a basis."""
    touched = {tuple(sorted(b)) for b in disagreeing}
    pairs = []
    for x in itertools.combinations(range(1, n + 1), r + 1):
        for y in itertools.combinations(range(1, n + 1), r - 1):
            terms = [tuple(sorted(set(x) - {e})) for e in x]
            terms += [tuple(sorted(y + (e,))) for e in x if e not in y]
            if any(t in touched for t in terms):
                pairs.append((x, y))
    return sorted(pairs)
