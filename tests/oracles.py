"""Independent brute-force oracles and reference constructions used to pin
expected test values."""

import cmath
import itertools
import math
import sys

import numpy as np
from scipy.optimize import lsq_linear

from phasedmatroids import ZERO, ComplexMatrix, Phase, Phirotope
from phasedmatroids.canonical import _pinned_on, minor_phase
from phasedmatroids.errors import (
    DegenerateTriangleError,
    EssentiallyOrientedError,
    InfeasibleTriangleError,
    NotCanonicalError,
)
from phasedmatroids.jsonio import FormatError
from phasedmatroids.matrices import _is_integer, all_maximal_minors
from phasedmatroids.phases import (
    DEFAULT_TOLERANCE,
    TRIANGLE_RESIDUAL_FLOOR,
    VERIFY_TOLERANCE,
    ZERO_MAGNITUDE_CUTOFF,
    _normalize_array,
    circular_distance,
    zero_in_hypersum_batch,
)
from phasedmatroids.phirotopes import _in_lex_order, is_uniform


def unit(p):
    """A phase as a complex number, 0 for the zero phase."""
    return 0j if p.is_zero else cmath.exp(1j * p.angle)


def isclose(p, q, tol=DEFAULT_TOLERANCE):
    """Both phases zero, or both nonzero within ``tol`` on the circle."""
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    return circular_distance(p.angle, q.angle) < tol.eps


def unchecked_phirotope(n, r, values, tolerance=DEFAULT_TOLERANCE):
    """The phirotope of a basis -> Phase mapping, built as the mapping
    constructor builds it but without its Grassmann-Pluecker check: for
    fixtures that break the relations on purpose."""
    ordered = _in_lex_order(n, r, values)
    angles = np.array([math.nan if p.is_zero else p.angle for p in ordered], dtype=float)
    return Phirotope._from_angles(n, r, angles, tolerance)


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


def zero_in_hypersum_batch_reference(angles, eps):
    """The zero-membership kernel before its sorting networks: an odd-even
    transposition sort of every column, the gaps as one (m, rows) array and
    the two-cluster test on every column.  Kept as the bit-for-bit reference
    for ``phases.zero_in_hypersum_batch``; overwrites ``angles`` as it does."""
    tau = 2.0 * np.pi
    m, rows = angles.shape
    largest = np.fmax.reduce(angles, axis=0)  # NaN only for a column of zeros
    ang = np.fmin(angles, np.fmin(largest, tau), out=angles)
    low = np.empty(rows)
    for step in range(m):
        for i in range(step % 2, m - 1, 2):
            np.minimum(ang[i], ang[i + 1], out=low)
            np.maximum(ang[i], ang[i + 1], out=ang[i + 1])
            ang[i] = low
    gaps = np.empty((m, rows))
    np.subtract(ang[1:], ang[:-1], out=gaps[:-1])
    gaps[-1] = tau - (ang[-1] - ang[0])  # wrap-around gap
    full = gaps.max(axis=0) < np.pi - eps
    two = ~full & ((gaps > eps).sum(axis=0) == 2)
    a = ang[:, two]
    other = np.where(a - a[:1] > eps, a, np.inf).min(axis=0)
    d = np.abs(other - a[0])
    antip = np.zeros(rows, dtype=bool)
    antip[two] = np.abs(np.minimum(d, tau - d) - np.pi) < eps
    return np.isnan(largest) | full | antip


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


def dual(phi):
    """The dual phirotope, of rank n - r on [n]: phi*(B^c) = (-1)^(sum_i b_i - i)
    phi(B) for each sorted basis B = (b_1, ..., b_r) and its sorted complement
    B^c.  This is Anderson-Delucchi's dual without their conjugation; the
    minors of (-N^T | I) are those of (I | N) on complements with these signs,
    so realizability, GP validity and essential orientation carry over."""
    ground = set(range(1, phi.n + 1))
    values = {}
    for basis, p in phi.values.items():
        odd = (sum(basis) - phi.r * (phi.r + 1) // 2) % 2
        values[tuple(sorted(ground - set(basis)))] = -p if odd else p
    return unchecked_phirotope(phi.n, phi.n - phi.r, values, phi.tolerance)


# The per-record JSON parse and the per-entry reconstruction as they ran
# before the parse and the reconstruction's gathers became whole-array
# passes; kept as the references that the program must match bit for bit,
# error texts included.

def phirotope_from_json_reference(obj, tolerance):
    """``jsonio.phirotope_from_json`` one record at a time: each record's
    shape, basis, duplicate and phase are checked in document order, then
    the values are listed in lex order by ``phirotopes._in_lex_order``."""
    if not isinstance(obj, dict):
        raise FormatError("phirotope must be a JSON object")
    try:
        n, r, items = obj["n"], obj["r"], obj["values"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"phirotope is missing field {exc}") from exc
    if not (_is_integer(n) and _is_integer(r) and 1 <= r <= n):
        raise FormatError("need integers 1 <= r <= n")
    if not isinstance(items, list):
        raise FormatError("values must be a list")
    values = {}
    for item in items:
        if not isinstance(item, dict) or set(item) != {"basis", "phase"}:
            raise FormatError(f"bad value record: {item!r}")
        basis = item["basis"]
        if (not isinstance(basis, list) or len(basis) != r
                or not all(map(_is_integer, basis))
                or sorted(basis) != basis or len(set(basis)) != r
                or basis[0] < 1 or basis[-1] > n):
            raise FormatError(f"bad basis {basis!r}: need a sorted {r}-subset of [1, {n}]")
        key = tuple(basis)
        if key in values:
            raise FormatError(f"basis {basis} appears twice")
        values[key] = _phase_angle_reference(item["phase"])
    try:
        angles = _normalize_array(np.array(_in_lex_order(n, r, values), dtype=float))
        return Phirotope._from_angles(n, r, angles, tolerance)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _phase_angle_reference(obj):
    """The angle in radians of a JSON phase, not yet normalized; NaN for null."""
    if obj is None:
        return math.nan
    if not isinstance(obj, dict) or set(obj) != {"angle_over_pi"}:
        raise FormatError(f"expected null or {{'angle_over_pi': x}}, got {obj!r}")
    x = obj["angle_over_pi"]
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not abs(x) <= sys.float_info.max:
        raise FormatError(f"angle_over_pi must be a finite number, got {x!r}")
    angle = float(x) * math.pi
    if not math.isfinite(angle):
        raise FormatError(f"angle_over_pi is too large, got {x!r}")
    return angle


def triangle_solve_reference(gamma, alpha, beta, s1=None, s2=None, tol=DEFAULT_TOLERANCE):
    """``phases.triangle_solve`` on ``Phase`` arguments, checked nonzero: the
    unknown positive norm of gamma = ph(s1*alpha - s2*beta)."""
    if gamma.is_zero or alpha.is_zero or beta.is_zero:
        raise ValueError("triangular equations need nonzero phases")
    if (s1 is None) == (s2 is None):
        raise ValueError("exactly one of s1, s2 must be unknown")
    known = s1 if s1 is not None else s2
    if not 0.0 < known < math.inf:
        raise ValueError("the known side must be positive and finite")
    a, b, g = alpha.angle, beta.angle, gamma.angle
    if circular_distance(a, b) < tol.eps or circular_distance(a + math.pi, b) < tol.eps:
        raise DegenerateTriangleError("alpha = +/-beta")
    ua = (math.cos(a), math.sin(a))
    ub = (math.cos(b), math.sin(b))
    ug = (math.cos(g), math.sin(g))
    if s2 is None:
        c1, c2, rhs = ub, ug, ua
    else:
        c1, c2, rhs = ua, (-ug[0], -ug[1]), ub
    det = c1[0] * c2[1] - c1[1] * c2[0]
    if abs(det) < tol.eps:
        raise InfeasibleTriangleError(
            "gamma is (anti)parallel to the known side: no positive solution")
    rx, ry = known * rhs[0], known * rhs[1]
    s = (rx * c2[1] - ry * c2[0]) / det
    t = (c1[0] * ry - c1[1] * rx) / det
    if s <= 0.0 or t <= 0.0:
        raise InfeasibleTriangleError(f"solved norms not positive: s={s:.6g}, t={t:.6g}")
    s1, s2 = (s, s2) if s1 is None else (s1, s)
    check = s1 * complex(ua[0], ua[1]) - s2 * complex(ub[0], ub[1])
    resid = circular_distance(cmath.phase(check), g)
    if resid > 10 * tol.eps and resid > TRIANGLE_RESIDUAL_FLOOR:
        raise InfeasibleTriangleError(f"solution fails phase check (residual {resid:.3g})")
    return s


def _solve_entry_reference(phi, alpha, norms, i, m, j, k):
    """Solve for the norm at 1-based (i, j) from the 2x2 minor on rows {i, m}
    and columns {j, k}, where the other three norms are known; the solution
    is written into ``norms``."""
    a, b = min(i, m), max(i, m)
    c, d = min(j, k), max(j, k)
    ac, ad = norms.item(a - 1, c - 1), norms.item(a - 1, d - 1)
    bc, bd = norms.item(b - 1, c - 1), norms.item(b - 1, d - 1)
    gamma = minor_phase(phi, (a, b), (c, d))
    phase1 = alpha[(a, c)] * alpha[(b, d)]
    phase2 = alpha[(a, d)] * alpha[(b, c)]
    if (i, j) in ((a, c), (b, d)):
        cofactor = bd if (i, j) == (a, c) else ac
        s1, s2 = None, ad * bc
    else:
        cofactor = bc if (i, j) == (a, d) else ad
        s1, s2 = ac * bd, None
    try:
        solved = triangle_solve_reference(gamma, phase1, phase2, s1, s2, phi.tolerance)
    except InfeasibleTriangleError as exc:
        raise InfeasibleTriangleError(
            f"minor rows {{{a},{b}}} cols {{{c},{d}}}: {exc}") from exc
    norms[i - 1, j - 1] = solved / cofactor


def reconstruct_reference(canon):
    """``realization.reconstruct`` one equation at a time: the plan of
    (pass, i, j, m, k) is sorted and each entry solved in turn, each 2x2
    minor phase read by ``minor_phase``."""
    canonical = canon.canonical
    r, n = canonical.r, canonical.n
    if not (is_uniform(canonical) and _pinned_on(canonical, canon.forest)):
        raise NotCanonicalError("reconstruction requires a uniform canonical phirotope")
    alpha = {(i, j): minor_phase(canonical, (i,), (j,))
             for i in range(1, r + 1) for j in range(r + 1, n + 1)}
    free = [(i, j) for i in range(1, r) for j in range(r + 2, n + 1)]
    real = {key: alpha[key].is_real(canonical.tolerance) for key in free}
    non_real = [key for key in free if not real[key]]
    row_anchor, col_anchor = {}, {}
    for i, j in non_real:
        row_anchor.setdefault(i, j)
        col_anchor.setdefault(j, i)
    plan = []
    for i, j in free:
        if not real[(i, j)]:
            plan.append((1, i, j, r, r + 1))
        elif i in row_anchor:
            plan.append((2, i, j, r, row_anchor[i]))
        elif j in col_anchor:
            plan.append((3, i, j, col_anchor[j], r + 1))
        elif non_real:
            plan.append((4, i, j) + non_real[0])
        else:
            raise EssentiallyOrientedError(
                "no non-real entry available to anchor the reconstruction")
    norms = np.full((r, n), np.nan)
    norms[:, :r] = np.eye(r)
    norms[r - 1, r:] = 1.0
    norms[:, r] = 1.0
    for _, i, j, m, k in sorted(plan):
        _solve_entry_reference(canonical, alpha, norms, i, m, j, k)
    angles = np.zeros((r, n))
    for (i, j), p in alpha.items():
        angles[i - 1, j - 1] = p.angle
    return ComplexMatrix(norms, angles)


def rank2_realizable(phi):
    """Whether a uniform rank-2 phirotope is realizable, decided exactly as
    n points of CP^1 (after Below, Krummeck and Richter-Gebert, "Complex
    matroids: phirotopes and their realizations in rank 2", 2003) without
    canonicalize, triangle_solve or a spanning forest; None when two rays
    are parallel within ``phi.tolerance``.

    With phi divided by phi(1, 2), GL2 and positive column scaling give
    v1 = e1, v2 = e2 and vj = (tj uj, bj) with uj = -phi(2, j),
    bj = phi(1, j) and t3 = 1.  Each tj, j >= 4, is where the ray of
    det(v3, vj) = u3 bj - tj b3 uj meets the ray of phi(3, j): one 2x2 real
    solve.  Every value is then checked within ``VERIFY_TOLERANCE``.
    """
    n = phi.n
    angles = dict(zip(itertools.combinations(range(1, n + 1), 2), phi.angles.tolist()))

    def value(i, j):  # phi(i, j) / phi(1, 2) on the unit circle
        return cmath.exp(1j * (angles[(i, j)] - angles[(1, 2)]))

    cols = {1: (1.0, 0.0), 2: (0.0, 1.0)}  # column j as its two complex entries (x, y)
    t = 1.0
    for j in range(3, n + 1):
        u, b = -value(2, j), value(1, j)
        if j > 3:
            # tj * b3 u + s * gamma = u3 b with s > 0: columns p and gamma
            p, g, rhs = b3 * u, value(3, j), u3 * b
            det = p.real * g.imag - p.imag * g.real
            if abs(det) < phi.tolerance.eps:
                return None
            t = (rhs.real * g.imag - rhs.imag * g.real) / det
            s = (p.real * rhs.imag - p.imag * rhs.real) / det
            if t <= 0.0 or s <= 0.0:
                return False
        else:
            u3, b3 = u, b
        cols[j] = (t * u, b)
    for (i, j) in angles:
        d = cols[i][0] * cols[j][1] - cols[i][1] * cols[j][0]
        if circular_distance(cmath.phase(d), cmath.phase(value(i, j))) >= VERIFY_TOLERANCE.eps:
            return False
    return True


def matrix_to_json_reference(m):
    """``jsonio.matrix_to_json`` one entry at a time, through ``entry_norm``
    and ``entry_phase``."""
    entries = []
    for i in range(1, m.rows + 1):
        row = []
        for j in range(1, m.cols + 1):
            norm = m.entry_norm(i, j)
            row.append(None if norm == 0.0 else
                       {"norm": norm, "angle_over_pi": m.entry_phase(i, j).angle_over_pi})
        entries.append(row)
    return {"rows": m.rows, "cols": m.cols, "entries": entries}
