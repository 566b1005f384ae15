"""Phase arithmetic on the unit circle together with the zero phase.

A phase is either the zero phase or a point of the unit circle, stored as a
normalized angle in [0, 2*pi).  Zero lies in the hypersum of a finite phase
set when some strictly positive combination of the phases vanishes;
``zero_in_hypersum_batch`` decides that for many sets at once, and every
Grassmann-Pluecker verdict goes through it.  The triangular-equation solver
recovers the one unknown positive norm in gamma = ph(s1*alpha - s2*beta), one
equation at a time, in Python floats.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateTriangleError, InfeasibleTriangleError

TAU = 2.0 * math.pi

#: The one zero cutoff: a matrix entry or a ``phase_of`` scalar of magnitude
#: below it is zero; a maximal minor is zero below it times the largest
#: maximal minor of its matrix (``phirotopes.minor_phases``).
ZERO_MAGNITUDE_CUTOFF = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Angular comparison tolerance in radians.

    A phirotope carries the angular tolerance it was built with, and every
    function that takes a phirotope judges phases by ``phi.tolerance``,
    except the checks against ``VERIFY_TOLERANCE``.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.eps < math.pi / 4):
            raise ValueError(f"tolerance must lie in (0, pi/4), got {self.eps}")


DEFAULT_TOLERANCE = Tolerance()

#: Verification tolerance: computed minor phases and canonical pins must match
#: within it.  Looser than the angular tolerance because it bounds floating
#: error accumulated by the program's own arithmetic (triangle solves,
#: rephasing), and fixed: the angular tolerance does not change it.
VERIFY_TOLERANCE = Tolerance(1e-6)

#: Phase residual that ``triangle_solve``'s check of its own solution always
#: accepts, so a tight angular tolerance does not reject it over rounding.
TRIANGLE_RESIDUAL_FLOOR = 1e-7


def _normalize(angle: float) -> float:
    a = math.fmod(angle, TAU)
    if a < 0.0:
        a += TAU
    if a >= TAU:  # fmod rounding can land exactly on 2*pi
        a = 0.0
    return a


def _normalize_array(angles: np.ndarray) -> np.ndarray:
    """``_normalize`` of each entry of a float array, bit for bit, as a new
    array; NaN (the zero phase) stays NaN.  The ``+ 2*pi`` is applied only
    where the remainder is negative, so -0.0 keeps its sign as it does there."""
    a = np.fmod(angles, TAU)
    np.add(a, TAU, out=a, where=a < 0.0)
    a[a >= TAU] = 0.0
    return a


def _opposite(angles: np.ndarray) -> np.ndarray:
    """``_normalize(angle + pi)`` of each angle in [0, 2*pi), bit for bit, as
    a new array; NaN stays NaN.  The sum lies below 4*pi, so subtracting 2*pi
    is exact."""
    turned = angles + math.pi
    turned -= TAU * (turned >= TAU)
    return turned


def circular_distance(a: float, b: float) -> float:
    """Shortest angular distance between two angles, in [0, pi]."""
    d = abs(_normalize(a) - _normalize(b))
    return min(d, TAU - d)


def _circular_distance_array(a, b) -> np.ndarray:
    """``circular_distance`` entrywise for angles already in [0, 2*pi), bit for
    bit; NaN where either angle is NaN."""
    d = np.abs(a - b)
    return np.minimum(d, TAU - d)


@dataclass(frozen=True)
class Phase:
    """A point of S^1 (stored as an angle in [0, 2*pi)) or the zero phase.

    The zero phase is represented by ``angle=None``; use :data:`ZERO` rather
    than constructing it by hand.  Any other angle must lie in [0, 2*pi), so
    NaN and infinities are refused; ``from_angle`` normalizes first.  Products
    involving the zero phase are zero; nonzero products add angles mod 2*pi.
    """

    angle: Optional[float]

    def __post_init__(self):
        if self.angle is not None and not 0.0 <= self.angle < TAU:  # NaN fails too
            raise ValueError(f"a phase angle must lie in [0, 2*pi), got {self.angle}")

    @property
    def is_zero(self) -> bool:
        return self.angle is None

    @classmethod
    def from_angle(cls, angle: float) -> "Phase":
        return cls(_normalize(angle))

    @classmethod
    def from_angle_over_pi(cls, x: float) -> "Phase":
        return cls(_normalize(x * math.pi))

    @property
    def angle_over_pi(self) -> float:
        if self.angle is None:
            raise ValueError("zero phase has no angle")
        return self.angle / math.pi

    def __mul__(self, other: "Phase") -> "Phase":
        if self.angle is None or other.angle is None:
            return ZERO
        return Phase(_normalize(self.angle + other.angle))

    def __neg__(self) -> "Phase":
        if self.angle is None:
            return ZERO
        return Phase(_normalize(self.angle + math.pi))

    def is_real(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """True iff this is the zero phase or within tolerance of +1 / -1."""
        if self.is_zero:
            return True
        return (
            circular_distance(self.angle, 0.0) < tol.eps
            or circular_distance(self.angle, math.pi) < tol.eps
        )

    def __repr__(self):
        if self.angle is None:
            return "Phase.ZERO"
        return f"Phase({self.angle / math.pi:.6g}*pi)"


ZERO = Phase(None)


def phase_of(z: complex) -> Phase:
    """Phase of a complex scalar; magnitudes below the cutoff map to zero."""
    if abs(z) < ZERO_MAGNITUDE_CUTOFF:
        return ZERO
    return Phase(_normalize(cmath.phase(z)))


#: Optimal sorting networks (fewest comparators) for m <= 6 inputs, as the
#: (i, j) pairs, i < j, whose comparator puts the smaller value at i; above 6,
#: ``_sorting_network`` falls back on odd-even transposition.
_SORTING_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 2), (0, 1), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (3, 4), (2, 4), (2, 3), (1, 4), (0, 3), (0, 2), (1, 3), (1, 2)),
    6: ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3),
        (4, 5), (1, 2), (3, 4)),
}


def _sorting_network(m: int) -> tuple:
    """The comparators that sort m values: ``_SORTING_NETWORKS[m]``, or the
    m rounds of odd-even transposition above 6."""
    if m in _SORTING_NETWORKS:
        return _SORTING_NETWORKS[m]
    return tuple((i, i + 1) for step in range(m) for i in range(step % 2, m - 1, 2))


def zero_in_hypersum_batch(angles: np.ndarray, eps: float) -> np.ndarray:
    """Zero membership of the hypersum, for each column of an angle array.

    ``angles`` has shape (m, rows): column j holds the m phases of set j, each
    an angle in [0, 2*pi) or NaN for the zero phase; the array is overwritten.
    Zero entries contribute nothing, and a column of zeros sums to zero.  Zero
    is in the hypersum when the largest angular gap between the nonzero phases
    is below pi - eps (they do not fit in a closed half-circle), or when gaps
    above eps split them into exactly two clusters whose first angles are
    antipodal within eps.  Returns a boolean array of length rows.  Used by
    the Grassmann-Pluecker checker, where every column is the term multiset of
    one (X, Y) pair.  The m rows are sorted by ``_sorting_network``, whose
    comparators are exact minimum/maximum steps, so they hold the values
    ``np.sort`` gives; the largest gap is taken row difference by row
    difference, and only the columns that fail the gap test are gathered for
    the two-cluster test.
    """
    m, rows = angles.shape
    largest = np.fmax.reduce(angles, axis=0)  # NaN only for a column of zeros
    # zeros repeat the largest nonzero phase, so they sort last and the gaps
    # after it are 0; a column of zeros holds 2*pi
    np.fmin(angles, np.fmin(largest, TAU), out=angles)
    # each comparator writes its minimum to a spare row and its maximum in
    # place, then the spare takes the place of the row it replaced
    row = list(angles)
    spare = np.empty(rows)
    for i, j in _sorting_network(m):
        np.minimum(row[i], row[j], out=spare)
        np.maximum(row[i], row[j], out=row[j])
        row[i], spare = spare, row[i]
    gap = np.subtract(TAU, np.subtract(row[-1], row[0], out=spare))  # wrap-around
    for k in range(m - 1):
        np.maximum(gap, np.subtract(row[k + 1], row[k], out=spare), out=gap)
    found = np.isnan(largest)
    found |= gap < math.pi - eps
    # remaining sets fit in a closed half-circle: zero is present only for an
    # exact antipodal pair of distinct phases.  Gaps above eps split a set into
    # clusters; for two of them, compare the first angle with the first angle
    # separated from it by more than eps.
    rest = np.flatnonzero(~found)
    if rest.size:
        a = np.empty((m, rest.size))
        for k in range(m):
            # "clip" writes straight into out ("raise" buffers it); every
            # index is valid
            np.take(row[k], rest, out=a[k], mode="clip")
        two = (a[1:] - a[:-1] > eps).sum(axis=0) + (TAU - (a[-1] - a[0]) > eps) == 2
        other = np.where(a - a[0] > eps, a, np.inf).min(axis=0)
        d = np.abs(other - a[0])
        found[rest] = two & (np.abs(np.minimum(d, TAU - d) - math.pi) < eps)
    return found


def triangle_solve(gamma: float, alpha: float, beta: float, s1: Optional[float],
                   s2: Optional[float], tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """The unknown positive norm of the triangular equation
    gamma = ph(s1*alpha - s2*beta).

    gamma, alpha and beta are angles in [0, 2*pi), the three nonzero phases
    of the equation; exactly one of s1 and s2 is None, the unknown side, and
    the other must be a positive finite real, else ``ValueError``.  With t
    the positive norm such that s1*alpha - s2*beta = t*gamma, the 2x2 real
    linear system in (unknown, t) is solved by direct elimination; no
    trigonometric closed form is used.

    Raises :class:`DegenerateTriangleError` when alpha = +/-beta (the equation
    violates its own invariant) and :class:`InfeasibleTriangleError` when no
    strictly positive solution exists, including the singular limits
    gamma = +/-beta (unknown s2) and gamma = +/-alpha (unknown s1).
    """
    if (s1 is None) == (s2 is None):
        raise ValueError("exactly one of s1, s2 must be unknown")
    known = s2 if s1 is None else s1
    if not 0.0 < known < math.inf:  # NaN fails both comparisons
        raise ValueError("the known side must be positive and finite")
    if circular_distance(alpha, beta) < tol.eps or circular_distance(alpha + math.pi, beta) < tol.eps:
        raise DegenerateTriangleError("alpha = +/-beta")
    ua = (math.cos(alpha), math.sin(alpha))
    ub = (math.cos(beta), math.sin(beta))
    ug = (math.cos(gamma), math.sin(gamma))
    # unknown s2: s1*ua = s2*ub + t*ug, columns c1 = ub, c2 = ug, rhs ua;
    # unknown s1: s2*ub = s1*ua - t*ug, columns c1 = ua, c2 = -ug, rhs ub
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
    check = s1 * complex(*ua) - s2 * complex(*ub)
    resid = circular_distance(cmath.phase(check), gamma)
    if resid > max(10 * tol.eps, TRIANGLE_RESIDUAL_FLOOR):
        raise InfeasibleTriangleError(f"solution fails phase check (residual {resid:.3g})")
    return s
