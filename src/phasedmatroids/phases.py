"""Phase arithmetic on the unit circle together with the zero phase.

A phase is either the zero phase or a point of the unit circle, stored as a
normalized angle in [0, 2*pi).  Zero lies in the hypersum of a finite phase
set when some strictly positive combination of the phases vanishes;
``zero_in_hypersum_batch`` decides that for many sets at once, and every
Grassmann-Pluecker verdict goes through it.  The triangular-equation solver
recovers the one unknown positive norm in gamma = ph(s1*alpha - s2*beta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DegenerateTriangleError, InfeasibleTriangleError

TAU = 2.0 * math.pi

#: The one zero cutoff: a matrix entry, scalar or leading-block determinant of
#: magnitude below it is zero; a maximal minor is zero below it times the
#: largest maximal minor of its matrix (``phirotopes.minor_phases``).
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


def circular_distance(a: float, b: float) -> float:
    """Shortest angular distance between two angles, in [0, pi]."""
    d = abs(_normalize(a) - _normalize(b))
    return min(d, TAU - d)


@dataclass(frozen=True)
class Phase:
    """A point of S^1 (stored as an angle in [0, 2*pi)) or the zero phase.

    The zero phase is represented by ``angle=None``; use :data:`ZERO` rather
    than constructing it by hand.  Products involving the zero phase are zero;
    nonzero products add angles mod 2*pi.
    """

    angle: Optional[float]

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

    def unit(self) -> complex:
        """The phase as a complex number (0 for the zero phase)."""
        if self.angle is None:
            return 0j
        return cmath.exp(1j * self.angle)

    def __mul__(self, other: "Phase") -> "Phase":
        if self.angle is None or other.angle is None:
            return ZERO
        return Phase(_normalize(self.angle + other.angle))

    def __neg__(self) -> "Phase":
        if self.angle is None:
            return ZERO
        return Phase(_normalize(self.angle + math.pi))

    def inverse(self) -> "Phase":
        if self.angle is None:
            raise ZeroDivisionError("zero phase has no inverse")
        return Phase(_normalize(-self.angle))

    def times_sign(self, sign: int) -> "Phase":
        return self if sign >= 0 else -self

    def isclose(self, other: "Phase", tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return circular_distance(self.angle, other.angle) < tol.eps

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
ONE = Phase(0.0)
MINUS_ONE = Phase(math.pi)


def phase_of(z: complex) -> Phase:
    """Phase of a complex scalar; magnitudes below the cutoff map to zero."""
    if abs(z) < ZERO_MAGNITUDE_CUTOFF:
        return ZERO
    return Phase(_normalize(cmath.phase(z)))


def zero_in_hypersum_batch(units: np.ndarray, eps: float) -> np.ndarray:
    """Zero membership of the hypersum, for each column of a complex array.

    ``units`` has shape (m, rows): column j holds the m phases of set j, each
    a unit complex number or 0.  Zero entries contribute nothing, and a column
    of zeros sums to zero.  Zero is in the hypersum when the largest angular
    gap between the nonzero phases is below pi - eps (they do not fit in a
    closed half-circle), or when gaps above eps split them into exactly two
    clusters whose first angles are antipodal within eps.  Returns a boolean
    array of length rows.  Used by the Grassmann-Pluecker checker, where every
    column is the term multiset of one (X, Y) pair.  Every operation runs
    along the long axis, over the m short rows; the sort is an odd-even
    transposition network of exact minimum/maximum steps, so it gives the
    same values as ``np.sort``.
    """
    m, rows = units.shape
    nz = np.abs(units) > 0.5
    cnt = nz.sum(axis=0)
    ang = np.angle(units)
    ang += TAU * (ang < 0)  # np.mod(ang, TAU) bit for bit, several times faster
    # zeros sort last, then repeat the last nonzero phase: the gaps after it are 0
    ang[~nz] = TAU
    low = np.empty(rows)
    for step in range(m):
        for i in range(step % 2, m - 1, 2):
            np.minimum(ang[i], ang[i + 1], out=low)
            np.maximum(ang[i], ang[i + 1], out=ang[i + 1])
            ang[i] = low
    np.minimum(ang, np.take_along_axis(ang, np.maximum(cnt - 1, 0)[None, :], axis=0), out=ang)
    gaps = np.empty((m, rows))
    gaps[:-1] = np.diff(ang, axis=0)
    gaps[-1] = TAU - (ang[-1] - ang[0])  # wrap-around gap
    full = gaps.max(axis=0) < math.pi - eps
    # remaining sets fit in a closed half-circle: zero is present only for an
    # exact antipodal pair of distinct phases.  Gaps above eps split a set into
    # clusters; for two of them, compare the first angle with the first angle
    # separated from it by more than eps.
    two = ~full & ((gaps > eps).sum(axis=0) == 2)
    a = ang[:, two]
    other = np.where(a - a[:1] > eps, a, np.inf).min(axis=0)
    d = np.abs(other - a[0])
    antip = np.zeros(rows, dtype=bool)
    antip[two] = np.abs(np.minimum(d, TAU - d) - math.pi) < eps
    return (cnt == 0) | full | antip


def zero_in_hypersum(phases: Iterable[Phase], tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether some strictly positive combination of the phases is zero: the
    one-column case of ``zero_in_hypersum_batch``.  Zero phases contribute
    nothing; the empty set has no combination and gives False."""
    units = [p.unit() for p in phases]
    if not units:
        return False
    return bool(zero_in_hypersum_batch(np.array(units)[:, None], tol.eps)[0])


@dataclass(frozen=True)
class TriangleEquation:
    """gamma = ph(s1*alpha - s2*beta) with exactly one of s1, s2 unknown.

    All three phases are nonzero and alpha != +/-beta; the known side is a
    positive finite real, the unknown side is ``None``.
    """

    gamma: Phase
    alpha: Phase
    beta: Phase
    s1: Optional[float] = None
    s2: Optional[float] = None

    def __post_init__(self):
        if self.gamma.is_zero or self.alpha.is_zero or self.beta.is_zero:
            raise ValueError("triangular equations need nonzero phases")
        if (self.s1 is None) == (self.s2 is None):
            raise ValueError("exactly one of s1, s2 must be unknown")
        known = self.s1 if self.s1 is not None else self.s2
        if not 0.0 < known < math.inf:  # NaN fails both comparisons
            raise ValueError("the known side must be positive and finite")


def triangle_solve(eq: TriangleEquation, tol: Tolerance = DEFAULT_TOLERANCE):
    """Solve a triangular equation for its unknown positive norm.

    Returns ``(solved_unknown, residual_norm)`` where the residual norm is the
    positive t with s1*alpha - s2*beta = t*gamma.  The 2x2 real linear system
    in (unknown, t) is solved by direct elimination; no trigonometric closed
    form is used.

    Raises :class:`DegenerateTriangleError` when alpha = +/-beta (the equation
    violates its own invariant) and :class:`InfeasibleTriangleError` when no
    strictly positive solution exists, including the singular limits
    gamma = +/-beta (unknown s2) and gamma = +/-alpha (unknown s1).
    """
    a, b, g = eq.alpha.angle, eq.beta.angle, eq.gamma.angle
    if circular_distance(a, b) < tol.eps or circular_distance(a + math.pi, b) < tol.eps:
        raise DegenerateTriangleError("alpha = +/-beta")
    ua = (math.cos(a), math.sin(a))
    ub = (math.cos(b), math.sin(b))
    ug = (math.cos(g), math.sin(g))
    if eq.s2 is None:
        # s1*ua = s2*ub + t*ug: columns (ub, ug), rhs s1*ua
        c1, c2, rhs, scale = ub, ug, ua, eq.s1
    else:
        # s2*ub = s1*ua - t*ug: columns (ua, -ug), rhs s2*ub
        c1, c2, rhs, scale = ua, (-ug[0], -ug[1]), ub, eq.s2
    det = c1[0] * c2[1] - c1[1] * c2[0]
    if abs(det) < tol.eps:
        raise InfeasibleTriangleError(
            "gamma is (anti)parallel to the known side: no positive solution")
    rx, ry = scale * rhs[0], scale * rhs[1]
    s = (rx * c2[1] - ry * c2[0]) / det
    t = (c1[0] * ry - c1[1] * rx) / det
    if s <= 0.0 or t <= 0.0:
        raise InfeasibleTriangleError(f"solved norms not positive: s={s:.6g}, t={t:.6g}")
    s1 = eq.s1 if eq.s1 is not None else s
    s2 = eq.s2 if eq.s2 is not None else s
    check = s1 * complex(ua[0], ua[1]) - s2 * complex(ub[0], ub[1])
    resid = circular_distance(cmath.phase(check), g)
    if resid > 10 * tol.eps and resid > TRIANGLE_RESIDUAL_FLOOR:
        raise InfeasibleTriangleError(f"solution fails phase check (residual {resid:.3g})")
    return s, t
