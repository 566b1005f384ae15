"""Duality as a differential oracle.

The dual phi* of a rank-r phirotope on [n] (``oracles.dual``) has rank n - r,
so it reaches its verdict through another forest, other triangle passes and
other Grassmann-Pluecker tables.  The relation of phi at (X, Y) and that of
phi* at (Y^c, X^c) have the same nonzero terms, up to one common sign, so the
two violation lists correspond pair for pair; and (-N^T | I) realizes phi*
iff (I | N) realizes phi, so the verdicts agree.  Rotations below 1e-3 are
left out: there a tolerance can make ``NotRealizable`` and ``Realizable``
twins (ROADMAP item 13).
"""

import math

import numpy as np

from phasedmatroids import (
    DEFAULT_TOLERANCE,
    ComplexMatrix,
    Phase,
    Phirotope,
    from_matrix,
    scale_global,
)
from phasedmatroids.errors import PhasedMatroidError
from phasedmatroids.realization import NOT_A_PHIROTOPE, decide_realizability

from oracles import dual


def _cases():
    """300 phirotopes from ``default_rng(5)``, n = 4..9 and r = 2..n-2: a
    third each matrix-born, with one value rotated by 1e-3, and by 0.7."""
    rng = np.random.default_rng(5)
    cases = []
    for k in range(300):
        n = int(rng.integers(4, 10))
        r = int(rng.integers(2, n - 1))
        phi = from_matrix(ComplexMatrix.from_complex(
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))))
        rotation = (None, 1e-3, 0.7)[k % 3]
        if rotation is not None:
            angles = phi.angles.copy()
            i = int(rng.integers(len(angles)))
            angles[i] = (angles[i] + rotation) % (2 * math.pi)
            phi = Phirotope._from_angles(n, r, angles, DEFAULT_TOLERANCE)
        cases.append(phi)
    return cases


CASES = _cases()


def _complement(subset, n):
    return tuple(e for e in range(1, n + 1) if e not in subset)


def _verdict(phi):
    """The verdict's class and reason, or the class of the error raised."""
    try:
        verdict = decide_realizability(phi)
    except PhasedMatroidError as exc:
        return type(exc).__name__, None
    return type(verdict).__name__, getattr(verdict, "reason", None)


def test_dual_twice_is_phi_times_the_sign_of_r_times_n_minus_r():
    for phi in CASES[:30]:
        sign = Phase(math.pi * (phi.r * (phi.n - phi.r) % 2))
        assert dual(dual(phi)).max_angular_distance(scale_global(phi, sign)) < 1e-12


def test_check_gp_lists_map_under_complements():
    for phi in CASES:
        n = phi.n
        expected = sorted((_complement(y, n), _complement(x, n)) for x, y in phi.check_gp())
        assert dual(phi).check_gp() == expected, phi


def test_verdict_class_and_reason_agree_with_the_dual():
    seen = set()
    for phi in CASES:
        verdict = _verdict(phi)
        assert _verdict(dual(phi)) == verdict, phi
        seen.add(verdict)
    # every verdict the pipeline reaches on uniform inputs is exercised
    assert {("Realizable", None), ("NotRealizable", None),
            ("Unsupported", NOT_A_PHIROTOPE)} <= seen
