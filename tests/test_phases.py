"""Phase arithmetic, hypersum zero membership and the triangle solver."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedmatroids import (
    DEFAULT_TOLERANCE,
    ZERO,
    DegenerateTriangleError,
    InfeasibleTriangleError,
    Phase,
    Tolerance,
    phase_of,
)
from phasedmatroids.phases import circular_distance, triangle_solve

from oracles import isclose, unit, zero_in_hypersum

ONE = Phase(0.0)
MINUS_ONE = Phase(math.pi)

angles = st.floats(min_value=-20.0, max_value=20.0,
                   allow_nan=False, allow_infinity=False)


def test_phase_of_zero():
    assert phase_of(0j) is ZERO or phase_of(0j).is_zero


def test_phase_of_negative_real():
    assert isclose(phase_of(-3 + 0j), MINUS_ONE)


def test_phase_of_scaled_unit():
    # magnitude must not affect the phase
    z = (1 / 3) * cmath.exp(1j * math.pi / 2)
    assert isclose(phase_of(z), Phase.from_angle(math.pi / 2))


def test_phase_normalization_range():
    p = Phase.from_angle(-math.pi / 3)
    assert 0.0 <= p.angle < 2 * math.pi
    assert isclose(p, Phase.from_angle(5 * math.pi / 3))


def test_phase_rejects_nan_infinite_and_out_of_range_angles():
    """A NaN angle would read as a zero phase in the GP kernel, and one
    outside [0, 2*pi) would serialize outside the documented range."""
    for bad in (math.nan, math.inf, -math.inf, -0.5, 2 * math.pi, 7.0):
        with pytest.raises(ValueError):
            Phase(bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Phase.from_angle(bad)
        with pytest.raises(ValueError):
            Phase.from_angle_over_pi(bad)
    assert Phase(None).is_zero
    assert Phase(0.0).angle == 0.0
    assert Phase(math.nextafter(2 * math.pi, 0.0)).angle < 2 * math.pi


def test_phase_multiplication_and_inverse():
    p = Phase.from_angle_over_pi(0.3)
    q = Phase.from_angle_over_pi(1.9)
    assert isclose(p * q, Phase.from_angle_over_pi(0.2))
    assert isclose(p * Phase.from_angle(-p.angle), ONE)
    assert (p * ZERO).is_zero
    assert isclose(-p, Phase.from_angle_over_pi(1.3))
    assert (-ZERO).is_zero


def test_zero_phase_has_no_angle_over_pi():
    with pytest.raises(ValueError, match="no angle"):
        ZERO.angle_over_pi


def test_tolerance_bounds():
    with pytest.raises(ValueError):
        Tolerance(0.0)
    with pytest.raises(ValueError):
        Tolerance(1.0)


@pytest.mark.parametrize("phases, expected", [
    ([], False),  # no strictly positive combination exists
    ([ONE, MINUS_ONE], True),
    ([ONE, Phase.from_angle(math.pi / 2)], False),  # an open quarter arc
    ([Phase.from_angle_over_pi(x) for x in (0.0, 0.5, 1.0, 1.5)], True),
    ([Phase.from_angle_over_pi(0.7), ZERO], False),  # the zero summand adds nothing
    ([ZERO, ZERO], True),
], ids=["empty", "antipodal-pair", "quarter-arc", "full-circle", "phase-and-zero", "all-zero"])
def test_zero_in_hypersum(phases, expected):
    assert zero_in_hypersum(phases) is expected


@given(st.lists(angles, min_size=1, max_size=6), st.randoms())
@settings(max_examples=200, deadline=None)
def test_hypersum_order_and_multiplicity_insensitive(raw, rnd):
    phases = [Phase.from_angle(a) for a in raw]
    shuffled = list(phases)
    rnd.shuffle(shuffled)
    doubled = phases + phases
    base = zero_in_hypersum(phases)
    assert zero_in_hypersum(shuffled) == base
    assert zero_in_hypersum(doubled) == base


def solve_one(gamma, alpha, beta, s1=None, s2=None, tol=DEFAULT_TOLERANCE):
    """``triangle_solve`` on the angles of three nonzero phases: s1 and s2
    are None on the unknown side."""
    return triangle_solve(gamma.angle, alpha.angle, beta.angle, s1, s2, tol)


def test_triangle_nonreal2ex_entry_norms():
    # 1 - e^{i pi/2} has phase 7pi/4; the unknown side has norm 1
    s2 = solve_one(Phase.from_angle_over_pi(1.75), ONE, Phase.from_angle_over_pi(0.5), s1=1.0)
    assert math.isclose(s2, 1.0, abs_tol=1e-12)
    s2 = solve_one(Phase.from_angle_over_pi(5 / 3), ONE, Phase.from_angle_over_pi(1 / 3), s1=1.0)
    assert math.isclose(s2, 1.0, abs_tol=1e-12)


def test_triangle_singular_is_infeasible():
    # gamma antiparallel to the unknown side: no positive solution exists
    with pytest.raises(InfeasibleTriangleError):
        solve_one(Phase.from_angle_over_pi(1.5), ONE, Phase.from_angle_over_pi(0.5), s1=1.0)


def test_triangle_negative_solution_is_infeasible():
    # gamma inside the cone spanned by +alpha and +beta cannot equal
    # ph(s1*alpha - s2*beta)
    with pytest.raises(InfeasibleTriangleError):
        solve_one(Phase.from_angle_over_pi(0.25), ONE, Phase.from_angle_over_pi(0.5), s1=1.0)


def test_triangle_solution_failing_the_phase_check_is_infeasible():
    # alpha and beta 2e-12 apart pass the degeneracy test at eps 1e-12, but
    # the solved s1*alpha - s2*beta misses gamma by far more than 10 eps
    with pytest.raises(InfeasibleTriangleError, match=r"fails phase check \(residual 6\.83e-06\)"):
        solve_one(Phase.from_angle(1.3 * math.pi), Phase.from_angle(0.1 * math.pi),
                  Phase.from_angle(0.1 * math.pi + 2e-12), None, 1.0, Tolerance(1e-12))


def test_triangle_degenerate_directions():
    with pytest.raises(DegenerateTriangleError):
        solve_one(Phase.from_angle_over_pi(0.5), ONE, ONE, s1=1.0)
    with pytest.raises(DegenerateTriangleError):
        solve_one(Phase.from_angle_over_pi(0.5), ONE, MINUS_ONE, s1=1.0)


def test_triangle_equation_invariants():
    """The known side is positive and finite; this is checked before the
    degenerate alpha = -beta is."""
    with pytest.raises(ValueError, match="positive"):
        solve_one(ONE, ONE, MINUS_ONE, s1=-2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            solve_one(ONE, ONE, MINUS_ONE, s1=bad)
        with pytest.raises(ValueError, match="finite"):
            solve_one(ONE, ONE, MINUS_ONE, s2=bad)


@given(angles, angles, st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=300, deadline=None)
def test_triangle_roundtrip_and_determinism(a, b, s1, s2):
    alpha, beta = Phase.from_angle(a), Phase.from_angle(b)
    if circular_distance(alpha.angle, beta.angle) < 1e-3:
        return
    if circular_distance(alpha.angle + math.pi, beta.angle) < 1e-3:
        return
    z = s1 * unit(alpha) - s2 * unit(beta)
    gamma = phase_of(z)
    if gamma.is_zero:
        return
    got = solve_one(gamma, alpha, beta, s1=s1)
    resid = s1 * unit(alpha) - got * unit(beta)
    assert circular_distance(cmath.phase(resid), gamma.angle) < 10 * DEFAULT_TOLERANCE.eps + 1e-7
    again = solve_one(gamma, alpha, beta, s1=s1)
    assert again == got  # bit-for-bit deterministic
