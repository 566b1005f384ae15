"""Phirotope storage, alternation, validation and group actions."""

import cmath
import itertools
import math

import numpy as np
import pytest

from phasedmatroids import (
    ComplexMatrix,
    IndexOutOfRangeError,
    InvalidPhirotopeError,
    NotAMatroidError,
    Phase,
    Phirotope,
    RankDeficientError,
    Rephasing,
    UnderlyingMatroid,
    from_matrix,
    is_uniform,
    phase_of,
    rephase,
    scale,
    scale_global,
    sort_with_sign,
    underlying_matroid,
    verify,
)
from phasedmatroids.jsonio import matrix_from_json
from phasedmatroids.phases import zero_in_hypersum_batch

from conftest import load_fixture


def test_sort_with_sign():
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1, 3)) == ((1, 2, 3), -1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1, 3)) == ((1, 1, 3), 0)


def test_eval_alternation(nonreal2ex_phi):
    phi = nonreal2ex_phi
    assert phi.evaluate((2, 1)).isclose(-phi.evaluate((1, 2)))
    assert phi.evaluate((1, 1)).is_zero
    # phi(2,4) = -e^{i pi/2}, so the swapped evaluation is e^{i pi/2}
    assert phi.evaluate((4, 2)).isclose(Phase.from_angle_over_pi(0.5))
    with pytest.raises(IndexOutOfRangeError):
        phi.evaluate((0, 3))


def test_not_identically_zero():
    with pytest.raises(ValueError):
        Phirotope(3, 2, {b: Phase(None) for b in ((1, 2), (1, 3), (2, 3))})


def test_missing_basis_rejected():
    with pytest.raises(ValueError):
        Phirotope(3, 2, {(1, 2): Phase(0.0)})


def test_gp_violation_detected():
    values = {(1, 2): Phase(0.0), (1, 3): Phase(0.0), (1, 4): Phase(0.0),
              (2, 3): Phase(0.0), (2, 4): Phase(0.0),
              (3, 4): Phase.from_angle_over_pi(0.5)}
    with pytest.raises(InvalidPhirotopeError):
        Phirotope(4, 2, values)
    phi = Phirotope(4, 2, values, validate=False)
    violations = phi.check_gp()
    assert ((2, 3, 4), (1,)) in violations
    assert violations == sorted(violations)


def test_from_matrix_runex(runex_phi):
    assert runex_phi.value((1, 2, 4)).is_zero
    assert runex_phi.value((1, 3, 5)).isclose(Phase.from_angle_over_pi(1.25))
    assert runex_phi.check_gp() == []


def test_from_matrix_real_is_sign_valued():
    rng = np.random.default_rng(21)
    m = ComplexMatrix.from_complex(
        np.hstack([np.eye(3), rng.normal(size=(3, 3))]).astype(complex))
    phi = from_matrix(m)
    for p in phi.values.values():
        assert p.is_real()


def test_from_matrix_nonreal2ex_canonical_matrix():
    m = ComplexMatrix.from_complex(np.array([
        [1, 0, 1, cmath.exp(1j * math.pi / 2), cmath.exp(1j * math.pi / 3)],
        [0, 1, 1, 1, 1],
    ], dtype=complex))
    phi = from_matrix(m)
    assert phi.value((3, 4)).isclose(Phase.from_angle_over_pi(1.75))
    assert phi.value((4, 5)).isclose(Phase.from_angle_over_pi(11 / 12))


def test_from_matrix_rank_deficient():
    m = ComplexMatrix.from_complex(np.zeros((2, 4), dtype=complex) + 0j)
    with pytest.raises(RankDeficientError):
        from_matrix(m)


def test_rephase_identity(nonreal2ex_phi):
    assert rephase(nonreal2ex_phi, Rephasing.identity(5)) == nonreal2ex_phi


def test_rephase_matches_column_scaling():
    rng = np.random.default_rng(22)
    m = ComplexMatrix.from_complex(rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6)))
    rho = Rephasing(tuple(Phase.from_angle(a) for a in rng.uniform(0, 2 * np.pi, 6)))
    scaled = scale(m, np.ones(3), np.array([p.unit() for p in rho.rho]))
    assert from_matrix(scaled).isclose(rephase(from_matrix(m), rho), tol=None)


def test_rephase_roundtrip_closes():
    rng = np.random.default_rng(23)
    m = ComplexMatrix.from_complex(rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)))
    phi = from_matrix(m)
    rho = Rephasing(tuple(Phase.from_angle(a) for a in rng.uniform(0, 2 * np.pi, 5)))
    back = rephase(rephase(phi, rho), rho.inverse())
    assert back.max_angular_distance(phi) < 1e-12


def test_scale_global(nonreal2ex_phi):
    assert scale_global(nonreal2ex_phi, Phase(0.0)) == nonreal2ex_phi
    flipped_twice = scale_global(scale_global(nonreal2ex_phi, Phase(math.pi)), Phase(math.pi))
    assert flipped_twice.max_angular_distance(nonreal2ex_phi) < 1e-12


def test_scale_global_matches_left_multiplication():
    rng = np.random.default_rng(24)
    m = ComplexMatrix.from_complex(rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)))
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    left = ComplexMatrix.from_complex(a @ m.to_complex())
    expected = scale_global(from_matrix(m), phase_of(np.linalg.det(a)))
    assert from_matrix(left).isclose(expected, tol=None)


def test_underlying_matroid(runex_phi, nonreal2ex_phi):
    m = underlying_matroid(runex_phi)
    assert not m.is_uniform
    assert not m.is_basis((1, 2, 4))
    assert m.is_basis((2, 3, 4))
    assert is_uniform(nonreal2ex_phi)
    assert not is_uniform(runex_phi)


def test_exchange_axiom_violation():
    # {1,2} and {3,4} with no exchange partner
    with pytest.raises(NotAMatroidError):
        UnderlyingMatroid.from_bases(4, 2, [(1, 2), (3, 4)])


def test_random_matrix_is_uniform():
    rng = np.random.default_rng(25)
    m = ComplexMatrix.from_complex(rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7)))
    assert is_uniform(from_matrix(m))


def test_check_gp_random_matrices():
    rng = np.random.default_rng(26)
    for r in (2, 3, 4):
        for n in range(4, 10):
            if n < r:
                continue
            for _ in range(5):
                arr = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
                phi = from_matrix(ComplexMatrix.from_complex(arr))
                assert phi.check_gp() == []


def test_matrix_born_supports_are_matroids():
    """GP implies basis exchange (see underlying_matroid): non-uniform
    matrix-born phirotopes pass GP, and their supports pass the exchange check."""
    rng = np.random.default_rng(27)
    nonuniform = 0
    for _ in range(200):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(r + 1, 9))
        nmat = rng.normal(size=(r, n - r)) + 1j * rng.normal(size=(r, n - r))
        nmat[rng.random(nmat.shape) < 0.4] = 0
        left = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        m = ComplexMatrix.from_complex(left @ np.hstack([np.eye(r), nmat]))
        rho = Rephasing(tuple(Phase.from_angle(a) for a in rng.uniform(0, 2 * np.pi, n)))
        phi = rephase(from_matrix(m), rho)
        assert phi.check_gp() == []
        UnderlyingMatroid.from_bases(n, r, [b for b, p in phi.values.items() if not p.is_zero])
        nonuniform += not is_uniform(phi)
    assert nonuniform >= 150


def test_non_matroid_support_violates_gp_at_the_exchange_pair():
    # bases {1,2}, {3,4}: x = 1 has no exchange partner, and the relation at
    # X = {3,4} + {1}, Y = {1,2} - {1} has a lone nonzero term
    values = {b: Phase(None) for b in ((1, 3), (1, 4), (2, 3), (2, 4))}
    values[(1, 2)] = Phase(0.0)
    values[(3, 4)] = Phase.from_angle_over_pi(0.5)
    phi = Phirotope(4, 2, values, validate=False)
    assert ((1, 3, 4), (2,)) in phi.check_gp()


def _gp_oracle(phi):
    """The violating (X, Y) pairs of phi, in lex order.  Each row
    (-1)^k phi(X - x_k) phi(x_k, Y), k = 1..r+1, is built on its own from
    Phirotope.value and sort_with_sign; the rows are then judged in one call
    of the kernel, which treats every row on its own."""
    ground = range(1, phi.n + 1)
    pairs, rows = [], []
    for x in itertools.combinations(ground, phi.r + 1):
        for y in itertools.combinations(ground, phi.r - 1):
            first, second = [], []
            for k, xk in enumerate(x):
                first.append((-1) ** (k + 1) * phi.value(x[:k] + x[k + 1:]).unit())
                srt, sign = sort_with_sign((xk,) + y)
                second.append(0j if sign == 0 else sign * phi.value(srt).unit())
            pairs.append((x, y))
            rows.append(np.array(first) * np.array(second))
    if not rows:
        return []
    ok = zero_in_hypersum_batch(np.array(rows), phi.tolerance.eps)
    return [pair for pair, good in zip(pairs, ok) if not good]


def _gp_oracle_cases():
    """Matrix-born phirotopes, uniform and with zeros in N, r = 1..4 and
    n = r..r+5; half of them have 1-3 values rotated by 0.5-5.5 rad."""
    rng = np.random.default_rng(28)
    for r in range(1, 5):
        for n in range(r, r + 6):
            for zero_share, rotate in itertools.product((0.0, 0.4), (False, True)):
                nmat = rng.normal(size=(r, n - r)) + 1j * rng.normal(size=(r, n - r))
                nmat[rng.random(nmat.shape) < zero_share] = 0
                left = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
                values = dict(from_matrix(ComplexMatrix.from_complex(
                    left @ np.hstack([np.eye(r), nmat]))).values)
                if rotate:
                    nonzero = [b for b, p in values.items() if not p.is_zero]
                    picks = rng.choice(len(nonzero), size=min(len(nonzero), int(rng.integers(1, 4))),
                                       replace=False)
                    for i in picks:
                        b = nonzero[i]
                        values[b] = Phase.from_angle(values[b].angle + rng.uniform(0.5, 5.5))
                yield Phirotope(n, r, values, validate=False)


def test_check_gp_matches_row_by_row_oracle():
    invalid = 0
    for phi in _gp_oracle_cases():
        violations = phi.check_gp()
        assert violations == _gp_oracle(phi), phi
        invalid += bool(violations)
    assert invalid >= 15


def _scaling_cases():
    rng = np.random.default_rng(0)
    for r, n in ((3, 6), (2, 5), (4, 7)):
        yield f"gaussian-{r}x{n}", ComplexMatrix.from_complex(
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))
    yield "runex", matrix_from_json(load_fixture("runex_matrix.json"))


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e150, 1e-200])
@pytest.mark.parametrize("name, m", list(_scaling_cases()),
                         ids=[name for name, _ in _scaling_cases()])
def test_minor_phases_do_not_change_when_the_matrix_is_scaled(name, m, c):
    phi = from_matrix(m)
    scaled = ComplexMatrix(m.norms * c, m.angles)
    psi = from_matrix(scaled)
    assert [p.is_zero for p in psi.values.values()] == [p.is_zero for p in phi.values.values()]
    assert phi.max_angular_distance(psi) < 1e-12
    assert verify(phi, scaled) is None
