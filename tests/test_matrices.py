"""Complex matrix storage, determinants, scaling and standard form."""

import cmath
import itertools
import math

import numpy as np
import pytest

from phasedmatroids import (
    ComplexMatrix,
    PhasedMatroidError,
    SingularLeadingBlockError,
    ZeroScalarError,
    all_maximal_minors,
    from_matrix,
    maximal_minor,
    scale,
    to_standard_form,
)
from phasedmatroids.matrices import _dets


def random_matrix(rng, r, n):
    return ComplexMatrix.from_complex(rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))


def test_runex_minor_vanishes(runex_matrix):
    assert abs(maximal_minor(runex_matrix, (1, 2, 4))) < 1e-12


def test_identity_columns_minor(runex_matrix):
    assert maximal_minor(runex_matrix, (1, 2, 3)) == pytest.approx(1.0)


def test_runex_minor_135(runex_matrix):
    expected = -(4 / 3) * cmath.exp(1j * math.pi / 4)
    assert maximal_minor(runex_matrix, (1, 3, 5)) == pytest.approx(expected)


def test_repeated_columns_minor_is_zero(runex_matrix):
    assert maximal_minor(runex_matrix, (2, 2, 4)) == 0j


def test_minor_order_antisymmetry(runex_matrix):
    assert maximal_minor(runex_matrix, (2, 1, 5)) == pytest.approx(
        -maximal_minor(runex_matrix, (1, 2, 5)))


def test_scale_reconstructs_runex(runex_matrix):
    """The scaled real matrix equals the complex one it was derived from."""
    real = ComplexMatrix.from_complex(np.array([
        [1, 0, 0, 1, 1],
        [0, 1, 0, 1, 2],
        [0, 0, 1, 0, -1],
    ], dtype=complex))
    rows = [cmath.exp(1j * math.pi / 2), 2 * cmath.exp(1j * math.pi / 4), 3]
    cols = [cmath.exp(1j * 3 * math.pi / 2), 0.5 * cmath.exp(1j * 7 * math.pi / 4),
            1 / 3, 0.5 * cmath.exp(1j * 7 * math.pi / 4), 1 / 3]
    assert scale(real, rows, cols).max_distance(runex_matrix) < 1e-12


def test_scale_rejects_zero_scalars(runex_matrix):
    with pytest.raises(ZeroScalarError):
        scale(runex_matrix, [1, 0, 1], [1] * 5)


def test_positive_scaling_preserves_phirotope():
    rng = np.random.default_rng(11)
    m = random_matrix(rng, 3, 6)
    scaled = scale(m, rng.uniform(0.2, 5, size=3), rng.uniform(0.2, 5, size=6))
    assert from_matrix(m).isclose(from_matrix(scaled))


def test_scale_invertible():
    rng = np.random.default_rng(12)
    m = random_matrix(rng, 3, 5)
    rs = rng.normal(size=3) + 1j * rng.normal(size=3)
    cs = rng.normal(size=5) + 1j * rng.normal(size=5)
    back = scale(scale(m, rs, cs), 1 / rs, 1 / cs)
    assert back.max_distance(m) < 1e-12


def test_standard_form_idempotent():
    rng = np.random.default_rng(13)
    m = to_standard_form(random_matrix(rng, 3, 6))
    assert to_standard_form(m).max_distance(m) < 1e-12
    assert np.allclose(m.to_complex()[:, :3], np.eye(3))


def test_standard_form_orbit_invariance():
    rng = np.random.default_rng(14)
    m = random_matrix(rng, 3, 7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    left = ComplexMatrix.from_complex(a @ m.to_complex())
    assert to_standard_form(left).max_distance(to_standard_form(m)) < 1e-9


def test_standard_form_singular_leading_block():
    m = ComplexMatrix.from_complex(np.array([[1, 2, 3], [2, 4, 5]], dtype=complex))
    with pytest.raises(SingularLeadingBlockError):
        to_standard_form(m)


def test_det_multiplicative():
    rng = np.random.default_rng(15)
    for r in (2, 3, 4, 5):
        m = random_matrix(rng, r, r + 2)
        a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        cols = tuple(range(1, r + 1))
        lhs = maximal_minor(ComplexMatrix.from_complex(a @ m.to_complex()), cols)
        rhs = np.linalg.det(a) * maximal_minor(m, cols)
        assert abs(lhs - rhs) / abs(rhs) < 1e-9


def test_all_maximal_minors_matches_single():
    rng = np.random.default_rng(16)
    for r, n in ((1, 4), (2, 5), (3, 6), (4, 7)):
        m = random_matrix(rng, r, n)
        batch = all_maximal_minors(m)
        for cols, d in batch.items():
            assert d == pytest.approx(maximal_minor(m, cols), abs=1e-10)


def test_all_maximal_minors_stacks_in_blocks_with_the_same_bits():
    """At (5, 16) the 4368 minors take two determinant calls; each
    determinant is the one a single stack of all of them gives."""
    m = random_matrix(np.random.default_rng(18), 5, 16)
    subsets = list(itertools.combinations(range(16), 5))
    whole = _dets(m.to_complex()[:, np.asarray(subsets)].transpose(1, 0, 2))
    assert list(all_maximal_minors(m).values()) == [complex(d) for d in whole]


def test_polar_roundtrip():
    rng = np.random.default_rng(17)
    arr = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    arr[0, 1] = 0.0
    m = ComplexMatrix.from_complex(arr)
    assert np.abs(m.to_complex() - arr).max() < 1e-12
    assert m.entry_phase(1, 2).is_zero
    assert m.entry_norm(1, 2) == 0.0


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((3, 2)), np.zeros((3, 2)))  # more rows than cols
    with pytest.raises(ValueError):
        ComplexMatrix(-np.ones((2, 3)), np.zeros((2, 3)))
    for bad in (math.nan, math.inf):  # an entry, or through from_complex
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix(np.array([[1.0, bad]]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix(np.ones((1, 2)), np.array([[0.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix.from_complex([[1, bad]])
