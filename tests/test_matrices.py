"""Complex matrix storage and determinants, and the scaling and standard-form
oracles that other tests build their matrices with."""

import cmath
import itertools
import math

import numpy as np
import pytest

from phasedmatroids import ComplexMatrix, IndexOutOfRangeError, from_matrix
from phasedmatroids.matrices import _dets, all_maximal_minors

from oracles import max_entry_distance, minor_det, scaled, standard_form


def random_matrix(rng, r, n):
    return ComplexMatrix.from_complex(rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))


def minor(m, cols):
    """The maximal minor on 1-based ``cols``, read from ``all_maximal_minors``
    at the lex position of ``cols``."""
    lex = list(itertools.combinations(range(1, m.cols + 1), m.rows))
    return all_maximal_minors(m)[lex.index(tuple(cols))]


def test_runex_minor_vanishes(runex_matrix):
    assert abs(minor(runex_matrix, (1, 2, 4))) < 1e-12


def test_identity_columns_minor(runex_matrix):
    assert minor(runex_matrix, (1, 2, 3)) == pytest.approx(1.0)


def test_runex_minor_135(runex_matrix):
    expected = -(4 / 3) * cmath.exp(1j * math.pi / 4)
    assert minor(runex_matrix, (1, 3, 5)) == pytest.approx(expected)


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
    assert max_entry_distance(scaled(real, rows, cols), runex_matrix) < 1e-12


def test_positive_scaling_preserves_phirotope():
    rng = np.random.default_rng(11)
    m = random_matrix(rng, 3, 6)
    phi = from_matrix(m)
    other = from_matrix(scaled(m, rng.uniform(0.2, 5, size=3), rng.uniform(0.2, 5, size=6)))
    assert phi.max_angular_distance(other) < phi.tolerance.eps


def test_scale_invertible():
    rng = np.random.default_rng(12)
    m = random_matrix(rng, 3, 5)
    rs = rng.normal(size=3) + 1j * rng.normal(size=3)
    cs = rng.normal(size=5) + 1j * rng.normal(size=5)
    back = scaled(scaled(m, rs, cs), 1 / rs, 1 / cs)
    assert max_entry_distance(back, m) < 1e-12


def test_standard_form_idempotent():
    rng = np.random.default_rng(13)
    m = standard_form(random_matrix(rng, 3, 6))
    assert max_entry_distance(standard_form(m), m) < 1e-12
    assert np.allclose(m.to_complex()[:, :3], np.eye(3))


def test_standard_form_orbit_invariance():
    rng = np.random.default_rng(14)
    m = random_matrix(rng, 3, 7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    left = ComplexMatrix.from_complex(a @ m.to_complex())
    assert max_entry_distance(standard_form(left), standard_form(m)) < 1e-9


def test_standard_form_singular_leading_block():
    m = ComplexMatrix.from_complex(np.array([[1, 2, 3], [2, 4, 5]], dtype=complex))
    with pytest.raises(ValueError):
        standard_form(m)


def test_det_multiplicative():
    rng = np.random.default_rng(15)
    for r in (2, 3, 4, 5):
        m = random_matrix(rng, r, r + 2)
        a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        cols = tuple(range(1, r + 1))
        lhs = minor(ComplexMatrix.from_complex(a @ m.to_complex()), cols)
        rhs = np.linalg.det(a) * minor(m, cols)
        assert abs(lhs - rhs) / abs(rhs) < 1e-9


def test_all_maximal_minors_matches_single():
    rng = np.random.default_rng(16)
    for r, n in ((1, 4), (2, 5), (3, 6), (4, 7)):
        m = random_matrix(rng, r, n)
        batch = all_maximal_minors(m)
        for cols, d in zip(itertools.combinations(range(1, n + 1), r), batch, strict=True):
            assert d == pytest.approx(minor_det(m, range(1, r + 1), cols), abs=1e-10)


def test_all_maximal_minors_stacks_in_blocks_with_the_same_bits():
    """At (5, 16) the 4368 minors take two determinant calls; each
    determinant is the one a single stack of all of them gives."""
    m = random_matrix(np.random.default_rng(18), 5, 16)
    subsets = list(itertools.combinations(range(16), 5))
    whole = _dets(m.to_complex()[:, np.asarray(subsets)].transpose(1, 0, 2))
    assert all_maximal_minors(m).tolist() == [complex(d) for d in whole]


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
    with pytest.raises(ValueError, match="equal-shape"):
        ComplexMatrix(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        ComplexMatrix(-np.ones((2, 3)), np.zeros((2, 3)))
    for bad in (math.nan, math.inf):  # an entry, or through from_complex
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix(np.array([[1.0, bad]]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix(np.ones((1, 2)), np.array([[0.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix.from_complex([[1, bad]])


def test_matrix_with_no_rows_is_refused():
    """A (0, n) or (0, 0) matrix has no maximal minor; from_matrix would
    divide by r * r = 0."""
    for shape in ((0, 3), (0, 0)):
        with pytest.raises(ValueError, match="at least one row"):
            ComplexMatrix(np.zeros(shape), np.zeros(shape))
        with pytest.raises(ValueError, match="at least one row"):
            ComplexMatrix.from_complex(np.zeros(shape, dtype=complex))


def test_entry_norm_outside_the_matrix(runex_matrix):
    """A bool, float or string index is refused like an out-of-range one, not
    read as row 1 nor met with a bare IndexError or TypeError; numpy integers
    are integers."""
    for i, j in ((0, 1), (4, 1), (1, 6), (True, 1), (1, True), (np.True_, 1),
                 (1.5, 1), (1, 1.5), ("1", 1), (1, "1")):
        for read in (runex_matrix.entry_norm, runex_matrix.entry_phase):
            with pytest.raises(IndexOutOfRangeError):
                read(i, j)
    assert runex_matrix.entry_norm(np.int64(2), np.int32(3)) == runex_matrix.entry_norm(2, 3)
    assert runex_matrix.entry_phase(np.int64(2), np.int32(3)) == runex_matrix.entry_phase(2, 3)
