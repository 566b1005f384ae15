"""Phirotope storage, alternation, validation and group actions."""

import cmath
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from phasedmatroids import (
    DEFAULT_TOLERANCE,
    ComplexMatrix,
    IndexOutOfRangeError,
    InvalidPhirotopeError,
    Phase,
    PhasedMatroidError,
    Phirotope,
    RankDeficientError,
    Rephasing,
    Unsupported,
    decide_realizability,
    from_matrix,
    is_uniform,
    minor_phase,
    phase_of,
    rephase,
    scale_global,
    verify,
)
from phasedmatroids import phirotopes
from phasedmatroids.jsonio import matrix_from_json, phirotope_from_json, phirotope_to_json
from phasedmatroids.phases import zero_in_hypersum_batch
from phasedmatroids.phirotopes import _lex_rank, _rank_terms, sort_with_sign

from conftest import load_fixture
from oracles import (
    angles_of,
    basis_exchange_failure,
    isclose,
    scaled,
    unchecked_phirotope,
    unit,
)


def test_sort_with_sign():
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1, 3)) == ((1, 2, 3), -1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1, 3)) == ((1, 1, 3), 0)


def test_eval_alternation(nonreal2ex_phi):
    phi = nonreal2ex_phi
    assert isclose(phi.evaluate((2, 1)), -phi.evaluate((1, 2)))
    assert phi.evaluate((1, 1)).is_zero
    # phi(2,4) = -e^{i pi/2}, so the swapped evaluation is e^{i pi/2}
    assert isclose(phi.evaluate((4, 2)), Phase.from_angle_over_pi(0.5))
    with pytest.raises(IndexOutOfRangeError):
        phi.evaluate((0, 3))
    with pytest.raises(ValueError, match="need 2 indices"):
        phi.evaluate((1, 2, 3))


def test_evaluate_refuses_indices_that_are_not_integers(nonreal2ex_phi, runex_phi):
    """A float, a string or a bool index is refused like an out-of-range one,
    not with a bare KeyError or TypeError, nor read as 1 or 0; numpy integers
    are integers."""
    for bad in ((1.5, 2), (2.0, 1), ("1", 2), (True, 2), (2, False), (np.True_, 2)):
        with pytest.raises(IndexOutOfRangeError):
            nonreal2ex_phi.evaluate(bad)
    for rows, cols in (((1,), (3.5,)), ((True,), (5,)), ((1.0,), (5,)), ((1, 2), (4, True))):
        with pytest.raises(IndexOutOfRangeError):
            minor_phase(runex_phi, rows, cols)
    assert nonreal2ex_phi.evaluate((np.int64(4), np.int32(2))) == nonreal2ex_phi.evaluate((4, 2))


def test_not_identically_zero():
    with pytest.raises(ValueError):
        Phirotope(3, 2, {b: Phase(None) for b in ((1, 2), (1, 3), (2, 3))})


def test_missing_basis_rejected():
    with pytest.raises(ValueError):
        Phirotope(3, 2, {(1, 2): Phase(0.0)})


@pytest.mark.parametrize("n, r", [(10**9, 5 * 10**8), (10**8, 10**8)])
def test_completeness_guard_bounds_memory(n, r):
    """Fewer than n values (none, when r = n) are refused before an r-subset
    is listed or C(n, r) computed: the first subset alone would hold r ints.
    The subprocess's address space is capped at 1 GiB, so that a regression
    ends in a MemoryError instead of exhausting the host."""
    resource = pytest.importorskip("resource")
    script = ("from phasedmatroids import Phirotope\n"
              "try:\n"
              f"    Phirotope({n}, {r}, {{}})\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (2**30, 2**30)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"expected C({n}, {r}) values, got 0: "), proc.stdout


def test_unexpected_key_rejected():
    """A key that is not a sorted r-subset of [n] is refused by name, not
    dropped: (3, 1) would otherwise hide a value that conflicts with (1, 3)."""
    values = {(1, 2): Phase(0.0), (1, 3): Phase(0.0), (2, 3): Phase(0.0)}
    for key in ((3, 1), (7, 9), "x", (1, 2, 3)):
        with pytest.raises(ValueError, match=re.escape(f"key {key!r}")):
            Phirotope(3, 2, {**values, key: Phase(1.0)})


def test_rank_outside_one_to_n_rejected():
    for n, r in ((2, 3), (2, 0)):
        with pytest.raises(ValueError, match="rank"):
            Phirotope(n, r, {})


def test_gp_violation_detected():
    values = {(1, 2): Phase(0.0), (1, 3): Phase(0.0), (1, 4): Phase(0.0),
              (2, 3): Phase(0.0), (2, 4): Phase(0.0),
              (3, 4): Phase.from_angle_over_pi(0.5)}
    with pytest.raises(InvalidPhirotopeError):
        Phirotope(4, 2, values)
    phi = unchecked_phirotope(4, 2, values)
    violations = phi.check_gp()
    assert ((2, 3, 4), (1,)) in violations
    assert violations == sorted(violations)


def test_from_matrix_runex(runex_phi):
    assert runex_phi.values[(1, 2, 4)].is_zero
    assert isclose(runex_phi.values[(1, 3, 5)], Phase.from_angle_over_pi(1.25))
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
    assert isclose(phi.values[(3, 4)], Phase.from_angle_over_pi(1.75))
    assert isclose(phi.values[(4, 5)], Phase.from_angle_over_pi(11 / 12))


def test_from_matrix_rank_deficient():
    m = ComplexMatrix.from_complex(np.zeros((2, 4), dtype=complex) + 0j)
    with pytest.raises(RankDeficientError):
        from_matrix(m)


def test_from_matrix_rejects_minor_counts_above_the_cap():
    cap = phirotopes.MAX_MATRIX_MINORS
    assert len(from_matrix(ComplexMatrix(np.ones((1, cap)), np.zeros((1, cap)))).values) == cap
    for r, n in ((1, cap + 1), (15, 30)):
        with pytest.raises(PhasedMatroidError, match=f"C\\({n}, {r}\\)"):
            from_matrix(ComplexMatrix(np.ones((r, n)), np.zeros((r, n))))


def test_rephase_identity(nonreal2ex_phi):
    assert rephase(nonreal2ex_phi, Rephasing((Phase(0.0),) * 5)) == nonreal2ex_phi


def test_rephase_matches_column_scaling():
    rng = np.random.default_rng(22)
    m = ComplexMatrix.from_complex(rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6)))
    rho = Rephasing(tuple(Phase.from_angle(a) for a in rng.uniform(0, 2 * np.pi, 6)))
    moved = from_matrix(scaled(m, np.ones(3), [unit(p) for p in rho.rho]))
    assert moved.max_angular_distance(rephase(from_matrix(m), rho)) < moved.tolerance.eps


def test_rephase_roundtrip_closes():
    rng = np.random.default_rng(23)
    m = ComplexMatrix.from_complex(rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)))
    phi = from_matrix(m)
    rho = Rephasing(tuple(Phase.from_angle(a) for a in rng.uniform(0, 2 * np.pi, 5)))
    inverse = Rephasing(tuple(Phase.from_angle(-p.angle) for p in rho.rho))
    back = rephase(rephase(phi, rho), inverse)
    assert back.max_angular_distance(phi) < 1e-12


def test_rephasing_is_not_indexed():
    """Element k's phase is ``rho.rho[k - 1]``; a 1-based ``rho[k]`` would
    silently wrap at k = 0."""
    with pytest.raises(TypeError):
        Rephasing((Phase(0.0),) * 3)[0]


def test_rephasing_refuses_zero_and_wrong_lengths(nonreal2ex_phi):
    with pytest.raises(ValueError, match="nonzero"):
        Rephasing((Phase(0.0), Phase(None)))
    with pytest.raises(ValueError, match="length"):
        rephase(nonreal2ex_phi, Rephasing((Phase(0.0),) * 4))


def test_max_angular_distance_refuses_other_shapes():
    small = from_matrix(ComplexMatrix.from_complex([[1, 0, 1, 1j], [0, 1, 1, 2]]))
    large = from_matrix(ComplexMatrix.from_complex([[1, 0, 1, 1j, 1], [0, 1, 1, 2, 3j]]))
    for a, b in ((small, large), (large, small)):
        with pytest.raises(ValueError):
            a.max_angular_distance(b)


def test_max_angular_distance_is_infinite_on_a_zero_mismatch(runex_phi):
    """runex has the zero value (1, 2, 4); filling it in makes the distance
    infinite, however close the other values are."""
    values = dict(runex_phi.values)
    values[(1, 2, 4)] = Phase(0.0)
    filled = unchecked_phirotope(5, 3, values)
    assert filled.max_angular_distance(runex_phi) == math.inf
    assert runex_phi.max_angular_distance(filled) == math.inf


def test_phirotope_equality_with_other_types(nonreal2ex_phi):
    assert nonreal2ex_phi.__eq__(1) is NotImplemented
    assert nonreal2ex_phi != "nonreal2ex"


def test_scale_global(nonreal2ex_phi):
    assert scale_global(nonreal2ex_phi, Phase(0.0)) == nonreal2ex_phi
    with pytest.raises(ValueError, match="nonzero"):
        scale_global(nonreal2ex_phi, Phase(None))
    flipped_twice = scale_global(scale_global(nonreal2ex_phi, Phase(math.pi)), Phase(math.pi))
    assert flipped_twice.max_angular_distance(nonreal2ex_phi) < 1e-12


def test_scale_global_matches_left_multiplication():
    rng = np.random.default_rng(24)
    m = ComplexMatrix.from_complex(rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)))
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    left = ComplexMatrix.from_complex(a @ m.to_complex())
    expected = scale_global(from_matrix(m), phase_of(np.linalg.det(a)))
    assert from_matrix(left).max_angular_distance(expected) < expected.tolerance.eps


def test_underlying_matroid(runex_phi, nonreal2ex_phi):
    """The bases of the underlying matroid are the supports of the nonzero values."""
    assert runex_phi.values[(1, 2, 4)].is_zero
    assert not runex_phi.values[(2, 3, 4)].is_zero
    assert is_uniform(nonreal2ex_phi)
    assert not is_uniform(runex_phi)


def test_exchange_axiom_violation():
    # {1,2} and {3,4} with no exchange partner
    assert basis_exchange_failure([(1, 2), (3, 4)]) is not None
    assert basis_exchange_failure(itertools.combinations(range(1, 5), 2)) is None
    assert basis_exchange_failure([(1, 2), (1, 3)]) is None


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
    """GP implies basis exchange (see associated_bipartite_graph): non-uniform
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
        assert basis_exchange_failure(b for b, p in phi.values.items() if not p.is_zero) is None
        nonuniform += not is_uniform(phi)
    assert nonuniform >= 150


def test_non_matroid_support_violates_gp_at_the_exchange_pair():
    # bases {1,2}, {3,4}: x = 1 has no exchange partner, and the relation at
    # X = {3,4} + {1}, Y = {1,2} - {1} has a lone nonzero term
    values = {b: Phase(None) for b in ((1, 3), (1, 4), (2, 3), (2, 4))}
    values[(1, 2)] = Phase(0.0)
    values[(3, 4)] = Phase.from_angle_over_pi(0.5)
    phi = unchecked_phirotope(4, 2, values)
    assert ((1, 3, 4), (2,)) in phi.check_gp()


#: Angles of a (3, 6) map that is not a phirotope although every row with
#: three nonzero terms passes.  Found by a random walk from the phirotope of
#: A = N(3x6) + i N(3x6) drawn from default_rng(1): each step adds N(0, 0.5)
#: to the angle of basis ``rng.integers(20)`` in lex order and is kept only if
#: every row with |X & Y| >= 1 still passes at eps = 1e-9.  These are the
#: angles after step 17, written out so that they do not depend on the walk.
THREE_TERM_ROWS_PASS = {
    (1, 2, 3): 3.479806987366236, (1, 2, 4): 0.5573062231042248,
    (1, 2, 5): 4.240852021164981, (1, 2, 6): 4.414036348099678,
    (1, 3, 4): 0.2353501520256939, (1, 3, 5): 3.336842892844017,
    (1, 3, 6): 3.406122605072415, (1, 4, 5): 0.17682416665553205,
    (1, 4, 6): 0.26518086579680644, (1, 5, 6): 3.627481306151573,
    (2, 3, 4): 5.181750399358645, (2, 3, 5): 3.0765802769042043,
    (2, 3, 6): 3.3890643144998314, (2, 4, 5): 0.9058375141338074,
    (2, 4, 6): 1.1853191177595885, (2, 5, 6): 5.288960808840086,
    (3, 4, 5): 1.42750721730897, (3, 4, 6): 1.5513781712565302,
    (3, 5, 6): 5.227396569351077, (4, 5, 6): 2.2016954483624107,
}


def _largest_gap(phi, x, y):
    """Largest angular gap between the nonzero terms of the (X, Y) row."""
    angles = []
    for k, xk in enumerate(x):
        term = phi.evaluate(x[:k] + x[k + 1:]) * phi.evaluate((xk,) + y)
        if not term.is_zero:
            angles.append((term.angle + math.pi * (k + 1)) % (2 * math.pi))
    angles.sort()
    return max(b - a for a, b in zip(angles, angles[1:] + [angles[0] + 2 * math.pi]))


def test_gp_needs_the_rows_with_more_than_three_terms():
    """The full sweep is needed: every one of the 120 rows with three nonzero
    terms passes with a margin far above eps, and only the four-term row
    X = (1, 2, 3, 4), Y = (5, 6) fails, also far above eps."""
    phi = unchecked_phirotope(6, 3, {b: Phase(a) for b, a in THREE_TERM_ROWS_PASS.items()})
    assert phi.check_gp() == [((1, 2, 3, 4), (5, 6))]
    three = [(x, y) for x in itertools.combinations(range(1, 7), 4)
             for y in itertools.combinations(range(1, 7), 2) if len(set(x) & set(y)) == 1]
    assert len(three) == 120
    assert max(_largest_gap(phi, x, y) for x, y in three) <= math.pi - 0.019
    assert _largest_gap(phi, (1, 2, 3, 4), (5, 6)) >= math.pi + 0.103


def _gp_oracle(phi):
    """The violating (X, Y) pairs of phi, in lex order.  Each row
    (-1)^k phi(X - x_k) phi(x_k, Y), k = 1..r+1, is built on its own from
    complex units of ``Phirotope.angles``, found by each basis's position in
    ``itertools.combinations``, and sort_with_sign; the rows are then judged
    in one call of the kernel, which treats every row on its own."""
    ground = range(1, phi.n + 1)
    position = {b: k for k, b in enumerate(itertools.combinations(ground, phi.r))}
    units = np.where(np.isnan(phi.angles), 0j, np.exp(1j * np.nan_to_num(phi.angles)))
    pairs, rows = [], []
    for x in itertools.combinations(ground, phi.r + 1):
        for y in itertools.combinations(ground, phi.r - 1):
            first, second = [], []
            for k, xk in enumerate(x):
                first.append((-1) ** (k + 1) * units[position[x[:k] + x[k + 1:]]])
                srt, sign = sort_with_sign((xk,) + y)
                second.append(0j if sign == 0 else sign * units[position[srt]])
            pairs.append((x, y))
            rows.append(np.array(first) * np.array(second))
    if not rows:
        return []
    ok = zero_in_hypersum_batch(angles_of(np.array(rows).T), phi.tolerance.eps)
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
                yield unchecked_phirotope(n, r, values)


def test_check_gp_matches_row_by_row_oracle():
    invalid = 0
    for phi in _gp_oracle_cases():
        violations = phi.check_gp()
        assert violations == _gp_oracle(phi), phi
        invalid += bool(violations)
    assert invalid >= 15


@pytest.mark.parametrize("block", [1, 7, 50, 1000])
def test_check_gp_blocks_match_row_by_row_oracle(monkeypatch, block):
    """Blocks of one X (every block size below the Y count gives one),
    of several X, or of all of them give the same violations in the same
    order."""
    monkeypatch.setattr(phirotopes, "GP_BLOCK_COLUMNS", block)
    invalid = 0
    for phi in itertools.islice(_gp_oracle_cases(), 40, 64):
        violations = phi.check_gp()
        assert violations == _gp_oracle(phi), phi
        invalid += bool(violations)
    assert invalid >= 5


def _gp_peak_bytes(r, n):
    rng = np.random.default_rng(29)
    phi = from_matrix(ComplexMatrix.from_complex(
        rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))))
    tracemalloc.start()
    try:
        assert phi.check_gp() == []
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", range(1, 11))
def test_lex_rank_is_the_position_in_combinations(n):
    for r in range(1, n + 1):
        subsets = list(itertools.combinations(range(1, n + 1), r))
        ranks = _lex_rank(np.array(subsets), n)
        assert ranks.tolist() == list(range(len(subsets))), (n, r)


def test_lex_rank_reads_only_terms_below_the_subset_count():
    """The rank table of (n - 1)-subsets of [70] holds no C(70, 35), which
    does not fit int64: ranks stay integers, so a (69, 70) phirotope parses,
    validates and is decided, and a one-record (n, n) document reads a table
    of n entries."""
    rng = np.random.default_rng(60)
    m = ComplexMatrix.from_complex(rng.normal(size=(69, 70)) + 1j * rng.normal(size=(69, 70)))
    phi = phirotope_from_json(phirotope_to_json(from_matrix(m)), DEFAULT_TOLERANCE)
    assert phi.angles.size == 70 and phi.check_gp() == []
    assert isinstance(decide_realizability(phi), Unsupported)  # every value is pinned
    total, terms = _rank_terms(2000, 2000)
    assert total == 1 and terms.shape == (2000, 1) and terms.dtype == np.int64


def test_check_gp_memory_is_bounded_by_the_block():
    """The sweep holds one block of terms at a time: its peak allocation is a
    small multiple of one block of (r+1) x GP_BLOCK_COLUMNS float64 term
    angles (the bound below counts 16 bytes a term), and does not grow with
    the number of (X, Y) pairs (457 380 at (5, 12), 3 006 003 at (5, 14))."""
    block_bytes = 6 * phirotopes.GP_BLOCK_COLUMNS * 16
    small, large = _gp_peak_bytes(5, 12), _gp_peak_bytes(5, 14)
    assert large < 4 * block_bytes
    assert large < 1.1 * small


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
