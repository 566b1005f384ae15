"""The Grassmann-Pluecker sweep restricted to a disagreement set D.

After a failed verification, ``realize`` still holds a candidate matrix, and
its minors satisfy every relation; a relation that reads no basis where the
phirotope and the matrix disagree has nothing left to test.  So the fallback
sweeps only the relations with a term on D.  These tests hold the restricted
sweep to the full one on matrix-born inputs with a few values rotated, hold
its pair selection to a brute-force listing (``oracles.gp_pairs_touching``),
count the columns it feeds the kernel, and pin the cap on the pair count.
"""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedmatroids import (
    ComplexMatrix,
    NotRealizable,
    PhasedMatroidError,
    Phirotope,
    Realizable,
    decide_realizability,
    from_matrix,
    phirotopes,
    verify,
)
from phasedmatroids.cli import run
from phasedmatroids.jsonio import dumps, phirotope_to_json, verdict_to_json
from phasedmatroids.phases import DEFAULT_TOLERANCE, TAU
from phasedmatroids.phirotopes import _bases, _gp_rectangles, minor_phases

from conftest import FIXTURES
from oracles import gp_pairs_touching

#: every (r, n) up to (4, 10), so r = 1, r = n - 1 and r = n are all drawn
SIZES = [(r, n) for r in range(1, 5) for n in range(r, 11)]


def _gaussian(rng, r, n):
    return ComplexMatrix.from_complex(rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))


def _rotated(m, rng, count, low=1e-3, high=math.pi):
    """The phirotope of m with ``count`` distinct values rotated by an angle in
    [low, high]."""
    angles = minor_phases(m)
    picks = rng.choice(len(angles), size=min(count, len(angles)), replace=False)
    angles[picks] = np.fmod(angles[picks] + rng.uniform(low, high, size=len(picks)), TAU)
    return Phirotope._from_angles(m.cols, m.rows, angles, DEFAULT_TOLERANCE)


def _full_sweep_decision(phi):
    """decide_realizability with its Grassmann-Pluecker gate sweeping all
    pairs; the gate runs on every verdict but Realizable."""
    first_violation, swept = Phirotope._first_gp_violation, []

    def full_sweep(self, touching=None):
        swept.append(touching)
        return first_violation(self)

    with mock.patch.object(Phirotope, "_first_gp_violation", full_sweep):
        verdict = decide_realizability(phi)
    assert isinstance(verdict, Realizable) or swept
    return verdict


@settings(max_examples=150, deadline=None, derandomize=True)
@given(size=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3))
def test_restricted_sweep_gives_the_full_sweep_list(size, seed, count):
    r, n = size
    rng = np.random.default_rng(seed)
    m = _gaussian(rng, r, n)
    phi = _rotated(m, rng, count)
    witness = verify(phi, m)
    assert witness is not None and 1 <= witness.disagreeing.sum() <= count
    full = phi.check_gp()
    assert phi.check_gp(witness.disagreeing) == full
    verdict = decide_realizability(phi)
    if isinstance(verdict, NotRealizable) and verdict.witness is not None:
        assert phi.check_gp(verdict.witness.disagreeing) == full
    assert dumps(verdict_to_json(verdict)) == dumps(verdict_to_json(_full_sweep_decision(phi)))


def test_restricted_sweep_gives_the_full_sweep_list_on_not_realizable():
    """The companion that reaches the NotRealizable branch: one value rotated
    by an angle in [1e-3, 1e-2] mostly leaves a phirotope that no matrix
    realizes (120 of these 140 draws), decided by a sweep of the relations
    through the witness's disagreeing bases alone."""
    rng = np.random.default_rng(54)
    reached = set()
    for r, n in [(2, 5), (2, 6), (3, 6), (3, 7), (3, 8), (4, 8), (4, 10)]:
        for _ in range(20):
            phi = _rotated(_gaussian(rng, r, n), rng, 1, high=1e-2)
            verdict = decide_realizability(phi)
            if isinstance(verdict, NotRealizable) and verdict.witness is not None:
                reached.add((r, n))
                assert phi.check_gp(verdict.witness.disagreeing) == phi.check_gp()
                assert (dumps(verdict_to_json(verdict))
                        == dumps(verdict_to_json(_full_sweep_decision(phi))))
    assert len(reached) == 7


def test_witness_marks_every_disagreeing_basis():
    """verify's witness carries the mask D: read-only, one entry per basis in
    lex order, true exactly at the rotated values, its first entry the
    witness basis; it takes no part in comparing witnesses."""
    rng = np.random.default_rng(19)
    m = _gaussian(rng, 3, 7)
    phi = _rotated(m, rng, 3)
    witness = verify(phi, m)
    moved = phi.angles != minor_phases(m)
    assert witness.disagreeing.tolist() == moved.tolist()
    assert not witness.disagreeing.flags.writeable
    first = np.flatnonzero(moved)[0]
    assert witness.basis == tuple(_bases(7, 3)[first].tolist())
    assert witness == type(witness)(witness.basis, witness.expected, witness.computed)


def test_touching_must_mark_every_basis():
    phi = from_matrix(_gaussian(np.random.default_rng(3), 2, 5))
    with pytest.raises(ValueError, match="each of the 10 bases"):
        phi.check_gp(np.ones(9, dtype=bool))


def _swept_pairs(n, r, touching):
    """The (X, Y) pairs of ``_gp_rectangles``, in the order it gives them."""
    ysubs = list(itertools.combinations(range(1, n + 1), r - 1))
    rectangles, count = _gp_rectangles(n, r, touching)
    pairs = [(tuple(x), ysubs[y]) for xs, ys in rectangles
             for x in xs.tolist() for y in np.arange(len(ysubs))[ys].tolist()]
    return pairs, count


@pytest.mark.parametrize("r, n", [(1, 5), (2, 4), (2, 6), (3, 6), (3, 7), (4, 8), (3, 8)])
def test_selected_pairs_are_the_brute_force_listing(r, n):
    rng = np.random.default_rng(17 * r + n)
    total = math.comb(n, r + 1) * math.comb(n, r - 1)
    every = sorted(itertools.product(itertools.combinations(range(1, n + 1), r + 1),
                                     itertools.combinations(range(1, n + 1), r - 1)))
    restricted = 0
    for size in (1, 2, 3, 5, 9):
        touching = np.zeros(math.comb(n, r), dtype=bool)
        touching[rng.choice(len(touching), size=min(size, len(touching)), replace=False)] = True
        pairs, count = _swept_pairs(n, r, touching)
        assert len(set(pairs)) == len(pairs) == count
        bound = touching.sum() * ((n - r) * math.comb(n, r - 1) + r * math.comb(n - 1, r))
        if bound < total:
            restricted += 1
            listing = gp_pairs_touching(n, r, _bases(n, r)[touching].tolist())
            assert sorted(pairs) == listing
        else:  # no smaller than the full sweep: every pair, in lex order
            assert pairs == every
    assert restricted >= 1 or r == 1


def _kernel_columns(monkeypatch):
    columns = []
    kernel = phirotopes.zero_in_hypersum_batch

    def counted(angles, eps):
        columns.append(angles.shape[1])
        return kernel(angles, eps)

    monkeypatch.setattr(phirotopes, "zero_in_hypersum_batch", counted)
    return columns


def test_realize_feeds_the_kernel_a_tenth_of_the_columns_validate_feeds_all(
        monkeypatch, tmp_path, capsys):
    """A rotated (4, 10) input: realize's fallback after the failed
    verification reads the relations through the rotated basis, validate
    reads all C(10, 5) C(10, 3) of them."""
    rng = np.random.default_rng(21)
    angles = from_matrix(_gaussian(rng, 4, 10)).angles.copy()
    angles[-1] = math.fmod(angles[-1] + 1e-3, TAU)
    phi = Phirotope._from_angles(10, 4, angles, DEFAULT_TOLERANCE)
    assert isinstance(decide_realizability(phi), NotRealizable)
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(phirotope_to_json(phi)))
    total = math.comb(10, 5) * math.comb(10, 3)
    columns = _kernel_columns(monkeypatch)
    assert run(["realize", "--input", str(path)]) == 1
    realized = json.loads(capsys.readouterr().out)["result"]
    assert realized["verdict"] == "NotRealizable" and "witness" in realized
    assert 0 < sum(columns) < total / 10
    columns.clear()
    assert run(["validate", "--input", str(path)]) == 0
    assert sum(columns) == total


def test_gp_pair_cap_refuses_before_building_a_table(monkeypatch):
    """At (7, 20) the full sweep has C(20, 8) C(20, 6), about 4.9e9 pairs: it
    is refused before any rank is computed.  The same phirotope with one
    disagreeing basis sweeps under a million pairs, and is not refused."""
    r, n = 7, 20
    m = _gaussian(np.random.default_rng(23), r, n)
    phi = Phirotope._from_angles(n, r, minor_phases(m), DEFAULT_TOLERANCE)
    lex_rank = phirotopes._lex_rank
    with monkeypatch.context() as patched:
        patched.setattr(phirotopes, "_lex_rank", mock.Mock(side_effect=AssertionError))
        with pytest.raises(PhasedMatroidError, match="exceed the cap of 16777216"):
            phi.check_gp()
    assert phirotopes._lex_rank is lex_rank
    touching = np.zeros(math.comb(n, r), dtype=bool)
    touching[-1] = True
    assert _gp_rectangles(n, r, touching)[1] < phirotopes.MAX_GP_PAIRS
    assert phi.check_gp(touching) == []


@pytest.mark.parametrize("command", ["validate", "realize", "canonicalize"])
def test_gp_pair_cap_exits_2_with_an_error(monkeypatch, capsys, command):
    monkeypatch.setattr(phirotopes, "MAX_GP_PAIRS", 10)
    code = run([command, "--input", str(FIXTURES / "nonreal2ex_phirotope.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert list(report) == ["error"] and "exceed the cap of 10" in report["error"]
