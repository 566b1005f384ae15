"""Bipartite graph, spanning forest, canonicalization and orientability."""

import itertools
import json
import math

import numpy as np
import pytest

from phasedmatroids import (
    DEFAULT_TOLERANCE,
    ZERO,
    ComplexMatrix,
    DisconnectedGraphError,
    Phase,
    PhasedMatroidError,
    Phirotope,
    Rephasing,
    Tolerance,
    associated_bipartite_graph,
    canonical_spanning_forest,
    canonicalize,
    entry_phase,
    from_matrix,
    is_canonical,
    is_essentially_oriented,
    is_uniform,
    minor_phase,
    phase_of,
    rephase,
    scale_global,
)
from phasedmatroids import canonical
from phasedmatroids.cli import run
from phasedmatroids.jsonio import matrix_from_json, phirotope_from_json

from conftest import FIXTURES, load_fixture
from oracles import (
    canonical_pins,
    isclose,
    minor_det,
    scaled,
    standard_form,
    two_pass_spanning_forest,
    unchecked_phirotope,
)


def random_standard(rng, r, n):
    arr = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
    return standard_form(ComplexMatrix.from_complex(arr))


def matrix_phi(rows):
    return from_matrix(ComplexMatrix.from_complex(np.array(rows, dtype=complex)))


def uniform_phi(seed, r, n):
    phi = from_matrix(random_standard(np.random.default_rng(seed), r, n))
    assert is_uniform(phi)
    return phi


def nonuniform_standard_phis(seed, count):
    """Seeded matrix-born phirotopes of (I | N) with about 40% of N zero,
    r = 1..4, n = r+1..8, rephased by random phases."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(r + 1, 9))
        nmat = rng.normal(size=(r, n - r)) + 1j * rng.normal(size=(r, n - r))
        nmat[rng.random(nmat.shape) < 0.4] = 0
        phi = from_matrix(ComplexMatrix.from_complex(np.hstack([np.eye(r), nmat])))
        yield rephase(phi, Rephasing(tuple(Phase.from_angle(a)
                                           for a in rng.uniform(0, 2 * np.pi, n))))


def test_entry_phase_nonreal2ex(nonreal2ex_phi):
    assert isclose(entry_phase(nonreal2ex_phi, 1, 4), Phase.from_angle_over_pi(0.5))
    assert isclose(entry_phase(nonreal2ex_phi, 2, 5), Phase(0.0))


def test_entry_phase_matches_matrix_entries():
    rng = np.random.default_rng(31)
    for r, n in ((2, 5), (3, 6), (4, 8)):
        m = random_standard(rng, r, n)
        phi = from_matrix(m)
        for i in range(1, r + 1):
            for j in range(r + 1, n + 1):
                assert isclose(entry_phase(phi, i, j), m.entry_phase(i, j))


def test_minor_phase_singletons_reduce_to_entry_phase(nonreal2ex_phi):
    for i in (1, 2):
        for j in (3, 4, 5):
            assert isclose(minor_phase(nonreal2ex_phi, (i,), (j,)),
                           entry_phase(nonreal2ex_phi, i, j))


def test_minor_phase_runex(runex_phi):
    assert isclose(minor_phase(runex_phi, (2,), (5,)), Phase.from_angle_over_pi(0.25))


def test_minor_phase_matches_determinants():
    """Every k x k minor of N, k = 1..min(r, n - r), in a standard form (I|N)."""
    rng = np.random.default_rng(32)
    tol = Tolerance(1e-7)
    shapes = []
    for _ in range(10):
        r = int(rng.integers(2, 5))
        shapes.append((r, int(rng.integers(r + 2, 10))))
    sizes = set()
    for r, n in shapes + [(4, 8)]:  # (4, 8) reaches k = 4
        m = random_standard(rng, r, n)
        phi = from_matrix(m)
        for k in range(1, min(r, n - r) + 1):
            sizes.add(k)
            for h in itertools.combinations(range(1, r + 1), k):
                for j in itertools.combinations(range(r + 1, n + 1), k):
                    expected = phase_of(minor_det(m, h, j))
                    assert isclose(minor_phase(phi, h, j), expected, tol)
    assert sizes == {1, 2, 3, 4}


def test_associated_graph_uniform_complete():
    phi = matrix_phi([[1, 0, 1, 1], [0, 1, 1, 2]])
    assert is_uniform(phi)
    assert associated_bipartite_graph(phi) == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})


def test_associated_graph_runex(runex_phi):
    assert associated_bipartite_graph(runex_phi) == frozenset(
        {(1, 4), (2, 4), (1, 5), (2, 5), (3, 5)})


def test_associated_graph_isolated_row():
    # column 3 parallel to column 2: row 1 cannot be exchanged out
    phi = matrix_phi([[1, 0, 0], [0, 1, 1]])
    assert [b for b, p in phi.values.items() if not p.is_zero] == [(1, 2), (1, 3)]
    g = associated_bipartite_graph(phi)
    assert [j for i, j in g if i == 1] == []
    assert g == frozenset({(2, 3)})


def test_canonical_forest_uniform_star():
    forest = canonical_spanning_forest(uniform_phi(38, 3, 6))
    assert forest.component_count == 1
    assert set(forest.edges) == {(1, 4), (2, 4), (3, 4), (3, 5), (3, 6)}


def test_canonical_forest_runex(runex_phi):
    forest = canonical_spanning_forest(runex_phi)
    assert set(forest.edges) == {(1, 4), (2, 4), (2, 5), (3, 5)}
    assert forest.component_count == 1


def test_canonical_forest_rank2():
    forest = canonical_spanning_forest(uniform_phi(39, 2, 5))
    assert set(forest.edges) == {(1, 3), (2, 3), (2, 4), (2, 5)}


def random_zero_pattern_phis(seed, count):
    """Phirotopes built by ``unchecked_phirotope``, r = 1..6 and n = r..r+7, whose
    bases {1..r} - {i} + {j} are zero at a random rate per phirotope; every
    other value, {1..r} among them, is 1.  Their graphs are arbitrary
    bipartite edge sets, connected or not."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = int(rng.integers(1, 7))
        n = int(rng.integers(r, r + 8))
        values = dict.fromkeys(itertools.combinations(range(1, n + 1), r), Phase(0.0))
        first = tuple(range(1, r + 1))
        rate = rng.random()
        for i, j in itertools.product(first, range(r + 1, n + 1)):
            if rng.random() < rate:
                values[first[:i - 1] + first[i:] + (j,)] = ZERO
        yield unchecked_phirotope(n, r, values)


def fixture_phis():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_fixture(path.name)
        yield (from_matrix(matrix_from_json(doc)) if "entries" in doc
               else phirotope_from_json(doc, DEFAULT_TOLERANCE))


def test_canonical_forest_matches_the_two_pass_rule():
    """The one-scan forest equals the earlier rule that first added each
    row's smallest-column edge, and its component count, n - |edges|, equals
    a count of union-find roots."""
    counts = set()
    for phi in itertools.chain(random_zero_pattern_phis(41, 2000), fixture_phis()):
        forest = canonical_spanning_forest(phi)
        reference = two_pass_spanning_forest(phi.r, phi.n, associated_bipartite_graph(phi))
        assert (forest.edges, forest.component_count) == reference
        counts.add(min(forest.component_count, 2))
    assert counts == {1, 2}


def test_forest_edge_count_property():
    rng = np.random.default_rng(33)
    for _ in range(20):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r + 1, 10))
        m = random_standard(rng, r, n)
        forest = canonical_spanning_forest(from_matrix(m))
        assert len(forest.edges) == n - forest.component_count


def test_canonicalize_idempotent(nonreal2ex_phi):
    result = canonicalize(nonreal2ex_phi)
    assert all(isclose(p, Phase(0.0)) for p in result.rho.rho)
    assert isclose(result.global_phase, Phase(0.0))
    assert result.canonical.max_angular_distance(nonreal2ex_phi) < 1e-12


@pytest.mark.parametrize("name, commands", [
    ("nonreal2ex_phirotope.json", ["canonicalize"]),
    ("realizable_rank3_phirotope.json", ["canonicalize", "realize"]),
])
def test_an_already_canonical_input_has_global_phase_positive_zero(capsys, name, commands):
    """The global phase of an input that needs none is 0.0, not -0.0, so the
    report prints "angle_over_pi": 0.0."""
    phi = phirotope_from_json(load_fixture(name), DEFAULT_TOLERANCE)
    assert math.copysign(1.0, canonicalize(phi).global_phase.angle) == 1.0
    for command in commands:
        run([command, "--input", str(FIXTURES / name)])
        assert '"global_phase":{"angle_over_pi":0.0}' in capsys.readouterr().out


def test_canonicalize_invariants_random():
    rng = np.random.default_rng(34)
    for _ in range(15):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r + 2, 10))
        arr = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
        phi = from_matrix(ComplexMatrix.from_complex(arr))
        result = canonicalize(phi)
        # defining identity: canonical = global_phase * (phi rephased)
        recomposed = scale_global(rephase(phi, result.rho), result.global_phase)
        assert recomposed.max_angular_distance(result.canonical) < 1e-9
        # pinned values are exact, not merely within tolerance
        forest = canonical_spanning_forest(result.canonical)
        for basis, target in canonical_pins(r, forest.edges).items():
            got = result.canonical.values[basis]
            assert got.angle == target.angle
        assert is_canonical(result.canonical)


def test_is_canonical_reads_every_forest_edge(runex_phi):
    """runex's canonical form, rephased on elements 3 and 5 and scaled back,
    keeps {1..r}, the row-r bases and the column-(r+1) bases at their targets
    and passes GP, but the entry of forest edge (2, 5) (see
    test_canonical_forest_runex) moves to phase 0.7 rad."""
    canonical = canonicalize(runex_phi).canonical
    turn = Phase.from_angle(0.7)
    rho = Rephasing((Phase(0.0), Phase(0.0), turn, Phase(0.0), turn))
    moved = scale_global(rephase(canonical, rho), Phase.from_angle(-0.7))
    assert moved.check_gp() == []
    for basis in [(1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 3, 4)]:  # (1, 2, 4) is zero
        assert isclose(moved.values[basis], canonical.values[basis])
    assert isclose(entry_phase(moved, 2, 5), Phase.from_angle(0.7))
    assert is_canonical(canonical)
    assert not is_canonical(moved)


def test_is_canonical_is_false_when_the_first_subset_is_not_a_basis():
    """Columns 1 and 2 are parallel, so {1, 2} is not a basis."""
    phi = matrix_phi([[1, 2, 0], [1, 2, 1]])
    assert phi.values[(1, 2)].is_zero
    assert not is_canonical(phi)


def test_canonical_forest_edges_are_exactly_phase_one():
    """On non-uniform matrix-born phirotopes, canonicalize puts exact phase 1
    on the entry of every forest edge, and its output is canonical."""
    checked = 0
    for phi in nonuniform_standard_phis(40, 120):
        try:
            result = canonicalize(phi)
        except DisconnectedGraphError:
            continue
        canonical = result.canonical
        forest = canonical_spanning_forest(canonical)
        assert canonical.values[tuple(range(1, phi.r + 1))].angle == 0.0
        for i, j in forest.edges:
            assert entry_phase(canonical, i, j).angle == 0.0
        assert is_canonical(canonical)
        checked += not is_uniform(phi)
    assert checked >= 30


def test_minor_phase_rejects_bad_rows_and_columns(runex_phi):
    r = runex_phi.r
    for rows, cols in [((r + 1,), (5,)), ((0,), (5,)), ((1, r + 1), (4, 5)),
                       ((1, 1), (4, 5)), ((1, 2), (5, 5)), ((1,), (r,))]:
        with pytest.raises(ValueError):
            minor_phase(runex_phi, rows, cols)


def test_canonicalize_refuses_a_value_it_failed_to_pin(monkeypatch, capsys, nonreal2ex_phi):
    """A pinned value more than VERIFY_TOLERANCE from its target after the
    global scaling is an error, not silently overwritten."""
    scale_exactly = canonical.scale_global

    def scale_and_rotate_first(phi, alpha):
        angles = scale_exactly(phi, alpha).angles.copy()
        angles[0] += 1e-5  # the value on {1..r}, first in lex order
        return Phirotope._from_angles(phi.n, phi.r, angles, phi.tolerance)

    monkeypatch.setattr(canonical, "scale_global", scale_and_rotate_first)
    with pytest.raises(PhasedMatroidError, match="failed to pin basis"):
        canonicalize(nonreal2ex_phi)
    code = run(["canonicalize", "--input", str(FIXTURES / "nonreal2ex_phirotope.json")])
    assert code == 2
    assert set(json.loads(capsys.readouterr().out)) == {"error"}


def test_canonicalize_rejects_direct_sum():
    m = ComplexMatrix.from_complex(np.array([[1, 0, 2, 0], [0, 1, 0, 3]], dtype=complex))
    with pytest.raises(DisconnectedGraphError):
        canonicalize(from_matrix(m))


def test_essential_orientability(runex_phi, nonreal2ex_phi):
    assert is_essentially_oriented(runex_phi)
    assert not is_essentially_oriented(nonreal2ex_phi)


def test_essential_orientability_constructed_instance():
    rng = np.random.default_rng(35)
    real = rng.normal(size=(3, 6))
    m = ComplexMatrix.from_complex(real.astype(complex))
    rho = [np.exp(1j * a) for a in rng.uniform(0, 2 * np.pi, 6)]
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    disguised = ComplexMatrix.from_complex(a @ scaled(m, np.ones(3), rho).to_complex())
    assert is_essentially_oriented(from_matrix(disguised))


def test_essential_orientability_rephasing_invariant():
    rng = np.random.default_rng(36)
    arr = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    phi = from_matrix(ComplexMatrix.from_complex(arr))
    rho = Rephasing(tuple(Phase.from_angle(x) for x in rng.uniform(0, 2 * np.pi, 5)))
    assert is_essentially_oriented(rephase(phi, rho)) == is_essentially_oriented(phi)



def _rotated(phi, basis, amount, tolerance):
    values = dict(phi.values)
    values[basis] = Phase.from_angle(values[basis].angle + amount)
    return unchecked_phirotope(phi.n, phi.r, values, tolerance)


def test_phase_tests_read_the_phirotope_tolerance():
    rng = np.random.default_rng(37)
    real = ComplexMatrix.from_complex(rng.normal(size=(3, 6)).astype(complex))
    canonical = canonicalize(from_matrix(real, Tolerance(1e-3))).canonical
    assert canonical.tolerance == Tolerance(1e-3)
    targets = canonical_pins(3, canonical_spanning_forest(canonical).edges)
    assert (4, 5, 6) not in targets and (1, 2, 4) in targets
    # a value 1e-4 rad off +/-1, or off its pinned target, passes at 1e-3 ...
    assert is_essentially_oriented(_rotated(canonical, (4, 5, 6), 1e-4, Tolerance(1e-3)))
    assert is_canonical(_rotated(canonical, (1, 2, 4), 1e-4, Tolerance(1e-3)))
    # ... and fails when the phirotope carries the default 1e-9
    assert not is_essentially_oriented(_rotated(canonical, (4, 5, 6), 1e-4, DEFAULT_TOLERANCE))
    assert not is_canonical(_rotated(canonical, (1, 2, 4), 1e-4, DEFAULT_TOLERANCE))
