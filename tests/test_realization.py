"""Reconstruction, verification, realizability decisions and the tree scaling."""

import cmath
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedmatroids import (
    DEFAULT_TOLERANCE,
    ComplexMatrix,
    DegenerateTriangleError,
    EssentiallyOrientedError,
    InfeasibleTriangleError,
    NotCanonicalError,
    NotRealizable,
    Phase,
    Phirotope,
    Realizable,
    Rephasing,
    Unsupported,
    canonical_spanning_forest,
    canonicalize,
    decide_realizability,
    from_matrix,
    normalize_to_tree,
    reconstruct,
    rephase,
    scale_global,
    is_uniform,
    verify,
)
from phasedmatroids import canonical, jsonio, matrices, phirotopes, realization
from phasedmatroids.canonical import CanonicalizationResult, minor_phase
from phasedmatroids.errors import PhasedMatroidError
from phasedmatroids.phases import Tolerance, triangle_solve
from phasedmatroids.phirotopes import MAX_MATRIX_MINORS, minor_phases
from phasedmatroids.cli import run
from phasedmatroids.realization import ESSENTIALLY_ORIENTED, NOT_A_PHIROTOPE, NOT_UNIFORM

from conftest import FIXTURES
from oracles import (
    dual,
    isclose,
    max_entry_distance,
    rank2_realizable,
    reconstruct_reference,
    standard_form,
    triangle_solve_reference,
    unchecked_phirotope,
    unit,
)


def canonical_of(matrix):
    return canonicalize(from_matrix(matrix)).canonical


def test_reconstruct_nonreal2ex(nonreal2ex_phi):
    m = reconstruct(canonicalize(nonreal2ex_phi))
    expected = np.array([
        [1, 0, 1, cmath.exp(1j * math.pi / 2), cmath.exp(1j * math.pi / 3)],
        [0, 1, 1, 1, 1]], dtype=complex)
    assert np.abs(m.to_complex() - expected).max() < 1e-9


def test_verify_witness_nonreal2ex(nonreal2ex_phi):
    w = verify(nonreal2ex_phi, reconstruct(canonicalize(nonreal2ex_phi)))
    assert w.basis == (4, 5)
    assert isclose(w.expected, Phase.from_angle_over_pi(5 / 6))
    assert isclose(w.computed, Phase.from_angle_over_pi(11 / 12))


def test_reconstruct_rejects_an_unpinned_result(nonreal2ex_phi):
    """A CanonicalizationResult built by hand around a phirotope that is not
    pinned on its forest is refused, as a bare non-canonical phirotope was."""
    canon = canonicalize(nonreal2ex_phi)
    off = CanonicalizationResult(canon.rho, canon.global_phase,
                                 scale_global(canon.canonical, Phase(1.0)), canon.forest)
    with pytest.raises(NotCanonicalError):
        reconstruct(off)


def test_verify_and_decide_answer_above_the_from_matrix_cap():
    """The minor-count cap bounds only from_matrix, whose output outgrows its
    input; a (2, 400) pair lists its 79800 values, and verify and the
    decision answer on it."""
    rng = np.random.default_rng(52)
    m = ComplexMatrix.from_complex(rng.normal(size=(2, 400)) + 1j * rng.normal(size=(2, 400)))
    phi = Phirotope._from_angles(400, 2, minor_phases(m), DEFAULT_TOLERANCE)
    assert len(phi.values) > MAX_MATRIX_MINORS
    assert verify(phi, m) is None
    assert isinstance(decide_realizability(phi), Realizable)


def test_verify_definitional():
    rng = np.random.default_rng(41)
    m = ComplexMatrix.from_complex(rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6)))
    phi = from_matrix(m)
    assert verify(phi, m) is None
    flipped = scale_global(phi, Phase(math.pi))
    w = verify(flipped, m)
    assert w is not None and w.basis == (1, 2, 3)


def test_decide_nonreal2ex(nonreal2ex_phi):
    verdict = decide_realizability(nonreal2ex_phi)
    assert isinstance(verdict, NotRealizable)
    assert verdict.witness.basis == (4, 5)
    assert verdict.matrix is not None


def test_decide_runex_not_uniform(runex_phi):
    verdict = decide_realizability(runex_phi)
    assert isinstance(verdict, Unsupported)
    assert verdict.reason == NOT_UNIFORM


def test_decide_essentially_oriented():
    rng = np.random.default_rng(42)
    m = ComplexMatrix.from_complex(rng.normal(size=(2, 5)).astype(complex))
    verdict = decide_realizability(from_matrix(m))
    assert isinstance(verdict, Unsupported)
    assert verdict.reason == ESSENTIALLY_ORIENTED


def test_decide_invalid_phirotope():
    values = {(1, 2): Phase(0.0), (1, 3): Phase(0.0), (1, 4): Phase(0.0),
              (2, 3): Phase(0.0), (2, 4): Phase(0.0),
              (3, 4): Phase.from_angle_over_pi(0.5)}
    phi = unchecked_phirotope(4, 2, values)
    verdict = decide_realizability(phi)
    assert isinstance(verdict, Unsupported)
    assert verdict.reason == "not_a_phirotope"


def test_decide_builds_the_graph_and_forest_once(monkeypatch):
    """The canonical tree is derived once per decision: canonicalize reads
    the entry table of phi once, for the graph and the tree deltas, and
    reconstruct takes its result without rebuilding the tree to re-check it."""
    calls = []
    for name in ("_entry_angles", "_scan_forest"):
        def counted(*args, _name=name, _original=getattr(canonical, name)):
            calls.append((_name, args[0]))
            return _original(*args)
        for module in (canonical, realization):
            monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(49)
    phi = from_matrix(ComplexMatrix.from_complex(
        rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))))
    assert is_uniform(phi)
    verdict = decide_realizability(phi)
    assert isinstance(verdict, Realizable)
    assert [name for name, _ in calls] == ["_entry_angles", "_scan_forest", "_entry_angles"]
    # phi in canonicalize, then the canonical phirotope in reconstruct
    assert calls[0][1] is phi
    assert calls[2][1].angles.tobytes() == canonicalize(phi).canonical.angles.tobytes()


def test_reconstruct_pass1_only():
    # rank 2 with every free entry non-real: the first pass does all the work
    rng = np.random.default_rng(43)
    norms = rng.uniform(0.3, 3.0, size=2)
    angles = rng.uniform(0.2, math.pi - 0.2, size=2)
    row = [norms[k] * cmath.exp(1j * angles[k]) for k in range(2)]
    m = ComplexMatrix.from_complex(np.array(
        [[1, 0, 1, row[0], row[1]], [0, 1, 1, 1, 1]], dtype=complex))
    phi = from_matrix(m)
    got = reconstruct(canonicalize(phi))
    assert max_entry_distance(got, m) < 1e-9


def test_reconstruct_all_passes():
    # mixed real and non-real entries force passes 2-4:
    # row 1 mixes real and non-real entries, row 2 is entirely real,
    # column 5 is entirely real, columns 6 and 7 carry the anchors
    n_block = np.array([
        [2.0, 0.7 * cmath.exp(1j * math.pi / 3), 1.3],
        [0.5 * cmath.exp(1j * math.pi), 2.0, 0.9],
        [1.0, 1.0, 1.0]], dtype=complex)
    m = ComplexMatrix.from_complex(np.hstack([np.eye(3),
                                              np.ones((3, 1)), n_block]))
    phi = from_matrix(m)
    got = reconstruct(canonicalize(phi))
    assert max_entry_distance(got, m) < 1e-8
    verdict = decide_realizability(phi)
    assert isinstance(verdict, Realizable)


def test_reconstruct_requires_anchor():
    rng = np.random.default_rng(44)
    m = ComplexMatrix.from_complex(
        np.hstack([np.eye(3), np.abs(rng.normal(size=(3, 3)))]).astype(complex))
    with pytest.raises(EssentiallyOrientedError):
        reconstruct(canonicalize(from_matrix(m)))


def test_reconstruct_infeasible_equation():
    # deliberately inconsistent canonical values: the 2x2 minor phase is
    # antiparallel to the known side of its triangular equation
    values = {(1, 2): Phase(0.0), (1, 3): Phase(0.0), (1, 4): Phase(0.0),
              (2, 3): Phase(math.pi), (2, 4): Phase.from_angle_over_pi(1.5),
              (3, 4): Phase.from_angle_over_pi(1.5)}
    phi = unchecked_phirotope(4, 2, values)
    with pytest.raises(InfeasibleTriangleError):
        reconstruct(canonicalize(phi))


def test_roundtrip_random_matrices():
    rng = np.random.default_rng(45)
    for _ in range(30):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(max(r + 2, 5), 10))
        arr = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
        phi = from_matrix(ComplexMatrix.from_complex(arr))
        verdict = decide_realizability(phi)
        if isinstance(verdict, Unsupported):
            assert verdict.reason == ESSENTIALLY_ORIENTED
            continue
        assert isinstance(verdict, Realizable)
        canonical = canonicalize(phi).canonical
        assert verify(canonical, verdict.matrix) is None


def test_normalize_to_tree_identity_and_readback():
    rng = np.random.default_rng(46)
    arr = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    m = standard_form(ComplexMatrix.from_complex(arr))
    forest = canonical_spanning_forest(from_matrix(m))
    current = [m.entry_norm(i, j) for (i, j) in forest.edges]
    assert max_entry_distance(normalize_to_tree(m, current), m) < 1e-12

    values = rng.uniform(0.2, 4.0, size=len(forest.edges))
    scaled = normalize_to_tree(m, values)
    for (i, j), v in zip(forest.edges, values):
        assert scaled.entry_norm(i, j) == pytest.approx(v, rel=1e-12)
    # phases untouched, phirotope preserved up to nothing at all
    assert from_matrix(scaled).max_angular_distance(from_matrix(m)) < 1e-9


def test_normalize_to_tree_rejects_bad_forests():
    rng = np.random.default_rng(47)
    arr = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    m = standard_form(ComplexMatrix.from_complex(arr))
    with pytest.raises(ValueError, match="need 3 values"):
        normalize_to_tree(m, [1.0])
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive"):
            normalize_to_tree(m, [1.0, bad, 1.0])
    # on a disconnected support, one tree per component fixes the scaling
    split = ComplexMatrix.from_complex(np.array([[1, 0, 2, 0], [0, 1, 0, 3]], dtype=complex))
    scaled = normalize_to_tree(split, [1.0, 1.0])
    assert scaled.entry_norm(1, 3) == scaled.entry_norm(2, 4) == 1.0


def test_normalize_to_tree_refuses_a_matrix_not_in_standard_form():
    """Only columns r+1..n are rescaled, which keeps the phirotope only when
    columns 1..r are diagonal; a general (2, 4) matrix came back 0.564 rad
    away from its phirotope, with no error."""
    rng = np.random.default_rng(3)
    m = ComplexMatrix.from_complex(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)))
    with pytest.raises(ValueError, match=re.escape("entry (1, 2) is nonzero")):
        normalize_to_tree(m, [2.0] * 3)
    lower = ComplexMatrix.from_complex(np.array([[2, 0, 1, 1], [1j, 3, 1, 2]]))
    with pytest.raises(ValueError, match=re.escape("entry (2, 1) is nonzero")):
        normalize_to_tree(lower, [1.0] * 3)
    diagonal = ComplexMatrix.from_complex(np.array([[2, 0, 1, 1j], [0, 3j, 1, 2]]))
    scaled = normalize_to_tree(diagonal, [5.0] * 3)
    assert from_matrix(scaled).max_angular_distance(from_matrix(diagonal)) < 1e-12
    assert [scaled.entry_norm(i, j) for i, j in ((1, 1), (2, 2))] == [2.0, 3.0]


def test_verify_refuses_a_matrix_of_another_shape(runex_matrix, runex_phi, nonreal2ex_phi):
    """runex is rank 3 on 5 elements, nonreal2ex rank 2 on 5."""
    wider = ComplexMatrix.from_complex(np.hstack([runex_matrix.to_complex(), np.ones((3, 1))]))
    for phi, m in ((nonreal2ex_phi, runex_matrix), (runex_phi, wider)):
        with pytest.raises(ValueError, match="dimensions"):
            verify(phi, m)


def test_uniqueness_of_canonical_point():
    """Any realization, rescaled onto the canonical tree, reproduces the
    reconstructed matrix."""
    rng = np.random.default_rng(48)
    for _ in range(5):
        arr = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        phi = from_matrix(ComplexMatrix.from_complex(arr))
        verdict = decide_realizability(phi)
        if not isinstance(verdict, Realizable):
            continue
        result = canonicalize(phi)
        # rescale the original realization by the rephasing, restandardize,
        # then normalize the tree entries to 1
        rho_units = np.array([unit(p) for p in result.rho.rho])
        rephased = ComplexMatrix.from_complex(arr * rho_units[None, :])
        std = standard_form(rephased)
        forest = canonical_spanning_forest(result.canonical)
        renormed = normalize_to_tree(std, [1.0] * len(forest.edges))
        assert max_entry_distance(renormed, verdict.matrix) < 1e-6


def _rephasing_cases():
    """60 seeded phirotopes of complex Gaussian matrices, r 2-4, n r+2..8; the
    last value of every third one is rotated by 1e-3 rad."""
    rng = np.random.default_rng(46)
    for t in range(60):
        r = 2 + (t // 3) % 3
        n = int(rng.integers(r + 2, 9))
        phi = from_matrix(ComplexMatrix.from_complex(
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))))
        if t % 3 == 2:
            values = dict(phi.values)
            last = list(phi.values)[-1]
            values[last] = values[last] * Phase(1e-3)
            phi = unchecked_phirotope(n, r, values)
        yield phi, rng


def _verdict_summary(v):
    """Verdict class and its reason: the witness basis, the infeasible minor
    (without the solver's numbers) or the Unsupported reason."""
    if isinstance(v, NotRealizable):
        return "NotRealizable", v.witness.basis if v.witness else v.infeasible_equation.split(":")[0]
    if isinstance(v, Unsupported):
        return "Unsupported", v.reason
    return "Realizable", None


def test_realize_verdicts_do_not_change_under_rephasing():
    classes = set()
    for phi, rng in _rephasing_cases():
        rho = Rephasing(tuple(Phase.from_angle(a) for a in rng.uniform(0, 2 * math.pi, phi.n)))
        moved = scale_global(rephase(phi, rho), Phase.from_angle(rng.uniform(0, 2 * math.pi)))
        before, after = decide_realizability(phi), decide_realizability(moved)
        assert _verdict_summary(after) == _verdict_summary(before)
        if isinstance(before, Realizable):
            assert max_entry_distance(after.matrix, before.matrix) < 1e-9
        classes.add(_verdict_summary(before)[0])
    assert classes >= {"Realizable", "NotRealizable"}


def _near_real_phirotope(rng, noise_exponents=(-10, -8)):
    """The phirotope of a real Gaussian r x n matrix (r 2-3, n r+2..7) plus
    i times noise, with the noise level drawn log-uniformly."""
    r = int(rng.integers(2, 4))
    n = int(rng.integers(r + 2, 8))
    noise = 10 ** rng.uniform(*noise_exponents)
    arr = rng.normal(size=(r, n)) + 1j * noise * rng.normal(size=(r, n))
    return from_matrix(ComplexMatrix.from_complex(arr))


def _degenerate_gp_invalid_phirotope():
    """The first seeded near-real phirotope whose reconstruction raises
    DegenerateTriangleError: a real entry and a non-real one lie within the
    angular tolerance of each other.  Its GP check fails, so the parent
    order never reconstructed it."""
    rng = np.random.default_rng(11)
    for _ in range(500):
        phi = _near_real_phirotope(rng)
        try:
            reconstruct(canonicalize(phi))
        except (InfeasibleTriangleError, EssentiallyOrientedError):
            continue
        except DegenerateTriangleError:
            return phi
    raise AssertionError("no near-real phirotope raised DegenerateTriangleError")


def test_pipeline_error_falls_back_to_the_gp_check(tmp_path, capsys):
    phi = _degenerate_gp_invalid_phirotope()
    violations = phi.check_gp()
    assert violations
    verdict = decide_realizability(phi)
    assert isinstance(verdict, Unsupported) and verdict.reason == NOT_A_PHIROTOPE
    x, y = violations[0]
    assert verdict.detail == f"{len(violations)} violations, first at X={x}, Y={y}"
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(jsonio.phirotope_to_json(phi)))
    assert run(["realize", "--input", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {"verdict": "Unsupported", "reason": NOT_A_PHIROTOPE,
                                "detail": verdict.detail}


def _raise_degenerate(canonical):
    raise DegenerateTriangleError("alpha = +/-beta")


def test_pipeline_error_is_raised_only_when_gp_holds(monkeypatch, nonreal2ex_phi):
    monkeypatch.setattr(realization, "reconstruct", _raise_degenerate)
    with pytest.raises(DegenerateTriangleError):
        decide_realizability(nonreal2ex_phi)
    values = dict(nonreal2ex_phi.values)
    values[(3, 4)] = values[(3, 4)] * Phase(2.0)
    verdict = decide_realizability(unchecked_phirotope(5, 2, values))
    assert isinstance(verdict, Unsupported) and verdict.reason == NOT_A_PHIROTOPE


def test_check_gp_runs_only_off_the_realizable_path(monkeypatch, runex_phi, nonreal2ex_phi):
    """The sweep of check_gp, which the decision runs through
    Phirotope._first_gp_violation, runs once off the Realizable path."""
    calls, restricted = [], []
    sweep = Phirotope._gp_sweep

    def counted(phi, touching):
        calls.append(phi)
        restricted.append(None if touching is None else _marked(phi, touching))
        return sweep(phi, touching)

    monkeypatch.setattr(Phirotope, "_gp_sweep", counted)
    rng = np.random.default_rng(49)
    realizable = from_matrix(ComplexMatrix.from_complex(
        rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))))
    oriented = from_matrix(ComplexMatrix.from_complex(rng.normal(size=(2, 5)).astype(complex)))
    invalid_values = dict(realizable.values)
    invalid_values[(1, 2, 3)] = invalid_values[(1, 2, 3)] * Phase(2.0)
    cases = [(realizable, Realizable, 0), (nonreal2ex_phi, NotRealizable, 1),
             (runex_phi, NOT_UNIFORM, 1), (oriented, ESSENTIALLY_ORIENTED, 1),
             (unchecked_phirotope(7, 3, invalid_values), NOT_A_PHIROTOPE, 1),
             (_degenerate_gp_invalid_phirotope(), NOT_A_PHIROTOPE, 1)]
    # only the witness path passes the bases where the matrix disagrees
    touched = {id(nonreal2ex_phi): [[(4, 5)]]}
    for phi, expected, gp_calls in cases:
        calls.clear()
        restricted.clear()
        verdict = decide_realizability(phi)
        if isinstance(expected, str):
            assert isinstance(verdict, Unsupported) and verdict.reason == expected
        else:
            assert isinstance(verdict, expected)
        assert calls == [phi] * gp_calls
        assert restricted == touched.get(id(phi), [None] * gp_calls)
    monkeypatch.setattr(realization, "reconstruct", _raise_degenerate)
    calls.clear()
    restricted.clear()
    with pytest.raises(DegenerateTriangleError):
        decide_realizability(nonreal2ex_phi)
    assert calls == [nonreal2ex_phi]
    assert restricted == [None]


def _marked(phi, mask):
    """The bases a mask over phi's bases in lex order marks."""
    bases = itertools.combinations(range(1, phi.n + 1), phi.r)
    return [b for b, marked in zip(bases, mask) if marked]


def _gp_first(phi):
    """The verdict when the GP check runs before the pipeline."""
    violations = phi.check_gp()
    if violations:
        return Unsupported(NOT_A_PHIROTOPE)
    return decide_realizability(phi)


def _verdict_changing_cases():
    """Near-real matrices (noise 1e-10 to 1e-6) and complex Gaussian
    matrices with one value rotated by 1e-8 to 2 rad, r 2-3, n r+2..7."""
    rng = np.random.default_rng(50)
    for t in range(240):
        if t % 2 == 0:
            phi = _near_real_phirotope(rng, (-10, -6))
            if not is_uniform(phi):
                continue
            yield "near-real", phi
        else:
            r = int(rng.integers(2, 4))
            n = int(rng.integers(r + 2, 8))
            values = dict(from_matrix(ComplexMatrix.from_complex(
                rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))).values)
            basis = list(values)[int(rng.integers(len(values)))]
            values[basis] = values[basis] * Phase.from_angle(10 ** rng.uniform(-8, math.log10(2)))
            yield "rotated", unchecked_phirotope(n, r, values)


def test_verdicts_change_only_from_not_a_phirotope_to_verified_realizable():
    """A verified matrix proves GP, so putting the GP check after the
    pipeline changes a verdict only where the GP check rejects a phirotope
    that some matrix realizes within VERIFY_TOLERANCE."""
    changed = {"near-real": 0, "rotated": 0}
    for family, phi in _verdict_changing_cases():
        before, after = _gp_first(phi), decide_realizability(phi)
        if _verdict_summary(before) == _verdict_summary(after):
            continue
        assert _verdict_summary(before) == ("Unsupported", NOT_A_PHIROTOPE)
        assert isinstance(after, Realizable)
        assert verify(canonicalize(phi).canonical, after.matrix) is None
        changed[family] += 1
    assert changed["near-real"] >= 5


# The batched reconstruction against the per-equation reference, and
# the exact rank-2 decision as an independent check of its verdicts.

def _rebuilt(rebuild, canon):
    try:
        m = rebuild(canon)
    except PhasedMatroidError as exc:
        return type(exc).__name__, str(exc)
    return "ok", m.norms.tobytes(), m.angles.tobytes()


def _passes(canonical):
    """The passes that reconstruct runs on a canonical phirotope."""
    r, n = canonical.r, canonical.n
    real = {(i, j): minor_phase(canonical, (i,), (j,)).is_real(canonical.tolerance)
            for i in range(1, r) for j in range(r + 2, n + 1)}
    rows = {i for (i, _), x in real.items() if not x}
    cols = {j for (_, j), x in real.items() if not x}
    return {1 if not x else 2 if i in rows else 3 if j in cols else 4
            for (i, j), x in real.items()}


def _reconstruction_inputs():
    """Matrix-born phirotopes up to (5, 11), the same with one value rotated
    by 1e-3, 0.3 or 2.0, and standard-form matrices whose free entries are
    partly real, with one all-real row and column, for passes 2-4."""
    rng = np.random.default_rng(56)
    for r in range(2, 6):
        for n in range(r + 2, 12):
            if math.comb(n, r) > 462:
                continue
            for _ in range(3):
                phi = from_matrix(ComplexMatrix.from_complex(
                    rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))))
                yield phi
                for amount in (1e-3, 0.3, 2.0):
                    angles = phi.angles.copy()
                    k = int(rng.integers(len(angles)))
                    angles[k] = (angles[k] + amount) % (2 * math.pi)
                    yield Phirotope._from_angles(n, r, angles, DEFAULT_TOLERANCE)
                free = rng.normal(size=(r, n - r)) + 1j * rng.normal(size=(r, n - r))
                real = rng.random((r, n - r)) < 0.5
                real[int(rng.integers(r - 1))] = True
                real[:, int(rng.integers(1, n - r))] = True
                free[real] = free[real].real
                free[:, 0] = free[-1] = 1.0
                yield from_matrix(ComplexMatrix.from_complex(np.hstack([np.eye(r), free])))


def test_reconstruct_matches_the_per_equation_reference(nonreal2ex_phi):
    seen, passes = set(), set()
    for phi in itertools.chain(_reconstruction_inputs(), [nonreal2ex_phi]):
        if not is_uniform(phi):
            continue
        try:
            canon = canonicalize(phi)
        except PhasedMatroidError:
            continue
        got = _rebuilt(reconstruct, canon)
        assert got == _rebuilt(reconstruct_reference, canon)
        seen.add(got[0])
        passes |= _passes(canon.canonical)
    assert {"ok", "InfeasibleTriangleError"} <= seen
    assert passes == {1, 2, 3, 4}


def test_reconstruct_matches_the_per_equation_reference_at_large_sizes():
    """Beyond the 462 bases of ``_reconstruction_inputs``: a matrix-born
    phirotope and the same with one value rotated by 1e-3 and by 0.3, at
    sizes no workload reaches, rebuild to the reference's bits."""
    rng = np.random.default_rng(58)
    for r, n in ((6, 16), (8, 16), (4, 30), (3, 40)):
        phi = from_matrix(ComplexMatrix.from_complex(
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))))
        k = int(rng.integers(len(phi.angles)))
        for amount in (0.0, 1e-3, 0.3):
            angles = phi.angles.copy()
            angles[k] = (angles[k] + amount) % (2 * math.pi)
            canon = canonicalize(Phirotope._from_angles(n, r, angles, DEFAULT_TOLERANCE))
            assert _rebuilt(reconstruct, canon) == _rebuilt(reconstruct_reference, canon)


def test_reconstruct_names_the_first_infeasible_equation_of_every_pass():
    """Standard-form matrices whose free entries are half real, with one value
    rotated: reconstruct matches the per-equation reference, and the first
    infeasible equation falls in pass 2, 3 and 4 at least once each, as told
    by the minor it names (row r and column r + 1 mark pass 1)."""
    rng = np.random.default_rng(61)
    failing = set()
    for _ in range(600):
        r = int(rng.integers(3, 5))
        n = int(rng.integers(r + 3, r + 6))
        free = rng.normal(size=(r, n - r)) + 1j * rng.normal(size=(r, n - r))
        real = rng.random((r, n - r)) < 0.5
        free[real] = free[real].real
        free[:, 0] = free[-1] = 1.0
        phi = from_matrix(ComplexMatrix.from_complex(np.hstack([np.eye(r), free])))
        angles = phi.angles.copy()
        k = int(rng.integers(len(angles)))
        angles[k] = (angles[k] + rng.uniform(0.05, 0.5)) % (2 * math.pi)
        canon = canonicalize(Phirotope._from_angles(n, r, angles, DEFAULT_TOLERANCE))
        got = _rebuilt(reconstruct, canon)
        assert got == _rebuilt(reconstruct_reference, canon)
        if got[0] == "InfeasibleTriangleError":
            rows, cols = re.match(r"minor rows \{(.*)\} cols \{(.*)\}: ", got[1]).groups()
            on_row = str(r) in rows.split(",")
            on_col = str(r + 1) in cols.split(",")
            failing.add(1 if on_row and on_col else 2 if on_row else 3 if on_col else 4)
    assert {2, 3, 4} <= failing


def test_the_table_caches_hold_the_workload_size_mix(monkeypatch, tmp_path):
    """Replaying the seed-1 cycle of each benchmark workload through ``run``,
    a second round misses no cached table: each cache holds every key one
    round reads."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "perfbench"))
    import inputs

    caches = [matrices._bases, phirotopes._rank_terms, phirotopes._scatter_ranks,
              canonical._minor_ranks, jsonio._basis_lists]
    for workload in inputs.WORKLOADS:
        instances, cycle = inputs.build(workload, 1)
        requests = []
        for req in cycle:
            inst = instances[req.instance]
            path = tmp_path / f"{workload}-{req.instance}-{req.reads_matrix}.json"
            path.write_text(json.dumps(inst.matrix_doc() if req.reads_matrix
                                       else inst.phirotope_doc()))
            requests.append([req.command, "--input", str(path)])
        misses = []
        for _ in range(2):
            for argv in requests:
                run(argv)
            misses.append([cache.cache_info().misses for cache in caches])
        assert misses[1] == misses[0], workload


def _sine_rule(gamma, alpha, beta, s1, s2, guard):
    """(s, t) with s the unknown side of s1*alpha - s2*beta = t*gamma by the
    sine rule, turned by -gamma: s1 sin(alpha - gamma) = s2 sin(beta - gamma)
    and t = s1 cos(alpha - gamma) - s2 cos(beta - gamma); None when the
    denominator is below ``guard``."""
    a, b = alpha - gamma, beta - gamma
    if s2 is None:
        if abs(math.sin(b)) < guard:
            return None
        s2 = s = s1 * math.sin(a) / math.sin(b)
    else:
        if abs(math.sin(a)) < guard:
            return None
        s1 = s = s2 * math.sin(b) / math.sin(a)
    return s, s1 * math.cos(a) - s2 * math.cos(b)


def test_triangle_solve_matches_the_one_equation_reference():
    """On each seeded equation ``triangle_solve`` gives the reference's bits,
    or raises the reference's class and text.  Independently of both, every
    solved norm is the sine rule's, with t > 0, and every infeasible equation
    has a sine-rule solution that is not positive, a denominator below the
    determinant guard, or is equation 40, built to fail the phase check."""
    rng = np.random.default_rng(57)
    angles = rng.uniform(0.0, 2 * math.pi, size=(3, 400))
    angles[:, :40] = np.round(angles[:, :40] / (math.pi / 2)) * (math.pi / 2) % (2 * math.pi)
    # alpha and beta 2e-12 apart: at eps 1e-12 the solution fails its phase check
    angles[:, 40] = 1.3 * math.pi, 0.1 * math.pi, 0.1 * math.pi + 2e-12
    known = rng.uniform(0.1, 10.0, size=400)
    unknown1 = rng.random(400) < 0.5
    unknown1[40] = False
    tol = Tolerance(1e-12)
    failing = {}
    for k in range(400):
        gamma, alpha, beta = angles[:, k].tolist()
        sides = (None, known.item(k)) if unknown1[k] else (known.item(k), None)
        sine = _sine_rule(gamma, alpha, beta, *sides, tol.eps)
        try:
            lone = triangle_solve_reference(Phase(gamma), Phase(alpha), Phase(beta), *sides, tol)
        except PhasedMatroidError as exc:
            failing[k] = exc
            with pytest.raises(type(exc)) as got:
                triangle_solve(gamma, alpha, beta, *sides, tol)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            if isinstance(exc, InfeasibleTriangleError):
                assert sine is None or min(sine) <= 0.0 or k == 40, (k, exc, sine)
        else:
            assert triangle_solve(gamma, alpha, beta, *sides, tol) == lone
            assert sine is not None and sine[1] > 0.0, (k, sine)
            assert abs(lone - sine[0]) <= 1e-12 * lone, (k, lone, sine)
    assert {type(exc).__name__ for exc in failing.values()} == {
        "DegenerateTriangleError", "InfeasibleTriangleError"}
    assert "fails phase check" in str(failing[40])


@given(st.integers(3, 8), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 1e-4, 1e-2, 0.3]))
@settings(max_examples=300, deadline=None)
def test_rank2_verdicts_match_the_exact_oracle(n, seed, rotation):
    """Matrix-born rank-2 inputs, and the same with one value rotated: a
    Realizable verdict is realizable for the oracle, and NotRealizable and
    not_a_phirotope are not."""
    rng = np.random.default_rng(seed)
    phi = from_matrix(ComplexMatrix.from_complex(
        rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))))
    if rotation is not None:
        angles = phi.angles.copy()
        k = int(rng.integers(len(angles)))
        angles[k] = (angles[k] + rotation) % (2 * math.pi)
        phi = Phirotope._from_angles(n, 2, angles, DEFAULT_TOLERANCE)
    expected = rank2_realizable(phi)
    if expected is None:  # parallel rays: the real boundary that waits for ROADMAP item 2
        return
    verdict = decide_realizability(phi)
    if isinstance(verdict, Realizable):
        assert expected is True
    elif isinstance(verdict, NotRealizable) or verdict.reason == NOT_A_PHIROTOPE:
        assert expected is False
    else:  # every value pinned real: n = 3
        assert verdict.reason == ESSENTIALLY_ORIENTED and n == 3


def test_corank2_verdicts_match_the_exact_oracle_on_the_dual():
    """Matrix-born (n - 2, n) inputs, and the same with one value rotated by
    1e-2 or 0.3: the verdict is Realizable exactly when the rank-2 oracle
    realizes the dual.  Smaller rotations wait for ROADMAP item 13."""
    rng = np.random.default_rng(9)
    seen = set()
    for draw in range(400):
        n = int(rng.integers(4, 9))
        r = n - 2
        phi = from_matrix(ComplexMatrix.from_complex(
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))))
        rotation = (None, 1e-2, 0.3)[draw % 3]
        if rotation is not None:
            angles = phi.angles.copy()
            k = int(rng.integers(len(angles)))
            angles[k] = (angles[k] + rotation) % (2 * math.pi)
            phi = Phirotope._from_angles(n, r, angles, DEFAULT_TOLERANCE)
        verdict = decide_realizability(phi)
        assert isinstance(verdict, Realizable) == (rank2_realizable(dual(phi)) is True), draw
        seen.add(getattr(verdict, "reason", type(verdict).__name__))
    assert seen == {"Realizable", "NotRealizable", NOT_A_PHIROTOPE}


def test_not_a_phirotope_detail_counts_every_violation_and_names_the_first():
    """The detail is the count and first pair of check_gp over the sweep the
    decision ran: all pairs, or those through the witness's disagreeing
    bases."""
    rng = np.random.default_rng(58)
    sweeps = set()
    for _ in range(120):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(r + 1, 10))
        angles = from_matrix(ComplexMatrix.from_complex(
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))).angles.copy()
        for k in rng.integers(len(angles), size=int(rng.integers(1, 4))):
            angles[k] = (angles[k] + rng.uniform(0.5, 5.0)) % (2 * math.pi)
        phi = Phirotope._from_angles(n, r, angles, DEFAULT_TOLERANCE)
        for mask in (None, rng.random(len(angles)) < 0.2):
            violations = phi.check_gp(mask)
            assert phi._first_gp_violation(mask) == (
                len(violations), violations[0] if violations else None)
        verdict = decide_realizability(phi)
        if not (isinstance(verdict, Unsupported) and verdict.reason == NOT_A_PHIROTOPE):
            continue
        mask = None
        try:
            canon = canonicalize(phi)
            witness = verify(canon.canonical, reconstruct(canon))
        except PhasedMatroidError:
            witness = None
        if witness is not None:
            mask = witness.disagreeing
        violations = phi.check_gp(mask)
        x, y = violations[0]
        assert verdict.detail == f"{len(violations)} violations, first at X={x}, Y={y}"
        sweeps.add(mask is None)
    assert sweeps == {True, False}
