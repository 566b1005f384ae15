"""Reconstruction, verification, realizability decisions and the tree scaling."""

import cmath
import json
import math
import re

import numpy as np
import pytest

from phasedmatroids import (
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
from phasedmatroids import jsonio, realization
from phasedmatroids.canonical import CanonicalizationResult
from phasedmatroids.phirotopes import MAX_MATRIX_MINORS, minor_phases
from phasedmatroids.cli import run
from phasedmatroids.realization import ESSENTIALLY_ORIENTED, NOT_A_PHIROTOPE, NOT_UNIFORM

from conftest import FIXTURES
from oracles import max_entry_distance, standard_form, unit


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
    assert w.expected.isclose(Phase.from_angle_over_pi(5 / 6))
    assert w.computed.isclose(Phase.from_angle_over_pi(11 / 12))


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
    phi = Phirotope(400, 2, minor_phases(m), validate=False)
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
    phi = Phirotope(4, 2, values, validate=False)
    verdict = decide_realizability(phi)
    assert isinstance(verdict, Unsupported)
    assert verdict.reason == "not_a_phirotope"


def test_decide_builds_the_graph_and_forest_once(monkeypatch):
    """The canonical tree is derived once per decision: reconstruct takes
    canonicalize's result and does not rebuild the tree to re-check it."""
    from phasedmatroids import canonical
    calls = []
    for name in ("associated_bipartite_graph", "canonical_spanning_forest"):
        def counted(phi, _name=name, _original=getattr(canonical, name)):
            calls.append(_name)
            return _original(phi)
        monkeypatch.setattr(canonical, name, counted)
    rng = np.random.default_rng(49)
    phi = from_matrix(ComplexMatrix.from_complex(
        rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))))
    assert is_uniform(phi)
    assert isinstance(decide_realizability(phi), Realizable)
    assert sorted(calls) == ["associated_bipartite_graph", "canonical_spanning_forest"]


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
    phi = Phirotope(4, 2, values, validate=False)
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
            phi = Phirotope(n, r, values, validate=False)
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
    verdict = decide_realizability(Phirotope(5, 2, values, validate=False))
    assert isinstance(verdict, Unsupported) and verdict.reason == NOT_A_PHIROTOPE


def test_check_gp_runs_only_off_the_realizable_path(monkeypatch, runex_phi, nonreal2ex_phi):
    calls = []
    check_gp = Phirotope.check_gp

    def counted(phi):
        calls.append(phi)
        return check_gp(phi)

    monkeypatch.setattr(Phirotope, "check_gp", counted)
    rng = np.random.default_rng(49)
    realizable = from_matrix(ComplexMatrix.from_complex(
        rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))))
    oriented = from_matrix(ComplexMatrix.from_complex(rng.normal(size=(2, 5)).astype(complex)))
    invalid_values = dict(realizable.values)
    invalid_values[(1, 2, 3)] = invalid_values[(1, 2, 3)] * Phase(2.0)
    cases = [(realizable, Realizable, 0), (nonreal2ex_phi, NotRealizable, 1),
             (runex_phi, NOT_UNIFORM, 1), (oriented, ESSENTIALLY_ORIENTED, 1),
             (Phirotope(7, 3, invalid_values, validate=False), NOT_A_PHIROTOPE, 1),
             (_degenerate_gp_invalid_phirotope(), NOT_A_PHIROTOPE, 1)]
    for phi, expected, gp_calls in cases:
        calls.clear()
        verdict = decide_realizability(phi)
        if isinstance(expected, str):
            assert isinstance(verdict, Unsupported) and verdict.reason == expected
        else:
            assert isinstance(verdict, expected)
        assert calls == [phi] * gp_calls
    monkeypatch.setattr(realization, "reconstruct", _raise_degenerate)
    calls.clear()
    with pytest.raises(DegenerateTriangleError):
        decide_realizability(nonreal2ex_phi)
    assert calls == [nonreal2ex_phi]


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
            yield "rotated", Phirotope(n, r, values, validate=False)


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
