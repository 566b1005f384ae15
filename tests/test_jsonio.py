"""JSON round trips and schema validation."""

import math

import numpy as np
import pytest

from phasedmatroids import (
    DEFAULT_TOLERANCE,
    ComplexMatrix,
    InfeasibleTriangleError,
    NotRealizable,
    Phase,
    Phirotope,
    Unsupported,
    canonicalize,
    decide_realizability,
    from_matrix,
    reconstruct,
)
from phasedmatroids.jsonio import (
    FormatError,
    matrix_from_json,
    matrix_to_json,
    phase_to_json,
    phirotope_from_json,
    phirotope_to_json,
    verdict_to_json,
)

from conftest import load_fixture
from oracles import isclose, max_entry_distance


def _phases_back(*phases):
    """The values of the rank-1 phirotope whose JSON phases are ``phases``."""
    doc = {"n": len(phases), "r": 1,
           "values": [{"basis": [k + 1], "phase": p} for k, p in enumerate(phases)]}
    return list(phirotope_from_json(doc, DEFAULT_TOLERANCE, validate=False).values.values())


def test_phase_roundtrip():
    """A phase is read back as it was written, within a phirotope: its only
    reader."""
    assert phase_to_json(Phase(None)) is None
    p = Phase.from_angle_over_pi(1.75)
    zero, back = _phases_back(phase_to_json(Phase(None)), phase_to_json(p))
    assert zero.is_zero
    assert isclose(back, p)


def test_phase_schema_errors():
    for bad in ({"angle": 1.0}, {"angle_over_pi": "x"}, 3.0):
        with pytest.raises(FormatError, match="angle_over_pi"):
            _phases_back(bad)


def test_matrix_roundtrip():
    rng = np.random.default_rng(51)
    arr = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    arr[1, 2] = 0.0
    m = ComplexMatrix.from_complex(arr)
    back = matrix_from_json(matrix_to_json(m))
    assert max_entry_distance(back, m) < 1e-12


def test_matrix_schema_errors():
    with pytest.raises(FormatError):
        matrix_from_json({"rows": 2, "cols": 3})
    with pytest.raises(FormatError):
        matrix_from_json({"rows": 2, "cols": 3, "entries": [[None, None, None]]})
    with pytest.raises(FormatError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [[{"norm": -1, "angle_over_pi": 0}]]})


def test_phirotope_roundtrip(nonreal2ex_phi):
    doc = phirotope_to_json(nonreal2ex_phi)
    back = phirotope_from_json(doc, DEFAULT_TOLERANCE)
    assert back.max_angular_distance(nonreal2ex_phi) < 1e-12


def test_phirotope_schema_errors():
    good = {"n": 3, "r": 2, "values": [
        {"basis": [1, 2], "phase": {"angle_over_pi": 0.0}},
        {"basis": [1, 3], "phase": {"angle_over_pi": 0.0}},
        {"basis": [2, 3], "phase": {"angle_over_pi": 0.0}}]}
    bad = dict(good, values=good["values"][:2])
    with pytest.raises(FormatError):
        phirotope_from_json(bad, DEFAULT_TOLERANCE)  # missing basis
    bad = dict(good, values=good["values"] + [good["values"][0]])
    with pytest.raises(FormatError):
        phirotope_from_json(bad, DEFAULT_TOLERANCE)  # duplicate basis
    bad = dict(good, values=[dict(v, basis=list(reversed(v["basis"])))
                             for v in good["values"]])
    with pytest.raises(FormatError):
        phirotope_from_json(bad, DEFAULT_TOLERANCE)  # unsorted basis


def test_all_fixtures_roundtrip(fixtures_dir):
    for name in sorted(p.name for p in fixtures_dir.glob("*.json")):
        doc = load_fixture(name)
        if "phirotope" in name:
            obj = phirotope_from_json(doc, DEFAULT_TOLERANCE)
            assert phirotope_from_json(phirotope_to_json(obj), DEFAULT_TOLERANCE) \
                .max_angular_distance(obj) < 1e-12
        else:
            obj = matrix_from_json(doc)
            assert max_entry_distance(matrix_from_json(matrix_to_json(obj)), obj) < 1e-12


def test_runex_fixture_matches_construction(runex_matrix, fixtures_dir):
    m = matrix_from_json(load_fixture("runex_matrix.json"))
    assert max_entry_distance(m, runex_matrix) < 1e-12
    phi = phirotope_from_json(load_fixture("runex_phirotope.json"), DEFAULT_TOLERANCE)
    assert phi.max_angular_distance(from_matrix(runex_matrix)) < 1e-12


def test_verdict_to_json_emits_each_documented_shape(nonreal2ex_phi):
    """Each verdict shape of docs/formats.md, section "Realizability verdict"."""
    rng = np.random.default_rng(54)
    m = ComplexMatrix.from_complex(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)))
    realizable = decide_realizability(from_matrix(m))
    doc = verdict_to_json(realizable)
    assert set(doc) == {"verdict", "matrix", "rho", "global_phase"}
    assert doc["verdict"] == "Realizable"
    assert max_entry_distance(matrix_from_json(doc["matrix"]), realizable.matrix) < 1e-12
    assert len(doc["rho"]) == len(realizable.rho)
    assert all(isclose(p, q) for p, q in zip(_phases_back(*doc["rho"]), realizable.rho.rho))

    doc = verdict_to_json(decide_realizability(nonreal2ex_phi))
    assert set(doc) == {"verdict", "witness", "matrix"}
    assert doc["verdict"] == "NotRealizable"
    assert doc["witness"]["basis"] == [4, 5]
    assert doc["witness"]["expected"]["angle_over_pi"] == pytest.approx(5 / 6)
    assert doc["witness"]["computed"]["angle_over_pi"] == pytest.approx(11 / 12)

    # canonical values whose 2x2 minor phase is antiparallel to the known side
    values = {(1, 2): Phase(0.0), (1, 3): Phase(0.0), (1, 4): Phase(0.0),
              (2, 3): Phase(math.pi), (2, 4): Phase.from_angle_over_pi(1.5),
              (3, 4): Phase.from_angle_over_pi(1.5)}
    inconsistent = Phirotope(4, 2, values, validate=False)
    with pytest.raises(InfeasibleTriangleError) as exc:
        reconstruct(canonicalize(inconsistent))
    doc = verdict_to_json(NotRealizable(infeasible_equation=str(exc.value)))
    assert doc == {"verdict": "NotRealizable", "infeasible_equation": str(exc.value)}
    assert doc["infeasible_equation"].startswith("minor rows {1,2} cols {3,4}: ")

    doc = verdict_to_json(decide_realizability(inconsistent))
    assert doc == {"verdict": "Unsupported", "reason": "not_a_phirotope",
                   "detail": "4 violations, first at X=(1, 2, 3), Y=(4,)"}
    assert verdict_to_json(Unsupported("essentially_oriented")) == {
        "verdict": "Unsupported", "reason": "essentially_oriented"}
    with pytest.raises(TypeError):
        verdict_to_json(realizable.matrix)
