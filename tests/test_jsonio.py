"""JSON round trips and schema validation."""

import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedmatroids import (
    DEFAULT_TOLERANCE,
    ComplexMatrix,
    InfeasibleTriangleError,
    NotRealizable,
    Phase,
    Unsupported,
    canonicalize,
    decide_realizability,
    from_matrix,
    reconstruct,
)
from phasedmatroids import jsonio
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
from oracles import (
    isclose,
    matrix_to_json_reference,
    max_entry_distance,
    phirotope_from_json_reference,
    unchecked_phirotope,
)


def _phases_back(*phases):
    """The values of the rank-1 phirotope whose JSON phases are ``phases``."""
    doc = {"n": len(phases), "r": 1,
           "values": [{"basis": [k + 1], "phase": p} for k, p in enumerate(phases)]}
    return list(phirotope_from_json(doc, DEFAULT_TOLERANCE).values.values())


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


def test_matrix_to_json_matches_the_per_entry_emit():
    """The same document as one entry_norm and entry_phase call per entry,
    also for a zero entry and a stored angle of exactly 2*pi, which np.mod
    gives for a tiny negative angle and entry_phase reads as 0."""
    rng = np.random.default_rng(59)
    arr = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
    arr[2, 5] = 0.0
    angles = np.angle(arr)
    angles[1, 3] = -1e-300
    m = ComplexMatrix(np.abs(arr), angles)
    assert m.angles[1, 3] == 2 * math.pi
    doc = matrix_to_json(m)
    assert json.dumps(doc) == json.dumps(matrix_to_json_reference(m))
    assert doc["entries"][1][3]["angle_over_pi"] == 0.0 and doc["entries"][2][5] is None


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
    inconsistent = unchecked_phirotope(4, 2, values)
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


# The whole-list parse against the per-record reference: the same angle bits
# for a valid document, the same FormatError text for a malformed one.

def _parse_outcome(parse, doc):
    try:
        phi = parse(doc, DEFAULT_TOLERANCE)
    except Exception as exc:  # noqa: BLE001 - the class and text are compared
        return type(exc).__name__, str(exc)
    return "ok", phi.n, phi.r, phi.angles.tobytes()


def _same_parse(doc):
    got = _parse_outcome(phirotope_from_json, copy.deepcopy(doc))
    want = _parse_outcome(phirotope_from_json_reference, copy.deepcopy(doc))
    assert got == want
    return got


def _mutate(records, kind, k, n, r, draw):
    """One fault of the given kind at record k of a list of value records."""
    record = records[k]
    basis, phase = record["basis"], record["phase"]
    at = draw(st.integers(0, r - 1))
    if kind == "basis element":
        basis[at] = draw(st.sampled_from([True, False, float(basis[at]), 10**30, -10**30,
                                          0, n + 1, 2**63, "1", None, [1]]))
    elif kind == "unsorted":
        basis.reverse() if r > 1 else basis.append(basis[0])
    elif kind == "basis length":
        basis.append(n) if draw(st.booleans()) else basis.pop()
    elif kind == "basis type":
        record["basis"] = draw(st.sampled_from([tuple(basis), "1", None, {"b": 1}, 1]))
    elif kind == "duplicate":
        # a copy of an earlier basis; only the records after k have changed
        j = draw(st.integers(0, k))
        records.insert(k + 1, {"basis": list(records[j]["basis"]), "phase": phase})
    elif kind == "missing":
        del records[k]
    elif kind == "record keys":
        if draw(st.booleans()):
            record["x"] = 1
        else:
            del record[draw(st.sampled_from(["basis", "phase"]))]
    elif kind == "record type":
        records[k] = draw(st.sampled_from([None, [basis, phase], "record", 1.0]))
    elif kind == "phase type":
        record["phase"] = draw(st.sampled_from([[0.5], "x", 1.0, True, {}]))
    elif kind == "phase keys":
        record["phase"] = {"angle_over_pi": 0.5, "y": 0} if draw(st.booleans()) else {"angle": 0.5}
    elif kind == "angle":
        record["phase"] = {"angle_over_pi": draw(st.sampled_from(
            [math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, 2**1024 - 2**971,
             True, False, "x", None, [1.0]]))}


FAULTS = ["basis element", "unsorted", "basis length", "basis type", "duplicate", "missing",
          "record keys", "record type", "phase type", "phase keys", "angle"]


@st.composite
def _value_documents(draw):
    """A phirotope document with its records in lex, reversed or shuffled
    order and some null phases, and faults at up to three of its records."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 6))
    number = st.one_of(st.floats(-8, 8, allow_nan=False), st.integers(-9, 9), st.just(-0.0))
    records = [{"basis": list(b), "phase": draw(st.one_of(st.none(), st.builds(
        lambda x: {"angle_over_pi": x}, number)))}
        for b in itertools.combinations(range(1, n + 1), r)]
    order = draw(st.sampled_from(["lex", "reversed", "shuffled"]))
    if order == "reversed":
        records.reverse()
    elif order == "shuffled":
        records = draw(st.permutations(records))
    faulty = draw(st.sets(st.integers(0, len(records) - 1), max_size=3))
    for k in sorted(faulty, reverse=True):  # so that a deleted record moves no other
        _mutate(records, draw(st.sampled_from(FAULTS)), k, n, r, draw)
    return {"n": n, "r": r, "values": records}


@given(_value_documents())
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_per_record_reference(doc):
    _same_parse(doc)


def test_only_documents_in_lex_order_are_walked(monkeypatch):
    """A document as ``phirotope_to_json`` writes it is read as a whole list,
    the same records reversed one record at a time, to the same angles; the
    subset lists the whole-list read compares with are built once per size."""
    walked = []

    def counted(items, n, r, _original=jsonio._walk_records):
        walked.append((n, r))
        return _original(items, n, r)

    monkeypatch.setattr(jsonio, "_walk_records", counted)
    rng = np.random.default_rng(56)
    docs = []
    # the realize-uniform sizes of perfbench/inputs.py, and (4, 14)
    for r, n in [(2, 14), (3, 10), (3, 12), (4, 11), (4, 12), (5, 11), (4, 14)]:
        m = ComplexMatrix.from_complex(rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))
        docs.append(json.loads(json.dumps(phirotope_to_json(from_matrix(m)))))
        lex = phirotope_from_json(docs[-1], DEFAULT_TOLERANCE)
        assert walked == []
        reversed_values = docs[-1]["values"][::-1]
        back = phirotope_from_json(dict(docs[-1], values=reversed_values), DEFAULT_TOLERANCE)
        assert walked == [(n, r)]
        assert back.angles.tobytes() == lex.angles.tobytes()
        walked.clear()
    misses = jsonio._basis_lists.cache_info().misses
    for doc in docs:
        phirotope_from_json(doc, DEFAULT_TOLERANCE)
    assert jsonio._basis_lists.cache_info().misses == misses


def test_parse_refuses_bases_that_only_compare_equal_to_lists():
    """An array basis equals a list element by element, but only a list is a
    basis: refused as by the per-record reference, at r = 1 as at r = 2."""
    for n, r in [(3, 1), (4, 2)]:
        doc = phirotope_to_json(from_matrix(ComplexMatrix.from_complex(
            np.random.default_rng(57).normal(size=(r, n)) + 1j)))
        for record in doc["values"]:
            record["basis"] = np.array(record["basis"])
        assert _same_parse(doc)[0] == "FormatError"


def test_parse_reference_cases():
    """Each fault alone on a (3, 5) document, the document-level faults, and
    valid documents in lex, reversed and shuffled order, with null phases."""
    rng = np.random.default_rng(55)
    m = ComplexMatrix.from_complex(rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)))
    doc = phirotope_to_json(from_matrix(m))
    assert _same_parse(doc)[0] == "ok"
    for order in (slice(None, None, -1), rng.permutation(10)):
        values = np.array(doc["values"], dtype=object)[order].tolist()
        assert _same_parse(dict(doc, values=values))[0] == "ok"
    nulls = copy.deepcopy(doc)
    nulls["values"][3]["phase"] = None
    assert _same_parse(nulls)[0] == "ok"
    everywhere = copy.deepcopy(doc)
    for record in everywhere["values"]:
        record["phase"] = None
    assert _same_parse(everywhere) == ("FormatError", "a phirotope is not identically zero")
    for values in ({}, "x", None, doc["values"][0]):
        assert _same_parse(dict(doc, values=values)) == ("FormatError", "values must be a list")
    short = {"n": 10**7, "r": 2, "values": copy.deepcopy(doc["values"][:3])}
    for record, basis in zip(short["values"], ([1, 2], [1, 3], [2, 3])):
        record["basis"] = basis
    assert _same_parse(short) == ("FormatError", "expected C(10000000, 2) values, got 3: "
                                  "every sorted r-subset must appear exactly once")
    short["values"][1]["basis"] = [1, 2]  # a repeat comes before the count
    assert _same_parse(short)[1] == "basis [1, 2] appears twice"
    # a list of C(n, r) short bases is refused before any subset table is built
    misses = jsonio._basis_lists.cache_info().misses
    for n, r in ((10**30, 10**30), (300, 299)):
        tall = {"n": n, "r": r, "values": [{"basis": [1], "phase": None}] * math.comb(n, r)}
        assert _same_parse(tall) == (
            "FormatError", f"bad basis [1]: need a sorted {r}-subset of [1, {n}]")
    assert jsonio._basis_lists.cache_info().misses == misses
    cases = [  # (record, change) on a copy of doc's records
        (0, lambda v: v[0]["basis"].__setitem__(1, True)),
        (4, lambda v: v[4]["basis"].__setitem__(0, 1.0)),
        (9, lambda v: v[9]["basis"].__setitem__(2, 10**30)),
        (2, lambda v: v[2]["basis"].__setitem__(0, -10**30)),
        (5, lambda v: v[5]["basis"].reverse()),
        (3, lambda v: v[3]["basis"].__setitem__(2, 6)),
        (3, lambda v: v[3]["basis"].__setitem__(0, 0)),
        (7, lambda v: v[7].__setitem__("basis", v[1]["basis"])),
        (7, lambda v: v.pop(7)),
        (8, lambda v: v[8].__setitem__("x", 1)),
        (1, lambda v: v[1].__setitem__("phase", [0.5])),
        (1, lambda v: v[1].__setitem__("phase", {"angle_over_pi": 0.5, "y": 0})),
        (6, lambda v: v.__setitem__(6, None)),
    ] + [(6, lambda v, x=x: v[6].__setitem__("phase", {"angle_over_pi": x}))
         for x in (math.nan, math.inf, -math.inf, 1e308, True, "x", 10**400)]
    for k, change in cases:
        faulty = copy.deepcopy(doc)
        change(faulty["values"])
        assert _same_parse(faulty)[0] == "FormatError", k
