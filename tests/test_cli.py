"""Command-line interface: exit codes, reports, determinism."""

import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from phasedmatroids import DEFAULT_TOLERANCE, ComplexMatrix, Phase, Phirotope, from_matrix, jsonio
from phasedmatroids import cli
from phasedmatroids.canonical import (
    canonical_spanning_forest,
    canonicalize,
    is_essentially_oriented,
)
from phasedmatroids.cli import run
from phasedmatroids.errors import (
    DisconnectedGraphError,
    FirstSubsetNotBasisError,
    InvalidPhirotopeError,
    PhasedMatroidError,
)

from conftest import FIXTURES, load_fixture
from oracles import unchecked_phirotope

GOLDEN_INPUTS = pathlib.Path(__file__).parent / "golden_inputs"


def invoke(capsys, *args):
    code = run(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_good_phirotope(capsys):
    code, report = invoke(capsys, "validate",
                          "--input", str(FIXTURES / "nonreal2ex_phirotope.json"))
    assert code == 0
    assert report["result"]["valid"] is True
    assert report["provenance"]["tolerance"] == 1e-9
    assert "input_sha256" in report["provenance"]


def test_validate_corrupted_phirotope(tmp_path, capsys):
    doc = load_fixture("nonreal2ex_phirotope.json")
    for item in doc["values"]:
        if item["basis"] == [3, 4]:
            item["phase"] = {"angle_over_pi": 0.4}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = invoke(capsys, "validate", "--input", str(path))
    assert code == 1
    assert report["result"]["valid"] is False
    assert report["result"]["violations"]


def test_realize_nonrealizable(capsys):
    code, report = invoke(capsys, "realize",
                          "--input", str(FIXTURES / "nonreal2ex_phirotope.json"))
    assert code == 1
    assert report["result"]["verdict"] == "NotRealizable"
    assert report["result"]["witness"]["basis"] == [4, 5]


def test_realize_realizable(capsys):
    code, report = invoke(capsys, "realize",
                          "--input", str(FIXTURES / "realizable_rank3_phirotope.json"))
    assert code == 0
    assert report["result"]["verdict"] == "Realizable"
    assert report["result"]["matrix"]["rows"] == 3


def test_realize_not_uniform(capsys):
    code, report = invoke(capsys, "realize",
                          "--input", str(FIXTURES / "runex_phirotope.json"))
    assert code == 3
    assert report["result"]["verdict"] == "Unsupported"
    assert report["result"]["reason"] == "not_uniform"


def test_from_matrix_then_orient_check(tmp_path, capsys):
    out_path = tmp_path / "phi.json"
    code = run(["from-matrix", "--input", str(FIXTURES / "runex_matrix.json"),
                "--output", str(out_path)])
    assert code == 0
    phi_doc = json.loads(out_path.read_text())["result"]["phirotope"]
    phi_path = tmp_path / "runex_phi.json"
    phi_path.write_text(json.dumps(phi_doc))
    code, report = invoke(capsys, "orient-check", "--input", str(phi_path))
    assert code == 0
    assert report["result"]["essentially_oriented"] is True


def test_canonicalize_and_tree(capsys):
    code, report = invoke(capsys, "canonicalize",
                          "--input", str(FIXTURES / "nonreal2ex_phirotope.json"))
    assert code == 0
    assert len(report["result"]["rho"]) == 5
    code, report = invoke(capsys, "tree",
                          "--input", str(FIXTURES / "nonreal2ex_phirotope.json"))
    assert code == 0
    assert report["result"]["forest"] == [[1, 3], [2, 3], [2, 4], [2, 5]]


def test_verify_command(tmp_path, capsys):
    doc = {"phirotope": load_fixture("realizable_rank3_phirotope.json"),
           "matrix": load_fixture("realizable_rank3_canonical_matrix.json")}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, report = invoke(capsys, "verify", "--input", str(path))
    assert code == 0
    assert report["result"]["realizes"] is True


def test_malformed_input(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, report = invoke(capsys, "validate", "--input", str(path))
    assert code == 2
    assert "error" in report
    code, report = invoke(capsys, "validate", "--input", str(tmp_path / "missing.json"))
    assert code == 2


def test_output_deterministic(capsys):
    args = ("realize", "--input", str(FIXTURES / "nonreal2ex_phirotope.json"))
    run(list(args))
    first = capsys.readouterr().out
    run(list(args))
    second = capsys.readouterr().out
    assert first == second


NON_MATROID_SUPPORT = {"n": 4, "r": 2, "values": [
    {"basis": list(b), "phase": phase} for b, phase in (
        ((1, 2), {"angle_over_pi": 0.0}), ((1, 3), None), ((1, 4), None),
        ((2, 3), None), ((2, 4), None), ((3, 4), {"angle_over_pi": 0.5}))]}


@pytest.mark.parametrize("command", ["tree", "canonicalize"])
def test_non_matroid_support_reports_violations(tmp_path, capsys, command):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(NON_MATROID_SUPPORT))
    code, report = invoke(capsys, command, "--input", str(path))
    assert code == 1
    assert {"X": [1, 3, 4], "Y": [2]} in report["violations"]


def _phirotope_with_phase(x):
    doc = load_fixture("nonreal2ex_phirotope.json")
    doc["values"][0]["phase"] = {"angle_over_pi": x}
    return doc


def _matrix_with_entry(entry):
    doc = load_fixture("runex_matrix.json")
    doc["entries"][0][0] = entry
    return doc


@pytest.mark.parametrize("command, doc", [
    ("validate", _phirotope_with_phase(float("nan"))),
    ("realize", _phirotope_with_phase(float("inf"))),
    ("validate", _phirotope_with_phase(10 ** 400)),
    ("from-matrix", _matrix_with_entry({"norm": "x", "angle_over_pi": 0.0})),
    ("from-matrix", _matrix_with_entry({"norm": float("nan"), "angle_over_pi": 0.0})),
    ("from-matrix", _matrix_with_entry({"norm": 1.0, "angle_over_pi": float("-inf")})),
    ("from-matrix", {"rows": 2, "cols": 1,
                     "entries": [[{"norm": 1.0, "angle_over_pi": 0.0}], [None]]}),
    ("from-matrix", {"rows": True, "cols": 2, "entries": [[None, None]]}),
    ("validate", {"n": True, "r": True,
                  "values": [{"basis": [1], "phase": {"angle_over_pi": 0.5}}]}),
    ("validate", {"n": 1, "r": 1,
                  "values": [{"basis": [True], "phase": {"angle_over_pi": 0.5}}]}),
    ("validate", _phirotope_with_phase(1e308)),  # finite, but 1e308 * pi is not
    ("from-matrix", _matrix_with_entry({"norm": 1.0, "angle_over_pi": 1e308})),
    ("validate", "[" * 200_000),  # raw text: deeper than the JSON parser recurses
    ("from-matrix", {"rows": 1, "cols": 10 ** 13, "entries": [[]]}),  # 73 TiB if allocated
], ids=["nan-phase", "inf-phase", "huge-int-phase", "text-norm", "nan-norm",
        "inf-angle", "cols-below-rows", "bool-rows", "bool-n-r", "bool-basis",
        "overflow-angle-phase", "overflow-angle-entry", "deep-nesting", "huge-cols"])
def test_malformed_numbers_exit_2(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, report = invoke(capsys, command, "--input", str(path))
    assert code == 2
    assert set(report) == {"error"}


def test_unwritable_output_exits_2(tmp_path, capsys):
    """An --output path that cannot be opened sends the error to stdout."""
    code, report = invoke(capsys, "validate",
                          "--input", str(FIXTURES / "nonreal2ex_phirotope.json"),
                          "--output", str(tmp_path / "missing" / "report.json"))
    assert code == 2
    assert set(report) == {"error"}


_ONE_ELEMENT = {"n": 1, "r": 1, "values": [{"basis": [1], "phase": {"angle_over_pi": 0.5}}]}
_MISMATCHED_PAIR = {"phirotope": load_fixture("realizable_rank3_phirotope.json"),
                    "matrix": load_fixture("runex_matrix.json")}


@pytest.mark.parametrize("command, doc, code, result", [
    ("verify", _MISMATCHED_PAIR, 2, None),
    ("canonicalize", _ONE_ELEMENT, 0,
     {"canonical": {"n": 1, "r": 1, "values": [{"basis": [1], "phase": {"angle_over_pi": 0.0}}]},
      "global_phase": {"angle_over_pi": 1.5}, "rho": [{"angle_over_pi": 0.0}]}),
    ("orient-check", _ONE_ELEMENT, 0, {"essentially_oriented": True}),
    ("realize", _ONE_ELEMENT, 3, {"verdict": "Unsupported", "reason": "essentially_oriented"}),
], ids=["verify-shape-mismatch", "canonicalize-n1", "orient-check-n1", "realize-n1"])
def test_edge_inputs_exit_cleanly(tmp_path, capsys, command, doc, code, result):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    got = run([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert got == code
    if result is None:
        assert report == {"error": "matrix is 3 x 5, phirotope needs 3 x 6"}
    else:
        assert report["result"] == result


@pytest.mark.parametrize("command", ["validate", "canonicalize", "orient-check", "realize", "tree"])
def test_all_null_phirotope_exits_2(tmp_path, capsys, command):
    """A document whose values are all null names no phirotope; the
    constructor's ValueError becomes the exit-2 error report."""
    doc = {"n": 3, "r": 2, "values": [{"basis": list(b), "phase": None}
                                      for b in ((1, 2), (1, 3), (2, 3))]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert invoke(capsys, command, "--input", str(path)) == (
        2, {"error": "a phirotope is not identically zero"})


def test_huge_count_with_short_values_exits_2_quickly(tmp_path):
    """C(1e8, 5e7) takes minutes to compute; a list shorter than n is short
    without it.  Run in a subprocess so that a regression fails, not hangs."""
    path = tmp_path / "doc.json"
    path.write_text('{"n": 100000000, "r": 50000000, "values": []}')
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "phasedmatroids.cli", "validate",
                           "--input", str(path)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert set(json.loads(proc.stdout)) == {"error"}


def test_matrix_above_the_minor_cap_exits_2_quickly(tmp_path):
    """A 15 x 30 matrix has C(30, 15) = 155117520 maximal minors, more than
    MAX_MATRIX_MINORS, so from-matrix refuses it before listing a column
    subset.  The subprocess's address space is capped at 1 GiB, so that a
    regression ends in a MemoryError instead of exhausting the host."""
    resource = pytest.importorskip("resource")
    entries = [[{"norm": 1.0 + 0.01 * j, "angle_over_pi": ((i * 30 + j) % 7) / 7}
                for j in range(30)] for i in range(15)]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"rows": 15, "cols": 30, "entries": entries}))
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "phasedmatroids.cli", "from-matrix",
                           "--input", str(path)],
                          env=env, capture_output=True, text=True, timeout=30,
                          preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (2**30, 2**30)))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert set(json.loads(proc.stdout)) == {"error"}


@pytest.mark.parametrize("r, n", [(2, 7), (3, 7), (4, 8), (5, 9)])
def test_realize_reports_the_violations_validate_lists(tmp_path, capsys, r, n):
    """On GP-invalid input realize runs the GP check after the pipeline; its
    detail gives the count and the first pair of validate's list."""
    rng = np.random.default_rng(60 + r)
    for trial in range(3):
        values = dict(from_matrix(ComplexMatrix.from_complex(
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))).values)
        for i in rng.choice(len(values), size=trial + 1, replace=False):
            basis = list(values)[i]
            values[basis] = values[basis] * Phase.from_angle(rng.uniform(0.5 * np.pi, 1.5 * np.pi))
        path = tmp_path / f"phi{trial}.json"
        path.write_text(json.dumps(jsonio.phirotope_to_json(unchecked_phirotope(n, r, values))))
        code, validated = invoke(capsys, "validate", "--input", str(path))
        violations = validated["result"]["violations"]
        assert code == 1 and violations
        code, realized = invoke(capsys, "realize", "--input", str(path))
        first = violations[0]
        assert code == 1
        assert realized["result"] == {
            "verdict": "Unsupported", "reason": "not_a_phirotope",
            "detail": f"{len(violations)} violations, first at "
                      f"X={tuple(first['X'])}, Y={tuple(first['Y'])}"}


def test_consecutive_runs_match_fresh_processes(capsys):
    """``run`` builds its parser once per process: calls in one process give
    the stdout bytes, stderr text and exit code of fresh processes, with a
    --pretty call, a --tol call and a usage error between ordinary calls."""
    phi = str(FIXTURES / "realizable_rank3_phirotope.json")
    matrix = str(FIXTURES / "runex_matrix.json")
    calls = [["validate", "--input", phi],
             ["canonicalize", "--input", phi, "--pretty"],
             ["from-matrix", "--input", matrix],
             ["realize", "--input", phi, "--tol", "1e-6"],
             ["validate", "--input", phi],
             ["tree", "--pretty"],  # no --input: argparse exits 2
             ["realize", "--input", phi],
             ["orient-check", "--input", phi]]
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    codes = []
    for argv in calls:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "phasedmatroids.cli", *argv],
                              env=env, capture_output=True, timeout=60)
        assert (code, out.encode(), err) == (
            proc.returncode, proc.stdout, proc.stderr.decode()), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 0, 2, 0, 0]


#: Grassmann-Pluecker sweeps per command, on a valid uniform phirotope and on
#: a GP-invalid one: validate sweeps once; realize, canonicalize, orient-check
#: and tree pass realize's gate, which sweeps only off the Realizable path, and
#: the last three then sweep again for the full list of violations; verify and
#: from-matrix never sweep.
SWEEPS = {"validate": (1, 1), "canonicalize": (0, 2), "orient-check": (0, 2), "tree": (0, 2),
          "realize": (0, 1), "verify": (0, 0), "from-matrix": (0, 0)}


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_each_command_sweeps_where_its_gate_says(monkeypatch, tmp_path, capsys, command):
    sweeps = []
    sweep = Phirotope._gp_sweep

    def counted(phi, touching):
        sweeps.append(touching)
        return sweep(phi, touching)

    monkeypatch.setattr(Phirotope, "_gp_sweep", counted)
    invalid = json.loads((GOLDEN_INPUTS / "gp_invalid_phirotope.json").read_text())
    inputs = {  # the phirotope and the matrix each case reads
        "valid": (load_fixture("realizable_rank3_phirotope.json"),
                  load_fixture("realizable_rank3_canonical_matrix.json")),
        "invalid": (invalid, jsonio.matrix_to_json(ComplexMatrix.from_complex(
            np.array([[1, 0, 1, 1, 1], [0, 1, 1j, 2, -1]])))),
    }
    counts = []
    for case, (phirotope, matrix) in inputs.items():
        doc = {"verify": {"phirotope": phirotope, "matrix": matrix},
               "from-matrix": matrix}.get(command, phirotope)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        sweeps.clear()
        code = run([command, "--input", str(path)])
        capsys.readouterr()
        assert code == (0 if case == "valid" or command == "from-matrix" else 1), case
        counts.append(len(sweeps))
    assert tuple(counts) == SWEEPS[command]


def test_parsing_sweeps_nothing(monkeypatch):
    monkeypatch.setattr(Phirotope, "_gp_sweep", mock.Mock(side_effect=AssertionError))
    for doc in (load_fixture("realizable_rank3_phirotope.json"),
                json.loads((GOLDEN_INPUTS / "gp_invalid_phirotope.json").read_text())):
        jsonio.phirotope_from_json(doc, DEFAULT_TOLERANCE)


def _uniform_inputs(rng, count):
    """Uniform phirotopes up to (4, 10) from ``rng``, in turn: matrix-born,
    one value rotated by 1e-3, one value rotated by an obtuse angle, and
    matrix-born from a real matrix (essentially oriented)."""
    inputs = []
    for k in range(count):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(r, 11))
        entries = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)) * (k % 4 != 3)
        phi = from_matrix(ComplexMatrix.from_complex(entries))
        rotation = (None, 1e-3, rng.uniform(0.6, 1.4) * np.pi, None)[k % 4]
        if rotation is not None:
            angles = phi.angles.copy()
            i = int(rng.integers(len(angles)))
            angles[i] = (angles[i] + rotation) % (2 * np.pi)
            phi = Phirotope._from_angles(n, r, angles, DEFAULT_TOLERANCE)
        inputs.append(phi)
    return inputs


def _full_sweep_first(command, raw):
    """The exit code and stdout of ``command`` (canonicalize, tree or
    orient-check) on the input bytes ``raw`` under the rule the three
    commands followed before they passed realize's gate: the full
    ``check_gp()`` list, then the stage."""
    phi = jsonio.phirotope_from_json(json.loads(raw), DEFAULT_TOLERANCE)
    violations = phi.check_gp()
    try:
        if violations:
            raise InvalidPhirotopeError(violations)
        if command == "canonicalize":
            result = jsonio.canonicalization_to_json(canonicalize(phi))
        elif command == "tree":
            forest = canonical_spanning_forest(phi)
            result = {"forest": jsonio.forest_to_json(forest),
                      "components": forest.component_count}
        else:
            result = {"essentially_oriented": is_essentially_oriented(phi)}
        report, code = {"command": command, "provenance": cli._provenance(raw, DEFAULT_TOLERANCE),
                        "result": result}, 0
    except InvalidPhirotopeError as exc:
        report, code = {"error": str(exc), "violations": cli._violations_json(violations)}, 1
    except (DisconnectedGraphError, FirstSubsetNotBasisError) as exc:
        report, code = {"error": str(exc)}, 3
    except PhasedMatroidError as exc:
        report, code = {"error": str(exc)}, 2
    return code, jsonio.dumps(report, pretty=False)


def test_canonicalize_tree_and_orient_check_match_a_full_sweep_first(tmp_path, capsys):
    """At the default tolerance, realize's gate, which sweeps no pair on a
    Realizable input and only the pairs through the disagreeing bases after
    a failed verification, gives the three commands the exit codes and the
    stdout bytes of a full sweep before the stage."""
    path = tmp_path / "phi.json"
    codes = set()
    for phi in _uniform_inputs(np.random.default_rng(71), 60):
        path.write_text(json.dumps(jsonio.phirotope_to_json(phi)))
        raw = path.read_bytes()
        for command in ("canonicalize", "tree", "orient-check"):
            code = run([command, "--input", str(path)])
            expected = _full_sweep_first(command, raw)
            assert (code, capsys.readouterr().out) == expected, (command, phi)
            codes.add(code)
    assert codes == {0, 1, 3}


def test_at_a_coarse_tol_the_three_commands_agree_with_realize(tmp_path, capsys):
    """At --tol 1e-3 the full sweep rejects 16 of these 100 matrix-born
    phirotopes, and validate reports them; realize certifies every one with
    its verified matrix, and canonicalize, tree and orient-check, which pass
    the same gate, exit 0."""
    rng = np.random.default_rng(3)
    path = tmp_path / "phi.json"
    rejected = 0
    for _ in range(100):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r + 2, 10))
        phi = from_matrix(ComplexMatrix.from_complex(
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))))
        path.write_text(json.dumps(jsonio.phirotope_to_json(phi)))
        code, report = invoke(capsys, "realize", "--input", str(path), "--tol", "1e-3")
        assert (code, report["result"]["verdict"]) == (0, "Realizable")
        for command in ("canonicalize", "tree", "orient-check"):
            assert invoke(capsys, command, "--input", str(path), "--tol", "1e-3")[0] == 0
        code, report = invoke(capsys, "validate", "--input", str(path), "--tol", "1e-3")
        assert code == (0 if report["result"]["valid"] else 1)
        rejected += code == 1 and bool(report["result"]["violations"])
    assert rejected > 0
