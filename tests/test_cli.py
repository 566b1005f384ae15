"""Command-line interface: exit codes, reports, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from phasedmatroids.cli import run

from conftest import FIXTURES, load_fixture


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
