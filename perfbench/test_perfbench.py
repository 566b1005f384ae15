"""Tests of the benchmark's own generator, checker and statistics.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import certify  # noqa: E402
import inputs  # noqa: E402
from inputs import Instance, Request  # noqa: E402
from phasemath import violates  # noqa: E402
from worker import latency_summary  # noqa: E402


def respond(tmp_path, command, doc):
    from phasedmatroids import cli

    raw = json.dumps(doc).encode()
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([command, "--input", str(path)])
    return code, out.getvalue(), raw


def reason(command, inst, code, report, raw):
    return certify.check(Request(command, 0), inst, code, json.dumps(report), raw)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a_inst, a_cycle = inputs.build(workload, 5)
    b_inst, b_cycle = inputs.build(workload, 5)
    c_inst, _ = inputs.build(workload, 6)
    assert a_cycle == b_cycle
    assert [i.phirotope_doc() for i in a_inst] == [i.phirotope_doc() for i in b_inst]
    assert [i.kind for i in a_inst] == [i.kind for i in b_inst]
    assert [i.phirotope_doc() for i in a_inst] != [i.phirotope_doc() for i in c_inst]


def test_half_plane_test():
    assert not violates([], 1e-9)
    assert violates([0.0], 1e-9)
    assert not violates([0.0, math.pi], 1e-9)
    assert violates([0.0, math.pi / 2], 1e-9)
    assert violates([0.0, math.pi / 2, math.pi], 1e-9)
    assert not violates([0.0, 2 * math.pi / 3, 4 * math.pi / 3], 1e-9)


def _gaussian_instance(seed, r=3, n=6, expected="realizable"):
    return Instance("gaussian", expected, r, n,
                    inputs._gaussian(np.random.default_rng(seed), r, n), None)


def test_checker_rejects_a_perturbed_realization(tmp_path):
    inst = _gaussian_instance(1)
    code, text, raw = respond(tmp_path, "realize", inst.phirotope_doc())
    assert certify.check(Request("realize", 0), inst, code, text, raw) is None
    report = json.loads(text)
    report["result"]["matrix"]["entries"][0][4]["norm"] *= 1.01
    assert "minors of the realization" in reason("realize", inst, code, report, raw)


def test_checker_rejects_a_forged_witness():
    m = np.random.default_rng(2).normal(size=(3, 6)) + 1j * np.random.default_rng(3).normal(size=(3, 6))
    inst = _gaussian_instance(2, expected="not_realizable")
    minor = np.linalg.det(m[:, [0, 1, 3]])
    computed = (np.angle(minor) % (2 * math.pi)) / math.pi
    raw = json.dumps(inst.phirotope_doc()).encode()
    report = {"command": "realize",
              "provenance": {"input_sha256": hashlib.sha256(raw).hexdigest(), "tolerance": 1e-9},
              "result": {"verdict": "NotRealizable",
                         "matrix": Instance("m", "", 3, 6, None, m).matrix_doc(),
                         "witness": {"basis": [1, 2, 4], "computed": {"angle_over_pi": computed},
                                     "expected": {"angle_over_pi": computed + 0.01}}}}
    assert reason("realize", inst, 1, report, raw) is None
    moved = copy.deepcopy(report)
    moved["result"]["witness"]["basis"] = [1, 2, 5]
    assert "not the phase" in reason("realize", inst, 1, moved, raw)
    agreeing = copy.deepcopy(report)
    agreeing["result"]["witness"]["expected"] = {"angle_over_pi": computed}
    assert "does not disagree" in reason("realize", inst, 1, agreeing, raw)


def test_checker_rejects_a_non_violating_pair(tmp_path):
    inst = Instance("gaussian-rotated-obtuse", "gp_invalid", 3, 6,
                    inputs._gp_invalid(np.random.default_rng(4), 3, 6), None)
    code, v_text, raw = respond(tmp_path, "validate", inst.phirotope_doc())
    assert certify.check(Request("validate", 0), inst, code, v_text, raw) is None
    r_code, r_text, _ = respond(tmp_path, "realize", inst.phirotope_doc())
    assert certify.check(Request("realize", 0), inst, r_code, r_text, raw) is None
    assert certify.cross_check(v_text, r_text) is None

    report = json.loads(v_text)
    reported = {(tuple(v["X"]), tuple(v["Y"])) for v in report["result"]["violations"]}
    fine = next((x, y) for x in inputs.subsets(6, 4) for y in inputs.subsets(6, 2)
                if (x, y) not in reported)
    report["result"]["violations"][-1] = {"X": list(fine[0]), "Y": list(fine[1])}
    assert "satisfies the GP relation" in reason("validate", inst, code, report, raw)
    short = json.loads(v_text)
    short["result"]["violations"].pop()
    assert "violations" in certify.cross_check(json.dumps(short), r_text)


def test_checker_rejects_wrong_canonical_values_and_trees(tmp_path):
    instances, _ = inputs.build("canonicalize-nonuniform", 7)
    inst = instances[0]
    code, text, raw = respond(tmp_path, "canonicalize", inst.phirotope_doc())
    assert certify.check(Request("canonicalize", 0), inst, code, text, raw) is None
    report = json.loads(text)
    values = report["result"]["canonical"]["values"]
    free = next(v for v in values[::-1] if v["phase"] is not None)
    free["phase"]["angle_over_pi"] += 0.05
    assert "canonical phirotope" in reason("canonicalize", inst, code, report, raw)

    report = json.loads(text)
    pinned = report["result"]["canonical"]["values"][0]     # the basis {1..r}, pinned to 1
    pinned["phase"]["angle_over_pi"] = 1e-10                 # within rounding drift, not exact
    assert "pinned value" in reason("canonicalize", inst, code, report, raw)

    code, text, raw = respond(tmp_path, "tree", inst.phirotope_doc())
    assert certify.check(Request("tree", 0), inst, code, text, raw) is None
    report = json.loads(text)
    report["result"]["forest"][-1] = report["result"]["forest"][0]
    assert "cycle" in reason("tree", inst, code, report, raw)

    m_code, m_text, m_raw = respond(tmp_path, "from-matrix", inst.matrix_doc())
    assert certify.check(Request("from-matrix", 0), inst, m_code, m_text, m_raw) is None


def test_tail_latency_leaves_ten_samples_above():
    summary = latency_summary([k / 1000 for k in range(1, 101)], [1.0] * 100, 1.0, 1.0)
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["tail_pct"] == pytest.approx(90.0)
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["rps"] == 100
