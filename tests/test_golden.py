"""Golden outputs: the exit code and the sha256 of stdout of fixed CLI runs.

Every fixture runs under six commands with three flag sets, plus ``verify`` on
the realizable rank-3 pair.  The inputs in ``golden_inputs/`` cover the
negative and error paths: a GP-invalid phirotope, a matrix that does not
realize its phirotope, {1..r} not a basis, an all-zero matrix, a disconnected
n = r = 2 phirotope and an out-of-range ``--tol``; they are not in
``fixtures/``, which holds valid inputs only.  Every fixture has r <= 3, so
``golden_inputs/`` also holds matrix-born uniform inputs at (4, 8) and (5, 9),
where minors go through LAPACK: the complex Gaussian matrix of
``np.random.default_rng(r)`` (real parts drawn first), its phirotope, and a
copy with the last value rotated by 1e-3 radians.  A refactor that should
keep the output bytes must keep these hashes.  Provenance hashes the input
file's bytes, not its path, so the recorded hashes do not depend on where the
repository lives.

Regenerate the data (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from phasedmatroids.cli import run

from conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).parent / "golden_outputs.json"
GOLDEN_INPUTS = pathlib.Path(__file__).parent / "golden_inputs"
COMMANDS = ["validate", "from-matrix", "canonicalize", "orient-check", "realize", "tree"]
FLAGS = {"default": [], "pretty": ["--pretty"], "tol-1e-6": ["--tol", "1e-6"]}
VERIFY_PAIR = ("realizable_rank3_phirotope.json", "realizable_rank3_canonical_matrix.json")
#: (file in golden_inputs/, commands, flag id, flags): the exit is 1, 2 or 3
NEGATIVE_CASES = [
    ("gp_invalid_phirotope.json", ["validate", "realize", "canonicalize", "orient-check", "tree"],
     "default", []),
    ("verify_not_realizing_pair.json", ["verify"], "default", []),
    ("first_subset_not_basis_phirotope.json", ["canonicalize", "tree"], "default", []),
    ("zero_matrix.json", ["from-matrix"], "default", []),
    ("two_element_rank2_phirotope.json", ["realize"], "default", []),
    ("gp_invalid_phirotope.json", ["validate"], "tol-1.0", ["--tol", "1.0"]),
]
#: The same for the r >= 4 inputs, at the default flags
HIGH_RANK_CASES = [
    (f"rank{r}_n{n}_{kind}.json", commands, "default", [])
    for r, n in ((4, 8), (5, 9))
    for kind, commands in (("matrix", ["from-matrix"]),
                           ("phirotope", ["realize", "canonicalize", "tree", "orient-check"]),
                           ("rotated_phirotope", ["realize", "canonicalize", "tree",
                                                  "orient-check"]))
] + [("rank4_n8_rotated_verify_pair.json", ["verify"], "default", [])]


def _cases():
    """(case id, input path, command, flags) for every golden run; the input
    path is None for the verify pair, which is assembled from two fixtures."""
    for path in sorted(FIXTURES.glob("*.json")):
        for command in COMMANDS:
            for flag_id, flags in FLAGS.items():
                yield f"{command}:{path.name}:{flag_id}", path, [command], flags
    yield f"verify:{VERIFY_PAIR[0]}+{VERIFY_PAIR[1]}:default", None, ["verify"], []
    for name, commands, flag_id, flags in NEGATIVE_CASES + HIGH_RANK_CASES:
        for command in commands:
            yield f"{command}:{name}:{flag_id}", GOLDEN_INPUTS / name, [command], flags


def _verify_pair_bytes() -> bytes:
    doc = {"phirotope": json.loads((FIXTURES / VERIFY_PAIR[0]).read_text()),
           "matrix": json.loads((FIXTURES / VERIFY_PAIR[1]).read_text())}
    return json.dumps(doc, sort_keys=True).encode()


def _run(path, command, flags, tmp_dir: pathlib.Path):
    if path is None:
        path = tmp_dir / "verify_pair.json"
        path.write_bytes(_verify_pair_bytes())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(command + ["--input", str(path)] + flags)
    return {"exit": code, "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


CASES = list(_cases())


def test_golden_covers_every_case():
    assert len(CASES) == 121
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(c[0] for c in CASES)


@pytest.mark.parametrize("case, path, command, flags", CASES, ids=[c[0] for c in CASES])
def test_golden_output(tmp_path, case, path, command, flags):
    assert _run(path, command, flags, tmp_path) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {case: _run(path, command, flags, pathlib.Path(tmp))
                for case, path, command, flags in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
