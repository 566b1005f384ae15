"""Golden outputs: the exit code and the sha256 of stdout of fixed CLI runs.

Every fixture runs under six commands with three flag sets, plus ``verify`` on
the realizable rank-3 pair.  A refactor that should keep the output bytes must
keep these hashes.  Provenance hashes the input file's bytes, not its path, so
the recorded hashes do not depend on where the repository lives.

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
COMMANDS = ["validate", "from-matrix", "canonicalize", "orient-check", "realize", "tree"]
FLAGS = {"default": [], "pretty": ["--pretty"], "tol-1e-6": ["--tol", "1e-6"]}
VERIFY_PAIR = ("realizable_rank3_phirotope.json", "realizable_rank3_canonical_matrix.json")


def _cases():
    """(case id, input file name, argv after --input) for every golden run."""
    for path in sorted(FIXTURES.glob("*.json")):
        for command in COMMANDS:
            for flag_id, flags in FLAGS.items():
                yield f"{command}:{path.name}:{flag_id}", path.name, [command], flags
    yield f"verify:{VERIFY_PAIR[0]}+{VERIFY_PAIR[1]}:default", None, ["verify"], []


def _verify_pair_bytes() -> bytes:
    doc = {"phirotope": json.loads((FIXTURES / VERIFY_PAIR[0]).read_text()),
           "matrix": json.loads((FIXTURES / VERIFY_PAIR[1]).read_text())}
    return json.dumps(doc, sort_keys=True).encode()


def _run(name, command, flags, tmp_dir: pathlib.Path):
    if name is None:
        path = tmp_dir / "verify_pair.json"
        path.write_bytes(_verify_pair_bytes())
    else:
        path = FIXTURES / name
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(command + ["--input", str(path)] + flags)
    return {"exit": code, "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


CASES = list(_cases())


def test_golden_covers_every_case():
    assert len(CASES) == 91
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(c[0] for c in CASES)


@pytest.mark.parametrize("case, name, command, flags", CASES, ids=[c[0] for c in CASES])
def test_golden_output(tmp_path, case, name, command, flags):
    assert _run(name, command, flags, tmp_path) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {case: _run(name, command, flags, pathlib.Path(tmp))
                for case, name, command, flags in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
