"""tools/same_bytes.py, the byte-equality check of two source trees on the
benchmark workloads, run on one tree against itself."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["realize-uniform", "validate-invalid", "canonicalize-nonuniform"]


def _files():
    return {os.path.join(top, name) for top, dirs, names in os.walk(ROOT)
            if ".git" not in pathlib.Path(top).relative_to(ROOT).parts for name in names}


def test_same_bytes_reports_a_tree_equal_to_itself():
    before = _files()
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "same_bytes.py"), "src", "src",
                           "--seeds", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    equal = [line for line in lines if line.endswith("requests, equal")]
    assert [line.split(" seed 1:")[0] for line in equal] == WORKLOADS
    assert "DIFFER" not in proc.stdout
    assert lines[-1] == "every request equal"
    assert _files() == before  # the tool leaves nothing in the repository
