"""Each demo script, and the Python blocks of README.md, run to completion
against the package in src/; each demo prints the same bytes as when its
hash was pinned."""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout; the demos are seeded, so any change in a
#: printed digit is a change in the library's numbers.
STDOUT_SHA256 = {
    "demo_canonicalization": "cf5db2c8ffeb82b41f06e6e21456de73c8043df472b3ca776d5fa4a4ccf68ac6",
    "demo_nonrealizable": "089b9f1c94da1b7d3a588fc15413a896617c3427fb0a77ae56756dfa4c52244b",
    "demo_realization_space": "66b953b475a43d56b73d105fef1689ab01913e8ff4fd81b294fc8073ea2fe728",
}


def test_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem], proc.stdout


def test_readme_python_blocks_run(capsys):
    """README's Python blocks run in order in one namespace, as a reader
    pasting them into one session would."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.startswith("Realizable\n")
