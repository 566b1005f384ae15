"""Schema fuzzing of the CLI: a valid input document with one node replaced by
an arbitrary JSON value never escapes as an exception, and exit 2 carries
exactly ``{"error": ...}``."""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phasedmatroids.cli import COMMANDS, EXIT_MALFORMED, run

from conftest import load_fixture

PHIROTOPE = load_fixture("nonreal2ex_phirotope.json")
VALID_DOCS = {
    "validate": PHIROTOPE,
    "canonicalize": PHIROTOPE,
    "orient-check": PHIROTOPE,
    "realize": load_fixture("realizable_rank3_phirotope.json"),
    "tree": PHIROTOPE,
    "from-matrix": load_fixture("runex_matrix.json"),
    "verify": {"phirotope": load_fixture("realizable_rank3_phirotope.json"),
               "matrix": load_fixture("realizable_rank3_canonical_matrix.json")},
}

KEYS = ["n", "r", "values", "basis", "phase", "angle_over_pi", "rows", "cols",
        "entries", "norm", "phirotope", "matrix"]

json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-10**40, max_value=10**40) | st.sampled_from([0, 1, 2, 5, 10**20])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                                        children, max_size=4)),
    max_leaves=10)


def _paths(node, prefix=()):
    """Every node of a JSON document, as a path of keys and indices."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _run_on(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity are written as such
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run([command, "--input", str(path)])
    return code, json.loads(out.getvalue())


def test_every_command_has_a_valid_document():
    assert sorted(VALID_DOCS) == sorted(COMMANDS)
    for command, doc in VALID_DOCS.items():
        assert _run_on(command, doc)[0] in (0, 1)


@pytest.mark.parametrize("command", sorted(VALID_DOCS))
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_replaced_node_never_escapes(command, data):
    doc = VALID_DOCS[command]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(json_values, label="value")
    code, report = _run_on(command, _replaced(doc, path, value))
    assert isinstance(code, int)
    if code == EXIT_MALFORMED:
        assert list(report) == ["error"]
