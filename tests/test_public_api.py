"""The public surface is what callers reach: every name in ``__all__`` is
documented in README or docs/formats.md, used by the CLI or a demo, or is a
type or exception that those functions return or raise."""

import inspect
import pathlib
import re
import types

import pytest

import phasedmatroids
from phasedmatroids import jsonio

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Types and exceptions of the public functions, exported without a mention.
RETURNED_OR_RAISED = {
    "Witness", "SpanningForest", "Rephasing", "RealizabilityVerdict", "ZERO",
    "IndexOutOfRangeError", "RankDeficientError", "DegenerateTriangleError",
    "InfeasibleTriangleError", "EssentiallyOrientedError",
}

#: Names with no caller outside the tests, removed from the package.
REMOVED = {
    "maximal_minor": phasedmatroids.matrices,
    "scale": phasedmatroids.matrices,
    "to_standard_form": phasedmatroids.matrices,
    "ZeroScalarError": phasedmatroids.errors,
    "SingularLeadingBlockError": phasedmatroids.errors,
    "ONE": phasedmatroids.phases,
    "MINUS_ONE": phasedmatroids.phases,
    "zero_in_hypersum": phasedmatroids.phases,
    "canonical_targets": phasedmatroids.canonical,
    "TriangleEquation": phasedmatroids.phases,
    "_integer": jsonio,
    "NonSpanningForestError": phasedmatroids.errors,
}
REMOVED_METHODS = [
    (phasedmatroids.ComplexMatrix, "max_distance"),
    (phasedmatroids.Phase, "inverse"),
    (phasedmatroids.Phase, "unit"),
    (phasedmatroids.Phase, "times_sign"),
    (phasedmatroids.Rephasing, "identity"),
    (phasedmatroids.Rephasing, "inverse"),
    (phasedmatroids.Phirotope, "isclose"),
    (phasedmatroids.Phirotope, "value"),
]


def _caller_texts():
    files = [ROOT / "README.md", ROOT / "docs" / "formats.md",
             ROOT / "src" / "phasedmatroids" / "cli.py", *sorted((ROOT / "demos").glob("*.py"))]
    return "\n".join(f.read_text() for f in files)


def test_all_holds_no_module_and_every_entry_resolves():
    assert len(set(phasedmatroids.__all__)) == len(phasedmatroids.__all__)
    for name in phasedmatroids.__all__:
        assert not isinstance(getattr(phasedmatroids, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from phasedmatroids import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(phasedmatroids.__all__)


def test_every_public_name_has_a_caller_or_is_returned_or_raised():
    texts = _caller_texts()
    for name in phasedmatroids.__all__:
        assert name in RETURNED_OR_RAISED or re.search(rf"\b{re.escape(name)}\b", texts), name


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_name_is_gone(name):
    assert not hasattr(phasedmatroids, name)
    assert not hasattr(REMOVED[name], name)


@pytest.mark.parametrize("owner, attr", REMOVED_METHODS, ids=lambda x: getattr(x, "__name__", x))
def test_removed_method_is_gone(owner, attr):
    assert not hasattr(owner, attr)


def test_normalize_to_tree_derives_its_forest():
    """The forest is the scan over the matrix's nonzero entries, not an argument."""
    assert list(inspect.signature(phasedmatroids.normalize_to_tree).parameters) == ["m", "values"]
