"""The public surface is what callers reach: every name in ``__all__`` is
documented in README or docs/formats.md, used by the CLI or a demo, or is a
type or exception that those functions return or raise."""

import inspect
import pathlib
import re
import types

import numpy as np
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
    "phase_from_json": jsonio,
}
REMOVED_METHODS = [
    (phasedmatroids.ComplexMatrix, "max_distance"),
    (phasedmatroids.Phase, "inverse"),
    (phasedmatroids.Phase, "unit"),
    (phasedmatroids.Phase, "times_sign"),
    (phasedmatroids.Phase, "isclose"),
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


def test_a_phirotope_stores_one_read_only_angle_array():
    """The values live in ``angles``, one per basis in lex order with NaN for
    zero; neither it nor the ``values`` mapping built from it can be written."""
    phase, zero = phasedmatroids.Phase, phasedmatroids.ZERO
    phi = phasedmatroids.Phirotope(3, 2, {(1, 2): phase(0.5), (1, 3): zero, (2, 3): phase(1.0)})
    assert phi.angles.dtype == float and phi.angles.flags.writeable is False
    assert phi.angles[0] == 0.5 and np.isnan(phi.angles[1])
    with pytest.raises(ValueError):
        phi.angles[0] = 1.0
    with pytest.raises(TypeError):
        phi.values[(1, 2)] = zero
    assert list(phi.values) == [(1, 2), (1, 3), (2, 3)]


def test_no_parameter_turns_the_validity_gate_off():
    """The mapping constructor always checks the Grassmann-Pluecker
    relations and JSON parse never does; neither takes a switch for it."""
    assert list(inspect.signature(phasedmatroids.Phirotope).parameters) == [
        "ground_size", "rank", "values", "tolerance"]
    assert list(inspect.signature(jsonio.phirotope_from_json).parameters) == ["obj", "tolerance"]
