"""The benchmark's tracer patches functions by name (perfbench/worker.py,
``PATCHES``); a renamed or moved function would quietly read zero.  Every
name it patches must resolve where the tracer looks it up."""

import importlib.util
import pathlib
from importlib import import_module

import pytest

WORKER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"

#: Names that no longer resolve, with the reason they are allowed to.
STALE = {
    ("phasedmatroids.realization", "all_maximal_minors"):
        "verify reaches the minors through minor_phases; the tracer is to read "
        "a stage recorder instead of patching (ROADMAP item 4)",
    ("phasedmatroids.phirotopes:UnderlyingMatroid", "check_exchange"):
        "the basis-exchange check has been off every CLI path since GP became the "
        "only validity gate, and the class is gone; the tracer skips a missing class",
}


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return [(owner, attr) for owner, attr, _, _ in worker.PATCHES]


def _resolves(owner, attr):
    module, _, cls = owner.partition(":")
    target = import_module(module)
    if cls:
        target = getattr(target, cls, None)
    return target is not None and hasattr(target, attr)


@pytest.mark.parametrize("owner, attr", _patches())
def test_traced_name_resolves(owner, attr):
    assert _resolves(owner, attr) == ((owner, attr) not in STALE)
