"""Host-speed reference: a fixed computation timed between cycles.

A virtual machine that shares its cores with other tenants drifts in speed by
tens of percent over minutes, in ways the guest cannot see (no steal time, CPU
time equals wall time).  The reference does a fixed
amount of work of the two kinds the program spends its time on, numpy array
passes and pure-Python set scans, and never calls the package.  Its duration
divided by NOMINAL_S is the host's slowdown; worker.py divides each request's
latency and each cycle's duration by the slowdown measured around that cycle,
so that drift of the host does not read as a change of the program.  A change to the program cannot move the
reference.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from phasemath import TAU, subsets

#: Duration of once() on the machine the benchmark was defined on (2 vCPU
#: Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, BLAS pinned to one thread).
NOMINAL_S = 0.029

_UNITS = np.exp(1j * np.random.default_rng(0).uniform(0.0, TAU, size=(60000, 5)))
_BASES = [frozenset(b) for b in subsets(9, 3)][::2]
_BASIS_SET = set(_BASES)


def once() -> float:
    """Seconds taken by a sorted-angle gap scan like the GP kernel's, and two
    basis-exchange scans like the matroid check's."""
    start = perf_counter()
    angles = np.mod(np.angle(_UNITS), TAU)
    angles.sort(axis=1)
    np.diff(angles, axis=1).max(axis=1)
    for _ in range(2):
        for b1 in _BASES:
            for b2 in _BASES:
                for x in b1 - b2:
                    any(((b1 - {x}) | {y}) in _BASIS_SET for y in b2 - b1)
    return perf_counter() - start


def slowdown(samples) -> float:
    """Mean reference duration over the nominal one; above 1 on a slow host."""
    return sum(samples) / len(samples) / NOMINAL_S
