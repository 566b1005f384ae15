"""Seeded inputs for the benchmark workloads.

Matrices are drawn with numpy from the workload seed, their maximal minors
come from the benchmark's own numpy.linalg.det, and the documents follow
docs/formats.md.  The package under test is never imported here, so a change
to its from_matrix cannot change the inputs.

Each workload is one cycle of requests that the closed loop repeats.  The
number of inputs of each size is chosen so that the median request falls
near the middle of one size class rather than on the step between two, which
would make latency_p50_ms jump between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from phasemath import TAU, gp_terms, minors, phase_angles, subsets, violates

#: Angular tolerance of the CLI (its --tol default), used to certify GP violations.
GP_TOL = 1e-9
#: |minor| at or above this is a basis; below 1e-13 it is a zero.  Inputs with a
#: minor in between are redrawn, so that the program and the benchmark cannot
#: disagree about which subsets are bases.
NONZERO_MINOR = 1e-6
ZERO_MINOR = 1e-13
#: Rotation that makes a realizable phirotope GP-valid or barely invalid, but
#: never realizable: far above the 1e-6 verification tolerance.
SMALL_ROTATION = 1e-3

WORKLOADS = ("realize-uniform", "validate-invalid", "canonicalize-nonuniform")

# (r, n) -> inputs per cycle.  realize-uniform: every fifth input of a size is
# rotated by SMALL_ROTATION, the others are realizable.
REALIZE_SIZES = {(2, 14): 5, (3, 10): 10, (3, 12): 10, (4, 11): 5, (4, 12): 5, (5, 11): 5}
# validate-invalid: one GP-invalid input of 11 is (4, 14), the memory peak.
INVALID_SIZES = {(3, 10): 1, (3, 12): 3, (4, 11): 3, (4, 12): 2, (5, 11): 1, (4, 14): 1}
# canonicalize-nonuniform: the cost of the basis-exchange check depends on the
# matroid, which the zero pattern fixes.  The patterns are part of the
# workload, drawn from PATTERN_SEED with the most common basis count for their
# size, so that throughput does not depend on the seed; the seed draws the
# nonzero entries.
PATTERN_SEED = 0
NONUNIFORM_BASES = {(3, 9): 68, (3, 10): 94, (4, 10): 160, (3, 11): 127}
NONUNIFORM_SIZES = {(3, 9): 1, (3, 10): 6, (4, 10): 2, (3, 11): 3}
ZERO_SHARE = 0.3


@dataclass(frozen=True)
class Instance:
    """One generated input, as the checker needs to know it."""

    kind: str        # how it was made
    expected: str    # "realizable", "not_realizable", "gp_invalid" or "matrix_born"
    r: int
    n: int
    angles: np.ndarray               # the phirotope as written; NaN is the zero phase
    matrix: Optional[np.ndarray]     # the matrix written for from-matrix, if any

    def phirotope_doc(self) -> dict:
        return {"n": self.n, "r": self.r, "values": [
            {"basis": list(b), "phase": None if math.isnan(a) else {"angle_over_pi": a / math.pi}}
            for b, a in zip(subsets(self.n, self.r), self.angles.tolist())]}

    def matrix_doc(self) -> dict:
        return {"rows": self.r, "cols": self.n, "entries": [
            [None if z == 0 else {"norm": float(abs(z)),
                                  "angle_over_pi": float(np.mod(np.angle(z), TAU) / math.pi)}
             for z in row] for row in self.matrix]}


@dataclass(frozen=True)
class Request:
    command: str
    instance: int

    @property
    def reads_matrix(self) -> bool:
        return self.command == "from-matrix"


def _gaussian(rng, r, n):
    while True:
        m = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
        d = minors(m)
        if np.abs(d).min() >= NONZERO_MINOR:
            return phase_angles(d, NONZERO_MINOR)


def _rotated(rng, angles, amount):
    k = int(rng.integers(len(angles)))
    out = angles.copy()
    out[k] = (out[k] + amount) % TAU
    return out, k


def _gp_invalid(rng, r, n):
    """A realizable phirotope with one value rotated by an angle in
    [pi/2, 3*pi/2], redrawn until a GP relation through that value fails."""
    angles = _gaussian(rng, r, n)
    while True:
        out, k = _rotated(rng, angles, rng.uniform(math.pi / 2, 3 * math.pi / 2))
        b = subsets(n, r)[k]
        pairs = [(tuple(sorted(b + (a,))), y)
                 for a in range(1, n + 1) if a not in b for y in subsets(n, r - 1)]
        if any(violates(t, GP_TOL) for t in gp_terms(out, n, r, pairs)):
            return out


def _zero_pattern(rng, r, n, bases):
    """Positions of the zeros of N in (I | N): ZERO_SHARE of N, never in row r
    or column r+1 of the matrix, so that {1..r} is a basis and the bipartite
    graph is connected.  Redrawn until a generic matrix with these zeros has
    exactly `bases` bases."""
    free = [(i, j) for i in range(r - 1) for j in range(1, n - r)]
    while True:
        picks = rng.choice(len(free), size=round(ZERO_SHARE * r * (n - r)), replace=False)
        zeros = tuple(free[k] for k in sorted(picks))
        m, _ = _standard_form(rng, r, n, zeros)
        if m is not None and int((np.abs(minors(m)) >= NONZERO_MINOR).sum()) == bases:
            return zeros


def _standard_form(rng, r, n, zeros):
    """(I | N) with Gaussian N, zero at `zeros`, and its minor phases; (None,
    None) when some minor is neither clearly zero nor clearly nonzero."""
    nmat = rng.normal(size=(r, n - r)) + 1j * rng.normal(size=(r, n - r))
    for pos in zeros:
        nmat[pos] = 0
    m = np.hstack([np.eye(r), nmat])
    d = minors(m)
    mags = np.abs(d)
    if np.any((mags >= ZERO_MINOR) & (mags < NONZERO_MINOR)):
        return None, None
    return m, phase_angles(d, NONZERO_MINOR)


def build(workload: str, seed: int):
    """The instances and the request cycle of a workload, from its seed."""
    rng = np.random.default_rng(seed)
    instances, cycle = [], []
    if workload == "realize-uniform":
        for (r, n), count in REALIZE_SIZES.items():
            for j in range(count):
                angles = _gaussian(rng, r, n)
                if j % 5 == 4:
                    angles, _ = _rotated(rng, angles, SMALL_ROTATION)
                    inst = Instance("gaussian-rotated-1e-3", "not_realizable", r, n, angles, None)
                else:
                    inst = Instance("gaussian", "realizable", r, n, angles, None)
                cycle.append(Request("realize", len(instances)))
                instances.append(inst)
    elif workload == "validate-invalid":
        for (r, n), count in INVALID_SIZES.items():
            for _ in range(count):
                inst = Instance("gaussian-rotated-obtuse", "gp_invalid", r, n,
                                _gp_invalid(rng, r, n), None)
                cycle += [Request("validate", len(instances)), Request("realize", len(instances))]
                instances.append(inst)
    elif workload == "canonicalize-nonuniform":
        patterns = np.random.default_rng(PATTERN_SEED)
        for (r, n), count in NONUNIFORM_SIZES.items():
            for _ in range(count):
                zeros = _zero_pattern(patterns, r, n, NONUNIFORM_BASES[(r, n)])
                m = None
                while m is None:
                    m, angles = _standard_form(rng, r, n, zeros)
                inst = Instance("sparse-standard-form", "matrix_born", r, n, angles, m)
                cycle += [Request(c, len(instances)) for c in ("from-matrix", "canonicalize", "tree")]
                instances.append(inst)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return instances, cycle
