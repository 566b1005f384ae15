"""Canonical form and essential orientability.

Every phirotope whose associated bipartite graph is connected can be
rephased, element by element, so that a fixed spanning tree of entries
carries phase one.  If the result only takes values in {-1, 0, +1}, the
phased matroid is a disguised oriented matroid ("essentially oriented").
This script runs that pipeline on a rank-3 matrix that is exactly such a
disguise.
"""

import cmath
import math

import numpy as np

from phasedmatroids import (
    ComplexMatrix,
    associated_bipartite_graph,
    canonical_spanning_forest,
    canonicalize,
    from_matrix,
    is_essentially_oriented,
    is_uniform,
)

m = ComplexMatrix.from_complex(np.array([
    [1, 0, 0, 0.5 * cmath.exp(1j * math.pi / 4), (1 / 3) * cmath.exp(1j * math.pi / 2)],
    [0, 1, 0, 1, (4 / 3) * cmath.exp(1j * math.pi / 4)],
    [0, 0, 1, 0, -1],
], dtype=complex))

phi = from_matrix(m)
print("uniform:", is_uniform(phi), " (the {1,2,4} minor vanishes)")

print("bipartite graph edges:", sorted(associated_bipartite_graph(phi)))
print("canonical spanning tree:", canonical_spanning_forest(phi).edges)

result = canonicalize(phi)
print("\nrephasing (angles over pi):",
      [round(p.angle_over_pi, 6) for p in result.rho.rho])
print("global phase:", result.global_phase)
print("canonical values:")
for basis, p in result.canonical.values.items():
    shown = "0" if p.is_zero else f"e^(i{p.angle_over_pi:g}pi)"
    print(f"  {basis}: {shown}")

print("\nessentially oriented:", is_essentially_oriented(phi))
