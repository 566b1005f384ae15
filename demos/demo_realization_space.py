"""The realization space of a uniform phased matroid, parametrized.

For a uniform phased matroid that is not essentially oriented, the
realization space is remarkably tame: one canonical matrix, plus one free
positive real per spanning-tree edge.  This script reconstructs the
canonical point from a random instance and then walks around the space by
reassigning the tree weights.
"""

import numpy as np

from phasedmatroids import (
    ComplexMatrix,
    Realizable,
    canonical_spanning_forest,
    decide_realizability,
    from_matrix,
    normalize_to_tree,
)

rng = np.random.default_rng(2024)
arr = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
phi = from_matrix(ComplexMatrix.from_complex(arr))

verdict = decide_realizability(phi)
assert isinstance(verdict, Realizable)
canonical_matrix = verdict.matrix
print("canonical realization (norms):")
print(np.round(np.abs(canonical_matrix.to_complex()), 4))

forest = canonical_spanning_forest(phi)
print("\nspanning tree edges (one positive weight each):", forest.edges)

for trial in range(3):
    weights = rng.uniform(0.2, 3.0, size=len(forest.edges))
    other = normalize_to_tree(canonical_matrix, forest, weights)
    same_phases = from_matrix(other).max_angular_distance(
        from_matrix(canonical_matrix))
    print(f"\nweights {np.round(weights, 3)}")
    print("  new matrix norms:", np.round(np.abs(other.to_complex()[:, 3:]), 4).tolist())
    print(f"  phirotope drift: {same_phases:.2e}  (same phased matroid)")

print("\nEvery positive weight tuple gives a distinct realization;"
      " together they sweep out the whole realization space.")
