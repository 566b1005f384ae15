"""Phirotope arithmetic the benchmark does for itself.

The generator and the checker use these helpers instead of the package under
test, so that a change to the package can neither change the inputs nor vouch
for its own outputs.  A phirotope is an array of angles in [0, 2*pi), one per
sorted r-subset of {1..n} in lexicographic order, with NaN for the zero phase.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

TAU = 2.0 * math.pi


@lru_cache(maxsize=None)
def subsets(n: int, r: int) -> tuple:
    """Sorted r-subsets of {1..n} in lexicographic order."""
    return tuple(itertools.combinations(range(1, n + 1), r))


@lru_cache(maxsize=None)
def lex_index(n: int, r: int) -> dict:
    return {b: i for i, b in enumerate(subsets(n, r))}


def minors(m: np.ndarray) -> np.ndarray:
    """All maximal minors of an r x n complex matrix, columns in lex order."""
    r, n = m.shape
    cols = np.asarray(subsets(n, r)) - 1
    return np.linalg.det(m[:, cols].transpose(1, 0, 2))


def phase_angles(values: np.ndarray, zero_below: float) -> np.ndarray:
    """Angles in [0, 2*pi) of complex values; NaN where |value| < zero_below."""
    return np.where(np.abs(values) < zero_below, np.nan, np.mod(np.angle(values), TAU))


def circular_distance(a, b):
    d = np.mod(np.asarray(a) - np.asarray(b), TAU)
    return np.minimum(d, TAU - d)


def gp_terms(angles: np.ndarray, n: int, r: int, pairs):
    """Angles of the Grassmann-Pluecker terms of each (X, Y) pair, lazily.

    Term k of the pair is (-1)^k phi(X - x_k) phi(x_k, Y), where phi of an
    unsorted tuple is the value of the sorted tuple times the sign of the
    sorting permutation.  Zero terms (x_k in Y, or a zero value) are dropped.
    """
    idx = lex_index(n, r)
    vals = angles.tolist()
    for xs, ys in pairs:
        yset = set(ys)
        terms = []
        for k, x in enumerate(xs):
            if x in yset:
                continue
            a = vals[idx[xs[:k] + xs[k + 1:]]]
            b = vals[idx[tuple(sorted((x,) + tuple(ys)))]]
            if math.isnan(a) or math.isnan(b):
                continue
            flips = k + sum(1 for y in ys if y < x)
            terms.append((a + b + math.pi * (flips % 2)) % TAU)
        yield terms


def violates(terms, tol: float) -> bool:
    """True iff 0 is not a strictly positive combination of the unit terms.

    That holds when the terms fit in an open half-plane through 0 (largest
    angular gap above pi), and also on the boundary (gap pi within tol) unless
    the terms are one antipodal pair of directions.  An empty term list is the
    zero sum and satisfies the relation.
    """
    if not terms:
        return False
    if len(terms) == 1:
        return True
    a = sorted(terms)
    gap = max([y - x for x, y in zip(a, a[1:])] + [TAU - (a[-1] - a[0])])
    if gap < math.pi - tol:
        return False
    if gap > math.pi + tol:
        return True
    offsets = circular_distance(a, a[0])
    on_line = np.all((offsets < tol) | (np.abs(offsets - math.pi) < tol))
    both_ways = np.any(np.abs(offsets - math.pi) < tol)
    return not (on_line and both_ways)
