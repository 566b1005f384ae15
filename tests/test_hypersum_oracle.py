"""Zero membership of the hypersum: against the brute-force optimizer,
pinned bits on rows at the eps boundary, where the optimizer cannot judge,
and the earlier kernel on adversarial batches; the sorting networks by the
0-1 principle."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedmatroids import Phase
from phasedmatroids.phases import (
    _SORTING_NETWORKS,
    _normalize_array,
    _sorting_network,
    zero_in_hypersum_batch,
)

from oracles import (
    angles_of,
    unit,
    zero_in_hypersum,
    zero_in_hypersum_batch_reference,
    zero_in_hypersum_bruteforce,
    zero_in_hypersum_row_major,
)


def random_phase_sets(rng, count, max_size=6, zero_prob=0.15):
    sets = []
    for _ in range(count):
        size = int(rng.integers(1, max_size + 1))
        phases = []
        for _ in range(size):
            if rng.random() < zero_prob:
                phases.append(Phase(None))
            elif rng.random() < 0.3:
                # quantized angles make exact antipodal pairs reachable
                phases.append(Phase.from_angle_over_pi(rng.integers(0, 8) / 4))
            else:
                phases.append(Phase.from_angle(rng.uniform(0, 2 * np.pi)))
        sets.append(phases)
    return sets


def test_oracle_agreement_sample():
    rng = np.random.default_rng(42)
    for phases in random_phase_sets(rng, 200):
        assert zero_in_hypersum(phases) == zero_in_hypersum_bruteforce(phases), phases


def test_batch_matches_scalar():
    rng = np.random.default_rng(3)
    sets = random_phase_sets(rng, 300, max_size=5)
    units = np.zeros((len(sets), 5), dtype=complex)
    for i, phases in enumerate(sets):
        for j, p in enumerate(phases):
            units[i, j] = unit(p)
    batch = zero_in_hypersum_batch(angles_of(units.T), 1e-9)
    for i, phases in enumerate(sets):
        assert batch[i] == zero_in_hypersum_bruteforce(phases), phases


def _boundary_batch(eps, rows=3000, m=6, seed=12):
    """One batch whose rows mix every nonzero count 0..m: phases at multiples
    of pi/4, jittered by 0, +-0.5 eps or +-1.5 eps, so that largest gaps and
    antipodal pairs sit on either side of the rule's eps boundary."""
    rng = np.random.default_rng(seed)
    counts = np.arange(rows) % (m + 1)
    jitter = rng.choice([0.0, 0.5, -0.5, 1.5, -1.5], size=(rows, m)) * eps
    units = np.exp(1j * (rng.integers(0, 8, size=(rows, m)) * (np.pi / 4) + jitter))
    nonzero = rng.random((rows, m)).argsort(axis=1) < counts[:, None]
    return np.where(nonzero, units, 0)


#: sha256 of the packed kernel output on ``_boundary_batch(eps)``.  The
#: brute-force optimizer cannot judge rows this close to the boundary, so
#: these bits, recorded from the kernel that looped over nonzero counts, are
#: the reference.
BOUNDARY_BITS = {
    1e-9: "d7c0b83a717145abf0b22b14f3f794f9264a1eb9fcac05585e73f2731163e7a5",
    1e-3: "e7db1f5225e18ee13f83b85a3788552d579f439b031d391ebeec72203ade4531",
}


@pytest.mark.parametrize("eps", sorted(BOUNDARY_BITS))
def test_boundary_bits_are_pinned(eps):
    bits = zero_in_hypersum_batch(angles_of(_boundary_batch(eps).T), eps)
    assert hashlib.sha256(np.packbits(bits).tobytes()).hexdigest() == BOUNDARY_BITS[eps]


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3, 0.1])
def test_column_major_kernel_matches_row_major_bits(m, eps):
    """The sorting network and the reductions along the long axis give the
    bits of the row-major kernel that sorted each row with ndarray.sort."""
    units = _boundary_batch(eps, rows=2000, m=m, seed=100 + m)
    expected = zero_in_hypersum_row_major(units, eps)
    assert np.array_equal(zero_in_hypersum_batch(angles_of(np.ascontiguousarray(units.T)), eps), expected)
    assert 0 < expected.sum() < len(expected)



def test_angle_input_cases_are_pinned():
    """NaN is the zero phase: a column of zeros holds, a single nonzero term
    does not, an exact antipodal pair holds whatever zeros surround it, and
    {0, pi/2, pi} does not, because pi/2 would need a zero coefficient."""
    nan, pi = np.nan, np.pi
    columns = [
        ([nan, nan, nan, nan], True),
        ([nan, 1.0, nan, nan], False),
        ([nan, pi / 4, nan, pi / 4 + pi], True),
        ([0.0, nan, pi / 2, pi], False),
    ]
    angles = np.array([c for c, _ in columns]).T
    assert zero_in_hypersum_batch(angles, 1e-9).tolist() == [e for _, e in columns]


@pytest.mark.parametrize("m", range(1, 11))
def test_sorting_networks_sort_every_zero_one_vector(m):
    """By the 0-1 principle (Knuth, TAOCP 5.3.4), a comparator network that
    sorts all 2^m vectors of 0s and 1s sorts every input of m values."""
    network = _sorting_network(m)
    assert all(0 <= i < j < m for i, j in network)
    v = np.array(list(itertools.product([0.0, 1.0], repeat=m))).T
    for i, j in network:
        low = np.minimum(v[i], v[j])
        v[j] = np.maximum(v[i], v[j])
        v[i] = low
    assert (np.diff(v, axis=0) >= 0).all()


def test_the_optimal_networks_have_the_fewest_comparators():
    assert [len(_SORTING_NETWORKS[m]) for m in range(1, 7)] == [0, 1, 3, 5, 9, 12]
    assert len(_sorting_network(7)) == 21  # odd-even transposition above 6


def _adversarial_angles(rng, m, width, eps):
    """An (m, width) angle batch with NaN for zero terms: random zero masks
    with all-zero columns; columns of uniform angles, of multiples of pi/4
    jittered by 0, +-eps/2, +-eps or +-2 eps, and of angles in an arc of
    pi + eps + jitter, whose largest gap sits next to pi - eps."""
    jitter = rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0], size=(m, width)) * eps
    quarter = rng.integers(0, 8, size=(m, width)) * (math.pi / 4) + jitter
    uniform = rng.uniform(0.0, 2 * math.pi, size=(m, width))
    start = rng.uniform(0.0, 2 * math.pi, size=width)
    arc = math.pi + eps + jitter[0]
    inside = rng.uniform(0.0, 1.0, size=(m, width)) * arc
    inside[0], inside[-1] = 0.0, arc  # both ends of the arc are terms
    arcs = (start + rng.permuted(inside, axis=0)) % (2 * math.pi)
    kind = rng.integers(0, 3, size=width)
    angles = _normalize_array(np.choose(kind, [uniform, quarter, arcs]))
    zeros = rng.random((m, width)) < rng.choice([0.0, 0.2, 0.5])
    zeros[:, rng.random(width) < 0.05] = True
    angles[zeros] = math.nan
    return angles


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 8), width=st.integers(1, 2**14),
       eps=st.sampled_from([1e-12, 1e-9, 1e-6, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_its_reference_on_adversarial_batches(m, width, eps, seed):
    """The sorting networks, the gap taken row by row and the two-cluster
    test on the columns that fail the gap test give the booleans of the
    earlier kernel, which sorted by odd-even transposition and tested every
    column."""
    angles = _adversarial_angles(np.random.default_rng(seed), m, width, eps)
    expected = zero_in_hypersum_batch_reference(angles.copy(), eps)
    assert np.array_equal(zero_in_hypersum_batch(angles, eps), expected)
