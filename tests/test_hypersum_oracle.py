"""Zero membership of the hypersum: against the brute-force optimizer, and
pinned bits on rows at the eps boundary, where the optimizer cannot judge."""

import hashlib

import numpy as np
import pytest

from phasedmatroids import Phase, zero_in_hypersum
from phasedmatroids.phases import zero_in_hypersum_batch

from oracles import zero_in_hypersum_bruteforce


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
            units[i, j] = p.unit()
    batch = zero_in_hypersum_batch(units, 1e-9)
    for i, phases in enumerate(sets):
        assert batch[i] == zero_in_hypersum_bruteforce(phases), phases


def _boundary_batch(eps, rows=3000, m=6):
    """One batch whose rows mix every nonzero count 0..m: phases at multiples
    of pi/4, jittered by 0, +-0.5 eps or +-1.5 eps, so that largest gaps and
    antipodal pairs sit on either side of the rule's eps boundary."""
    rng = np.random.default_rng(12)
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
    bits = zero_in_hypersum_batch(_boundary_batch(eps), eps)
    assert hashlib.sha256(np.packbits(bits).tobytes()).hexdigest() == BOUNDARY_BITS[eps]
