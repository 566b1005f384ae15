"""Zero membership of the hypersum against the brute-force optimizer."""

import numpy as np

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
