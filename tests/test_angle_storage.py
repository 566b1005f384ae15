"""A phirotope stores one angle array in lex order of its bases (NaN for the
zero phase), and every per-value operation runs on that array.  These tests
hold the array versions to the per-basis Phase loops they replaced
(``tests/oracles.py``) bit for bit: equal angles with the same sign of zero,
and the same witness basis."""

import cmath
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedmatroids import (
    ComplexMatrix,
    Phase,
    Rephasing,
    entry_phase,
    from_matrix,
    minor_phase,
    rephase,
    scale_global,
    verify,
)
from phasedmatroids.canonical import _entry_angles, _minor_angles, is_real_valued
from phasedmatroids.cli import run
from phasedmatroids.jsonio import phase_to_json, phirotope_from_json, phirotope_to_json
from phasedmatroids.matrices import all_maximal_minors
from phasedmatroids.phases import DEFAULT_TOLERANCE, TAU, _normalize, _normalize_array
from phasedmatroids.phirotopes import minor_phases

from oracles import (
    is_real_valued_reference,
    minor_phases_reference,
    rephase_reference,
    scale_global_reference,
    unchecked_phirotope,
    verify_reference,
)

SIZES = [(r, n) for r in range(1, 5) for n in range(r, 10)]
EDGE_ANGLES = [0.0, -0.0, 1e-17, math.pi, math.nextafter(TAU, 0.0), 0.5 * TAU]

angles = st.floats(0.0, TAU, exclude_max=True) | st.sampled_from(EDGE_ANGLES)


def _same(angle: float, p: Phase) -> bool:
    """A stored angle is the phase p bit for bit: NaN for the zero phase, else
    equal with the same sign of zero."""
    if p.is_zero:
        return math.isnan(angle)
    return angle == p.angle and math.copysign(1.0, angle) == math.copysign(1.0, p.angle)


def _assert_same(array, reference):
    assert len(array) == len(reference)
    for a, (b, p) in zip(array.tolist(), reference.items()):
        assert _same(a, p), (b, a, p)


def _gaussian(rng, r, n):
    return rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))


@st.composite
def cases(draw):
    """(phi, m): a matrix-born phirotope (uniform, or from (I|N) with zeros in
    N) with its matrix, the same with 1-3 values rotated, or random values
    (some zero, or all within a few eps of +-1) with an unrelated matrix."""
    r, n = draw(st.sampled_from(SIZES), label="r, n")
    kinds = ["matrix", "sparse", "rotated", "random", "near_real"]
    kind = draw(st.sampled_from(kinds), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    count = math.comb(n, r)
    if kind in ("matrix", "sparse", "rotated"):
        arr = _gaussian(rng, r, n)
        if kind == "sparse":
            nmat = _gaussian(rng, r, n - r)
            nmat[rng.random(nmat.shape) < 0.4] = 0
            arr = _gaussian(rng, r, r) @ np.hstack([np.eye(r), nmat])
        m = ComplexMatrix.from_complex(arr)
        phi = from_matrix(m)
        if kind == "rotated":
            values = dict(phi.values)
            nonzero = [b for b, p in values.items() if not p.is_zero]
            for k in rng.choice(len(nonzero), size=min(len(nonzero), int(rng.integers(1, 4))),
                                replace=False):
                b = nonzero[k]
                values[b] = Phase.from_angle(values[b].angle + rng.uniform(1e-7, 3.0))
            phi = unchecked_phirotope(n, r, values)
        return phi, m
    if kind == "random":
        drawn = draw(st.lists(st.none() | angles, min_size=count, max_size=count), label="values")
        if all(a is None for a in drawn):
            drawn[0] = 0.0
        phases = [Phase(None) if a is None else Phase(a) for a in drawn]
    else:
        eps = DEFAULT_TOLERANCE.eps
        steps = [0.0, 0.5, -0.5, 0.999, -0.999, 1.001, -1.001, 3.0]
        offsets = draw(st.lists(st.sampled_from(steps), min_size=count, max_size=count),
                       label="offsets")
        phases = [Phase.from_angle(math.pi * int(rng.integers(2)) + t * eps) for t in offsets]
    phi = unchecked_phirotope(n, r, dict(zip(itertools.combinations(range(1, n + 1), r), phases)))
    return phi, ComplexMatrix.from_complex(_gaussian(rng, r, n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cases(), data=st.data())
def test_rephase_and_scale_global_match_the_phase_loop(case, data):
    phi, _ = case
    rho = Rephasing(tuple(Phase(a) for a in data.draw(
        st.lists(angles, min_size=phi.n, max_size=phi.n), label="rho")))
    alpha = Phase(data.draw(angles, label="alpha"))
    _assert_same(rephase(phi, rho).angles, rephase_reference(phi, rho))
    _assert_same(scale_global(phi, alpha).angles, scale_global_reference(phi, alpha))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cases())
def test_is_real_valued_and_verify_match_the_phase_loop(case):
    phi, m = case
    assert is_real_valued(phi) == is_real_valued_reference(phi)
    _assert_same(minor_phases(m), minor_phases_reference(m))
    witness, reference = verify(phi, m), verify_reference(phi, m)
    if reference is None:
        assert witness is None
    else:
        basis, expected, computed = reference
        assert witness.basis == basis
        assert witness.expected == expected and witness.computed == computed
        assert _same(math.nan if expected.is_zero else witness.expected.angle, expected)
        assert _same(math.nan if computed.is_zero else witness.computed.angle, computed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=cases())
def test_entry_angles_are_entry_phase_bit_for_bit(case):
    """The forced entry phases that the forest, canonicalize and reconstruct
    read as one array are ``entry_phase``, and the forced 2x2 minor phases
    that the triangle passes read are ``minor_phase``; both go through
    ``evaluate``."""
    phi, _ = case
    r, n = phi.r, phi.n
    entries = _entry_angles(phi)
    assert entries.shape == (r, n - r)
    for i, j in itertools.product(range(1, r + 1), range(r + 1, n + 1)):
        assert _same(entries.item(i - 1, j - r - 1), entry_phase(phi, i, j)), (i, j)
    minors = [(rows, cols) for rows in itertools.combinations(range(1, r + 1), 2)
              for cols in itertools.combinations(range(r + 1, n + 1), 2)]
    if minors:
        a, b, c, d = np.array([rows + cols for rows, cols in minors]).T
        for angle, (rows, cols) in zip(_minor_angles(phi, (a, b), (c, d)).tolist(), minors):
            assert _same(angle, minor_phase(phi, rows, cols)), (rows, cols)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=cases())
def test_json_emit_and_parse_match_the_phase_loop(case):
    """``phirotope_to_json`` writes what ``phase_to_json`` writes for each
    value, and ``phirotope_from_json`` reads back ``Phase.from_angle`` of
    angle_over_pi times pi for each."""
    phi, _ = case
    doc = phirotope_to_json(phi)
    assert doc["values"] == [{"basis": list(b), "phase": phase_to_json(p)}
                             for b, p in phi.values.items()]
    for got, want in zip(doc["values"], phi.values.values()):
        if not want.is_zero:
            x = got["phase"]["angle_over_pi"]
            assert math.copysign(1.0, x) == math.copysign(1.0, want.angle)
    back = phirotope_from_json(doc, phi.tolerance)
    _assert_same(back.angles, {b: Phase(None) if item["phase"] is None
                               else Phase.from_angle(item["phase"]["angle_over_pi"] * math.pi)
                               for b, item in zip(phi.values, doc["values"])})


def test_normalize_array_is_the_scalar_normalize_bit_for_bit():
    rng = np.random.default_rng(16)
    edges = [0.0, -0.0, TAU, -TAU, 2 * TAU, math.pi, -math.pi, 1e-17, -1e-17,
             math.nextafter(TAU, 0.0), -math.nextafter(TAU, 0.0), math.nextafter(TAU, 10.0)]
    x = np.concatenate([rng.uniform(-4 * TAU, 4 * TAU, 10**5), rng.normal(scale=1e-15, size=10**3),
                        edges, [math.nan]])
    got = _normalize_array(x)
    want = np.array([_normalize(a) for a in x.tolist()])
    assert np.isnan(got[-1])
    assert np.array_equal(got[:-1].view(np.int64), want[:-1].view(np.int64))


def test_minor_phases_keep_the_bits_of_cmath_phase():
    """Each minor's angle is ``cmath.phase`` of it, normalized, never
    ``np.angle``: on this matrix the two differ in the last bit on some minors
    after normalization, and those bits reach ``from-matrix`` output and
    witnesses."""
    rng = np.random.default_rng(3)
    m = ComplexMatrix.from_complex(_gaussian(rng, 3, 9))
    minors = all_maximal_minors(m)
    exact = np.array([_normalize(cmath.phase(d)) for d in minors.tolist()])
    vectorized = _normalize_array(np.angle(minors))
    got = minor_phases(m)
    assert np.array_equal(got.view(np.int64), exact.view(np.int64))
    differ = np.flatnonzero(exact != vectorized)
    if not differ.size:
        pytest.skip("np.angle and cmath.phase agree on every minor on this platform")
    assert (got[differ] != vectorized[differ]).all()


def test_realize_builds_fewer_phases_than_bases(monkeypatch, tmp_path):
    """Parse, canonicalize, reconstruct, verify and emit of a Realizable (5, 11)
    request build Phase objects only at the API boundary (forest entries,
    rho, triangle equations), not one per basis: fewer than its 462 bases."""
    rng = np.random.default_rng(5)
    phi = from_matrix(ComplexMatrix.from_complex(_gaussian(rng, 5, 11)))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phirotope_to_json(phi)))
    built = []
    check = Phase.__post_init__
    monkeypatch.setattr(Phase, "__post_init__", lambda p: (built.append(1), check(p)))
    assert run(["realize", "--input", str(path)]) == 0
    assert 0 < len(built) < math.comb(11, 5)
