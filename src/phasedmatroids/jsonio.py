"""JSON serialization for phases, matrices, phirotopes and results.

Angles travel as multiples of pi (``angle_over_pi``) so that the common
textbook values (1/2, 7/4, 5/6, ...) stay exact in fixtures.  The zero phase
and zero matrix entries serialize as ``null``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
from typing import Any, Optional

import numpy as np

from .canonical import CanonicalizationResult, SpanningForest
from .errors import PhasedMatroidError
from .matrices import ComplexMatrix, _bases, _is_integer
from .phases import Phase, Tolerance, _normalize_array
from .phirotopes import Phirotope, Rephasing, _in_lex_order
from .realization import (
    NotRealizable,
    Realizable,
    RealizabilityVerdict,
    Unsupported,
    Witness,
)


class FormatError(PhasedMatroidError, ValueError):
    """Input JSON does not match the declared schema."""


def phase_to_json(p: Phase) -> Optional[dict]:
    if p.is_zero:
        return None
    return {"angle_over_pi": p.angle_over_pi}


def _finite(x: Any, name: str) -> float:
    """x as a float.  Python's json also reads NaN, Infinity and integers
    beyond the float range; all are refused."""
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not abs(x) <= sys.float_info.max:
        raise FormatError(f"{name} must be a finite number, got {x!r}")
    return float(x)


def _angle(x: Any, name: str) -> float:
    """x * pi in radians, for a finite x whose product with pi is finite."""
    angle = _finite(x, name) * math.pi
    if not math.isfinite(angle):
        raise FormatError(f"{name} is too large, got {x!r}")
    return angle


def _phase_angle(obj: Any) -> float:
    """The angle in radians of a JSON phase, not yet normalized; NaN for null."""
    if obj is None:
        return math.nan
    if not isinstance(obj, dict) or set(obj) != {"angle_over_pi"}:
        raise FormatError(f"expected null or {{'angle_over_pi': x}}, got {obj!r}")
    return _angle(obj["angle_over_pi"], "angle_over_pi")


def matrix_to_json(m: ComplexMatrix) -> dict:
    norms = m.norms.tolist()
    angles = (_normalize_array(m.angles) / math.pi).tolist()  # each entry's Phase.from_angle
    entries = [[None if norm == 0.0 else {"norm": norm, "angle_over_pi": angle}
                for norm, angle in zip(*row)] for row in zip(norms, angles)]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def matrix_from_json(obj: Any) -> ComplexMatrix:
    if not isinstance(obj, dict):
        raise FormatError("matrix must be a JSON object")
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"matrix is missing field {exc}") from exc
    if not (_is_integer(rows) and _is_integer(cols) and 1 <= rows <= cols):
        raise FormatError("matrix rows/cols must be integers with 1 <= rows <= cols")
    if not isinstance(entries, list) or len(entries) != rows:
        raise FormatError(f"expected {rows} entry rows")
    for i, row in enumerate(entries):  # before allocating: cols is only declared
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError(f"entry row {i + 1} must have {cols} entries")
    norms = np.zeros((rows, cols))
    angles = np.zeros((rows, cols))
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            if e is None:
                continue
            if not isinstance(e, dict) or set(e) != {"norm", "angle_over_pi"}:
                raise FormatError(f"bad entry at ({i + 1}, {j + 1}): {e!r}")
            at = f"({i + 1}, {j + 1})"
            norm = _finite(e["norm"], f"norm at {at}")
            if norm < 0.0:
                raise FormatError(f"negative norm at {at}")
            norms[i, j] = norm
            angles[i, j] = _angle(e["angle_over_pi"], f"angle_over_pi at {at}")
    return ComplexMatrix(norms, angles)


def phirotope_to_json(phi: Phirotope) -> dict:
    bases = itertools.combinations(range(1, phi.n + 1), phi.r)
    return {
        "n": phi.n,
        "r": phi.r,
        "values": [{"basis": list(b), "phase": None if math.isnan(x) else {"angle_over_pi": x}}
                   for b, x in zip(bases, (phi.angles / math.pi).tolist())],
    }


def phirotope_from_json(obj: Any, tolerance: Tolerance) -> Phirotope:
    """The phirotope of a JSON document, built from its angles: the
    Grassmann-Pluecker relations are not checked."""
    if not isinstance(obj, dict):
        raise FormatError("phirotope must be a JSON object")
    try:
        n, r, items = obj["n"], obj["r"], obj["values"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"phirotope is missing field {exc}") from exc
    if not (_is_integer(n) and _is_integer(r) and 1 <= r <= n):
        raise FormatError("need integers 1 <= r <= n")
    if not isinstance(items, list):
        raise FormatError("values must be a list")
    angles = _value_angles(items, n, r)
    try:
        return Phirotope._from_angles(n, r, angles, tolerance)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _value_angles(items: list, n: int, r: int) -> np.ndarray:
    """The angles of the value records in lex order of their bases, normalized.

    A list that holds every sorted r-subset once, in lex order, as
    ``phirotope_to_json`` writes it, and whose records pass the checks of
    ``_walk_records``, is read as a whole (``_lex_values``).  Any other list
    is walked one record at a time (``_walk_records``), so that the first
    faulty record or repeated basis in document order names the
    :class:`FormatError`, and then listed by ``phirotopes._in_lex_order``,
    the mapping constructor's completeness rule, whose refusal of a short
    list, a missing basis or a misplaced one becomes one.
    """
    # C(n, r) >= n for r < n: a shorter list is walked before C(n, r) is computed
    if len(items) >= (n if r < n else 1) and len(items) == math.comb(n, r):
        values = _lex_values(items, n, r)
        if values is not None:
            return _normalize_array(values)
    walked = _walk_records(items, n, r)
    try:
        return _normalize_array(np.array(_in_lex_order(n, r, walked)))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _lex_values(items: list, n: int, r: int):
    """The ``angle_over_pi`` times pi of each record, NaN for a null phase,
    when the records pass the checks of ``_walk_records`` and their bases
    are the sorted r-subsets of [n] in lex order, else None."""
    # a dict with as many entries as keys asked for, all of them present, has no others
    if not (_all_types(items, dict) and set(map(len, items)) <= {2}):
        return None
    try:
        bases = list(map(operator.itemgetter("basis"), items))
        phases = list(map(operator.itemgetter("phase"), items))
    except KeyError:
        return None
    # == alone would also take an array for a list, and 1.0 or True for 1; the
    # length check first keeps the table no larger than the bases given
    if not (_all_types(bases, list) and set(map(len, bases)) <= {r}
            and bases == _basis_lists(n, r)
            and _all_types(itertools.chain.from_iterable(bases), (int, np.integer), bool)):
        return None
    given = np.fromiter(map(operator.is_not, phases, itertools.repeat(None)), dtype=bool,
                        count=len(items))
    phases = list(itertools.compress(phases, given))
    if not (_all_types(phases, dict) and set(map(len, phases)) <= {1}):
        return None
    try:
        numbers = list(map(operator.itemgetter("angle_over_pi"), phases))
    except KeyError:
        return None
    if not _all_types(numbers, (int, float), bool):
        return None
    try:
        numbers = np.array(numbers, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    with np.errstate(over="ignore"):
        angles = numbers * math.pi
    if not np.isfinite(angles).all():  # NaN, an infinity, or a product beyond the float range
        return None
    values = np.full(len(items), math.nan)
    values[given] = angles
    return values


@functools.lru_cache(maxsize=8)
def _basis_lists(n: int, r: int) -> list:
    """``_bases(n, r)`` as lists, built once per size; not to be changed."""
    return _bases(n, r).tolist()


def _all_types(objects, kinds, but=()) -> bool:
    """Whether isinstance(x, kinds) and not isinstance(x, but) for every x in
    objects, decided once per distinct type."""
    return all(issubclass(t, kinds) and not issubclass(t, but) for t in set(map(type, objects)))


def _walk_records(items: list, n: int, r: int) -> dict:
    """Basis tuple -> angle (``_phase_angle``) of the value records, checked
    one record at a time in document order: raises :class:`FormatError` at
    the first record with a bad shape, a bad basis, a basis seen before or a
    bad phase, in that order of checks within a record."""
    walked = {}
    for item in items:
        if not isinstance(item, dict) or set(item) != {"basis", "phase"}:
            raise FormatError(f"bad value record: {item!r}")
        basis = item["basis"]
        if (not isinstance(basis, list) or len(basis) != r
                or not all(map(_is_integer, basis))
                or sorted(basis) != basis or len(set(basis)) != r
                or basis[0] < 1 or basis[-1] > n):
            raise FormatError(f"bad basis {basis!r}: need a sorted {r}-subset of [1, {n}]")
        key = tuple(basis)
        if key in walked:
            raise FormatError(f"basis {basis} appears twice")
        walked[key] = _phase_angle(item["phase"])
    return walked


def forest_to_json(forest: SpanningForest) -> list:
    return [list(e) for e in forest.edges]


def rephasing_to_json(rho: Rephasing) -> list:
    return [phase_to_json(p) for p in rho.rho]


def canonicalization_to_json(result: CanonicalizationResult) -> dict:
    return {
        "rho": rephasing_to_json(result.rho),
        "global_phase": phase_to_json(result.global_phase),
        "canonical": phirotope_to_json(result.canonical),
    }


def witness_to_json(w: Witness) -> dict:
    return {
        "basis": list(w.basis),
        "expected": phase_to_json(w.expected),
        "computed": phase_to_json(w.computed),
    }


def verdict_to_json(v: RealizabilityVerdict) -> dict:
    if isinstance(v, Realizable):
        return {
            "verdict": "Realizable",
            "matrix": matrix_to_json(v.matrix),
            "rho": rephasing_to_json(v.rho),
            "global_phase": phase_to_json(v.global_phase),
        }
    if isinstance(v, NotRealizable):
        out = {"verdict": "NotRealizable"}
        if v.witness is not None:
            out["witness"] = witness_to_json(v.witness)
        if v.infeasible_equation is not None:
            out["infeasible_equation"] = v.infeasible_equation
        if v.matrix is not None:
            out["matrix"] = matrix_to_json(v.matrix)
        return out
    if isinstance(v, Unsupported):
        out = {"verdict": "Unsupported", "reason": v.reason}
        if v.detail is not None:
            out["detail"] = v.detail
        return out
    raise TypeError(f"not a verdict: {v!r}")


def dumps(obj: Any, pretty: bool = False) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
