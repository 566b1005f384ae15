"""JSON serialization for phases, matrices, phirotopes and results.

Angles travel as multiples of pi (``angle_over_pi``) so that the common
textbook values (1/2, 7/4, 5/6, ...) stay exact in fixtures.  The zero phase
and zero matrix entries serialize as ``null``.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Optional

import numpy as np

from .canonical import CanonicalizationResult, SpanningForest
from .errors import PhasedMatroidError
from .matrices import ComplexMatrix, _is_integer
from .phases import Phase, Tolerance
from .phirotopes import Phirotope, Rephasing
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


def phase_from_json(obj: Any) -> Phase:
    if obj is None:
        return Phase(None)
    if not isinstance(obj, dict) or set(obj) != {"angle_over_pi"}:
        raise FormatError(f"expected null or {{'angle_over_pi': x}}, got {obj!r}")
    return Phase.from_angle(_angle(obj["angle_over_pi"], "angle_over_pi"))


def matrix_to_json(m: ComplexMatrix) -> dict:
    entries = []
    for i in range(1, m.rows + 1):
        row = []
        for j in range(1, m.cols + 1):
            norm = m.entry_norm(i, j)
            if norm == 0.0:
                row.append(None)
            else:
                row.append({"norm": norm,
                            "angle_over_pi": m.entry_phase(i, j).angle_over_pi})
        entries.append(row)
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
    return {
        "n": phi.n,
        "r": phi.r,
        "values": [{"basis": list(b), "phase": phase_to_json(p)}
                   for b, p in phi.values.items()],
    }


def phirotope_from_json(obj: Any, tolerance: Tolerance,
                        validate: bool = True) -> Phirotope:
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
    values = {}
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
        if key in values:
            raise FormatError(f"basis {basis} appears twice")
        values[key] = phase_from_json(item["phase"])
    try:
        return Phirotope(n, r, values, tolerance, validate=validate)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


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
