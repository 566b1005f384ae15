"""Independent checks of the program's responses.

Every certificate the program returns is checked here against the benchmark's
own arithmetic (phasemath), outside the timed region:

- Realizable: the returned matrix's minors, recomputed here, match
  global * prod(rho) * phi on every basis within the verification tolerance.
- NotRealizable: the witness basis really disagrees with the returned
  matrix, or an infeasible triangle equation is reported.
- not_a_phirotope and validate: every reported (X, Y) pair fails the
  half-plane test of phasemath.violates.
- from-matrix: the phirotope equals the minor phases of the input matrix.
- canonicalize: the canonical phirotope equals global * rephase(input), and the
  pinned values sit exactly at their targets.
- tree: the forest is a spanning tree of the associated bipartite graph.

A check returns None when the response is certified, else the reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

from phasemath import TAU, circular_distance, gp_terms, lex_index, minors, phase_angles, subsets, violates

#: Tolerance of realize's final verification (VERIFY_TOLERANCE of the program).
VERIFY_TOL = 1e-6
#: Largest rounding drift accepted between two computations of one phase.
DRIFT_TOL = 1e-9
#: Pinned canonical values are assigned exactly.
PIN_TOL = 1e-12
ZERO_BELOW = 1e-9

#: (command, expected class) -> exit code.  Every other pairing is a failure.
EXIT_CODES = {
    ("realize", "realizable"): 0,
    ("realize", "not_realizable"): 1,
    ("realize", "gp_invalid"): 1,
    ("validate", "gp_invalid"): 1,
    ("from-matrix", "matrix_born"): 0,
    ("canonicalize", "matrix_born"): 0,
    ("tree", "matrix_born"): 0,
}

_DETAIL = re.compile(r"(\d+) violations, first at X=\(([\d, ]*)\), Y=\(([\d, ]*)\)")


class Rejected(Exception):
    pass


def _phase(obj) -> float:
    if obj is None:
        return math.nan
    return (obj["angle_over_pi"] * math.pi) % TAU


def _nonzero_phase(obj) -> float:
    a = _phase(obj)
    if math.isnan(a):
        raise Rejected("a rephasing or global phase is zero")
    return a


def _matrix(obj, r: int, n: int) -> np.ndarray:
    if obj["rows"] != r or obj["cols"] != n:
        raise Rejected(f"matrix is {obj['rows']} x {obj['cols']}, want {r} x {n}")
    return np.array([[0j if e is None else e["norm"] * np.exp(1j * math.pi * e["angle_over_pi"])
                      for e in row] for row in obj["entries"]])


def _phirotope(obj, r: int, n: int) -> np.ndarray:
    if obj["n"] != n or obj["r"] != r:
        raise Rejected(f"phirotope has (r, n) = ({obj['r']}, {obj['n']}), want ({r}, {n})")
    if [tuple(v["basis"]) for v in obj["values"]] != list(subsets(n, r)):
        raise Rejected("phirotope bases are not every sorted r-subset in lex order")
    return np.array([_phase(v["phase"]) for v in obj["values"]])


def _same_phirotope(got: np.ndarray, want: np.ndarray, tol: float, what: str):
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        raise Rejected(f"{what}: zero pattern differs from the input")
    nz = ~np.isnan(want)
    worst = float(circular_distance(got[nz], want[nz]).max(initial=0.0))
    if worst > tol:
        raise Rejected(f"{what}: a value is {worst:.3g} rad off (tolerance {tol:g})")


def _rephased(inst, rho, alpha) -> np.ndarray:
    """global * prod(rho over the basis) * phi, as angles."""
    cols = np.asarray(subsets(inst.n, inst.r)) - 1
    return np.mod(inst.angles + alpha + np.asarray(rho)[cols].sum(axis=1), TAU)


def _pair(xs, ys, r, n):
    xs, ys = tuple(xs), tuple(ys)
    for s, size in ((xs, r + 1), (ys, r - 1)):
        if (len(s) != size or list(s) != sorted(set(s))
                or any(not 1 <= k <= n for k in s)):
            raise Rejected(f"({xs}, {ys}) is not a pair of sorted subsets of sizes r+1, r-1")
    return xs, ys


def _violations(inst, pairs, tol):
    pairs = [_pair(x, y, inst.r, inst.n) for x, y in pairs]
    for (xs, ys), terms in zip(pairs, gp_terms(inst.angles, inst.n, inst.r, pairs)):
        if not violates(terms, tol):
            raise Rejected(f"reported pair X={xs}, Y={ys} satisfies the GP relation")


def _realizable(inst, res):
    if inst.expected != "realizable":
        raise Rejected(f"Realizable on an input made {inst.kind}")
    rho = [_nonzero_phase(p) for p in res["rho"]]
    if len(rho) != inst.n:
        raise Rejected("rho needs one phase per ground element")
    got = phase_angles(minors(_matrix(res["matrix"], inst.r, inst.n)), ZERO_BELOW)
    _same_phirotope(got, _rephased(inst, rho, _nonzero_phase(res["global_phase"])),
                    VERIFY_TOL, "minors of the realization")


def _not_realizable(inst, res):
    if inst.expected != "not_realizable":
        raise Rejected(f"NotRealizable on an input made {inst.kind}")
    if "witness" not in res:
        if not (isinstance(res.get("infeasible_equation"), str) and res["infeasible_equation"]):
            raise Rejected("NotRealizable without a witness or an infeasible equation")
        return
    w = res["witness"]
    m = _matrix(res["matrix"], inst.r, inst.n)
    basis = tuple(w["basis"])
    idx = lex_index(inst.n, inst.r)
    if basis not in idx:
        raise Rejected(f"witness basis {basis} is not a sorted r-subset")
    minor = np.linalg.det(m[:, np.asarray(basis) - 1])
    computed, expected = _phase(w["computed"]), _phase(w["expected"])
    if abs(minor) < ZERO_BELOW or circular_distance(np.angle(minor), computed) > VERIFY_TOL:
        raise Rejected("witness 'computed' is not the phase of the matrix's minor")
    if math.isnan(expected) or circular_distance(expected, computed) <= VERIFY_TOL:
        raise Rejected("witness basis does not disagree with the matrix")


def _not_a_phirotope(inst, res, tol):
    if inst.expected not in ("not_realizable", "gp_invalid"):
        raise Rejected(f"not_a_phirotope on an input made {inst.kind}")
    match = _DETAIL.fullmatch(res.get("detail") or "")
    if not match:
        raise Rejected(f"cannot read the violating pair from {res.get('detail')!r}")
    xs = [int(k) for k in re.findall(r"\d+", match.group(2))]
    ys = [int(k) for k in re.findall(r"\d+", match.group(3))]
    _violations(inst, [(xs, ys)], tol)


def _realize(inst, res, tol):
    verdict = res.get("verdict")
    if verdict == "Realizable":
        _realizable(inst, res)
    elif verdict == "NotRealizable":
        _not_realizable(inst, res)
    elif verdict == "Unsupported" and res.get("reason") == "not_a_phirotope":
        _not_a_phirotope(inst, res, tol)
    else:
        raise Rejected(f"unexpected verdict {verdict} {res.get('reason')}")


def _validate(inst, res, tol):
    if res["valid"] or not res["violations"]:
        raise Rejected(f"validate calls an input made {inst.kind} valid")
    _violations(inst, [(v["X"], v["Y"]) for v in res["violations"]], tol)


def _from_matrix(inst, res):
    _same_phirotope(_phirotope(res["phirotope"], inst.r, inst.n), inst.angles, DRIFT_TOL,
                    "phirotope of the matrix")


def canonical_targets(r: int, n: int) -> dict:
    """Pinned canonical values.  In the canonical realization (I | N) row r
    and column r+1 of N have phase 1, and the minor on {1..r} - {i} + {j} is
    (-1)^(r-i) N[i, j]."""
    first = tuple(range(1, r + 1))
    targets = {first: 0.0}
    targets.update({first[:-1] + (j,): 0.0 for j in range(r + 1, n + 1)})
    targets.update({tuple(sorted(set(first) - {i} | {r + 1})): math.pi * ((r - i) % 2)
                    for i in range(1, r)})
    return targets


def _canonicalize(inst, res):
    rho = [_nonzero_phase(p) for p in res["rho"]]
    if len(rho) != inst.n:
        raise Rejected("rho needs one phase per ground element")
    canon = _phirotope(res["canonical"], inst.r, inst.n)
    _same_phirotope(canon, _rephased(inst, rho, _nonzero_phase(res["global_phase"])),
                    DRIFT_TOL, "canonical phirotope")
    idx = lex_index(inst.n, inst.r)
    for basis, target in canonical_targets(inst.r, inst.n).items():
        got = canon[idx[basis]]
        if not math.isnan(got) and circular_distance(got, target) > PIN_TOL:
            raise Rejected(f"pinned value at {basis} is {got:.17g}, want {target:.17g}")


def _tree(inst, res):
    r, n = inst.r, inst.n
    edges = [tuple(e) for e in res["forest"]]
    if res["components"] != 1 or len(edges) != n - 1:
        raise Rejected(f"{len(edges)} edges in {res['components']} components is no spanning tree")
    idx = lex_index(n, r)
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        if not (1 <= i <= r < j <= n):
            raise Rejected(f"edge ({i}, {j}) is not a row-column pair")
        if math.isnan(inst.angles[idx[tuple(sorted(set(range(1, r + 1)) - {i} | {j}))]]):
            raise Rejected(f"edge ({i}, {j}) is not in the bipartite graph")
        a, b = find(i), find(j)
        if a == b:
            raise Rejected(f"edge ({i}, {j}) closes a cycle")
        parent[a] = b


def check(request, inst, code, text: str, raw: bytes):
    """None if the response to `request` certifies its answer, else the reason."""
    want = EXIT_CODES.get((request.command, inst.expected))
    if code != want:
        return f"{request.command} exited {code} on an input made {inst.kind}, want {want}"
    try:
        report = json.loads(text)
        if report["command"] != request.command:
            raise Rejected(f"report is for command {report['command']!r}")
        prov = report["provenance"]
        if prov["input_sha256"] != hashlib.sha256(raw).hexdigest():
            raise Rejected("provenance hash is not the input's")
        res, tol = report["result"], prov["tolerance"]
        if request.command == "realize":
            _realize(inst, res, tol)
        elif request.command == "validate":
            _validate(inst, res, tol)
        elif request.command == "from-matrix":
            _from_matrix(inst, res)
        elif request.command == "canonicalize":
            _canonicalize(inst, res)
        elif request.command == "tree":
            _tree(inst, res)
    except Rejected as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None


def cross_check(validate_text: str, realize_text: str):
    """validate and realize on one GP-invalid input must agree on the
    violation count and on the first violating pair."""
    violations = json.loads(validate_text)["result"]["violations"]
    match = _DETAIL.fullmatch(json.loads(realize_text)["result"].get("detail") or "")
    first = violations[0]
    if not match or int(match.group(1)) != len(violations):
        return f"realize reports {match and match.group(1)} violations, validate {len(violations)}"
    pair = ([int(k) for k in re.findall(r"\d+", match.group(2))],
            [int(k) for k in re.findall(r"\d+", match.group(3))])
    if pair != (first["X"], first["Y"]):
        return f"realize's first violation {pair} is not validate's {first}"
    return None
