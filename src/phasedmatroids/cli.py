"""Batch command-line front end.

Reads phirotopes and matrices from JSON, runs the library operations and
emits deterministic JSON reports.  Exit codes: 0 success / Realizable /
valid; 1 NotRealizable / violations found; 2 malformed input; 3 unsupported
input (essentially oriented, non-uniform, disconnected).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import __version__, jsonio
from .canonical import canonical_spanning_forest, canonicalize, is_real_valued
from .errors import (
    DisconnectedGraphError,
    FirstSubsetNotBasisError,
    InvalidPhirotopeError,
    PhasedMatroidError,
)
from .phases import DEFAULT_TOLERANCE, Tolerance
from .phirotopes import from_matrix
from .realization import (NOT_A_PHIROTOPE, NotRealizable, Unsupported, _decide,
                          decide_realizability, verify)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2
EXIT_UNSUPPORTED = 3


def _provenance(raw: bytes, tol: Tolerance) -> dict:
    return {
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "tolerance": tol.eps,
        "version": __version__,
    }


def _violations_json(violations) -> list:
    return [{"X": list(x), "Y": list(y)} for x, y in violations]


def _decided_phirotope(doc, tol):
    """The parsed phirotope and the canonicalization ``_decide`` reached, or
    None, after its Grassmann-Pluecker gate: on a violation, raises
    :class:`InvalidPhirotopeError` with the full ``check_gp()`` list."""
    phi = jsonio.phirotope_from_json(doc, tol)
    canon, verdict = _decide(phi)
    if isinstance(verdict, Unsupported) and verdict.reason == NOT_A_PHIROTOPE:
        phi._require_gp()
    return phi, canon


def _cmd_validate(doc, tol):
    phi = jsonio.phirotope_from_json(doc, tol)
    violations = phi.check_gp()
    report = {"valid": not violations, "violations": _violations_json(violations)}
    return report, EXIT_OK if not violations else EXIT_NEGATIVE


def _cmd_from_matrix(doc, tol):
    m = jsonio.matrix_from_json(doc)
    phi = from_matrix(m, tol)
    return {"phirotope": jsonio.phirotope_to_json(phi)}, EXIT_OK


def _cmd_canonicalize(doc, tol):
    phi, canon = _decided_phirotope(doc, tol)
    return jsonio.canonicalization_to_json(canon or canonicalize(phi)), EXIT_OK


def _cmd_orient_check(doc, tol):
    phi, canon = _decided_phirotope(doc, tol)
    return {"essentially_oriented": is_real_valued((canon or canonicalize(phi)).canonical)}, EXIT_OK


def _cmd_realize(doc, tol):
    phi = jsonio.phirotope_from_json(doc, tol)
    verdict = decide_realizability(phi)
    report = jsonio.verdict_to_json(verdict)
    if isinstance(verdict, NotRealizable):
        return report, EXIT_NEGATIVE
    if isinstance(verdict, Unsupported):
        # an invalid phirotope counts as "violations found", not "unsupported"
        code = EXIT_NEGATIVE if verdict.reason == NOT_A_PHIROTOPE else EXIT_UNSUPPORTED
        return report, code
    return report, EXIT_OK


def _cmd_verify(doc, tol):
    if not isinstance(doc, dict) or "phirotope" not in doc or "matrix" not in doc:
        raise jsonio.FormatError('verify expects {"phirotope": ..., "matrix": ...}')
    phi = jsonio.phirotope_from_json(doc["phirotope"], tol)
    m = jsonio.matrix_from_json(doc["matrix"])
    if (m.rows, m.cols) != (phi.r, phi.n):
        raise jsonio.FormatError(
            f"matrix is {m.rows} x {m.cols}, phirotope needs {phi.r} x {phi.n}")
    witness = verify(phi, m)
    if witness is None:
        return {"realizes": True}, EXIT_OK
    return {"realizes": False, "witness": jsonio.witness_to_json(witness)}, EXIT_NEGATIVE


def _cmd_tree(doc, tol):
    phi, canon = _decided_phirotope(doc, tol)
    forest = canon.forest if canon else canonical_spanning_forest(phi)
    return {"forest": jsonio.forest_to_json(forest),
            "components": forest.component_count}, EXIT_OK


COMMANDS = {
    "validate": _cmd_validate,
    "from-matrix": _cmd_from_matrix,
    "canonicalize": _cmd_canonicalize,
    "orient-check": _cmd_orient_check,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "tree": _cmd_tree,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on the first call and kept for the
    process, since parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="phasedmatroids",
        description="Phased-matroid validation, canonicalization and realizability.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", required=True, help="input JSON file")
    parser.add_argument("--output", default=None, help="output file (default: stdout)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE.eps,
                        help="angular tolerance in radians (default %(default)g)")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    return parser


def _execute(args) -> tuple[dict, int]:
    """The report and exit code of one parsed command line."""
    try:
        tol = Tolerance(args.tol)
    except ValueError as exc:
        return {"error": str(exc)}, EXIT_MALFORMED
    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return {"error": str(exc)}, EXIT_MALFORMED
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        return {"error": f"invalid JSON: {exc}"}, EXIT_MALFORMED

    try:
        report, code = COMMANDS[args.command](doc, tol)
    except jsonio.FormatError as exc:
        return {"error": str(exc)}, EXIT_MALFORMED
    except InvalidPhirotopeError as exc:
        return {"error": str(exc), "violations": _violations_json(exc.violations)}, EXIT_NEGATIVE
    except (DisconnectedGraphError, FirstSubsetNotBasisError) as exc:
        return {"error": str(exc)}, EXIT_UNSUPPORTED
    except PhasedMatroidError as exc:
        return {"error": str(exc)}, EXIT_MALFORMED
    return {"command": args.command, "provenance": _provenance(raw, tol),
            "result": report}, code


def run(argv=None) -> int:
    """Run one command; the report goes to ``--output``, or to stdout when
    ``--output`` is not given or cannot be written."""
    args = _parser().parse_args(argv)
    report, code = _execute(args)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(jsonio.dumps(report, pretty=args.pretty))
            return code
        except OSError as exc:
            report, code = {"error": str(exc)}, EXIT_MALFORMED
    sys.stdout.write(jsonio.dumps(report, pretty=args.pretty))
    return code


def main():  # console-script entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
