"""Check that two source trees give the same bytes on the benchmark workloads.

    python tools/same_bytes.py OLD_SRC NEW_SRC [--seeds 1 2 3 4 5]

OLD_SRC and NEW_SRC are directories that hold the ``phasedmatroids`` package,
such as the ``src`` of a checkout of the parent commit and of the change.
For each workload of ``perfbench/inputs.py`` and each seed, the requests of
one cycle are built as the benchmark builds them and run in-process through
``phasedmatroids.cli.run``, with the input files in the working directory so
that no path differs between the sides.  Each side runs in one fresh
subprocess.  For each workload and seed the script prints the request count
and the sha256 of every request's exit code and stdout, per side.  It exits
0 when every request gives the same exit code and stdout on both sides, and
1 after naming the first request that differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _side(src, seeds):
    """Run every request of every workload and seed on the package in src;
    returns {workload: {seed: [[command, input, code, stdout], ...]}}."""
    sys.dont_write_bytecode = True  # leave no cache files in either tree
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    import inputs
    from phasedmatroids import cli

    results = {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for workload in inputs.WORKLOADS:
            for seed in seeds:
                instances, cycle = inputs.build(workload, seed)
                runs = []
                for req in cycle:
                    inst = instances[req.instance]
                    name = f"{'mat' if req.reads_matrix else 'phi'}-{req.instance}.json"
                    doc = inst.matrix_doc() if req.reads_matrix else inst.phirotope_doc()
                    Path(name).write_text(json.dumps(doc))
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        try:
                            code = cli.run([req.command, "--input", name])
                        except (Exception, SystemExit) as exc:
                            code = f"raised {type(exc).__name__}: {exc}"
                    runs.append([req.command, name, code, out.getvalue()])
                results.setdefault(workload, {})[str(seed)] = runs
    return results


def _digest(runs):
    h = hashlib.sha256()
    for _, _, code, stdout in runs:
        h.update(f"{code}\n{stdout}\n".encode())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:  # the child: old_src is the one tree to run
        json.dump(_side(args.old_src, args.seeds), sys.stdout)
        return 0

    sides = []
    for src in (args.old_src, args.new_src):
        if not (Path(src) / "phasedmatroids").is_dir():
            parser.error(f"{src} holds no phasedmatroids package")
        child = subprocess.run(
            [sys.executable, __file__, src, src, "--side", "--seeds", *map(str, args.seeds)],
            stdout=subprocess.PIPE, text=True, check=True)
        sides.append(json.loads(child.stdout))

    old, new = sides
    first = None
    for workload, by_seed in old.items():
        for seed, runs in by_seed.items():
            other = new[workload][seed]
            a, b = _digest(runs), _digest(other)
            print(f"{workload} seed {seed}: {len(runs)} requests, "
                  f"{'equal' if a == b else 'DIFFER'}\n  old {a}\n  new {b}")
            if first is None:
                first = next((f"{workload} seed {seed} request {k}: {run[0]} {run[1]}"
                              for k, (run, got) in enumerate(zip(runs, other)) if run != got), None)
    if first is not None:
        print(f"first difference: {first}")
        return 1
    print("every request equal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
