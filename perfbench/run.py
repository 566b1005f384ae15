"""Benchmark of the phasedmatroids CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh worker
processes (worker.py) with BLAS and OpenMP pinned to one thread: first
SETUP_PROBES processes that only set up, then the measured run, so that
setup_s is a median and peak_rss_mb and cli.import_s belong to the workload.
Times are reported at the reference speed of reference.py: each measured time
is divided by the host's slowdown measured next to it in the same process; the
info line has the times as measured.

The second-to-last line of stdout describes the run (percentile of the tail
latency, sample count, error rate, machine); the last line is the result:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
of a run whose first half is untraced and whose second half is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "peak_rss_mb": "MiB", "setup_s": "s"}


def _layer_unit(name: str) -> str:
    if name == "cli.import_s":
        return "s"
    if name.endswith("_s"):
        return "s/req"
    if name.startswith("jsonio.bytes"):
        return "B/req"
    if name.startswith("realization.verdict."):
        return "count"
    return {"phirotopes.gp_terms_mb": "MiB", "phirotopes.gp_redundant_share": "ratio",
            "trace.host_slowdown": "ratio", "trace.overhead_pct": "%"}.get(name, "count/req")


def _worker(args, workdir, deadline, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in PINNED_THREADS})
    spawned = monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    if not (ROOT / "src" / "phasedmatroids" / "cli.py").is_file():
        print(f"no phasedmatroids sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [_worker(args, work / f"probe{i}", deadline, True) for i in range(SETUP_PROBES)]
        res = _worker(args, work / "run", deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    setups.append(res)
    setup_s = statistics.median(s["setup_s"] / s["setup_slowdown"] for s in setups)

    if args.trace:
        metrics = res["per_layer"]
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {"throughput_rps": res["rps"], "latency_p50_ms": res["p50_ms"],
                   "latency_tail_ms": res["tail_ms"], "peak_rss_mb": res["peak_rss_mb"],
                   "setup_s": setup_s}
        units = UNITS
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "error_rate": res["failed"] / res["attempted"], "failures": res["failures"],
            "setup_s_measured": [s["setup_s"] for s in setups],
            "setup_slowdowns": [s["setup_slowdown"] for s in setups],
            "waited_s": "zero by construction: one caller, no pool",
            "nproc": len(os.sched_getaffinity(0)), "python": res["python"], "numpy": res["numpy"],
            "threads_pinned": {name: "1" for name in PINNED_THREADS}}
    if not args.trace:
        info.update(latency_tail_percentile=res["tail_pct"], latency_samples=res["samples"],
                    host_slowdown=res["slowdown"], measured=res["raw"])
    print(json.dumps(info))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
