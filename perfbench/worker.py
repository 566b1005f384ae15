"""One workload in one fresh process: import, generate, warm up, measure, check.

run.py starts this script once per set-up probe (--setup-only, which stops
where the first timed request would start) and once for the measured run.
The measured run prints one JSON line with its results.

Requests form a closed loop with one caller and no threads: each request is a
generated JSON file handed in-process to phasedmatroids.cli.run, whose stdout
is captured, and the next request is sent when it returns.  Whole cycles of
the workload run until --seconds have passed, with a run of the host-speed
reference (reference.py) before and after each cycle, not timed as a request.
No layer queues work, so the time a request waits is zero by construction and
is not measured.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import sys
from importlib import import_module
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _gp_counts(args, result):
    phi = args[0]
    pairs = math.comb(phi.n, phi.r + 1) * math.comb(phi.n, phi.r - 1)
    return {"gp_pairs": pairs, "gp_violations": len(result),
            "gp_terms_mb": pairs * (phi.r + 1) * 16 / 2**20}


def _exchange_counts(args, result):
    m = args[0]
    uniform = len(m.bases) == math.comb(m.ground_size, m.rank)
    return {"exchange_bases": 0 if uniform else len(m.bases)}


# (owner, attribute, span, counter): each function is patched where the
# program looks it up, so that calls from inside the package are seen too.
PATCHES = [
    ("phasedmatroids.jsonio", "phirotope_from_json", "jsonio.parse", None),
    ("phasedmatroids.jsonio", "matrix_from_json", "jsonio.parse", None),
    ("phasedmatroids.jsonio", "dumps", "jsonio.emit", None),
    ("phasedmatroids.jsonio", "phirotope_to_json", "jsonio.emit", None),
    ("phasedmatroids.jsonio", "canonicalization_to_json", "jsonio.emit", None),
    ("phasedmatroids.jsonio", "verdict_to_json", "jsonio.emit", None),
    ("phasedmatroids.jsonio", "forest_to_json", "jsonio.emit", None),
    ("phasedmatroids.jsonio", "witness_to_json", "jsonio.emit", None),
    ("phasedmatroids.cli", "_violations_json", "jsonio.emit", None),
    ("phasedmatroids.phirotopes", "all_maximal_minors", "matrices.minors",
     lambda a, res: {"minors": len(res)}),
    ("phasedmatroids.realization", "all_maximal_minors", "matrices.minors",
     lambda a, res: {"minors": len(res)}),
    ("phasedmatroids.phirotopes:Phirotope", "check_gp", "phirotopes.check_gp", _gp_counts),
    ("phasedmatroids.phirotopes:UnderlyingMatroid", "check_exchange",
     "phirotopes.check_exchange", _exchange_counts),
    ("phasedmatroids.cli", "from_matrix", "phirotopes.from_matrix", None),
    ("phasedmatroids.canonical", "rephase", "phirotopes.rephase", None),
    ("phasedmatroids.phirotopes", "zero_in_hypersum_batch", "phases.hypersum_batch",
     lambda a, res: {"hypersum_rows": len(res)}),
    ("phasedmatroids.realization", "triangle_solve", "phases.triangle_solve",
     lambda a, res: {"triangle_solves": 1}),
    ("phasedmatroids.realization", "canonicalize", "canonical.canonicalize", None),
    ("phasedmatroids.cli", "canonicalize", "canonical.canonicalize", None),
    ("phasedmatroids.canonical", "canonical_spanning_forest", "canonical.forest", None),
    ("phasedmatroids.cli", "canonical_spanning_forest", "canonical.forest", None),
    ("phasedmatroids.realization", "reconstruct", "realization.reconstruct", None),
    ("phasedmatroids.realization", "verify", "realization.verify",
     lambda a, res: {"verify_bases": math.comb(a[0].n, a[0].r)}),
    ("phasedmatroids.cli", "verify", "realization.verify",
     lambda a, res: {"verify_bases": math.comb(a[0].n, a[0].r)}),
    ("phasedmatroids.cli", "decide_realizability", "realization.decide", None),
]

# per-layer metric -> span whose self time it sums, per request
SELF_TIMES = {
    "cli.run_self_s": "cli.run",
    "jsonio.parse_s": "jsonio.parse",
    "jsonio.emit_s": "jsonio.emit",
    "matrices.minors_s": "matrices.minors",
    "phirotopes.check_gp_s": "phirotopes.check_gp",
    "phirotopes.check_exchange_s": "phirotopes.check_exchange",
    "phirotopes.from_matrix_s": "phirotopes.from_matrix",
    "phirotopes.rephase_s": "phirotopes.rephase",
    "phases.hypersum_batch_s": "phases.hypersum_batch",
    "phases.triangle_solve_s": "phases.triangle_solve",
    "canonical.canonicalize_s": "canonical.canonicalize",
    "canonical.forest_s": "canonical.forest",
    "realization.reconstruct_s": "realization.reconstruct",
    "realization.verify_s": "realization.verify",
    "realization.decide_self_s": "realization.decide",
}
# per-layer metric -> span count it sums, per request
COUNTS = {
    "matrices.minors": "minors",
    "phirotopes.gp_pairs": "gp_pairs",
    "phirotopes.gp_violations": "gp_violations",
    "phirotopes.exchange_bases": "exchange_bases",
    "phases.hypersum_rows": "hypersum_rows",
    "phases.triangle_solves": "triangle_solves",
    "realization.verify_bases": "verify_bases",
}
VERDICTS = {("Realizable", None): "realization.verdict.realizable",
            ("NotRealizable", None): "realization.verdict.not_realizable",
            ("Unsupported", "not_a_phirotope"): "realization.verdict.not_a_phirotope"}


def install(recorder):
    for owner, attr, span, counter in PATCHES:
        module, _, cls = owner.partition(":")
        target = import_module(module)
        if cls:
            target = getattr(target, cls, None)
        if target is not None:
            recorder.patch(target, attr, span, counter)


class Loop:
    """The closed loop of requests, and what each returned."""

    def __init__(self, run, argvs, reference):
        self.run = run
        self.argvs = argvs
        self.reference = reference
        self.positions = []    # cycle position of each request sent
        self.out_bytes = []    # response size of each request
        self.first = {}        # cycle position -> (exit code, response) of its first request
        self.bad = {}          # request -> why it failed, for failures seen while sending

    def send(self, argv):
        buf, saved = io.StringIO(), sys.stdout
        sys.stdout = buf
        try:
            start = perf_counter()
            try:
                code = self.run(argv)
            except (Exception, SystemExit) as exc:
                code = f"raised {type(exc).__name__}: {exc}"
            latency = perf_counter() - start
        finally:
            sys.stdout = saved
        return latency, code, buf.getvalue()

    def measure(self, seconds, before_request=None):
        """Whole cycles until `seconds` of them have passed, with one run of
        the reference before and after each cycle.  Returns the latencies, the
        host slowdown of each request's cycle (mean of the two references
        around it), and the seconds of cycles as measured and as adjusted."""
        latencies, slowdowns, elapsed, adjusted = [], [], 0.0, 0.0
        before = self.reference.once()
        while elapsed < seconds:
            start = perf_counter()
            for pos, argv in enumerate(self.argvs):
                k = len(self.positions)
                if before_request is not None:
                    before_request(k)
                latency, code, text = self.send(argv)
                latencies.append(latency)
                self.positions.append(pos)
                self.out_bytes.append(len(text))
                if isinstance(code, str):
                    self.bad[k] = code
                elif pos not in self.first:
                    self.first[pos] = (code, text)
                elif self.first[pos] != (code, text):
                    self.bad[k] = "response differs from the first response to the same request"
            cycle = perf_counter() - start
            after = self.reference.once()
            slow = self.reference.slowdown([before, after])
            slowdowns += [slow] * (len(latencies) - len(slowdowns))
            elapsed += cycle
            adjusted += cycle / slow
            before = after
        return latencies, slowdowns, elapsed, adjusted


def write_inputs(work, instances, cycle):
    """One file per document read; returns each request's argv and input bytes."""
    argvs, raws, written = [], [], {}
    for req in cycle:
        inst = instances[req.instance]
        name = f"{'mat' if req.reads_matrix else 'phi'}-{req.instance}.json"
        if name not in written:
            doc = inst.matrix_doc() if req.reads_matrix else inst.phirotope_doc()
            written[name] = json.dumps(doc).encode()
            (work / name).write_bytes(written[name])
        argvs.append([req.command, "--input", str(work / name)])
        raws.append(written[name])
    manifest = [{"command": req.command, "r": instances[req.instance].r,
                 "n": instances[req.instance].n, "kind": instances[req.instance].kind,
                 "expected": instances[req.instance].expected, "input": argv[2]}
                for req, argv in zip(cycle, argvs)]
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return argvs, raws


def warm_up(loop, instances, cycle):
    """Each command once, on its smallest input."""
    smallest = {}
    for pos, req in enumerate(cycle):
        inst = instances[req.instance]
        size = math.comb(inst.n, inst.r)
        if req.command not in smallest or size < smallest[req.command][0]:
            smallest[req.command] = (size, pos)
    for _, pos in smallest.values():
        loop.send(loop.argvs[pos])


def failures(loop, instances, cycle, raws):
    """Request index -> reason, for every request that failed."""
    import certify  # imports numpy, which must not load before the timed cli import

    rejected = {}
    for pos, (code, text) in loop.first.items():
        req = cycle[pos]
        reason = certify.check(req, instances[req.instance], code, text, raws[pos])
        if reason:
            rejected[pos] = f"{req.command} #{pos}: {reason}"
    by_instance = {}
    for pos, req in enumerate(cycle):
        by_instance.setdefault(req.instance, {})[req.command] = pos
    for cmds in by_instance.values():
        v, r = cmds.get("validate"), cmds.get("realize")
        if v in loop.first and r in loop.first and v not in rejected and r not in rejected:
            reason = certify.cross_check(loop.first[v][1], loop.first[r][1])
            if reason:
                rejected[r] = f"realize #{r}: {reason}"
    out = dict(loop.bad)
    for k, pos in enumerate(loop.positions):
        if pos in rejected:
            out.setdefault(k, rejected[pos])
    return out


def latency_summary(latencies, slowdowns, elapsed, adjusted):
    """Throughput, median, and the highest percentile with >= 10 samples above
    it, adjusted to the reference speed request by request, and as measured."""
    n = len(latencies)
    tail_rank = n - 11 if n > 10 else n - 1

    def stats(lat, seconds):
        ordered = sorted(lat)
        return {"rps": n / seconds, "p50_ms": statistics.median(ordered) * 1e3,
                "tail_ms": ordered[tail_rank] * 1e3}

    out = stats([t / s for t, s in zip(latencies, slowdowns)], adjusted)
    out.update(raw=stats(latencies, elapsed), slowdown=elapsed / adjusted,
               tail_pct=100.0 * (tail_rank + 1) / n, samples=n)
    return out


def _verdict(text):
    try:
        res = json.loads(text)["result"]
    except (ValueError, KeyError, TypeError):
        return None
    return res.get("verdict"), (res.get("reason") if res.get("verdict") == "Unsupported" else None)


def per_layer(recorder, loop, first_traced, raws, untraced, traced, import_s):
    requests = range(first_traced, len(loop.positions))
    n = len(requests)
    by_name = {}  # span name -> [(request, self time, counts)]
    for span, own in zip(recorder.spans, recorder.self_times()):
        by_name.setdefault(span[0], []).append((span[4], own, span[5] or {}))
    out = {metric: sum(own for _, own, _ in by_name.get(span, ())) / n
           for metric, span in SELF_TIMES.items()}
    for metric, key in COUNTS.items():
        out[metric] = sum(c.get(key, 0) for spans in by_name.values() for _, _, c in spans) / n
    gp = by_name.get("phirotopes.check_gp", [])
    verdicts = {k: _verdict(loop.first.get(loop.positions[k], (None, ""))[1])
                if loop.argvs[loop.positions[k]][0] == "realize" else None for k in requests}
    pairs = sum(c.get("gp_pairs", 0) for _, _, c in gp)
    redundant = sum(c.get("gp_pairs", 0) for k, _, c in gp if verdicts.get(k) == ("Realizable", None))
    out["phirotopes.gp_terms_mb"] = max((c.get("gp_terms_mb", 0.0) for _, _, c in gp), default=0.0)
    out["phirotopes.gp_redundant_share"] = redundant / pairs if pairs else 0.0
    out["canonical.calls"] = len(by_name.get("canonical.canonicalize", ())) / n
    for name in list(VERDICTS.values()) + ["realization.verdict.other"]:
        out[name] = 0
    for v in verdicts.values():
        if v is not None:
            out[VERDICTS.get(v, "realization.verdict.other")] += 1
    out["jsonio.bytes_in"] = sum(len(raws[loop.positions[k]]) for k in requests) / n
    out["jsonio.bytes_out"] = sum(loop.out_bytes[k] for k in requests) / n
    out["cli.import_s"] = import_s
    out["trace.request_s"] = traced["raw"]["rps"] ** -1
    out["trace.host_slowdown"] = traced["slowdown"]
    out["trace.overhead_pct"] = 100.0 * (1.0 - traced["rps"] / untraced["rps"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    from phasedmatroids import cli
    import_s = perf_counter() - start

    import numpy

    import inputs
    import reference

    instances, cycle = inputs.build(args.workload, args.seed)
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    argvs, raws = write_inputs(work, instances, cycle)
    loop = Loop(cli.run, argvs, reference)
    warm_up(loop, instances, cycle)
    setup_s = monotonic() - args.spawned
    setup = {"setup_s": setup_s,
             "setup_slowdown": reference.slowdown([reference.once() for _ in range(3)])}
    if args.setup_only:
        print(json.dumps(setup))
        return

    result = dict(setup, python=sys.version.split()[0], numpy=numpy.__version__)
    if not args.trace:
        result.update(latency_summary(*loop.measure(args.seconds)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import spans

        untraced = latency_summary(*loop.measure(args.seconds / 2))
        recorder = spans.Recorder()
        first_traced = len(loop.positions)

        def before_request(k):
            recorder.request = k

        run = loop.run
        try:
            install(recorder)
            loop.run = recorder.wrap("cli.run", run)
            traced = latency_summary(*loop.measure(args.seconds / 2, before_request))
        finally:
            loop.run = run
            recorder.unpatch()
        result["per_layer"] = per_layer(recorder, loop, first_traced, raws, untraced, traced,
                                        import_s)
        out_dir = ROOT / "perfbench" / "_out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")

    failed = failures(loop, instances, cycle, raws)
    result.update(attempted=len(loop.positions), failed=len(failed),
                  failures=sorted(set(failed.values()))[:5])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
