"""One workload in one fresh single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE T0 [--setup-only]

T0 is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start.  The last line of
stdout is one JSON object.  ``run.py`` is the command to use; this file
is its child.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: at least (100 - pct)% of values lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def min_ops(tail_pct: float) -> int:
    """Operations a run needs so that ten of them lie beyond the tail percentile."""
    return 1 if tail_pct >= 100 else math.ceil(10 / (1 - tail_pct / 100.0))


def measure(mod, ops, seconds: float):
    """Whole rounds of ops until both the time and the operation count are reached.

    Returns the op times, the wall time, the counts, the first outcome of
    each op (to be checked) and a note for any op whose output changed
    between rounds.
    """
    need = min_ops(mod.TAIL_PCT)
    times, by_label, first, seen, errors = [], {}, {}, {}, []
    attempted = failed = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        for label, fn in ops:
            t0 = time.perf_counter()
            try:
                outcome = ("ok", fn())
            except Exception as exc:   # an operation's failure is data, not a crash
                outcome = ("raised", exc)
            times.append(time.perf_counter() - t0)
            by_label.setdefault(label, []).append(times[-1])
            attempted += 1
            failed += mod.is_failure(label, outcome)
            digest = mod.digest(outcome)
            if label not in first:
                first[label], seen[label] = outcome, digest
            elif seen[label] != digest and len(errors) < 3:
                errors.append("%s: output changed between rounds" % label)
        if time.perf_counter() - start >= seconds and attempted >= need:
            break
    wall = time.perf_counter() - start
    medians = {label: statistics.median(ts) * 1e3 for label, ts in by_label.items()}
    return times, wall, attempted, failed, first, errors, medians


def cli_probes(n: int = 5) -> dict:
    """Interpreter start and import times of fresh processes, in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    interp, imp, imp_sympy = [], [], []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import jcalc"],
                              env=env, capture_output=True, text=True, check=True)
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cum.setdefault(parts[2].strip(), int(parts[1]))
        imp.append(cum.get("jcalc", 0) / 1e3)
        imp_sympy.append(cum.get("sympy", 0) / 1e3)
    return {"cli.interp_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imp),
            "cli.import_sympy_ms": statistics.median(imp_sympy)}


# Per-layer metric -> span name whose (calls, self time) it reads.
SPANS = {
    "polynomial.exact_div": "polynomial.Poly.exact_div",
    "polynomial.mul": "polynomial.Poly.mul",
    "truncated_ring.mul": "truncated_ring.RingElement.mul",
    "truncated_ring.closure": "truncated_ring.subring_closure",
    "motive.factor": "motive.factor",
    "motive.m_positive": "motive.is_m_positive",
    "idempotent_lab.matmul": "idempotent_lab.ModMatrix.mul",
}
LAYER_METRICS = (
    "polynomial.exact_div.calls", "polynomial.exact_div.self_s",
    "polynomial.mul.calls", "polynomial.mul.self_s", "polynomial.calls", "polynomial.self_s",
    "sweep.self_s", "sweep.cases", "sweep.divisions", "sweep.division_ratio",
    "root_data.calls", "root_data.self_s", "kac_table.calls", "kac_table.self_s",
    "jinvariant.calls", "jinvariant.self_s",
    "truncated_ring.calls", "truncated_ring.self_s", "truncated_ring.mul.calls",
    "truncated_ring.closure.self_s", "truncated_ring.closure_dim",
    "truncated_ring.products_per_dim",
    "motive.calls", "motive.self_s", "motive.factor.self_s", "motive.m_positive.calls",
    "idempotent_lab.calls", "idempotent_lab.self_s", "idempotent_lab.matmul.calls",
    "cli.interp_ms", "cli.import_ms", "cli.import_sympy_ms", "cli.handler_ms",
)


def layer_metrics(tracer, ops: int, cli: dict) -> dict:
    """Every per-layer metric, counts and self times per operation."""
    c = tracer.counters
    cases, dims = c["sweep.cases"], c["truncated_ring.closure_dim"]
    products = tracer.totals(SPANS["truncated_ring.mul"])[0]
    derived = {
        "sweep.cases": cases / ops,
        "sweep.divisions": c["sweep.divisions"] / ops,
        "sweep.division_ratio": c["sweep.divisions"] / cases if cases else 0.0,
        "truncated_ring.closure_dim": dims / ops,
        "truncated_ring.products_per_dim": products / dims if dims else 0.0,
    }
    out = {}
    for name in LAYER_METRICS:
        if name in derived:
            out[name] = derived[name]
        elif name in cli:
            out[name] = cli[name]
        else:
            head, stat = name.rsplit(".", 1)
            calls, self_s = (tracer.totals(SPANS[head]) if head in SPANS
                             else tracer.layer_totals(head))
            out[name] = (calls if stat == "calls" else self_s) / ops
    return out


def main(argv) -> int:
    workload, seed, seconds, trace, t0 = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", float(argv[4])
    setup_only = "--setup-only" in argv
    sys.path.insert(0, HERE)
    mod = importlib.import_module("w_" + workload)
    inp = mod.build(seed, trace)
    mod.warm(inp)
    ops = mod.ops(inp)
    setup_s = time.monotonic() - t0
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if trace and workload != "cli":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        ops = [(label, tracer.root(fn)) for label, fn in ops]
    times, wall, attempted, failed, first, errors, medians = measure(mod, ops, seconds)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    for label, outcome in first.items():
        if mod.is_failure(label, outcome):
            continue
        problem = mod.check(inp, label, outcome)
        if problem and len(errors) < 10:
            errors.append("%s: %s" % (label, problem))

    result = {
        "workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
        "correct": not errors, "errors": errors, "rounds": attempted // len(ops),
        "tail_pct": mod.TAIL_PCT, "setup_s": setup_s, "op_ms_by_label": medians,
        "end_to_end": {
            "ops_per_s": attempted / wall,
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": percentile(times, mod.TAIL_PCT) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        extra = cli_probes()
        handler = []
        if workload == "cli":
            with open(inp["times_file"]) as fh:
                handler = [json.loads(line)["handler_s"] * 1e3 for line in fh if line.strip()]
            os.unlink(inp["times_file"])
        extra["cli.handler_ms"] = statistics.median(handler) if handler else 0.0
        if tracer is None:
            from tracer import Tracer
            tracer = Tracer()
        result["per_layer"] = layer_metrics(tracer, attempted, extra)
        result["spans_dropped"] = tracer.dropped
        spans = os.path.join(HERE, "out", "spans-%s-%d.json" % (workload, seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.write(spans)
        result["spans_file"] = os.path.relpath(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
