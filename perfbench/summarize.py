"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/summarize.py --seeds 1-10 --seconds 20 [--workloads sweep cli] [--trace]

For every workload and seed it runs ``run.py`` once, then prints, per
end-to-end metric, the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median, plus the share of failed
operations.  With ``--trace`` it also makes the traced run of each seed
and reports per-layer medians and the tracing overhead (untraced over
traced ``ops_per_s``).  The whole summary goes to
``perfbench/out/summary.json`` and, as the tables of the README, to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("run.py failed on %s seed %d:\n%s" % (workload, seed, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", "%s-seed%d-trace%d.json" % (workload, seed, trace))) as fh:
        result["record"] = json.load(fh)
    return result


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=["sweep", "jring", "lifting", "cli"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    summary = {}
    for workload in args.workloads:
        runs = [run(workload, s, args.seconds, 0) for s in seeds(args.seeds)]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed_share": sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in runs}),
                 "attempted": [r["attempted"] for r in runs],
                 "metrics": {name: dict(stats([r["metrics"][name]["value"] for r in runs]),
                                        unit=runs[0]["metrics"][name]["unit"])
                             for name in runs[0]["metrics"]}}
        print("%s: correct=%s attempted=%s failed/attempted=%s"
              % (workload, entry["correct"], entry["attempted"], entry["failed_share"]))
        for name, st in entry["metrics"].items():
            print("  %-12s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %.3f"
                  % (name, st["median"], st["unit"], st["q1"], st["q3"], st["spread"]))
        if args.trace:
            traced = [run(workload, s, args.seconds, 1) for s in seeds(args.seeds)]
            entry["per_layer"] = {name: statistics.median(r["metrics"][name]["value"]
                                                          for r in traced)
                                  for name in traced[0]["metrics"]}
            plain = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in runs)
            with_trace = statistics.median(r["record"]["end_to_end"]["ops_per_s"] for r in traced)
            entry["trace_overhead"] = plain / with_trace
            print("  tracing overhead: untraced/traced ops_per_s = %.2f" % entry["trace_overhead"])
            for name, value in entry["per_layer"].items():
                if value:
                    print("  %-34s %.6g" % (name, value))
        summary[workload] = entry
    summary = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
               "seconds": args.seconds, "seeds": args.seeds, "workloads": summary}
    with open(os.path.join(HERE, "out", "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(markdown(summary))
    return 0


def markdown(summary: dict) -> str:
    """The summary as the tables of perfbench/README.md."""
    work = summary["workloads"]
    lines = ["Python %s, nproc %d, seeds %s, %s s per run." % (
        summary["python"], summary["nproc"], summary["seeds"], summary["seconds"]), "",
        "| workload | metric | unit | median | q1 | q3 | spread |", "|---|---|---|---|---|---|---|"]
    for name, entry in work.items():
        for metric, st in entry["metrics"].items():
            lines.append("| `%s` | `%s` | %s | %.4g | %.4g | %.4g | %.3f |" % (
                name, metric, st["unit"], st["median"], st["q1"], st["q3"], st["spread"]))
    lines += ["", "| workload | attempted per run | failed / attempted | tracing overhead |",
              "|---|---|---|---|"]
    for name, entry in work.items():
        lines.append("| `%s` | %d to %d | %s | %s |" % (
            name, min(entry["attempted"]), max(entry["attempted"]),
            ", ".join(entry["failed_share"]),
            "%.2f" % entry["trace_overhead"] if "trace_overhead" in entry else "-"))
    layers = [n for n in work if "per_layer" in work[n]]
    if layers:
        lines += ["", "| per-layer metric (median) | " + " | ".join("`%s`" % n for n in layers) + " |",
                  "|---|" + "---|" * len(layers)]
        for metric in work[layers[0]]["per_layer"]:
            lines.append("| `%s` | " % metric + " | ".join(
                "%.4g" % work[n]["per_layer"][metric] for n in layers) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
