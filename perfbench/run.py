"""jcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep,jring,lifting,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; jcalc is imported from ``src``.
The workload runs in a fresh single-threaded process (``worker.py``);
an untraced run first starts SETUP_RUNS - 1 processes that only set up,
so that ``setup_s`` is the median of SETUP_RUNS set-ups.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The full record of the run goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "jring", "lifting", "cli")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.startswith("cli."):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_per_dim"):
        return "ratio"
    return "s/op" if name.endswith("self_s") else "1/op"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("JCALC_OUTPUT", None)
    return env


def run_worker(args, setup_only: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
            str(args.seconds), str(args.trace), repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker for %s exited with %d" % (args.workload, proc.returncode))
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "jcalc", "__init__.py")):
        sys.stderr.write("run.py: src/jcalc not found; run from the root of a jcalc checkout\n")
        return 2

    extra_setups = 0 if args.trace else SETUP_RUNS - 1   # a traced run reports no setup_s
    setups = [run_worker(args, True)["setup_s"] for _ in range(extra_setups)]
    record = run_worker(args, False)
    setups.append(record["setup_s"])
    record["setup_runs_s"] = setups
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in record["per_layer"].items()}
    else:
        values = dict(record["end_to_end"], setup_s=statistics.median(setups))
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    for problem in record["errors"]:
        sys.stderr.write("check failed: %s\n" % problem)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                            args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
