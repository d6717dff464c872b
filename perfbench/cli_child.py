"""Traced stand-in for ``python -m jcalc.cli``, used by the traced `cli` run.

Runs ``jcalc.cli.execute`` on argv exactly as the module entry point
does, and appends one JSON line with the import and handler times to the
file named by the environment variable PERFBENCH_CLI_TIMES.
"""

import json
import os
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import jcalc.cli as cli
    times = {"import_s": time.perf_counter() - t0, "handler_s": 0.0}

    def timed(handler):
        def run(args):
            start = time.perf_counter()
            try:
                return handler(args)
            finally:
                times["handler_s"] += time.perf_counter() - start
        return run

    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        setattr(cli, name, timed(getattr(cli, name)))
    try:
        code = cli.execute(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_CLI_TIMES"], "a") as fh:
            fh.write(json.dumps(times) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
