"""Record the reference rows of the design map on the default seed:

    python3 bench/record_reference.py

Runs every curve of ``opt_map_cold`` once through the CLI and writes
alpha_used, h_min_used and b_tot of each row to reference/.  The rows in
the repository were recorded from the commit that added the benchmark;
re-record them only for a change that is meant to move the optimizer.
"""

from __future__ import annotations

import csv
import shutil
import sys
import time

from run import DEFAULT_SEED, REFERENCE, prepare, spawn
from workloads import WORKLOADS


def main() -> int:
    workload = WORKLOADS["opt_map_cold"]
    inputs, workdir = prepare(workload, DEFAULT_SEED, 0)
    run = spawn(workdir, time.monotonic() + 600, "run", "run.json", ops=len(inputs.calls))
    with open(REFERENCE, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("curve", "value", "mechanism", "alpha_used", "h_min_used", "b_tot"))
        for op in run["ops"]:
            if op["rc"] != 0 or op["csv"] is None:
                print(f"error: curve {op['index']} failed: {op['stderr']}", file=sys.stderr)
                return 1
            for row in csv.DictReader(op["csv"].splitlines()):
                out.writerow(
                    (op["index"], row["value"], row["mechanism"], row["alpha_used"],
                     row["h_min_used"], row["b_tot"])
                )  # fmt: skip
    shutil.rmtree(workdir)
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
