"""One benchmark worker: a fresh interpreter that imports crpla and drives its CLI.

    python3 bench/worker.py ROOT WORKDIR ROLE OUT [--seconds S | --ops N]

ROLE is ``setup`` (import and load the configs, then stop), ``run`` (call
``crpla.cli.main`` in a closed loop) or ``trace`` (the same loop with the
tracer installed).  The loop runs the calls of WORKDIR/plan.json in turn
until S seconds have passed or N calls are done.  Each worker writes its
timings, the captured output of every call and its peak RSS to
WORKDIR/OUT as JSON, and a traced worker its counters and spans to
WORKDIR/trace.json; the parent process checks and summarises them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def load_configs(calls) -> None:
    """Parse every config the calls name, with the loaders the CLI uses."""
    from crpla import params, sweep

    for argv in {tuple(a) for a in calls}:
        loader = sweep.load_sweep_spec if argv[0] == "sweep" else params.load_params
        loader(argv[argv.index("--config") + 1])


def run_calls(calls, seconds: float | None, ops: int | None, tracer=None) -> tuple[list, float]:
    """Call the CLI on ``calls`` in turn; return the per-call records and the loop time."""
    import crpla.cli

    records = []
    start = time.perf_counter()
    index = 0
    while True:
        if ops is not None and index >= ops:
            break
        if ops is None and index and time.perf_counter() - start >= seconds:
            break
        argv = calls[index % len(calls)]
        out, err = io.StringIO(), io.StringIO()
        rc = exc = None
        if tracer is not None:
            tracer.request = f"{os.path.basename(os.getcwd())}/{index}"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = crpla.cli.main(list(argv))
            except Exception:  # a crash is a failed operation, not the end of the run
                exc = traceback.format_exc()
            t1 = time.perf_counter()
        csv_text = None
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    csv_text = fh.read()
                os.remove(path)  # a later call that writes nothing must not pass on stale rows
        records.append(
            {
                "index": index,
                "s": t1 - t0,
                "rc": rc,
                "exc": exc,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "csv": csv_text,
            }
        )
        index += 1
    return records, time.perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root")
    parser.add_argument("workdir")
    parser.add_argument("role", choices=("setup", "run", "trace"))
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    args = parser.parse_args(argv)

    os.chdir(args.workdir)
    with open("plan.json", encoding="utf-8") as fh:
        calls = json.load(fh)["calls"]

    t0 = time.perf_counter()
    import crpla.cli

    import_s = time.perf_counter() - t0
    source = os.path.realpath(os.path.join(args.root, "src", "crpla"))
    if os.path.dirname(os.path.realpath(crpla.cli.__file__)) != source:
        print(f"error: imported crpla from {crpla.cli.__file__}, not {source}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    load_configs(calls)
    load_config_s = time.perf_counter() - t0
    result = {"ready": time.monotonic(), "import_s": import_s, "load_config_s": load_config_s}

    if args.role != "setup":
        tracer = None
        if args.role == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result["ops"], result["loop_s"] = run_calls(calls, args.seconds, args.ops, tracer)
        if tracer is not None:
            tracer.dump("trace.json")

    import numpy
    import scipy

    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
