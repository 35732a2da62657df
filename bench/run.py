"""Benchmark of the crpla command line, run from the root of a checkout:

    python3 bench/run.py --workload opt_map_cold --seed 1 --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json; bench/README.md says
why each exists and which layer metric should move which end-to-end one.

Every worker is a fresh interpreter that imports crpla from ``src/`` and
calls ``crpla.cli.main`` with explicit argv at ``--jobs 1``, so caches
start as cold as they do for a user of the CLI.  ``--trace 0`` measures
the end-to-end metrics: set-up time over several fresh interpreters, then
a closed loop of CLI calls for ``--seconds``.  ``--trace 1`` runs a fixed
number of calls twice, untraced and traced, and reports the per-layer
counters of the traced worker and the difference in wall time.

Every call's output is checked (see checks.py).  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every check passed.  Run
artifacts (result.json, trace.json) stay under .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_ops, load_reference, simulate_table
from workloads import BASE_CONFIG, MC_TRIALS, SIMULATE_CHECKS, WORKLOADS, Inputs, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
REFERENCE = BENCH / "reference" / "opt_map_cold_seed1.csv"
SETUP_RUNS = 5  # set-up-only interpreters per run, besides the measuring worker
DEADLINE_S = 170.0  # every worker of one run must finish within this many seconds
REQUIRED = ("src/crpla/__init__.py", "src/crpla/cli.py", BASE_CONFIG)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def quantile(samples, q: float) -> float:
    """The q-quantile of ``samples``, interpolating linearly between order statistics."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(xs) - 1)
    return xs[low] + (xs[high] - xs[low]) * (pos - low)


def spawn(workdir: Path, deadline: float, role: str, out: str, **limit) -> dict:
    """Run one worker to completion and return its result, with its set-up time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(workdir), role, out]
    for key, value in limit.items():
        cmd += [f"--{key}", str(value)]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{role} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads((workdir / out).read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    return result


def output_rows(op: dict) -> int:
    if op["csv"] is not None:
        return max(0, len(op["csv"].splitlines()) - 1)
    return len(simulate_table(op["stdout"]))


def end_to_end(workload: Workload, workers: list[dict], run: dict) -> tuple[dict, dict]:
    """(gated metrics, reported extras) of an untraced run.

    The gated latency is the 90th percentile of the call times.  The speed
    of the shared host this benchmark was tuned on moves between a fast and
    a slow state (about 1.5x apart) over seconds to minutes.  Every run saw
    the slow state, but not every run saw the fast one, so the 90th
    percentile repeated across runs where the median and the 10th
    percentile did not.  Those two and the throughput are still reported.
    """
    ops = run["ops"]
    latencies = [op["s"] for op in ops]
    busy = sum(latencies)
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "call_ms_p90": quantile(latencies, 0.9) * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extras = {
        "calls": len(ops),
        "calls_above_p90": sum(x * 1e3 > metrics["call_ms_p90"] for x in latencies),
        "setup_samples": len(workers),
        "call_ms_p10": quantile(latencies, 0.1) * 1e3,
        "call_ms_p50": statistics.median(latencies) * 1e3,
        "rows_per_s": sum(output_rows(op) for op in ops) / busy,
    }
    if not workload.is_map:
        extras["trials_per_s"] = SIMULATE_CHECKS * MC_TRIALS * len(ops) / busy
    return metrics, extras


def per_layer(stats: dict, plain: dict, traced: dict, names) -> dict:
    """Per-layer metrics from the traced worker's counters."""

    def stat(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def rate(name: str, count_key: str) -> float:
        seconds = stat(name, "total_s")
        return stat(name, count_key) / seconds if seconds else 0.0

    misses = stat("specfun.uniform_expectation", "calls") / 3  # three moments per miss
    lookups = stat("coding.b_key_hybrid", "calls")
    special = {
        "coding.moments.misses": misses,
        "coding.moments.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "hybrid.cells_per_s": rate("hybrid.optimize", "cells"),
        "sweep.write_csv.bytes": stat("sweep.write_csv", "bytes"),
        "montecarlo.blocks": stat("montecarlo", "blocks"),
        "setup.import_s": statistics.median([plain["import_s"], traced["import_s"]]),
        "setup.load_config_s": statistics.median([plain["load_config_s"], traced["load_config_s"]]),
        "trace.overhead_s": traced["loop_s"] - plain["loop_s"],
    }
    metrics = {}
    for name in names:
        prefix, _, field = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif field == "calls":
            metrics[name] = stat(prefix, "calls")
        elif field == "self_s":
            metrics[name] = stat(prefix, "self_s")
        elif field == "s":
            metrics[name] = stat(prefix, "total_s")
        elif field == "trials_per_s":
            metrics[name] = rate(prefix, "trials")
        elif field == "peak_alloc_mb":
            metrics[name] = stat(prefix, "peak_alloc_bytes") / 2**20
        else:
            raise BenchError(f"no rule computes the per-layer metric {name!r}")
    return metrics


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions, "git_rev": git_rev()}


def prepare(workload: Workload, seed: int, trace: int) -> tuple[Inputs, Path]:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"{ROOT} is not a crpla checkout: missing {', '.join(missing)}")
    base = json.loads((ROOT / BASE_CONFIG).read_text(encoding="utf-8"))
    inputs = workload.inputs(seed, base)
    workdir = WORK / f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, text in inputs.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    (workdir / "plan.json").write_text(json.dumps({"calls": inputs.calls}), encoding="utf-8")
    return inputs, workdir


def measure(args: argparse.Namespace, spec: dict) -> dict:
    workload = WORKLOADS[args.workload]
    inputs, workdir = prepare(workload, args.seed, args.trace)
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        ops = workload.trace_ops(args.seconds)
        plain = spawn(workdir, deadline, "run", "run.json", ops=ops)
        traced = spawn(workdir, deadline, "trace", "trace-run.json", ops=ops)
        stats = json.loads((workdir / "trace.json").read_text(encoding="utf-8"))["stats"]
        entries = spec["per_layer"]
        values = per_layer(stats, plain, traced, [e["name"] for e in entries])
        extras = {"calls": ops}
        workers = [plain, traced]
    else:
        setups = [
            spawn(workdir, deadline, "setup", f"setup-{i}.json") for i in range(SETUP_RUNS)
        ]
        run = spawn(workdir, deadline, "run", "run.json", seconds=args.seconds)
        entries = spec["end_to_end"]
        values, extras = end_to_end(workload, setups + [run], run)
        workers = [run]
    if set(values) != {e["name"] for e in entries}:
        raise BenchError(f"computed metrics {sorted(values)} do not match BENCHMARK.json")

    reference = None
    if workload.is_map and args.seed == DEFAULT_SEED:
        reference = load_reference(str(REFERENCE))
    attempted = failed = 0
    problems: list[str] = []
    for worker in workers:
        a, f, p = check_ops(workload.is_map, inputs.files, inputs.calls, worker["ops"], reference)
        attempted, failed, problems = attempted + a, failed + f, problems + p

    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": inputs.sha256(),
        "reference_checked": reference is not None,
        "machine": machine(workers[0]["versions"]),
        "metrics": metrics,
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:100],
        "call_s": [op["s"] for op in workers[-1]["ops"]],
    }
    for path in workdir.iterdir():  # keep the result and the trace, not the inputs or raw outputs
        if path.name not in ("result.json", "trace.json"):
            path.unlink()
    (workdir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    result["workdir"] = str(workdir.relative_to(ROOT))
    return result


def summary(result: dict) -> list[str]:
    extras = result["extras"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"inputs sha256 {result['inputs_sha256']}",
        f"results in {result['workdir']}/result.json; reference rows checked: "
        f"{'yes' if result['reference_checked'] else 'no'}",
    ]

    def line(name, value, unit, note=""):
        lines.append(f"  {name:<48} {value:>14.6g} {unit}{note}")

    for name, metric in result["metrics"].items():
        line(name, metric["value"], metric["unit"])
    if not result["trace"]:
        above = extras["calls_above_p90"]
        thin = " (fewer than 10: it is near the slowest call)" if above < 10 else ""
        lines.append(
            f"  {extras['calls']} calls, {above} above call_ms_p90{thin}; "
            f"{extras['setup_samples']} set-up samples.  Reported, not gated:"
        )
        line("call_ms_p10", extras["call_ms_p10"], "ms")
        line("call_ms_p50", extras["call_ms_p50"], "ms")
        line("rows_per_s", extras["rows_per_s"], "1/s")
        if "trials_per_s" in extras:
            line("trials_per_s", extras["trials_per_s"], "1/s")
    line("error_rate", result["failed"] / result["attempted"], "ratio",
         f" ({result['failed']} of {result['attempted']} operations failed)")
    lines.extend(f"  FAILED {p}" for p in result["problems"][:20])
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = measure(args, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary(result):
        print(line)
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
