"""Output checks of the benchmark.

An operation is one ``sweep`` call on the design map and one ``simulate``
check row on the Monte Carlo workloads.  It fails on a nonzero exit, a
traceback, or a failed output check:

* sweep: every row has b_tot = b_ch + b_key to 1e-9 relative, and at every
  point the HYBRID_OPT row is at least the CH row and the HYBRID row.  On
  the default seed every row also matches the reference rows recorded from
  the seed commit: b_tot to 1e-9 relative, alpha_used and h_min_used
  exactly.
* simulate: exit 0, no FAIL verdict, WARN only on attack_success, and the
  same table on every repeat of the same (seed, trials) call.  Counts are
  not pinned, so a documented change to the random streams still passes.
"""

from __future__ import annotations

import csv
import json
import math

CSV_HEADER = "swept_var,value,mechanism,alpha_used,h_min_used,b_ch,b_key,b_tot"
REL_TOL = 1e-9
SIMULATE_VERDICTS = {
    "false_alarm": {"PASS"},
    "false_alarm_asym": {"INFO"},
    "attack_success": {"PASS", "WARN"},
    "estimator_mean": {"PASS"},
    "estimator_variance": {"PASS"},
}


def check_curve(spec: dict, csv_text: str, reference: list[dict] | None = None) -> list[str]:
    """Problems found in the CSV of one sweep call (empty when it is correct)."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["missing or wrong CSV header"]
    expected = [(v, m) for v in spec["sweep"]["values"] for m in spec["mechanisms"]]
    if len(lines) - 1 != len(expected):
        return [f"{len(lines) - 1} rows, expected {len(expected)}"]
    problems = []
    b_tot: dict[tuple[float, str], float] = {}
    for n, (line, (value, mechanism)) in enumerate(zip(lines[1:], expected)):
        cells = line.split(",")
        try:
            if len(cells) != 8 or cells[0] != spec["sweep"]["variable"]:
                raise ValueError("wrong column count or swept variable")
            if float(cells[1]) != value or cells[2] != mechanism:
                raise ValueError(f"row is for ({cells[1]}, {cells[2]})")
            alpha, h_min, ch, key, tot = (float(c) for c in cells[3:])
        except ValueError as exc:
            problems.append(f"row {n}: {exc}")
            continue
        if not math.isclose(tot, ch + key, rel_tol=REL_TOL):
            problems.append(f"row {n}: b_tot {tot!r} != b_ch + b_key {ch + key!r}")
        b_tot[value, mechanism] = tot
        if reference is not None:
            ref = reference[n]
            if (ref["value"], ref["mechanism"]) != (cells[1], mechanism):
                problems.append(f"row {n}: reference row is for another point")
            elif float(ref["alpha_used"]) != alpha or float(ref["h_min_used"]) != h_min:
                problems.append(f"row {n}: argmax ({alpha}, {h_min}) differs from the reference")
            elif not math.isclose(tot, float(ref["b_tot"]), rel_tol=REL_TOL):
                problems.append(f"row {n}: b_tot {tot!r} differs from the reference {ref['b_tot']}")
    for value in spec["sweep"]["values"]:
        best = b_tot.get((value, "HYBRID_OPT"))
        for baseline in ("CH", "HYBRID"):
            other = b_tot.get((value, baseline))
            if best is not None and other is not None and best < other:
                problems.append(f"{value}: HYBRID_OPT b_tot {best!r} < {baseline} {other!r}")
    return problems


def simulate_table(stdout: str) -> list[tuple[str, str]]:
    """(check, verdict) rows of a ``simulate`` table, in printed order."""
    rows = []
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] in SIMULATE_VERDICTS:
            rows.append((fields[0], fields[-1]))
    return rows


def check_simulate(stdout: str) -> dict[str, str | None]:
    """Problem (or None) per expected check row of one ``simulate`` call."""
    verdicts = dict(simulate_table(stdout))
    result: dict[str, str | None] = {}
    for check, allowed in SIMULATE_VERDICTS.items():
        verdict = verdicts.get(check)
        if verdict is None:
            result[check] = "row missing"
        elif verdict not in allowed:
            result[check] = f"verdict {verdict}"
        else:
            result[check] = None
    return result


def load_reference(path: str) -> dict[int, list[dict]]:
    """Reference rows per curve index."""
    rows: dict[int, list[dict]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(int(row["curve"]), []).append(row)
    return rows


def _call_problem(op: dict, allowed_rc: tuple[int, ...]) -> str | None:
    if op.get("exc"):
        return "traceback: " + op["exc"].strip().splitlines()[-1]
    if "Traceback (most recent call last)" in op["stderr"]:
        return "traceback on stderr"
    if op["rc"] not in allowed_rc:
        return f"exit code {op['rc']}"
    return None


def check_ops(
    is_map: bool, files: dict[str, str], calls, ops: list[dict], reference=None
) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the recorded operations of one worker."""
    attempted = failed = 0
    problems: list[str] = []
    first_stdout = None
    for op in ops:
        index = op["index"] % len(calls)
        if is_map:
            attempted += 1
            problem = _call_problem(op, (0,))
            found = [problem] if problem else check_curve(
                json.loads(files[calls[index][2]]),
                op["csv"],
                None if reference is None else reference[index],
            )
            if found:
                failed += 1
                problems.extend(f"call {op['index']}: {p}" for p in found)
            continue
        attempted += len(SIMULATE_VERDICTS)
        # Exit code 3 reports a FAIL verdict; the row check below counts it.
        problem = _call_problem(op, (0, 3))
        if first_stdout is None:
            first_stdout = op["stdout"]
        if problem is None and op["stdout"] != first_stdout:
            problem = "table differs from the first call with the same seed and trials"
        if problem:
            failed += len(SIMULATE_VERDICTS)
            problems.append(f"call {op['index']}: {problem}")
            continue
        bad = {check: p for check, p in check_simulate(op["stdout"]).items() if p}
        if op["rc"] != 0 and not bad:
            bad = {"exit": f"exit code {op['rc']} without a FAIL row"}
        failed += len(bad)
        problems.extend(f"call {op['index']} {check}: {p}" for check, p in bad.items())
    return attempted, failed, problems
