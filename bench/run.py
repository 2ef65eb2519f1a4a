"""coopdyn benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload mfg_large --seed 0 --seconds 40 --trace 0

Run from the repository root. Each pass is a fresh interpreter
(bench/worker.py) that imports coopdyn from src/, writes the workload's
configs and runs them one after another through `coopdyn.cli.main`: a
closed loop with one client. Passes repeat until `--seconds` would be
exceeded (at least three), and every timing is the median over passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics: times are medians over traced passes, counts must repeat
exactly, process.cpu_s comes from the untraced passes and trace.overhead_s
is the traced median wall time minus the untraced one.

A pass fails a run when coopdyn exits non-zero or an output check fails;
a pass whose CSV digest differs from the first pass's fails one more run,
as does a traced pass whose counts differ from the first traced pass's.
The last line of standard output is the JSON result; the lines before it
give every metric with its unit, the failed/attempted runs, the CSV digest
and the run's metadata. The full record is also written to
bench/_work/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / "_work"
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
REQUIRED = ("src/coopdyn/__init__.py", "configs/mfg_simulate.json", "BENCHMARK.json")


def run_pass(workload: str, seed: int, traced: bool) -> tuple[dict | None, float]:
    """Start one worker; return its record (None if it crashed) and duration."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--t0", repr(t0), "--trace", str(int(traced)),
             "--work", str(WORK)],
            cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None, time.monotonic() - t0
    duration = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pass exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None, duration
    return json.loads(lines[-1]), duration


def git_sha() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> dict[str, int]:
    modules = sorted((ROOT / "src" / "coopdyn").glob("*.py"))
    counts = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in modules}
    counts["total"] = sum(counts.values())
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a coopdyn checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    WORK.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    records, durations = [], []
    crashed = 0
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        record, duration = run_pass(args.workload, args.seed, traced)
        durations.append(duration)
        if record is None:
            crashed += 1
        else:
            records.append(record)
        elapsed = time.monotonic() - start
        if crashed and not records:
            break  # the program cannot run at all; no point in retrying
        if len(durations) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    if not records:
        print("error: every pass crashed", file=sys.stderr)
        return 1

    runs_per_pass = records[0]["attempted"]
    attempted = runs_per_pass * (len(records) + crashed)
    failed = runs_per_pass * crashed
    digests = records[0]["digests"]
    for record in records:
        bad = dict(record["failures"])
        for name, value in record["digests"].items():
            if value != digests[name]:
                bad.setdefault(name, []).append("CSV bytes differ from the first pass")
        record["failures"] = bad
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no pass of a needed kind completed", file=sys.stderr)
        return 1

    def median(key, rows):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        metrics = {}
        first = traced[0]["layers"]
        for record in traced:
            if any(v != first[k] for k, v in record["layers"].items() if not k.endswith("_s")):
                record["failures"]["layer counts"] = ["differ from the first traced pass"]
        for name in first:
            values = [r["layers"][name] for r in traced]
            metrics[name] = statistics.median(values) if name.endswith("_s") else first[name]
        metrics["process.cpu_s"] = median("cpu_s", plain)
        metrics["trace.overhead_s"] = median("wall_s", traced) - median("wall_s", plain)
    else:
        metrics = {key: median(key, plain) for key in ("setup_s", "wall_s", "peak_rss_mb")}

    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(records),
        "git_sha": git_sha(),
        "python": records[0]["python"],
        "numpy": records[0]["numpy"],
        "blas_threads": records[0]["blas_threads"],
        "nproc": os.cpu_count(),
        "source_lines": source_lines(),
    }
    for record in records:
        for name, problems in record["failures"].items():
            print(f"failed run {name}: {'; '.join(problems)}", file=sys.stderr)
    # A pass fails at most every run it attempted.
    failed += sum(min(len(r["failures"]), runs_per_pass) for r in records)
    sha = workloads.combined_digest(digests)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit.get(k, "")} for k, v in metrics.items()},
    }
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "output_sha": sha, "meta": meta,
                               "passes": records}, indent=1) + "\n", encoding="utf-8")

    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"runs_failed {failed} count (runs_attempted {attempted} count)")
    print(f"output_sha {sha}")
    print(f"meta {json.dumps(meta)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
