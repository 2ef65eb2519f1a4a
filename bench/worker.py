"""One pass of a benchmark workload in a fresh interpreter.

Started by run.py, never by hand: it imports coopdyn from src/, writes the
workload's configs to a temp dir (set-up), runs every config through
`coopdyn.cli.main` in-process (the timed pass), then checks the artifacts
and prints one JSON record as its last line of standard output. set-up is
timed from `--t0`, the parent's CLOCK_MONOTONIC reading taken just before
it started this process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from coopdyn import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_threads():
    """OpenBLAS pool size of numpy's bundled BLAS, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        return get()
    return None


def check_run(out: Path, code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        return workloads.check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    runs = workloads.build(args.workload, args.seed)
    tmp = Path(tempfile.mkdtemp(dir=args.work))
    try:
        argvs = [workloads.argv(run, tmp, tmp / "out", ROOT) for run in runs]
        setup_s = time.monotonic() - args.t0

        cpu_before = os.times()
        start = time.perf_counter()
        codes = []
        for index, argv in enumerate(argvs):
            if tracer is not None:
                tracer.run = index
            codes.append(cli.main(argv))
        wall_s = time.perf_counter() - start
        cpu_after = os.times()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = {}
        for run, code in zip(runs, codes):
            problems = check_run(tmp / "out" / run.name, code)
            if problems:
                failures[run.name] = problems
        record = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": (cpu_after.user - cpu_before.user) + (cpu_after.system - cpu_before.system),
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(runs),
            "failures": failures,
            "digests": {run.name: workloads.digest(tmp / "out" / run.name) for run in runs},
            "traced": tracer is not None,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": blas_threads(),
        }
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer.spans, tracer.installed)
            tracer.write(args.work / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
