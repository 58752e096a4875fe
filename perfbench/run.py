"""convbeam benchmark: offline real-time factor, streaming frame latency, quality.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  For each workload this generates the inputs
from the seed, starts the measured process (``worker.py``) on them, checks
every request's output, and prints each metric by name with its unit.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer ones, taken from a run that wraps each layer's functions in
spans, and a per-layer table of self times is printed before them.

The measured process runs with one compute thread.  Inputs, outputs and
spans go to ``.bench_work/`` under the repository root; the record of each
run, with its provenance, stays in ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

DEFAULT_SEED = 0
# Seed kept out of tuning: a claimed change must also hold on it.
HELD_OUT_SEED = 7919
DEFAULT_SECONDS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "convbeam" / "__init__.py").is_file():
        print(f"error: convbeam sources not found under {SRC}", file=sys.stderr)
        return 2
    # one compute thread, in this process and in the measured one
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload != "all" and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(harness.WORKLOADS)}")
    try:
        records = [harness.run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        harness.report(rec)
    results = [rec["result"] for rec in records]
    if len(results) > 1:
        results = [{
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{n}/{key}": m for n, r in zip(names, results) for key, m in r["metrics"].items()
            },
        }]
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
