"""Benchmark of unruh_coherence, run from the root of a checkout.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run prints a readable report, appends its full result record (metrics,
output checks, environment) to `--results`, and prints as its last line one
JSON object with the metrics BENCHMARK.json declares: the `end_to_end` ones
with `--trace 0`, the `per_layer` ones with `--trace 1`.  It builds nothing
and imports the package from `src/` of the checkout; without that source it
exits with code 2 and prints no result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# numpy/BLAS thread pools are capped at the number of cores this process may
# use; child interpreters inherit the cap through the environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="grid-sweep, random-states or cli-point")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--results",
        type=Path,
        default=ROOT / ".perfbench" / "results.jsonl",
        help="JSON-lines file each run appends its full record to",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        type=Path,
        metavar=("PARENT", "CHANGE"),
        help="compare two results files instead of running",
    )
    return parser


def _report(record, printed):
    env = record["env"]
    print(
        f"workload {record['workload']}  seed {env['seed']}  run {env['seconds']} s  "
        f"trace {int(record['trace'])}  {record['items_per_op']} {record['item']}(s) per op, "
        f"{record['ops']} timed ops"
    )
    print(
        f"env: commit {env['commit']}  src {env['src_sha256'][:12]}  python {env['python']}  "
        f"numpy {env['numpy']}  cpu {env['cpu']}  nproc {env['nproc']}  "
        f"blas threads {env['blas_threads']}"
    )
    for name, metric in record["metrics"].items():
        mark = "" if name in printed else "  (results file only)"
        extra = ""
        if name == "op_tail_s":
            tail = record["op_tail"]
            extra = f"  (p{tail['percentile']:.1f}, {tail['samples']} samples, {tail['beyond']} beyond)"
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}{extra}{mark}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")
    for problem in record["problems"]:
        print(f"  check failed: {problem}")


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (SRC / "unruh_coherence" / "__init__.py").is_file():
        print(f"perfbench: no unruh_coherence package under {SRC}", file=sys.stderr)
        return 2
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores
    sys.path.insert(0, str(SRC))
    import unruh_coherence

    if Path(unruh_coherence.__file__).resolve().parent != SRC / "unruh_coherence":
        print(f"perfbench: imported {unruh_coherence.__file__}, not the checkout", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    end_to_end, per_layer = harness.declared_metrics()
    printed = per_layer if args.trace else end_to_end
    _report(record, printed)
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in printed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
