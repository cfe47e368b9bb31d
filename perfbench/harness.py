"""Run one workload: set-up time, the timed closed loop, checks and metrics.

An untraced run reports the end-to-end metrics.  A traced run times the
workload's in-process form on each input twice, plain and under
`tracing.Tracer`; the spans give the per-layer metrics, and the throughput
lost by the traced calls against the plain ones on the same inputs is the
tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import tracing
from workloads import ROOT, SRC, WORK_DIR, WORKLOADS, time_child

SETUP_REPEATS = 15
PROBE_REPEATS = 5

# Every metric a run computes, with its unit.  BENCHMARK.json names the
# subset printed on the result line; the results file keeps all of them.
END_TO_END_UNITS = {
    "throughput_per_s": "items/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "failed_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith(".errors"):
        return "count"
    if name.endswith((".calls", ".matrices")):
        return "count/op"
    if name.endswith(".bytes"):
        return "bytes/op"
    if name.endswith(".us_per_matrix"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    return "s/op" if name.endswith(".self_s") else "s"


def declared_metrics():
    """The `end_to_end` and `per_layer` metric names of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed, seconds):
    """What a result depends on besides the code: recorded in every result."""
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "seconds": seconds,
    }


def _timed(call, inputs, tracer):
    """Run one op; returns (seconds, output).  Installing the tracer's
    wrappers happens outside the timed interval."""
    if tracer is None:
        start = time.perf_counter()
        output = call(inputs)
        return time.perf_counter() - start, output
    with tracer:
        start = time.perf_counter()
        with tracer.op():
            output = call(inputs)
        return time.perf_counter() - start, output


def closed_loop(workload, call, seed, seconds, tracer=None, between=None, samples=0):
    """Issue ops one after another until their timed total reaches `seconds`.

    With a tracer, every input is run twice, plain and then traced, so the
    two timings compare the same work.  The first input warms caches and is
    not timed; every op, that one too, is checked after it returns and counts
    in `attempted`.  `between`, if given, is called `samples` times between
    ops, spread evenly over the timed total, so that what it measures sees
    the same machine as the ops do.  Returns a dict of the op times
    (`times`, and `plain_times` with a tracer), `attempted`, `failed`,
    `problems` and the values `between` returned (`samples`).
    """
    modes = (None, tracer) if tracer is not None else (None,)
    times = {mode: [] for mode in modes}
    problems, sampled = [], []
    attempted = failed = 0
    timed = 0.0
    index = 0
    while timed < seconds or len(sampled) < samples:
        if len(sampled) < samples and timed >= seconds * len(sampled) / samples:
            sampled.append(between())
            continue
        inputs = workload.make_input(seed, index)
        for mode in modes:
            start = time.perf_counter()
            try:
                elapsed, output = _timed(call, inputs, mode)
            except Exception as exc:  # a raising op is a failed op, not a crash
                elapsed = time.perf_counter() - start
                found = [f"op {index} raised {type(exc).__name__}: {exc}"]
            else:
                try:
                    found = workload.check(inputs, output)
                except Exception as exc:
                    found = [f"check of op {index} raised {type(exc).__name__}: {exc}"]
            if index > 0:
                times[mode].append(elapsed)
                timed += elapsed
            attempted += 1
            if found:
                failed += 1
                problems.extend(found)
        index += 1
    result = {"times": times[modes[-1]], "attempted": attempted, "failed": failed,
              "problems": problems, "samples": sampled}
    if tracer is not None:
        result["plain_times"] = times[None]
    return result


def tail(times):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it; the maximum when there are ten or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _median_child(args, repeats):
    time_child(args)  # warm: byte-code caches, page cache
    return statistics.median(time_child(args) for _ in range(repeats))


def run(name, seed, seconds, trace, tiny=False, workload=None, repeats=None):
    """One benchmark run; returns the full result record.

    `tiny`, `workload` and `repeats` exist for the benchmark's own tests: a
    small input, an injected workload object, fewer set-up repetitions.
    """
    if workload is None:
        workload = WORKLOADS[name](tiny=tiny)
    WORK_DIR.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "trace": trace,
        "env": environment(seed, seconds),
        "item": workload.item,
        "items_per_op": workload.items_per_op,
    }
    if trace:
        metrics, loop, notes = _traced(workload, seed, seconds, repeats or PROBE_REPEATS)
        units = {m: per_layer_unit(m) for m in metrics}
    else:
        metrics, loop, notes = _untraced(workload, seed, seconds, repeats or SETUP_REPEATS)
        units = END_TO_END_UNITS
    record.update(notes)
    record["ops"] = len(loop["times"])
    record["op_times"] = loop["times"]
    record["attempted"] = loop["attempted"]
    record["failed"] = loop["failed"]
    record["problems"] = loop["problems"][:20]
    if not trace:
        metrics["failed_frac"] = loop["failed"] / loop["attempted"]
    record["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    return record


def _untraced(workload, seed, seconds, repeats):
    setup = [sys.executable, "-c", workload.setup_code]
    time_child(setup)  # warm: byte-code caches, page cache
    loop = closed_loop(workload, workload.op, seed, seconds,
                       between=lambda: time_child(setup), samples=repeats)
    setup_s = statistics.median(loop["samples"])
    times = loop["times"]
    if hasattr(workload, "child_rss_kb"):
        rss_kb = workload.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    value, percentile, beyond = tail(times)
    metrics = {
        "throughput_per_s": workload.items_per_op * len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {"op_tail": {"percentile": percentile, "samples": len(times), "beyond": beyond}}
    return metrics, loop, notes


def _traced(workload, seed, seconds, repeats):
    tracer = tracing.Tracer()
    loop = closed_loop(workload, workload.replay, seed, seconds, tracer)
    metrics = tracing.layer_metrics(tracer.spans, tracer.errors)
    spans_file = WORK_DIR / f"spans-{workload.name}.jsonl"
    tracer.write(spans_file)
    # Throughput lost to tracing: both sides did the same ops on the same inputs.
    plain, traced = sum(loop["plain_times"]), sum(loop["times"])
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - plain / traced)
    start_s = _median_child([sys.executable, "-c", "pass"], repeats)
    import_s = _median_child([sys.executable, "-c", "import unruh_coherence"], repeats)
    metrics["cli.interpreter_start_s"] = start_s
    metrics["cli.import_s"] = import_s - start_s
    notes = {"spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, loop, notes
