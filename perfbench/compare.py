"""Compare two sets of untraced results, workload by workload.

Each set is a results file that `run.py` appended to (one JSON record per
line).  For every workload in both sets and every end-to-end metric it
prints each side's median and quartiles and a verdict:

- `better`: the change wins at least 9 in 10 of all pairs (ties count for
  neither) and the medians differ, in the change's favour, by more than the
  parent's interquartile range;
- `worse`: the same rule with the sides' roles in the outcome swapped;
- `unresolved`: anything else, including fewer than ten pairs.

Runs pair by seed when the sets share seeds, otherwise in file order.  The
last column says whether the change's median is worse than the parent's by
more than the metric's BENCHMARK.json bound.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """Untraced records of a results file, grouped by workload."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if not record["trace"]:
                runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def pairs(parent, change, metric):
    """(parent value, change value) per pair of runs."""
    def value(record):
        return record["metrics"][metric]["value"]

    by_seed = {r["env"]["seed"]: r for r in parent}
    matched = [(by_seed[r["env"]["seed"]], r) for r in change if r["env"]["seed"] in by_seed]
    if not matched:
        matched = list(zip(parent, change))
    return [(value(p), value(c)) for p, c in matched]


def verdict(paired, lower_is_better):
    """better / worse / unresolved by the pair-win and spread rule."""
    sign = -1.0 if lower_is_better else 1.0
    gains = [sign * (c - p) for p, c in paired]
    wins = sum(1 for g in gains if g > 0)
    losses = sum(1 for g in gains if g < 0)
    parent_q1, parent_median, parent_q3 = quartiles([p for p, _ in paired])
    shift = sign * (statistics.median([c for _, c in paired]) - parent_median)
    spread = parent_q3 - parent_q1
    if len(paired) < MIN_PAIRS:
        return "unresolved", wins, losses
    if wins >= WIN_SHARE * len(paired) and shift > spread:
        return "better", wins, losses
    if losses >= WIN_SHARE * len(paired) and -shift > spread:
        return "worse", wins, losses
    return "unresolved", wins, losses


def _fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(parent_path, change_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["unit"], m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("failed_frac", "1", True, None))
    parent_runs, change_runs = load(parent_path), load(change_path)
    print(
        f"{'workload':<14} {'metric':<17} {'unit':<8} {'parent median [q1, q3]':<36} "
        f"{'change median [q1, q3]':<36} {'wins':>5} {'losses':>6} {'verdict':<10} bound"
    )
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for name, unit, lower, bound in metrics:
            paired = pairs(parent_runs[workload], change_runs[workload], name)
            result, wins, losses = verdict(paired, lower)
            parent_values = [p for p, _ in paired]
            change_values = [c for _, c in paired]
            parent_median = statistics.median(parent_values)
            worsening = statistics.median(change_values) - parent_median
            if not lower:
                worsening = -worsening
            if bound is None:
                within = "-"
            elif worsening > bound * abs(parent_median):
                within = f"beyond {bound:g}"
            else:
                within = f"within {bound:g}"
            print(
                f"{workload:<14} {name:<17} {unit:<8} {_fmt(parent_values):<36} "
                f"{_fmt(change_values):<36} {wins:>5} {losses:>6} {result:<10} {within}"
            )
        print(f"{workload:<14} pairs: {len(paired)}")
    return 0
