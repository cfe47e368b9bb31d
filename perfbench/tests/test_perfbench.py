"""Tests of the benchmark itself: tiny runs, injected failures, trace accounting.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import unruh_coherence as uc  # noqa: E402

import compare  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from unruh_coherence.sweep import format_value  # noqa: E402

END_TO_END = {"throughput_per_s", "op_p50_s", "op_tail_s", "failed_frac", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "linalg.hermitian_eigenvalues.calls",
    "linalg.hermitian_eigenvalues.matrices",
    "linalg.hermitian_eigenvalues.self_s",
    "linalg.hermitian_eigenvalues.us_per_matrix",
    "linalg.spectrum_entropy.calls",
    "linalg.spectrum_entropy.self_s",
    "linalg.tensor.self_s",
    "coherence.reference_states.self_s",
    "coherence.coherence_components.self_s",
    "model.alpha_beta_gamma.self_s",
    "model.detector_matrix.self_s",
    "model.closed_form_spectra.self_s",
    "model.coherence_closed_form.self_s",
    "model.spectra_comparison.self_s",
    "sweep.sweep_arrays.self_s",
    "sweep.run_sweep.self_s",
    "sweep.verify_grid.self_s",
    "sweep.write_csv.self_s",
    "sweep.write_csv.bytes",
    "cli.main.self_s",
    "cli.interpreter_start_s",
    "cli.import_s",
    "linalg.errors",
    "coherence.errors",
    "model.errors",
    "sweep.errors",
    "cli.errors",
    "op.self_s",
    "trace.overhead_pct",
}
TINY = dict(seed=3, seconds=0.05, tiny=True, repeats=1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    record = harness.run(name, trace=False, **TINY)
    assert set(record["metrics"]) == END_TO_END
    assert record["failed"] == 0, record["problems"]
    assert record["metrics"]["failed_frac"]["value"] == 0
    assert all(m["value"] > 0 for n, m in record["metrics"].items() if n != "failed_frac")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    record = harness.run(name, trace=True, **TINY)
    assert set(record["metrics"]) == PER_LAYER
    assert record["failed"] == 0, record["problems"]
    assert record["metrics"]["linalg.hermitian_eigenvalues.calls"]["value"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["end_to_end"]:
        assert harness.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    for metric in spec["per_layer"]:
        assert metric["name"] in PER_LAYER
        assert harness.per_layer_unit(metric["name"]) == metric["unit"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_wrong_digest_counts_as_failed():
    workload = workloads.GridSweep(tiny=True, reference_digest="0" * 64)
    record = harness.run("grid-sweep", trace=False, workload=workload, **TINY)
    assert record["metrics"]["failed_frac"]["value"] > 0
    assert "differs from the reference" in record["problems"][0]


def test_perturbed_measure_counts_as_failed(monkeypatch):
    original = uc.coherence_components

    def perturbed(rho, dims):
        total, collective, localized = original(rho, dims)
        return total + 1e-7, collective, localized

    monkeypatch.setattr(uc, "coherence_components", perturbed)
    record = harness.run("random-states", trace=False, **TINY)
    assert record["metrics"]["failed_frac"]["value"] > 0
    assert "c_total differs" in record["problems"][0]


@pytest.mark.parametrize("index", [0, 1, 2])  # eval, spectra, convert
def test_perturbed_cli_value_is_caught(index):
    workload = workloads.CliPoint()
    argv = workload.make_input(3, index)
    code, stdout = workload.replay(argv)
    assert workload.check(argv, (code, stdout)) == []
    lines = stdout.splitlines()
    tokens = lines[1].split()
    tokens[2] = format_value(float(tokens[2]) * (1 + 1e-6) + 1e-9)
    lines[1] = " ".join(tokens)
    assert workload.check(argv, (code, "\n".join(lines) + "\n"))
    assert workload.check(argv, (1, stdout))


def test_traced_self_times_add_up_to_op_wall_time():
    workload = workloads.RandomStates(tiny=True)
    tracer = tracing.Tracer()
    loop = harness.closed_loop(workload, workload.replay, 3, 0.05, tracer)
    ops = [span for span in tracer.spans if span[2] == tracing.OP_SPAN]
    op_wall = sum(end - start for _, _, _, start, end, _ in ops)
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(op_wall, rel=1e-9)
    per_op = tracing.layer_metrics(tracer.spans, tracer.errors)
    layered = sum(v for k, v in per_op.items() if k.endswith(".self_s")) * len(ops)
    assert layered == pytest.approx(op_wall, rel=1e-9)
    # The op spans are the timed ops (the first, warm-up op is not timed).
    timed = sum(loop["times"])
    warm = ops[0][4] - ops[0][3]
    assert op_wall - warm == pytest.approx(timed, rel=0.01)


def test_errors_count_once_per_layer_they_leave():
    tracer = tracing.Tracer()
    with tracer, tracer.op(), pytest.raises(uc.DimensionError):
        uc.coherence_components(np.ones((2, 3)), (2, 2))
    metrics = tracing.layer_metrics(tracer.spans, tracer.errors)
    assert (metrics["linalg.errors"], metrics["coherence.errors"]) == (1, 1)
    assert metrics["model.errors"] == 0


def test_tracer_patches_every_binding_and_restores_them():
    original = uc.linalg.hermitian_eigenvalues
    with tracing.Tracer():
        for module in (uc, uc.linalg, uc.coherence, uc.model, uc.sweep):
            assert module.hermitian_eigenvalues is not original
    for module in (uc, uc.linalg, uc.coherence, uc.model, uc.sweep):
        assert module.hermitian_eigenvalues is original


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = harness.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert harness.tail([1.0, 2.0]) == (2.0, 100.0, 0)


@pytest.mark.parametrize(
    "change, expected",
    [
        ([0.80 + 0.001 * i for i in range(10)], "better"),
        ([1.20 + 0.001 * i for i in range(10)], "worse"),
        ([1.00 + (0.01 if i % 2 else -0.01) for i in range(10)], "unresolved"),
        ([0.80 + 0.001 * i for i in range(9)], "unresolved"),
    ],
)
def test_compare_verdict(change, expected):
    parent = [1.0 + 0.002 * i for i in range(len(change))]
    result, _, _ = compare.verdict(list(zip(parent, change)), lower_is_better=True)
    assert result == expected


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
