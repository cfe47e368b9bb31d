"""Acceptance gate: one test per headline requirement.

Each test prints a single summary line (visible with -s) and carries the
pass/fail verdict in its own name under ``pytest -v``.  Runtime budgets are
enforced with wall-clock assertions inside the tests that state one.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from unruh_coherence import (
    ModelParams,
    SweepSpec,
    alpha_beta_gamma,
    closed_form_spectra,
    coherence_closed_form,
    coherence_components,
    coherence_triple,
    detector_matrix,
    detector_state,
    hermitian_eigenvalues,
    spectrum_entropy,
    verify_grid,
)
from unruh_coherence.coherence import numeric_spectra

BASE = [sys.executable, "-m", "unruh_coherence"]

# sqrt(1/8 - (5/8) log2(5/8)): the zero-coupling / zero-acceleration limit
SINGLET_EXPRESSION = math.sqrt(0.125 - 0.625 * math.log2(0.625))

# eigensolver + entropy oracle on diag(1/2, 0, 0, 1/2)
RANK_TWO_LIMIT = 0.557923

SEED = 20240815


def run_cli(*args):
    start = time.perf_counter()
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    return proc, elapsed


def parse_block(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def random_two_qubit_batch(rng, count):
    g = rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))
    m = g @ np.conj(np.swapaxes(g, -1, -2))
    return m / np.trace(m, axis1=-2, axis2=-1)[:, None, None]


def random_unitary_batch(rng, count, dim):
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal(
        (count, dim, dim)
    )
    out = np.empty_like(g)
    for i in range(count):
        q, r = np.linalg.qr(g[i])
        out[i] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return out


def test_criterion_1_singlet_limit():
    worst_dev = 0.0
    worst_loc = 0.0
    for q in ("0", "0.3", "0.9"):
        proc, elapsed = run_cli("eval", "--q", q, "--nu", "0")
        assert proc.returncode == 0
        block = parse_block(proc.stdout)
        c_total = float(block["c_total"])
        c_collective = float(block["c_collective"])
        assert abs(c_total - SINGLET_EXPRESSION) <= 1e-6
        assert abs(c_collective - SINGLET_EXPRESSION) <= 1e-6
        assert abs(float(block["c_localized"])) <= 1e-9
        assert elapsed < 1.0
        worst_dev = max(
            worst_dev,
            abs(c_total - SINGLET_EXPRESSION),
            abs(c_collective - SINGLET_EXPRESSION),
        )
        worst_loc = max(worst_loc, abs(float(block["c_localized"])))
    print(
        f"criterion 1 PASS: zero-coupling coherence = {SINGLET_EXPRESSION:.12f} "
        f"for q in {{0, 0.3, 0.9}} (max dev {worst_dev:.2e}, "
        f"max |c_localized| {worst_loc:.2e})"
    )


def test_criterion_2_infinite_acceleration_limit():
    proc, elapsed = run_cli("eval", "--q", "1", "--nu", "0.1")
    assert proc.returncode == 0
    block = parse_block(proc.stdout)
    c_total = float(block["c_total"])
    c_collective = float(block["c_collective"])
    c_localized = float(block["c_localized"])
    assert abs(c_total - RANK_TWO_LIMIT) <= 1e-6
    assert abs(c_collective - RANK_TWO_LIMIT) <= 1e-6
    assert abs(c_localized) <= 1e-9
    assert elapsed < 1.0
    print(
        f"criterion 2 PASS: (q=1, nu=0.1) gives c_total = {c_total:.12f} "
        f"(target {RANK_TWO_LIMIT} +/- 1e-6), |c_localized| = {abs(c_localized):.2e}"
    )


def test_criterion_3_closed_form_matches_eigensolver():
    start = time.perf_counter()
    qs, nus = SweepSpec().axes()
    q, nu = (g.ravel() for g in np.meshgrid(qs, nus, indexing="ij"))
    keep = ~((q == 1.0) & (nu == 0.0))
    weights = alpha_beta_gamma(q[keep], nu[keep])
    closed = closed_form_spectra(*weights)
    numeric = numeric_spectra(detector_matrix(*weights), (2, 2))
    spectra_gap = max(float(np.max(np.abs(numeric[k] - closed[k]))) for k in closed)
    report = verify_grid(SweepSpec())
    elapsed = time.perf_counter() - start
    assert spectra_gap <= 1e-10
    assert report.max_path_gap <= 1e-9
    assert elapsed < 10.0
    print(
        f"criterion 3 PASS: max spectra gap {spectra_gap:.2e} (<= 1e-10), "
        f"max path gap {report.max_path_gap:.2e} (<= 1e-9) on the 101x101 grid "
        f"in {elapsed:.2f} s"
    )


def test_criterion_4_triangle_inequality():
    start = time.perf_counter()

    report = verify_grid(SweepSpec())
    assert report.points_checked == 10200
    assert report.max_triangle_violation <= 1e-9

    rng = np.random.default_rng(SEED)
    rho = random_two_qubit_batch(rng, 10_000)
    total, collective, localized = coherence_components(rho, (2, 2))
    slack = collective + localized - total
    assert float(np.min(slack)) >= -1e-9

    worst_equality = 0.0
    for q in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99):
        closed = coherence_closed_form(q, 0.0)
        numeric = coherence_triple(
            detector_state(ModelParams(q=q, nu=0.0)).state, (2, 2)
        )
        worst_equality = max(
            worst_equality,
            abs(float(closed.triangle_slack)),
            abs(float(numeric.triangle_slack)),
        )
    for nu in (0.1, 0.3, 0.5, 0.7, 1.0):
        closed = coherence_closed_form(1.0, nu)
        numeric = coherence_triple(
            detector_state(ModelParams(q=1.0, nu=nu)).state, (2, 2)
        )
        worst_equality = max(
            worst_equality,
            abs(float(closed.triangle_slack)),
            abs(float(numeric.triangle_slack)),
        )
    assert worst_equality <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 4 PASS: slack >= {-report.max_triangle_violation:.2e} on "
        f"{report.points_checked} grid points, min slack "
        f"{float(np.min(slack)):.2e} on 10000 random states, equality cases "
        f"within {worst_equality:.2e}, in {elapsed:.2f} s"
    )


def test_criterion_5_strictly_positive_minimum():
    proc, _ = run_cli("verify", "--grid", "101", "--tol", "1e-9")
    assert proc.returncode == 0
    block = parse_block(proc.stdout)
    assert "min_c_total" in block
    min_c_total = float(block["min_c_total"])
    assert min_c_total > 0.0
    assert block["passed"] == "true"
    print(
        f"criterion 5 PASS: verify reports min_c_total = {min_c_total} > 0 "
        f"(the total coherence never reaches zero on the grid)"
    )


def test_criterion_6_monotonicity_report():
    row = verify_grid(SweepSpec(q_max=0.0, q_steps=1))
    assert row.monotonic_fraction_in_nu == 1.0

    ends = coherence_closed_form(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    c_ends = np.asarray(ends.c_total)
    assert abs(c_ends[0] - 0.7408069523805771) <= 1e-9
    assert abs(c_ends[1] - 0.5702536988376838) <= 1e-9
    assert c_ends[1] < c_ends[0]

    full = verify_grid(SweepSpec())
    assert 0.0 <= full.monotonic_fraction_in_nu <= 1.0
    assert 0.0 <= full.monotonic_fraction_in_q <= 1.0
    print(
        f"criterion 6 PASS: q=0 row monotone in nu (fraction = "
        f"{row.monotonic_fraction_in_nu}); full grid reports "
        f"fraction_in_nu = {full.monotonic_fraction_in_nu:.6f}, "
        f"fraction_in_q = {full.monotonic_fraction_in_q:.6f} (no threshold)"
    )


def test_criterion_7_physical_mapping():
    two_pi = repr(2 * math.pi)
    proc, _ = run_cli(
        "convert", "--omega", "1", "--accel", two_pi,
        "--eps", "0", "--delta", "100", "--kappa", "0",
    )
    assert proc.returncode == 0
    q = float(parse_block(proc.stdout)["q"])
    assert abs(q - math.exp(-1.0)) <= 1e-12

    proc, _ = run_cli(
        "convert", "--omega", "1", "--accel", two_pi,
        "--eps", "0.1", "--delta", "100", "--kappa", "0",
    )
    assert proc.returncode == 0
    nu_squared = float(parse_block(proc.stdout)["nu_squared"])
    assert abs(nu_squared - 1.0 / (2.0 * math.pi)) <= 1e-12
    assert "warning:" in proc.stderr and "nu^2" in proc.stderr
    print(
        f"criterion 7 PASS: q = {q} (e^-1 +/- 1e-12), nu_squared = {nu_squared} "
        f"(1/(2 pi) +/- 1e-12), coupling warning emitted on stderr"
    )


def test_criterion_8_deterministic_sweeps(tmp_path):
    flags = [
        "--q-min", "0", "--q-max", "1", "--q-steps", "101",
        "--nu-min", "0", "--nu-max", "1", "--nu-steps", "101",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    proc, _ = run_cli("sweep", *flags, "--out", str(first))
    assert proc.returncode == 0
    proc, _ = run_cli("sweep", *flags, "--out", str(second))
    assert proc.returncode == 0
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b
    lines = a.decode("utf-8").splitlines()
    assert len(lines) == 1 + 10200
    print(
        f"criterion 8 PASS: two identical sweep runs produced byte-identical "
        f"CSVs ({len(a)} bytes, {len(lines)} lines)"
    )


def test_criterion_9_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 9)
    n = 1000

    rho = random_two_qubit_batch(rng, n)
    u = random_unitary_batch(rng, n, 4)
    rotated = u @ rho @ np.conj(np.swapaxes(u, -1, -2))

    entropy_dev = np.abs(
        spectrum_entropy(hermitian_eigenvalues(rotated))
        - spectrum_entropy(hermitian_eigenvalues(rho))
    )
    assert float(np.max(entropy_dev)) <= 1e-9

    c_total_dev = np.abs(
        coherence_components(rotated, (2, 2))[0] - coherence_components(rho, (2, 2))[0]
    )
    assert float(np.max(c_total_dev)) <= 1e-9

    entropy = spectrum_entropy(hermitian_eigenvalues(random_two_qubit_batch(rng, n)))
    assert float(np.min(entropy)) >= -1e-9
    assert float(np.max(entropy)) <= 2.0 + 1e-9

    herm = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    herm = 0.5 * (herm + np.conj(np.swapaxes(herm, -1, -2)))
    values = hermitian_eigenvalues(herm)
    trace_dev = np.abs(
        np.sum(values, axis=-1) - np.trace(herm, axis1=-2, axis2=-1).real
    )
    square_dev = np.abs(
        np.sum(values**2, axis=-1)
        - np.trace(herm @ herm, axis1=-2, axis2=-1).real
    )
    assert float(np.max(trace_dev)) <= 1e-10
    assert float(np.max(square_dev)) <= 1e-10

    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    base = random_two_qubit_batch(rng, n)
    swap_dev = np.abs(
        np.stack(coherence_components(swap @ base @ swap, (2, 2)))
        - np.stack(coherence_components(base, (2, 2)))
    )
    assert float(np.max(swap_dev)) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 9 PASS: 1000-instance property families in {elapsed:.2f} s "
        f"(entropy unitary dev {float(np.max(entropy_dev)):.2e}, c_total unitary "
        f"dev {float(np.max(c_total_dev)):.2e}, trace dev "
        f"{float(np.max(trace_dev)):.2e}, swap dev {float(np.max(swap_dev)):.2e})"
    )
