import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from unruh_coherence import (
    DomainError,
    SweepSpec,
    ValidationError,
    alpha_beta_gamma,
    closed_form_spectra,
    coherence_closed_form,
    coherence_components,
    detector_matrix,
    find_min_c_total,
    measures_from_spectra,
    run_sweep,
    verify_grid,
    verify_sweep,
    write_csv,
)
from unruh_coherence.sweep import CSV_FIELDS, CSV_HEADER, format_value

SINGLET_COHERENCE = 0.7408069523805771

SMALL = SweepSpec(q_steps=11, nu_steps=11)

# SHA-256 of sweep CSVs without their path_gap column, recorded from the
# seed code; the benchmark checks its output against the same file.
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


# ----------------------------------------------------------------- SweepSpec


def test_spec_defaults_match_standard_grid():
    spec = SweepSpec()
    qs, nus = spec.axes()
    assert qs.size == 101 and nus.size == 101
    assert qs[0] == 0.0 and qs[-1] == 1.0
    assert nus[0] == 0.0 and nus[-1] == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(q_min=0.5, q_max=0.2),
        dict(q_max=1.5),
        dict(q_min=-0.1),
        dict(nu_min=-0.5),
        dict(nu_min=0.8, nu_max=0.2),
        dict(q_steps=0),
        dict(nu_steps=-3),
        dict(q_steps=2.0),
        dict(nu_steps=True),
        dict(q_min=float("nan")),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValidationError):
        SweepSpec(**kwargs)


@pytest.mark.parametrize("steps", [1, 3])
def test_spec_of_only_the_undefined_corner_is_rejected(steps, capsys):
    # every point is q=1, nu=0, so run_sweep and verify_grid would get an
    # empty grid
    with pytest.raises(ValidationError, match="no defined point"):
        SweepSpec(q_min=1.0, q_steps=steps, nu_max=0.0, nu_steps=steps)
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------- run_sweep


def test_corner_sweep_skips_degenerate_point():
    result = run_sweep(SweepSpec(q_steps=2, nu_steps=2))
    assert len(result.records) == 3
    assert len(result.notices) == 1 and "q=1" in result.notices[0]
    assert [(r.q, r.nu) for r in result.records] == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


def test_single_point_sweep():
    result = run_sweep(SweepSpec(q_max=0.0, nu_max=0.0, q_steps=1, nu_steps=1))
    (record,) = result.records
    assert record.c_total == pytest.approx(SINGLET_COHERENCE, abs=1e-12)
    assert record.triangle_slack == 0.0
    assert result.notices == ()


def test_sweep_ordering_is_row_major():
    result = run_sweep(SweepSpec(q_steps=3, nu_steps=4))
    qs = [r.q for r in result.records]
    nus = [r.nu for r in result.records]
    assert qs == sorted(qs)
    # within the first q block, nu ascends
    assert nus[:4] == sorted(nus[:4])
    assert len(result.records) == 3 * 4 - 1  # skipped corner


def test_sweep_record_invariants():
    result = run_sweep(SMALL)
    for record in result.records:
        assert abs(2 * record.alpha + record.beta + record.gamma - 1.0) <= 1e-12
        assert record.triangle_slack >= -1e-9
        assert record.path_gap <= 1e-9


def test_sweep_matches_pointwise_evaluation():
    result = run_sweep(SweepSpec(q_max=0.8, nu_min=0.2, q_steps=4, nu_steps=3))
    for record in result.records:
        triple = coherence_closed_form(record.q, record.nu)
        assert record.c_total == pytest.approx(float(triple.c_total), abs=1e-15)
        assert record.c_collective == pytest.approx(float(triple.c_collective), abs=1e-15)
        assert record.c_localized == pytest.approx(float(triple.c_localized), abs=1e-15)


def test_records_are_columns_and_rows():
    records = run_sweep(SMALL).records
    assert records.dtype.names == CSV_FIELDS
    assert isinstance(records.c_total, np.ndarray)
    assert records.c_total.tolist() == [float(r.c_total) for r in records]
    assert records[3].tolist() == tuple(records[name][3] for name in CSV_FIELDS)


@pytest.mark.parametrize(
    "spec",
    [SMALL, SweepSpec(q_min=0.99, q_max=1.0, q_steps=11, nu_max=1e-3, nu_steps=11)],
    ids=["small", "corner"],
)
def test_verify_sweep_of_the_records_is_verify_grid(spec):
    assert verify_sweep(spec, run_sweep(spec).records) == verify_grid(spec)


# ----------------------------------------------------------------------- CSV


def test_csv_header_and_shape():
    result = run_sweep(SweepSpec(q_steps=3, nu_steps=3))
    buf = io.StringIO()
    write_csv(result.records, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "nu,q,alpha,beta,gamma,c_total,c_collective,c_localized,triangle_slack,path_gap"
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""  # trailing newline
    assert len(lines) == 1 + len(result.records) + 1
    assert all(len(line.split(",")) == 10 for line in lines[1:-1])


def test_csv_values_round_trip():
    result = run_sweep(SweepSpec(q_steps=2, nu_steps=3))
    buf = io.StringIO()
    write_csv(result.records, buf)
    rows = buf.getvalue().splitlines()[1:]
    for row, record in zip(rows, result.records):
        fields = [float(x) for x in row.split(",")]
        assert fields[0] == pytest.approx(record.nu, rel=1e-11)
        assert fields[1] == pytest.approx(record.q, rel=1e-11)
        assert fields[5] == pytest.approx(record.c_total, rel=1e-11)


def test_csv_deterministic_in_process():
    first, second = io.StringIO(), io.StringIO()
    write_csv(run_sweep(SMALL).records, first)
    write_csv(run_sweep(SMALL).records, second)
    assert first.getvalue() == second.getvalue()


@pytest.mark.parametrize("steps", [101, 6])
def test_csv_without_path_gap_matches_reference_digest(steps):
    buf = io.StringIO()
    write_csv(run_sweep(SweepSpec(q_steps=steps, nu_steps=steps)).records, buf)
    stripped = "".join(
        line.rpartition(",")[0] + "\n" for line in buf.getvalue().splitlines()
    )
    digests = json.loads(REFERENCE.read_text(encoding="utf-8"))["grid_csv_sha256"]
    digest = hashlib.sha256(stripped.encode("utf-8")).hexdigest()
    assert digest == digests[f"{steps}x{steps}"]


def test_csv_prints_negative_zero_as_zero():
    buf = io.StringIO()
    write_csv(np.rec.fromarrays([[-0.0]] * len(CSV_FIELDS), names=CSV_FIELDS), buf)
    zeros = ",".join(["0"] * len(CSV_FIELDS))
    assert buf.getvalue() == CSV_HEADER + "\n" + zeros + "\n"


def test_format_value_normalizes():
    assert format_value(-0.0) == "0"
    assert format_value(0.125) == "0.125"
    assert len(format_value(1.0 / 3.0).replace("0.", "")) == 12
    # the "%.12g" template is format(v, ".12g") on every edge value
    edges = [0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e-320]
    edges += [2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
    for v in edges:
        assert format_value(v) == format(v, ".12g")
    assert [format_value(v) for v in (np.inf, -np.inf, np.nan, 5e-324)] == [
        "inf", "-inf", "nan", "4.94065645841e-324"
    ]


# -------------------------------------------------------------------- verify


def test_verify_small_grid_passes():
    report = verify_grid(SMALL, tol=1e-9)
    assert report.passed
    assert report.points_checked == 120  # 121 minus degenerate corner
    assert report.max_triangle_violation <= 1e-9
    assert report.max_path_gap <= 1e-9
    assert report.min_c_total > 0.0
    assert 0.0 <= report.monotonic_fraction_in_nu <= 1.0
    assert 0.0 <= report.monotonic_fraction_in_q <= 1.0


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec(),
        SweepSpec(q_min=0.99, nu_max=1e-3),
        SweepSpec(q_max=1e-9, q_steps=5, nu_min=1e6, nu_max=1e9, nu_steps=7),
    ],
    ids=["default", "corner", "near-00"],
)
def test_path_gap_is_only_the_spectra_gap(spec):
    # both routes assemble the measures with the same arithmetic, so the
    # gap is eigensolver round-off in the spectra, not in the formula.
    # Near |00> (q ~ 0, nu large) the coherent 2x2 block is below 1e-13,
    # so it needs a stopping test relative to the matrix's scale.
    assert verify_grid(spec).max_path_gap <= 1e-13


def test_gates_hold_over_the_whole_float_domain():
    # nu log-spaced over the float range; q uniform, within 1e-16 of 0
    # or within 1e-16 of 1; both routes as sweep_arrays runs them
    rng = np.random.default_rng(20240814)
    nu = np.logspace(-300, 300, 5001)
    u = rng.random(nu.size)
    q = np.choose(np.arange(nu.size) % 3, [u, 1e-16 * u, 1.0 - 1e-16 * u])
    alpha, beta, gamma = alpha_beta_gamma(q, nu)
    measures = measures_from_spectra(closed_form_spectra(alpha, beta, gamma), 4)
    numeric = coherence_components(detector_matrix(alpha, beta, gamma), (2, 2))
    assert np.all(np.isfinite(measures)) and np.all(np.isfinite(numeric))
    assert np.max(np.abs(np.subtract(measures, numeric))) <= 1e-9
    total, collective, localized = measures
    assert np.min(collective + localized - total) >= -1e-9


def test_verify_zero_coupling_row_is_monotone():
    spec = SweepSpec(q_max=0.0, q_steps=1, nu_steps=51)
    report = verify_grid(spec, tol=1e-9)
    assert report.monotonic_fraction_in_nu == 1.0


def test_verify_requires_positive_tol():
    with pytest.raises(DomainError):
        verify_grid(SMALL, tol=0.0)


def test_verify_unreachable_tolerance_fails():
    report = verify_grid(SMALL, tol=1e-30)
    assert not report.passed


# ------------------------------------------------------------------ extremum


def test_find_min_matches_dense_scan():
    # the oracle scans log-spaced in 1 - q, so it resolves the dip that
    # sits within about nu^2/2 of q = 1 at small nu
    dense_q = 1.0 - np.logspace(-14, 0, 400001)
    for nu in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 10.0, 1e3):
        q_star, value = find_min_c_total(nu)
        dense_vals = oracles.c_total_ref(dense_q, nu)
        k = int(np.argmin(dense_vals))
        assert abs(q_star - dense_q[k]) <= 1e-3
        assert abs(value - float(dense_vals[k])) <= 1e-9
        assert value > 0.0


def test_find_min_domain_errors():
    with pytest.raises(DomainError):
        find_min_c_total(0.0)
    with pytest.raises(DomainError):
        find_min_c_total(-0.1)
