"""Parameter-grid sweeps, verification checks and the CSV contract.

A sweep walks a rectangular (q, nu) grid, evaluates the three coherence
measures along both the closed-form route and the generic eigensolver
route, and records their disagreement per point.  A sweep is a NumPy
record array whose fields are the CSV columns: `records.c_total` is a
column and `records[k]` is the CSV row of point k.  Grid order is fixed:
q is the outer loop, nu the inner one, both ascending, so output files
are byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import (
    CoherenceTriple,
    coherence_components,
    measures_from_spectra,
)
from .errors import DomainError, ValidationError, require_positive

# Unused here since spectra come from `numeric_spectra`; kept bound because
# perfbench's tracer test checks this module's binding of it.
from .linalg import hermitian_eigenvalues  # noqa: F401
from .model import (
    alpha_beta_gamma,
    closed_form_spectra,
    coherence_closed_form,
    detector_matrix,
)

CSV_FIELDS = (
    "nu",
    "q",
    "alpha",
    "beta",
    "gamma",
    "c_total",
    "c_collective",
    "c_localized",
    "triangle_slack",
    "path_gap",
)
CSV_HEADER = ",".join(CSV_FIELDS)
# The 12-significant-digit rendering of every value printed, and one
# CSV row of it.  Adding 0.0 to a value first turns -0.0 into 0.0.
_FMT = "%.12g"
_CSV_ROW = ",".join([_FMT] * len(CSV_FIELDS)) + "\n"

# Slope comparisons on grid rows/columns treat |diff| <= this as flat.
MONOTONE_TOL = 1e-12

# `find_min_c_total` scans this many evenly spaced q per round, and each
# round narrows the bracket to the two cells beside the smallest value.
_SCAN_POINTS = 1001
_SCAN_ROUNDS = 5


def format_value(x):
    """Canonical 12-significant-digit rendering used in all text output."""
    return _FMT % (float(x) + 0.0)


@dataclass(frozen=True)
class SweepSpec:
    """Rectangular grid specification; defaults give the standard grid.

    Each axis runs from its min to its max inclusive.  The fields are
    the `sweep` subcommand's flags.
    """

    q_min: float = 0.0
    q_max: float = 1.0
    q_steps: int = 101
    nu_min: float = 0.0
    nu_max: float = 1.0
    nu_steps: int = 101

    def __post_init__(self):
        for name, lo, hi in (
            ("q", self.q_min, self.q_max),
            ("nu", self.nu_min, self.nu_max),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(f"{name} bounds must be finite")
            if lo > hi:
                raise ValidationError(f"{name}_min {lo!r} exceeds {name}_max {hi!r}")
        if not (0.0 <= self.q_min and self.q_max <= 1.0):
            raise ValidationError("q range must lie within [0, 1]")
        if self.nu_min < 0.0:
            raise ValidationError("nu range must be non-negative")
        for name, steps in (("q_steps", self.q_steps), ("nu_steps", self.nu_steps)):
            if (
                isinstance(steps, bool)
                or not isinstance(steps, (int, np.integer))
                or steps < 1
            ):
                raise ValidationError(f"{name} must be a positive integer")
        if not np.any(_defined(*self.axes())):
            raise ValidationError("grid holds no defined point: q=1, nu=0 is undefined")

    def axes(self):
        """The q and nu grids."""
        # Near the float maximum linspace's step times index can overflow;
        # it then sets the last point to the stop, so the grid is right.
        with np.errstate(over="ignore"):
            return (
                np.linspace(self.q_min, self.q_max, self.q_steps),
                np.linspace(self.nu_min, self.nu_max, self.nu_steps),
            )


@dataclass(frozen=True, eq=False)
class SweepResult:
    records: np.recarray
    notices: tuple


def _defined(qs, nus):
    """(qs.size, nus.size) mask of the grid points kept: all but q=1, nu=0."""
    return ~((qs[:, None] == 1.0) & (nus == 0.0))


def _flat_grid(spec):
    """Flattened (q, nu) in canonical order with degenerate points removed.

    Also returns a notice per point removed.
    """
    qs, nus = spec.axes()
    q = np.repeat(qs, nus.size)
    nu = np.tile(nus, qs.size)
    keep = _defined(qs, nus).ravel()
    notices = tuple(
        f"skipped undefined point q={format_value(qv)}, nu={format_value(nv)}"
        for qv, nv in zip(q[~keep], nu[~keep])
    )
    return q[keep], nu[keep], notices


def sweep_arrays(spec):
    """Vectorised sweep; returns (records, notices).

    `records` is a record array with one row per kept point in grid
    order and the fields CSV_FIELDS: weights, closed-form measures,
    triangle slack and `path_gap`, the largest absolute disagreement
    with the eigensolver route across the three measures per point.
    Both routes go through `measures_from_spectra`, so the gap measures
    only how far their spectra differ.
    """
    q, nu, notices = _flat_grid(spec)
    alpha, beta, gamma = alpha_beta_gamma(q, nu)
    measures = measures_from_spectra(closed_form_spectra(alpha, beta, gamma), 4)
    numeric = coherence_components(detector_matrix(alpha, beta, gamma), (2, 2))
    path_gap = np.max(np.abs(np.subtract(measures, numeric)), axis=0)
    slack = CoherenceTriple.from_components(*measures).triangle_slack
    columns = (nu, q, alpha, beta, gamma, *measures, slack, path_gap)
    return np.rec.fromarrays(columns, names=CSV_FIELDS), notices


def run_sweep(spec):
    """Sweep the grid; `.records` is the record array of `sweep_arrays`."""
    return SweepResult(*sweep_arrays(spec))


def write_csv(records, stream):
    """Write a sweep's record array: canonical header, '\\n' endings, 12 digits."""
    stream.write(CSV_HEADER + "\n")
    # Adding 0.0 turns -0.0 into 0.0, as in format_value.
    columns = [(records[name] + 0.0).tolist() for name in CSV_FIELDS]
    stream.writelines(_CSV_ROW % row for row in zip(*columns))


def _monotone_fraction(values, axis):
    """Fraction of lines along `axis` that never increase (within tol).

    NaN marks removed grid points; a line's comparisons skip them.
    """
    diffs = np.diff(values, axis=axis)
    ok = (diffs <= MONOTONE_TOL) | np.isnan(diffs)
    lines_ok = np.all(ok, axis=axis)
    return float(np.count_nonzero(lines_ok)) / float(lines_ok.size)


@dataclass(frozen=True)
class VerificationReport:
    points_checked: int
    max_triangle_violation: float
    max_path_gap: float
    min_c_total: float
    monotonic_fraction_in_nu: float
    monotonic_fraction_in_q: float
    passed: bool


def verify_grid(spec, tol=1e-9):
    """Check the two hard invariants over a grid and summarise trends.

    Hard checks (decide `passed`): the triangle inequality holds to
    `tol`, and the closed-form and eigensolver routes agree to `tol`.
    Monotonicity fractions are reported but never asserted.
    """
    return verify_sweep(spec, sweep_arrays(spec)[0], tol)


def verify_sweep(spec, records, tol=1e-9):
    """The `verify_grid` report from `records`, the record array of one
    sweep of `spec` (`run_sweep(spec).records`)."""
    require_positive("tol", tol)
    keep = _defined(*spec.axes())
    grid = np.full(keep.shape, np.nan)
    grid[keep] = records["c_total"]
    max_violation = float(np.max(-records["triangle_slack"]))
    max_gap = float(np.max(records["path_gap"]))
    return VerificationReport(
        points_checked=int(np.count_nonzero(keep)),
        max_triangle_violation=max_violation,
        max_path_gap=max_gap,
        min_c_total=float(np.min(records["c_total"])),
        monotonic_fraction_in_nu=_monotone_fraction(grid, axis=1),
        monotonic_fraction_in_q=_monotone_fraction(grid, axis=0),
        passed=bool(max_violation <= tol and max_gap <= tol),
    )


def find_min_c_total(nu):
    """Minimum of the total measure over q in [0, 1] at fixed nu.

    Returns (q_min, value).  A vectorised scan-and-refine: evaluate
    _SCAN_POINTS evenly spaced q, keep the two cells beside the smallest
    value, and repeat, _SCAN_ROUNDS times in all, down to a spacing of
    about 2e-14.  For small nu the dip sits within about nu^2/2 of q = 1,
    which the narrowing brackets follow, so the search resolves it down
    to nu = 1e-5.  Requires nu > 0 so the whole q interval is defined.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"nu must be positive, got {nu!r}")
    lo, hi = 0.0, 1.0
    for _ in range(_SCAN_ROUNDS):
        q = np.linspace(lo, hi, _SCAN_POINTS)
        values = coherence_closed_form(q, nu).c_total
        k = int(np.argmin(values))
        lo, hi = q[max(k - 1, 0)], q[min(k + 1, _SCAN_POINTS - 1)]
    return float(q[k]), float(values[k])
