"""Parameter-grid sweeps, verification checks and the CSV contract.

A sweep walks a rectangular (q, nu) grid, evaluates the three coherence
measures along both the closed-form route and the generic eigensolver
route, and records their disagreement per point.  Each point is a
SweepRecord, a namedtuple whose fields are the CSV columns, so a record
is its CSV row.  Grid order is fixed: q is the outer loop, nu the inner
one, both ascending, so output files are byte-identical across runs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .coherence import (
    CoherenceTriple,
    coherence_components,
    measures_from_spectra,
    numeric_spectra,
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
# One CSV row; "%.12g" renders a float as format_value does, bar -0.0.
_CSV_ROW = ",".join(["%.12g"] * len(CSV_FIELDS)) + "\n"

# Slope comparisons on grid rows/columns treat |diff| <= this as flat.
MONOTONE_TOL = 1e-12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def format_value(x):
    """Canonical 12-significant-digit rendering used in all text output."""
    v = float(x)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".12g")


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
        return (
            np.linspace(self.q_min, self.q_max, self.q_steps),
            np.linspace(self.nu_min, self.nu_max, self.nu_steps),
        )


# One grid point, field for field the CSV row: weights, closed-form
# measures, and `path_gap`, the largest absolute disagreement with the
# eigensolver route across the three measures.
SweepRecord = namedtuple("SweepRecord", CSV_FIELDS)


@dataclass(frozen=True, eq=False)
class SweepResult:
    records: tuple
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
    """Vectorised sweep; returns a dict of flat arrays plus notices.

    Keys are CSV_FIELDS, in order.  The coherence columns come from the
    closed-form spectra; `path_gap` is the largest absolute disagreement
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
    return dict(zip(CSV_FIELDS, columns)), notices


def run_sweep(spec):
    """Sweep the grid and return one SweepRecord per point, in canonical order."""
    data, notices = sweep_arrays(spec)
    rows = zip(*(data[name].tolist() for name in CSV_FIELDS))
    return SweepResult(records=tuple(map(SweepRecord._make, rows)), notices=notices)


def write_csv(records, stream):
    """Write records with the canonical header, '\\n' endings, 12 digits."""
    stream.write(CSV_HEADER + "\n")
    # Adding 0.0 turns -0.0 into 0.0, as format_value does.
    columns = [(np.array(column) + 0.0).tolist() for column in zip(*records)]
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


def verify_grid(spec=None, tol=1e-9):
    """Check the two hard invariants over a grid and summarise trends.

    Hard checks (decide `passed`): the triangle inequality holds to
    `tol`, and the closed-form and eigensolver routes agree to `tol`.
    Monotonicity fractions are reported but never asserted.
    """
    if spec is None:
        spec = SweepSpec()
    return verify_sweep(spec, sweep_arrays(spec)[0], tol)


def verify_sweep(spec, columns, tol=1e-9):
    """The `verify_grid` report from the columns of one sweep of `spec`.

    `columns` maps c_total, triangle_slack and path_gap to flat arrays in
    grid order, as `sweep_arrays` returns them.
    """
    require_positive("tol", tol)
    keep = _defined(*spec.axes())
    grid = np.full(keep.shape, np.nan)
    grid[keep] = columns["c_total"]
    max_violation = float(np.max(-columns["triangle_slack"]))
    max_gap = float(np.max(columns["path_gap"]))
    return VerificationReport(
        points_checked=int(np.count_nonzero(keep)),
        max_triangle_violation=max_violation,
        max_path_gap=max_gap,
        min_c_total=float(np.min(columns["c_total"])),
        monotonic_fraction_in_nu=_monotone_fraction(grid, axis=1),
        monotonic_fraction_in_q=_monotone_fraction(grid, axis=0),
        passed=bool(max_violation <= tol and max_gap <= tol),
    )


def max_spectra_gap(spec=None):
    """Largest closed-form vs eigensolver spectrum gap over a grid."""
    if spec is None:
        spec = SweepSpec()
    q, nu, _ = _flat_grid(spec)
    alpha, beta, gamma = alpha_beta_gamma(q, nu)
    closed = closed_form_spectra(alpha, beta, gamma)
    numeric = numeric_spectra(detector_matrix(alpha, beta, gamma), (2, 2))
    return max(
        float(np.max(np.abs(numeric[name] - values))) for name, values in closed.items()
    )


def find_min_c_total(nu, q_lo=0.0, q_hi=1.0, xtol=1e-6):
    """Golden-section minimum of the total measure along fixed nu.

    Returns (q_min, value).  Requires nu > 0 so the whole q interval is
    defined; the landscape there is smooth with a single interior dip.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"nu must be positive, got {nu!r}")
    if not (0.0 <= q_lo < q_hi <= 1.0):
        raise DomainError(f"need 0 <= q_lo < q_hi <= 1, got [{q_lo!r}, {q_hi!r}]")
    require_positive("xtol", xtol)

    def f(q):
        return float(coherence_closed_form(q, nu).c_total)

    lo, hi = q_lo, q_hi
    a = hi - _INV_PHI * (hi - lo)
    b = lo + _INV_PHI * (hi - lo)
    fa, fb = f(a), f(b)
    best_q, best_val = (a, fa) if fa <= fb else (b, fb)
    while hi - lo > xtol:
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - _INV_PHI * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + _INV_PHI * (hi - lo)
            fb = f(b)
        for qq, vv in ((a, fa), (b, fb)):
            if vv < best_val:
                best_q, best_val = qq, vv
    return best_q, best_val
