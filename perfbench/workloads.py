"""The three benchmark workloads: inputs, one timed op, and output checks.

Every workload is a closed loop with one client: the harness issues op i+1
only after op i has returned and been checked.  Inputs come from the run's
seed and the op index alone, so the same seed gives the same inputs however
many ops a run reaches.  `op` is the timed call into the program; `check`
runs outside the timed section and returns a list of problems (empty when
the output is right).  `replay` is the in-process form of the op, which a
traced run times instead of `op`; it is `op` itself except for `cli-point`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import unruh_coherence as uc
from unruh_coherence import cli
from unruh_coherence.sweep import format_value

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The hard gates of the program, applied to its outputs.
GAP_TOL = 1e-9
SLACK_TOL = -1e-9
# Agreement of the generic route with an independent eigvalsh route.
ROUTE_TOL = 1e-9


def child_env():
    """Environment for child interpreters: the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


def csv_digest(text):
    """SHA-256 of a sweep CSV with its last column (`path_gap`) removed.

    `path_gap` is eigensolver round-off printed to 12 digits, so a valid
    eigensolver change may alter its bytes; every other column is fixed.
    """
    stripped = "".join(line.rpartition(",")[0] + "\n" for line in text.splitlines())
    return hashlib.sha256(stripped.encode("utf-8")).hexdigest()


class GridSweep:
    """Default 101x101 sweep, CSV write and verification of the same grid.

    The input is the fixed default grid, so the seed changes nothing here;
    the CSV digest reference depends on exactly this grid.
    """

    name = "grid-sweep"
    item = "grid point"
    setup_code = "import unruh_coherence as uc; uc.SweepSpec()"

    def __init__(self, tiny=False, reference_digest=None):
        self.steps = 6 if tiny else 101
        self.points = self.steps * self.steps - 1  # q=1, nu=0 is removed
        if reference_digest is None:
            references = json.loads(REFERENCE.read_text(encoding="utf-8"))
            reference_digest = references["grid_csv_sha256"][f"{self.steps}x{self.steps}"]
        self.reference_digest = reference_digest
        self.csv_path = WORK_DIR / "sweep.csv"
        self.items_per_op = self.points

    def make_input(self, seed, index):
        return None

    def op(self, _):
        spec = uc.SweepSpec(q_steps=self.steps, nu_steps=self.steps)
        result = uc.run_sweep(spec)
        with open(self.csv_path, "w", encoding="utf-8", newline="") as fh:
            uc.write_csv(result.records, fh)
        return uc.verify_grid(spec)

    replay = op

    def check(self, _, report):
        problems = []
        text = self.csv_path.read_text(encoding="utf-8")
        if csv_digest(text) != self.reference_digest:
            problems.append("sweep CSV (without path_gap) differs from the reference")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if len(rows) != self.points:
            problems.append(f"sweep CSV has {len(rows)} rows, expected {self.points}")
        if any(float(r[-1]) > GAP_TOL for r in rows):
            problems.append(f"path_gap above {GAP_TOL}")
        if any(float(r[-2]) < SLACK_TOL for r in rows):
            problems.append(f"triangle_slack below {SLACK_TOL}")
        if not report.passed:
            problems.append("verify_grid did not pass")
        if report.points_checked != self.points:
            problems.append(
                f"verify_grid checked {report.points_checked} points, expected {self.points}"
            )
        return problems


def ginibre_states(rng, count):
    """Random full-rank two-qubit density matrices G G^dagger / tr."""
    g = rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))
    m = g @ np.conj(np.swapaxes(g, -1, -2))
    return m / np.trace(m, axis1=-2, axis2=-1)[:, None, None]


def _eigvalsh_entropy(m):
    w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    terms = np.zeros_like(w)
    np.log2(w, out=terms, where=w > 0.0)
    return -np.sum(w * terms, axis=-1)


def eigvalsh_measures(rho):
    """The three measures of two-qubit states by an independent route.

    Reductions by einsum, spectra by `np.linalg.eigvalsh`; shares no code
    with the program.
    """
    r = rho.reshape(-1, 2, 2, 2, 2)
    rho_a = np.einsum("nabcb->nac", r)
    rho_b = np.einsum("nabad->nbd", r)
    product = np.einsum("nac,nbd->nabcd", rho_a, rho_b).reshape(-1, 4, 4)
    mixed = np.eye(4) / 4.0
    s_rho, s_product, s_mixed = _eigvalsh_entropy(rho), _eigvalsh_entropy(product), 2.0

    def div(a, s_a, b, s_b):
        return np.sqrt(np.clip(_eigvalsh_entropy(0.5 * (a + b)) - 0.5 * (s_a + s_b), 0.0, None))

    return (
        div(rho, s_rho, mixed, s_mixed),
        div(rho, s_rho, product, s_product),
        div(product, s_product, mixed, s_mixed),
    )


class RandomStates:
    """Generic route on a fresh batch of random dense two-qubit states per op."""

    name = "random-states"
    item = "state"
    setup_code = "import unruh_coherence"

    def __init__(self, tiny=False):
        self.items_per_op = 20 if tiny else 1000

    def make_input(self, seed, index):
        return ginibre_states(np.random.default_rng([seed, index]), self.items_per_op)

    def op(self, rho):
        return uc.coherence_components(rho, (2, 2))

    replay = op

    def check(self, rho, measures):
        problems = []
        names = ("c_total", "c_collective", "c_localized")
        for name, got, want in zip(names, measures, eigvalsh_measures(rho)):
            worst = float(np.max(np.abs(np.asarray(got) - want)))
            if not worst <= ROUTE_TOL:
                problems.append(f"{name} differs from the eigvalsh route by {worst:.3e}")
        total, collective, localized = measures
        slack = float(np.min(collective + localized - total))
        if not slack >= SLACK_TOL:
            problems.append(f"triangle slack {slack:.3e} below {SLACK_TOL}")
        return problems


_COMMANDS = ("eval", "spectra", "convert")


def _arg(x):
    return repr(float(x))


def expected_cli_lines(argv):
    """The stdout lines `argv` must produce, from in-process public API calls.

    `name = value` lines carry `format_value` of the quantity; the spectra
    table carries `format_value` of closed-form and eigensolver values per
    family and entry.
    """
    command, values = argv[0], [float(v) for v in argv[2::2]]
    if command == "convert":
        phys = uc.PhysicalParams(*values)
        return {
            "q": format_value(uc.q_from_acceleration(phys.omega, phys.accel)),
            "nu_squared": format_value(uc.nu_squared_from_physical(phys)),
        }
    params = uc.ModelParams(*values)
    if command == "eval":
        point = uc.detector_state(params)
        triple = uc.coherence_closed_form(params.q, params.nu)
        quantities = {
            "alpha": point.alpha,
            "beta": point.beta,
            "gamma": point.gamma,
            "c_total": triple.c_total,
            "c_collective": triple.c_collective,
            "c_localized": triple.c_localized,
            "triangle_slack": triple.triangle_slack,
        }
        return {name: format_value(v) for name, v in quantities.items()}
    closed, numeric, _ = uc.spectra_comparison(params)
    return {
        f"{name}[{k}]": (format_value(value), format_value(numeric[name][k]))
        for name, values in closed.items()
        for k, value in enumerate(values)
    }


def parse_cli_lines(command, stdout):
    """Stdout of one CLI call in the shape of `expected_cli_lines`."""
    if command != "spectra":
        return dict(line.split(" = ", 1) for line in stdout.splitlines())
    rows = [line.split() for line in stdout.splitlines()[1:]]
    return {f"{r[0]}[{r[1]}]": (r[2], r[3]) for r in rows}


class CliPoint:
    """One `python -m unruh_coherence` process per op, commands in rotation."""

    name = "cli-point"
    item = "invocation"
    setup_code = "import unruh_coherence.cli as c; c.build_parser()"
    items_per_op = 1

    def __init__(self, tiny=False):
        self.out_path = WORK_DIR / "cli.out"
        self.err_path = WORK_DIR / "cli.err"
        self.child_rss_kb = 0

    def make_input(self, seed, index):
        rng = np.random.default_rng([seed, index])
        command = _COMMANDS[index % len(_COMMANDS)]
        if command == "convert":
            omega, accel, eps, delta, kappa = rng.uniform(
                (0.5, 0.0, 0.0, 1.0, 0.0), (5.0, 10.0, 0.5, 20.0, 1.0)
            )
            return [command, "--omega", _arg(omega), "--accel", _arg(accel),
                    "--eps", _arg(eps), "--delta", _arg(delta), "--kappa", _arg(kappa)]
        # q < 1 always, so the undefined corner q=1, nu=0 is never drawn.
        q, nu = rng.uniform(0.0, 1.0, size=2)
        return [command, "--q", _arg(q), "--nu", _arg(nu)]

    def op(self, argv):
        """Run the CLI as a child; returns (exit code, stdout)."""
        cmd = [sys.executable, "-m", "unruh_coherence", *argv]
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            out.seek(0)
            return proc.returncode, out.read().decode("utf-8")

    def replay(self, argv):
        """The same call in process, stdout captured and stderr discarded."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # usage errors exit through argparse
                code = exc.code
        return code, out.getvalue()

    def check(self, argv, outcome):
        code, stdout = outcome
        if code != 0:
            return [f"{' '.join(argv)}: exit code {code}"]
        try:
            got = parse_cli_lines(argv[0], stdout)
        except (ValueError, IndexError):
            return [f"{' '.join(argv)}: malformed output {stdout!r}"]
        want = expected_cli_lines(argv)
        if got != want:
            return [f"{' '.join(argv)}: printed {got}, in-process values {want}"]
        return []


WORKLOADS = {w.name: w for w in (GridSweep, RandomStates, CliPoint)}


def time_child(args):
    """Wall time of one child interpreter run to completion."""
    start = time.perf_counter()
    subprocess.run(args, env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start
