"""Black-box tests for the command line interface.

Almost everything here goes through a real subprocess so that exit codes,
stream separation, and argv handling are exercised exactly as a user would
hit them.  The surface tests at the end run in-process: they pin the flag
table and the config-file route through `build_parser` and `cli.main`.
"""

import argparse
import math
import shutil
import subprocess
import sys

import pytest

from unruh_coherence import cli

BASE = [sys.executable, "-m", "unruh_coherence"]

SINGLET_COHERENCE = 0.7408069523805771


def run_cli(*args, **kwargs):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, **kwargs
    )


def parse_block(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        assert sep, f"unparseable line: {line!r}"
        out[key] = value
    return out


# -------------------------------------------------------------------- eval


def test_eval_singlet_point():
    proc = run_cli("eval", "--q", "0", "--nu", "0")
    assert proc.returncode == 0
    assert proc.stderr == ""
    block = parse_block(proc.stdout)
    assert list(block) == [
        "alpha",
        "beta",
        "gamma",
        "c_total",
        "c_collective",
        "c_localized",
        "triangle_slack",
    ]
    assert float(block["alpha"]) == 0.5
    assert float(block["beta"]) == 0.0
    assert float(block["gamma"]) == 0.0
    assert float(block["c_total"]) == pytest.approx(SINGLET_COHERENCE, abs=1e-11)
    assert float(block["c_collective"]) == pytest.approx(SINGLET_COHERENCE, abs=1e-11)
    assert float(block["c_localized"]) == 0.0
    assert float(block["triangle_slack"]) == 0.0


@pytest.mark.parametrize(
    "args, missing",
    [
        (("eval", "--q", "0.5"), "nu"),
        (
            (
                "sweep", "--q-min", "0", "--q-max", "1", "--q-steps", "2",
                "--nu-max", "1", "--nu-steps", "2",
            ),
            "nu-min",
        ),
        (("verify", "--tol", "1e-9"), "grid"),
        (("spectra", "--nu", "0.5"), "q"),
        (
            ("convert", "--omega", "1", "--accel", "1", "--eps", "0.1", "--delta", "20"),
            "kappa",
        ),
        # several missing: the first in flag order is reported
        (("sweep", "--nu-steps", "2", "--q-max", "1"), "q-min"),
        # --out is the one optional flag
        (
            (
                "sweep", "--q-min", "0", "--q-max", "1", "--q-steps", "2",
                "--nu-min", "0", "--nu-max", "1", "--nu-steps", "2",
            ),
            None,
        ),
    ],
    ids=["eval", "sweep", "verify", "spectra", "convert", "sweep-first", "sweep-no-out"],
)
def test_missing_flag_is_usage_error(args, missing):
    proc = run_cli(*args)
    if missing is None:
        assert proc.returncode == 0
        assert proc.stdout.startswith("nu,q,")
        return
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.rstrip().endswith(f"missing required flag --{missing}")


def test_eval_unknown_flag_is_usage_error():
    proc = run_cli("eval", "--q", "0.5", "--nu", "0.5", "--bogus", "1")
    assert proc.returncode == 2


def test_eval_non_numeric_value_is_usage_error():
    proc = run_cli("eval", "--q", "fast", "--nu", "0.5")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args, fragment",
    [
        (("eval", "--q", "1.5", "--nu", "0.5"), "must lie in"),
        (("eval", "--q", "-0.1", "--nu", "0.5"), "must lie in"),
        (("eval", "--q", "0.5", "--nu", "-1"), "must be non-negative"),
        (
            (
                "sweep", "--q-min", "0.6", "--q-max", "0.4", "--q-steps", "3",
                "--nu-min", "0", "--nu-max", "1", "--nu-steps", "3",
            ),
            "exceeds",
        ),
        (
            (
                "convert", "--omega", "1", "--accel", "1",
                "--eps", "0.01", "--delta", "0", "--kappa", "0",
            ),
            "must be positive",
        ),
        (
            (
                "convert", "--omega", "1", "--accel", "1",
                "--eps", "-1", "--delta", "100", "--kappa", "0",
            ),
            "must be non-negative",
        ),
        (("verify", "--grid", "11", "--tol", "0"), "must be positive"),
        (
            (
                "sweep", "--q-min", "1", "--q-max", "1", "--q-steps", "1",
                "--nu-min", "0", "--nu-max", "0", "--nu-steps", "1",
            ),
            "no defined point",
        ),
    ],
)
def test_eval_out_of_range_is_usage_error(args, fragment):
    # `args` starts with the subcommand, so this covers every constructor
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert fragment in proc.stderr


@pytest.mark.parametrize(
    "args, flag",
    [
        (("eval", "--q", "0.3", "--nu", "inf"), "--nu"),
        (("spectra", "--q", "0.3", "--nu", "inf"), "--nu"),
        (
            (
                "sweep", "--q-min", "0", "--q-max", "1", "--q-steps", "3",
                "--nu-min", "0", "--nu-max", "inf", "--nu-steps", "3",
            ),
            "--nu-max",
        ),
        (
            (
                "convert", "--omega", "1", "--accel", "inf",
                "--eps", "0.01", "--delta", "100", "--kappa", "0",
            ),
            "--accel",
        ),
    ],
)
def test_infinite_input_is_usage_error(args, flag):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"{flag} must be finite" in proc.stderr


def test_eval_overflowing_coupling_evaluates():
    # nu^2 overflows; the weights take their limit (0, q/(1+q), 1/(1+q))
    proc = run_cli("eval", "--q", "0.3", "--nu", "1e200")
    assert proc.returncode == 0
    block = parse_block(proc.stdout)
    assert len(block) == 7
    assert all(math.isfinite(float(value)) for value in block.values())
    assert float(block["alpha"]) == 0.0
    assert float(block["beta"]) == pytest.approx(0.3 / 1.3, abs=1e-11)


def test_eval_accepts_strong_coupling_with_warning():
    # nu has no upper bound; past the perturbative window it only warns
    proc = run_cli("eval", "--q", "0.5", "--nu", "2.0")
    assert proc.returncode == 0
    assert "nu^2" in proc.stderr


def test_eval_degenerate_point_is_usage_error():
    proc = run_cli("eval", "--q", "1", "--nu", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage:")
    assert "state is undefined at q=1, nu=0" in proc.stderr


def test_eval_coupling_warning_goes_to_stderr():
    proc = run_cli("eval", "--q", "0.2", "--nu", "0.9")
    assert proc.returncode == 0
    assert "warning:" in proc.stderr and "nu^2" in proc.stderr
    assert "warning" not in proc.stdout
    parse_block(proc.stdout)  # stdout still a clean block


# ------------------------------------------------------------------ config


def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nu = 0.1\nq = 0.2\n", encoding="utf-8")
    proc = run_cli("eval", "--config", str(cfg), "--nu", "0.3")
    assert proc.returncode == 0
    block = parse_block(proc.stdout)
    # q comes from the file, nu from the command line
    assert float(block["alpha"]) == pytest.approx(0.468384074941, abs=1e-11)
    want = run_cli("eval", "--q", "0.2", "--nu", "0.3")
    assert proc.stdout == want.stdout


def test_config_comments_and_blank_lines_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep point\n\nq = 0.2  # cold\nnu = 0.3\n", encoding="utf-8")
    proc = run_cli("eval", "--config", str(cfg))
    assert proc.returncode == 0


def test_config_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("qq = 0.2\n", encoding="utf-8")
    proc = run_cli("eval", "--config", str(cfg), "--nu", "0.5")
    assert proc.returncode == 2
    assert "unknown key" in proc.stderr


def test_config_malformed_line_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n", encoding="utf-8")
    proc = run_cli("eval", "--config", str(cfg), "--nu", "0.5")
    assert proc.returncode == 2
    assert "key=value" in proc.stderr


def test_config_missing_file_is_usage_error(tmp_path):
    proc = run_cli("eval", "--config", str(tmp_path / "nope.cfg"), "--nu", "0.5")
    assert proc.returncode == 2
    assert "cannot read config file" in proc.stderr


def test_config_bad_value_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = warm\n", encoding="utf-8")
    proc = run_cli("eval", "--config", str(cfg), "--nu", "0.5")
    assert proc.returncode == 2
    assert "invalid value" in proc.stderr


# ------------------------------------------------------------------- sweep

SWEEP_FLAGS = [
    "--q-min", "0", "--q-max", "1", "--q-steps", "5",
    "--nu-min", "0", "--nu-max", "1", "--nu-steps", "5",
]


def test_sweep_stdout_csv():
    proc = run_cli("sweep", *SWEEP_FLAGS)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "nu,q,alpha,beta,gamma,c_total,c_collective,c_localized,"
        "triangle_slack,path_gap"
    )
    assert len(lines) == 1 + 5 * 5 - 1  # header + grid minus the skipped corner
    assert "skipped undefined point" in proc.stderr


def test_sweep_writes_file(tmp_path):
    out = tmp_path / "surface.csv"
    proc = run_cli("sweep", *SWEEP_FLAGS, "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    data = out.read_bytes()
    assert not data.startswith(b"\xef\xbb\xbf")  # no BOM
    assert b"\r" not in data
    assert data.decode("utf-8").splitlines()[0].startswith("nu,q,")


def test_sweep_file_and_stdout_agree(tmp_path):
    out = tmp_path / "surface.csv"
    run_cli("sweep", *SWEEP_FLAGS, "--out", str(out))
    proc = run_cli("sweep", *SWEEP_FLAGS)
    assert out.read_text(encoding="utf-8") == proc.stdout


def test_sweep_repeat_runs_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("sweep", *SWEEP_FLAGS, "--out", str(a))
    run_cli("sweep", *SWEEP_FLAGS, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_zero_steps_is_usage_error():
    proc = run_cli(
        "sweep", "--q-min", "0", "--q-max", "1", "--q-steps", "0",
        "--nu-min", "0", "--nu-max", "1", "--nu-steps", "5",
    )
    assert proc.returncode == 2


def test_sweep_unwritable_out_is_runtime_error(tmp_path):
    proc = run_cli("sweep", *SWEEP_FLAGS, "--out", str(tmp_path / "no" / "dir.csv"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


# ------------------------------------------------------------------ verify


def test_verify_passes_on_coarse_grid():
    proc = run_cli("verify", "--grid", "11", "--tol", "1e-9")
    assert proc.returncode == 0
    block = parse_block(proc.stdout)
    assert block["passed"] == "true"
    assert int(block["points_checked"]) == 120
    assert float(block["max_triangle_violation"]) <= 1e-9
    assert float(block["max_path_gap"]) <= 1e-9
    assert float(block["min_c_total"]) > 0.0
    assert 0.0 <= float(block["monotonic_fraction_in_nu"]) <= 1.0
    assert 0.0 <= float(block["monotonic_fraction_in_q"]) <= 1.0


def test_verify_unreachable_tolerance_reports_failure():
    proc = run_cli("verify", "--grid", "11", "--tol", "1e-30")
    assert proc.returncode == 1
    assert parse_block(proc.stdout)["passed"] == "false"


def test_verify_rejects_bad_grid():
    proc = run_cli("verify", "--grid", "0", "--tol", "1e-9")
    assert proc.returncode == 2
    assert "--grid must be positive" in proc.stderr
    assert run_cli("verify", "--grid", "11", "--tol", "-1").returncode == 2


# ----------------------------------------------------------------- spectra


def test_spectra_table_layout():
    proc = run_cli("spectra", "--q", "0.3", "--nu", "0.5")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 21  # header + 5 families x 4 entries
    header = lines[0].split()
    assert header == ["family", "entry", "closed-form", "eigensolver", "gap"]
    families = []
    for line in lines[1:]:
        cells = line.split()
        assert len(cells) == 5
        families.append(cells[0])
        assert float(cells[4]) <= 1e-10
        assert abs(float(cells[2]) - float(cells[3])) <= 1e-10
    assert sorted(set(families)) == sorted(
        ["state", "product", "mid_state_mixed", "mid_state_product",
         "mid_product_mixed"]
    )


def test_spectra_rows_sum_to_one():
    proc = run_cli("spectra", "--q", "0.7", "--nu", "0.25")
    totals = {}
    for line in proc.stdout.splitlines()[1:]:
        cells = line.split()
        totals[cells[0]] = totals.get(cells[0], 0.0) + float(cells[2])
    for family, total in totals.items():
        assert total == pytest.approx(1.0, abs=1e-9), family


def test_spectra_degenerate_point_errors():
    proc = run_cli("spectra", "--q", "1", "--nu", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "state is undefined at q=1, nu=0" in proc.stderr


# ----------------------------------------------------------------- convert


def test_convert_reports_weight_and_coupling():
    proc = run_cli(
        "convert", "--omega", "1", "--accel", str(2 * math.pi),
        "--eps", "0.1", "--delta", "100", "--kappa", "0",
    )
    assert proc.returncode == 0
    block = parse_block(proc.stdout)
    assert float(block["q"]) == pytest.approx(math.exp(-1.0), abs=1e-11)
    assert float(block["nu_squared"]) == pytest.approx(1.0 / (2 * math.pi), abs=1e-11)
    assert "nu^2" in proc.stderr  # coupling warning


def test_convert_zero_acceleration_and_coupling():
    proc = run_cli(
        "convert", "--omega", "1", "--accel", "0",
        "--eps", "0", "--delta", "100", "--kappa", "0",
    )
    assert proc.returncode == 0
    block = parse_block(proc.stdout)
    assert float(block["q"]) == 0.0
    assert float(block["nu_squared"]) == 0.0


def test_convert_rejects_nonpositive_omega():
    proc = run_cli(
        "convert", "--omega", "0", "--accel", "1",
        "--eps", "0.01", "--delta", "100", "--kappa", "0",
    )
    assert proc.returncode == 2


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2


@pytest.mark.skipif(
    shutil.which("unruh-coherence") is None,
    reason="console script not on PATH",
)
def test_console_script_entry_point():
    proc = subprocess.run(
        ["unruh-coherence", "eval", "--q", "0", "--nu", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "c_total" in proc.stdout


# ----------------------------------------------------------------- surface

# Each subcommand's options in parser order, as (flag, metavar).
SURFACE = {
    "eval": [("--q", "R"), ("--nu", "R"), ("--config", "PATH")],
    "sweep": [
        ("--q-min", "R"),
        ("--q-max", "R"),
        ("--q-steps", "N"),
        ("--nu-min", "R"),
        ("--nu-max", "R"),
        ("--nu-steps", "N"),
        ("--out", "PATH"),
        ("--config", "PATH"),
    ],
    "verify": [("--grid", "N"), ("--tol", "R"), ("--config", "PATH")],
    "spectra": [("--q", "R"), ("--nu", "R"), ("--config", "PATH")],
    "convert": [
        ("--omega", "R"),
        ("--accel", "R"),
        ("--eps", "R"),
        ("--delta", "R"),
        ("--kappa", "R"),
        ("--config", "PATH"),
    ],
}


def test_parser_flag_surface():
    parser = cli.build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert list(subparsers.choices) == list(SURFACE)
    for command, want in SURFACE.items():
        got = [
            (action.option_strings[0], action.metavar)
            for action in subparsers.choices[command]._actions
            if action.dest != "help"
        ]
        assert got == want, command


# Every flag of each subcommand, with config-file keys written with '_'.
EVERY_FLAG = {
    "eval": {"q": "0.3", "nu": "0.7"},
    "sweep": {
        "q_min": "0.1",
        "q_max": "1",
        "q_steps": "3",
        "nu_min": "0",
        "nu_max": "0.5",
        "nu_steps": "4",
        "out": "sweep.csv",
    },
    "verify": {"grid": "5", "tol": "1e-9"},
    "spectra": {"q": "0.3", "nu": "0.7"},
    "convert": {
        "omega": "1",
        "accel": "2",
        "eps": "0.1",
        "delta": "20",
        "kappa": "0.5",
    },
}


@pytest.mark.parametrize("command", list(EVERY_FLAG))
def test_config_file_matches_command_line(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    values = EVERY_FLAG[command]
    cfg = tmp_path / "every.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), "utf-8")
    argv = [command]
    for key, value in values.items():
        argv += ["--" + key.replace("_", "-"), value]

    runs = []
    for args in ([command, "--config", str(cfg)], argv):
        code = cli.main(args)
        out = capsys.readouterr().out
        if command == "sweep":
            out = (tmp_path / "sweep.csv").read_text("utf-8")
            (tmp_path / "sweep.csv").unlink()
        runs.append((code, out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1]
