"""Smoke tests: the scripts in scripts/ run against the current package."""

import importlib.util
import io
from pathlib import Path

import pytest

from unruh_coherence import SweepSpec, find_min_c_total, run_sweep, write_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_surface_data_writes_the_sweep_csv(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    main = load_script("make_surface_data").main
    assert main(["--steps", "6", "--out", str(out)]) == 0
    want = io.StringIO()
    write_csv(run_sweep(SweepSpec(q_steps=6, nu_steps=6)).records, want)
    assert out.read_text(encoding="utf-8") == want.getvalue()
    printed = capsys.readouterr()
    assert printed.out.startswith(f"wrote 35 rows to {out}")
    assert "max closed-form vs eigensolver gap" in printed.out
    assert "skipped undefined point" in printed.err


def test_coherence_floor_reports_the_minimum(capsys):
    assert load_script("coherence_floor").main(["--nu", "0.5", "1e-4"]) == 0
    printed = capsys.readouterr()
    header, *rows = printed.out.splitlines()
    assert header.split() == ["nu", "q_min", "c_total_min"]
    assert len(rows) == 2
    for row in rows:
        nu, q_star, value = (float(x) for x in row.split())
        want_q, want_value = find_min_c_total(nu)
        assert q_star == pytest.approx(want_q, abs=1e-12)
        assert value == pytest.approx(want_value, abs=1e-12)
    assert printed.err == ""
