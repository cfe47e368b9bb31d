"""Command-line front end.

Subcommands: eval (one point), sweep (grid to CSV), verify (invariant
scan), spectra (closed form vs eigensolver), convert (physical inputs
to q, nu^2).  Results go to stdout (or --out for sweep); warnings and
notices go to stderr.

Exit codes: 0 success, 1 runtime/verification failure, 2 usage error.

A subcommand's flags are the parameters of the constructor that builds
and range-checks its inputs (ModelParams, SweepSpec, PhysicalParams, or
`_verify_inputs`), with '_' written '-'; `sweep --out` is the one flag
beyond them and the one that may be left out.

Any subcommand accepts --config PATH pointing at a key=value file
('#' starts a comment); keys are the long flag names with '-' or '_'.
Flags given on the command line take precedence over the file.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys

from .errors import CoherenceError, require_positive
from .model import (
    ModelParams,
    PhysicalParams,
    coherence_closed_form,
    detector_state,
    nu_squared_from_physical,
    q_from_acceleration,
    spectra_comparison,
)
from .sweep import SweepSpec, format_value, run_sweep, verify_grid, write_csv


def _verify_inputs(grid: int, tol: float):
    """`verify`'s inputs: the standard grid at grid x grid, and `tol`."""
    return (
        SweepSpec(q_steps=require_positive("--grid", grid), nu_steps=grid),
        require_positive("tol", tol),
    )


# Builder annotations are strings under `from __future__ import annotations`.
_TYPES = {"float": float, "int": int}


def _flags(command):
    """Flag -> type: the builder's parameters in order, then `sweep --out`."""
    build = _COMMANDS[command][1]
    flags = {
        name.replace("_", "-"): _TYPES[param.annotation]
        for name, param in inspect.signature(build).parameters.items()
    }
    if command == "sweep":
        flags["out"] = str
    return flags


def _dest(flag):
    return flag.replace("-", "_")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unruh-coherence",
        description="Coherence measures for an accelerated detector pair.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        for flag, kind in _flags(command).items():
            sub.add_argument(
                f"--{flag}",
                type=kind,
                default=None,
                metavar="N" if kind is int else ("PATH" if kind is str else "R"),
            )
        sub.add_argument("--config", default=None, metavar="PATH")
    return parser


def _apply_config(parser, ns):
    flags = _flags(ns.command)
    try:
        with open(ns.config, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            parser.error(f"{ns.config}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if key not in flags:
            parser.error(
                f"{ns.config}:{lineno}: unknown key {key!r} for '{ns.command}'"
            )
        if getattr(ns, _dest(key)) is None:
            try:
                setattr(ns, _dest(key), flags[key](value))
            except ValueError:
                parser.error(
                    f"{ns.config}:{lineno}: invalid value {value!r} for {key!r}"
                )


def _validate(parser, ns):
    """Check flag presence and finiteness, then build `ns.inputs`.

    Every flag is required except `sweep --out`.  The builder is the
    only range check; a CoherenceError it raises is a usage error.
    """
    flags = _flags(ns.command)
    flags.pop("out", None)
    for flag in flags:
        if getattr(ns, _dest(flag)) is None:
            parser.error(f"missing required flag --{flag}")
    for flag, kind in flags.items():
        value = getattr(ns, _dest(flag))
        if kind is float and not math.isfinite(value):
            parser.error(f"--{flag} must be finite, got {value}")
    build = _COMMANDS[ns.command][1]
    try:
        ns.inputs = build(**{_dest(flag): getattr(ns, _dest(flag)) for flag in flags})
    except CoherenceError as exc:
        parser.error(str(exc))


def parse_args(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        _apply_config(parser, ns)
    _validate(parser, ns)
    return ns


def _warn(message):
    print(f"warning: {message}", file=sys.stderr)


def _emit(name, value):
    print(f"{name} = {format_value(value)}")


def cmd_eval(ns):
    params = ns.inputs
    for message in params.validity_warnings():
        _warn(message)
    point = detector_state(params)
    triple = coherence_closed_form(params.q, params.nu)
    _emit("alpha", point.alpha)
    _emit("beta", point.beta)
    _emit("gamma", point.gamma)
    _emit("c_total", triple.c_total)
    _emit("c_collective", triple.c_collective)
    _emit("c_localized", triple.c_localized)
    _emit("triangle_slack", triple.triangle_slack)
    return 0


def cmd_sweep(ns):
    result = run_sweep(ns.inputs)
    for notice in result.notices:
        print(f"notice: {notice}", file=sys.stderr)
    if ns.out is not None:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(result.records, fh)
    else:
        write_csv(result.records, sys.stdout)
    return 0


def cmd_verify(ns):
    spec, tol = ns.inputs
    report = verify_grid(spec, tol=tol)
    _emit("points_checked", report.points_checked)
    _emit("max_triangle_violation", report.max_triangle_violation)
    _emit("max_path_gap", report.max_path_gap)
    _emit("min_c_total", report.min_c_total)
    _emit("monotonic_fraction_in_nu", report.monotonic_fraction_in_nu)
    _emit("monotonic_fraction_in_q", report.monotonic_fraction_in_q)
    print(f"passed = {'true' if report.passed else 'false'}")
    return 0 if report.passed else 1


def cmd_spectra(ns):
    params = ns.inputs
    for message in params.validity_warnings():
        _warn(message)
    closed, numeric, _ = spectra_comparison(params)
    header = f"{'family':<19} {'entry':>5} {'closed-form':>18} {'eigensolver':>18} {'gap':>10}"
    print(header)
    for name, values in closed.items():
        for k, closed_value in enumerate(values):
            numeric_value = float(numeric[name][k])
            gap = abs(numeric_value - float(closed_value))
            print(
                f"{name:<19} {k:>5} {format_value(closed_value):>18} "
                f"{format_value(numeric_value):>18} {gap:>10.3e}"
            )
    return 0


def cmd_convert(ns):
    phys = ns.inputs
    for message in phys.validity_warnings():
        _warn(message)
    _emit("q", q_from_acceleration(phys.omega, phys.accel))
    _emit("nu_squared", nu_squared_from_physical(phys))
    return 0


# One entry per subcommand: (help, build, run).  `build` turns the
# parsed flags into the inputs `run` reads as `ns.inputs`, and its
# parameters are the subcommand's flags: `--q-steps` is `q_steps`.
_COMMANDS = {
    "eval": (
        "evaluate the three coherence measures at one (q, nu) point",
        ModelParams,
        cmd_eval,
    ),
    "sweep": ("evaluate a (q, nu) grid and emit CSV", SweepSpec, cmd_sweep),
    "verify": (
        "scan a grid for triangle-inequality and cross-path violations",
        _verify_inputs,
        cmd_verify,
    ),
    "spectra": (
        "print closed-form spectra beside eigensolver values",
        ModelParams,
        cmd_spectra,
    ),
    "convert": (
        "map physical detector parameters to (q, nu^2)",
        PhysicalParams,
        cmd_convert,
    ),
}


def main(argv=None):
    ns = parse_args(argv)
    try:
        return _COMMANDS[ns.command][2](ns)
    except (CoherenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
