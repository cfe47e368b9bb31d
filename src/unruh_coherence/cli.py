"""Command-line front end.

Subcommands: eval (one point), sweep (grid to CSV), verify (invariant
scan), spectra (closed form vs eigensolver), convert (physical inputs
to q, nu^2).  Results go to stdout (or --out for sweep); warnings and
notices go to stderr.

Exit codes: 0 success, 1 runtime/verification failure, 2 usage error.

Any subcommand accepts --config PATH pointing at a key=value file
('#' starts a comment); keys are the long flag names with '-' or '_'.
Flags given on the command line take precedence over the file.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import CoherenceError
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

# Flag tables drive parser construction and config-file merging alike.
_COMMAND_FLAGS = {
    "eval": {"q": float, "nu": float},
    "sweep": {
        "q-min": float,
        "q-max": float,
        "q-steps": int,
        "nu-min": float,
        "nu-max": float,
        "nu-steps": int,
        "out": str,
    },
    "verify": {"grid": int, "tol": float},
    "spectra": {"q": float, "nu": float},
    "convert": {
        "omega": float,
        "accel": float,
        "eps": float,
        "delta": float,
        "kappa": float,
    },
}
_REQUIRED_FLAGS = {
    "eval": ("q", "nu"),
    "sweep": ("q-min", "q-max", "q-steps", "nu-min", "nu-max", "nu-steps"),
    "verify": ("grid", "tol"),
    "spectra": ("q", "nu"),
    "convert": ("omega", "accel", "eps", "delta", "kappa"),
}
_HELP = {
    "eval": "evaluate the three coherence measures at one (q, nu) point",
    "sweep": "evaluate a (q, nu) grid and emit CSV",
    "verify": "scan a grid for triangle-inequality and cross-path violations",
    "spectra": "print closed-form spectra beside eigensolver values",
    "convert": "map physical detector parameters to (q, nu^2)",
}


def _dest(flag):
    return flag.replace("-", "_")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unruh-coherence",
        description="Coherence measures for an accelerated detector pair.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, flags in _COMMAND_FLAGS.items():
        sub = subparsers.add_parser(command, help=_HELP[command])
        for flag, kind in flags.items():
            sub.add_argument(
                f"--{flag}",
                dest=_dest(flag),
                type=kind,
                default=None,
                metavar="N" if kind is int else ("PATH" if kind is str else "R"),
            )
        sub.add_argument("--config", default=None, metavar="PATH")
    return parser


def _apply_config(parser, ns):
    flags = _COMMAND_FLAGS[ns.command]
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


def _check(parser, condition, message):
    if not condition:
        parser.error(message)


def _validate(parser, ns):
    for flag in _REQUIRED_FLAGS[ns.command]:
        _check(parser, getattr(ns, _dest(flag)) is not None,
               f"missing required flag --{flag}")
    for flag, kind in _COMMAND_FLAGS[ns.command].items():
        if kind is float:
            value = getattr(ns, _dest(flag))
            _check(parser, math.isfinite(value), f"--{flag} must be finite, got {value}")
    c = ns.command
    if c in ("eval", "spectra"):
        _check(parser, 0.0 <= ns.q <= 1.0, f"--q must lie in [0, 1], got {ns.q}")
        _check(parser, ns.nu >= 0.0, f"--nu must be non-negative, got {ns.nu}")
    elif c == "sweep":
        _check(parser, 0.0 <= ns.q_min <= ns.q_max <= 1.0,
               "need 0 <= --q-min <= --q-max <= 1")
        _check(parser, 0.0 <= ns.nu_min <= ns.nu_max,
               "need 0 <= --nu-min <= --nu-max")
        _check(parser, ns.q_steps >= 1, f"--q-steps must be >= 1, got {ns.q_steps}")
        _check(parser, ns.nu_steps >= 1, f"--nu-steps must be >= 1, got {ns.nu_steps}")
    elif c == "verify":
        _check(parser, ns.grid >= 1, f"--grid must be >= 1, got {ns.grid}")
        _check(parser, ns.tol > 0.0, f"--tol must be positive, got {ns.tol}")
    elif c == "convert":
        _check(parser, ns.omega > 0.0, f"--omega must be positive, got {ns.omega}")
        _check(parser, ns.accel >= 0.0, f"--accel must be non-negative, got {ns.accel}")
        _check(parser, ns.eps >= 0.0, f"--eps must be non-negative, got {ns.eps}")
        _check(parser, ns.delta > 0.0, f"--delta must be positive, got {ns.delta}")
        _check(parser, ns.kappa >= 0.0, f"--kappa must be non-negative, got {ns.kappa}")


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
    params = ModelParams(q=ns.q, nu=ns.nu)
    for message in params.validity_warnings():
        _warn(message)
    point = detector_state(params)
    triple = coherence_closed_form(ns.q, ns.nu)
    _emit("alpha", point.alpha)
    _emit("beta", point.beta)
    _emit("gamma", point.gamma)
    _emit("c_total", triple.c_total)
    _emit("c_collective", triple.c_collective)
    _emit("c_localized", triple.c_localized)
    _emit("triangle_slack", triple.triangle_slack)
    return 0


def cmd_sweep(ns):
    spec = SweepSpec(
        q_min=ns.q_min,
        q_max=ns.q_max,
        q_steps=ns.q_steps,
        nu_min=ns.nu_min,
        nu_max=ns.nu_max,
        nu_steps=ns.nu_steps,
    )
    result = run_sweep(spec)
    for notice in result.notices:
        print(f"notice: {notice}", file=sys.stderr)
    if ns.out is not None:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(result.records, fh)
    else:
        write_csv(result.records, sys.stdout)
    return 0


def cmd_verify(ns):
    spec = SweepSpec(q_steps=ns.grid, nu_steps=ns.grid)
    report = verify_grid(spec, tol=ns.tol)
    _emit("points_checked", report.points_checked)
    _emit("max_triangle_violation", report.max_triangle_violation)
    _emit("max_path_gap", report.max_path_gap)
    _emit("min_c_total", report.min_c_total)
    _emit("monotonic_fraction_in_nu", report.monotonic_fraction_in_nu)
    _emit("monotonic_fraction_in_q", report.monotonic_fraction_in_q)
    print(f"passed = {'true' if report.passed else 'false'}")
    return 0 if report.passed else 1


def cmd_spectra(ns):
    params = ModelParams(q=ns.q, nu=ns.nu)
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
    phys = PhysicalParams(
        omega=ns.omega, accel=ns.accel, eps=ns.eps, delta=ns.delta, kappa=ns.kappa
    )
    for message in phys.validity_warnings():
        _warn(message)
    _emit("q", q_from_acceleration(ns.omega, ns.accel))
    _emit("nu_squared", nu_squared_from_physical(phys))
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "spectra": cmd_spectra,
    "convert": cmd_convert,
}


def main(argv=None):
    ns = parse_args(argv)
    try:
        return _COMMANDS[ns.command](ns)
    except CoherenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
