"""Batch front end: config files in, CSV logs + metrics + manifests out.

Subcommands: run, sweep, compare-lqr, terminal-set. A config is YAML whose
keys are the field names of the frozen dataclasses it builds: the Scenario's
fields at the top level (`mpc` holds MpcConfig's), beside the optional
`sweep` (SweepSpec) and `terminal_set` (TerminalSetSpec) sections.
Unknown keys are rejected (a typo in a sweep study should fail loudly, not
silently fall back to a default). Every command writes a manifest.json whose
`config` block holds every field of the resolved Config; that block is itself
a valid config, and passing the manifest as --config re-runs it and
reproduces the CSV outputs byte for byte.

Exit codes: 0 success, 1 scenario halted on unrecoverable infeasibility or
a terminal-set level whose outer box fails the vertex check (the table and
manifest are still written), 2 config/usage error: an unreadable config, an
--out that is or lies below a file, a terminal-set config whose P is not
positive definite or admits no level at some step.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np
import yaml

from . import __version__, figures
from .avoidance import velocity_debug_csv
from .mpc import MpcConfig
from .sim import (Config, Scenario, SweepSpec, TerminalSetSpec, build_controller,
                  compute_metrics, lqr_comparison, run_scenario, sweep, write_log_csv)
from .terminal_set import TerminalConstraints, compute_c_schedule, vertices_feasible


class ConfigError(Exception):
    """Anything wrong with a config/manifest; maps to exit code 2."""


# -- config schema: the dataclass field names are the keys ----------------------

def _from_dict(cls, d, where: str, sections=()):
    """Mapping -> dataclass `cls`, strictly: unknown keys are rejected, each
    value is converted by its field's type hint (`_value`), and the
    constructor validates the result. A null is kept where the default is
    None. `sections` only adds to the allowed keys an error message lists."""
    if not isinstance(d, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        prefix = f"{where}." if where else ""
        raise ConfigError(f"unknown key '{prefix}{unknown[0]}'"
                          f" (allowed: {', '.join(sorted([*fields, *sections]))})")
    hints = typing.get_type_hints(cls)
    kw = {key: value if value is None and fields[key].default is None
          else _value(hints[key], value, f"{where}.{key}" if where else key)
          for key, value in d.items()}
    try:
        return cls(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}" if where else str(e)) from e


def _value(hint, value, path: str):
    """One config value by its type hint: a nested dataclass from a mapping, a
    tuple from a list (items converted to floats or dataclasses by the hint's
    item type, else kept as written; an array field's items are floats), a
    scalar checked by `_scalar`. No float may be NaN or infinite, except the
    entries of `terminal_set.e_max`, where .inf leaves an error unbounded."""
    if dataclasses.is_dataclass(hint):
        return _from_dict(hint, value, path)
    if hint not in (tuple, np.ndarray) and typing.get_origin(hint) is not tuple:
        return _finite(_scalar(hint, value, path), path)
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' must be a list")
    item = float if hint is np.ndarray else (typing.get_args(hint) or (None,))[0]
    items = tuple(float(_scalar(item, v, f"{path}[{i}]")) if item is float
                  else _value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    return items if path == "terminal_set.e_max" else _finite(items, path)


_KINDS = {int: "an integer", bool: "true or false", float: "a number"}


def _scalar(hint, value, path: str):
    """A scalar by its type hint: an int field takes an integer, a bool field
    a bool, a float field an integer or a float (never a bool, which Python
    counts as an integer), or a string that spells a float (YAML 1.1 reads
    1e4 as a string); anything else as written."""
    if hint is float and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"'{path}' must be a number, not {value!r}") from None
    if hint in _KINDS and (isinstance(value, bool) != (hint is bool) or not isinstance(
            value, (int, float) if hint is float else hint)):
        raise ConfigError(f"'{path}' must be {_KINDS[hint]}, not {value!r}")
    return value


def _finite(value, path: str):
    """`value`, unless it is or lists a float that is NaN or infinite."""
    items = value if isinstance(value, (list, tuple)) else [value]
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ConfigError(f"'{path}' must be finite")
    return value


def _to_dict(obj):
    """Dataclass -> plain mapping of every field (tuples and arrays as lists)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return [_to_dict(v) for v in obj]
    return obj


def config_from_dict(d) -> Config:
    """A config mapping (a parsed YAML file or a manifest's `config` block):
    the scenario's fields at the top level, beside `sweep` and `terminal_set`."""
    if not isinstance(d, dict) or "trajectory" not in d:
        raise ConfigError("a config must be a mapping with a 'trajectory' section")
    kinds = {"sweep": SweepSpec, "terminal_set": TerminalSetSpec}
    sections = {key: _from_dict(cls, d[key], key) for key, cls in kinds.items() if key in d}
    spec = sections.get("sweep")  # each value by the swept field's rule, kept as written
    hint = spec and typing.get_type_hints(MpcConfig).get(spec.param)
    for i, value in enumerate(spec.values if hint in _KINDS else ()):
        _value(hint, value, f"sweep.values[{i}]")
    rest = {k: v for k, v in d.items() if k not in kinds}
    try:
        return Config(_from_dict(Scenario, rest, "", kinds), **sections)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def config_to_dict(config: Config) -> dict:
    """The inverse of config_from_dict; the result is itself a valid config."""
    sections = {"sweep": config.sweep, "terminal_set": config.terminal_set}
    return {**_to_dict(config.scenario),
            **{key: _to_dict(spec) for key, spec in sections.items() if spec is not None}}


def parse_config(text: str) -> Config:
    """Strictly-validated YAML config -> Config."""
    try:
        return config_from_dict(yaml.safe_load(text))
    except yaml.YAMLError as e:
        raise ConfigError(f"parse error: {e}") from e


def write_manifest(out_dir: Path, command: str, config_path: str, config: Config):
    _write_json(Path(out_dir) / "manifest.json", {
        "tool": "ltvmpc",
        "version": __version__,
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_path": str(config_path),
        "out_dir": str(out_dir),
        "config": config_to_dict(config),
    })


def load_config(path) -> Config:
    """YAML config, or a previously-written manifest.json (its `config` block)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as e:
        raise ConfigError(f"cannot read config {p}: {e}") from e
    if p.suffix != ".json":
        return parse_config(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"manifest parse error: {e}") from e
    if not isinstance(doc, dict) or doc.get("tool") != "ltvmpc" or "config" not in doc:
        raise ConfigError(f"{p} is not an ltvmpc manifest with a 'config' block")
    return config_from_dict(doc["config"])


# -- metrics serialization ------------------------------------------------------------

def _metrics_dict(m) -> dict:
    return {"xy_error_sum": m.xy_error_sum,
            "input_effort_v": m.input_effort[0],
            "input_effort_omega": m.input_effort[1],
            "converged": m.converged,
            "min_clearance": None if math.isinf(m.min_clearance) else m.min_clearance,
            "lyapunov_violations": m.lyapunov_violations,
            "slack_total": m.slack_total,
            "halted": m.halted}


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- subcommands -----------------------------------------------------------------------

def _prepare(args):
    """The config and the output directory, rejected here if it is or lies
    below a file; a command creates the directory when it first writes, so a
    config error found late leaves none behind."""
    config, out = load_config(args.config), Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")
    return config, out


def _cmd_run(args) -> int:
    config, out = _prepare(args)
    scn = config.scenario
    log = run_scenario(scn)
    out.mkdir(parents=True, exist_ok=True)
    write_log_csv(log, out / f"{scn.name}_log.csv")
    figures.write_run_bundle(log, out, scn.name)
    if (scn.mpc.avoidance == "velocity_space" and scn.controller == "mpc"
            and len(log.rows) and scn.obstacles):
        if log.closest_debug is None:
            k = int(log.rows.k[np.argmin(log.rows.min_dist)])  # closest approach
            print(f"{scn.name}: no velocity-space constraint active at the closest approach"
                  f" (step {k}); no velocity-space dump written", file=sys.stderr)
        else:
            (out / f"{scn.name}_velocity_space.csv").write_text(
                velocity_debug_csv(*log.closest_debug))
    m = compute_metrics(log) if len(log.rows) else None
    if m is not None:
        _write_json(out / f"{scn.name}_metrics.json", _metrics_dict(m))
    write_manifest(out, "run", args.config, config)
    if log.halted:
        print(f"{scn.name}: halted — {log.halt_reason}", file=sys.stderr)
        return 1
    if not args.quiet:
        extra = "" if m is None else (f" xy_error_sum={m.xy_error_sum:.4g}"
                                      f" converged={m.converged}")
        print(f"{scn.name}: {len(log.rows)} steps{extra} -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    config, out = _prepare(args)
    if config.sweep is None:
        raise ConfigError("sweep subcommand needs a 'sweep' section in the config")
    param = config.sweep.param
    results = sweep(config.scenario, param, config.sweep.values)
    out.mkdir(parents=True, exist_ok=True)
    for value, log, m in results:
        write_log_csv(log, out / f"{log.scenario.name}_log.csv")
    (out / "sweep_summary.csv").write_text(figures.sweep_summary_csv(param, results))
    write_manifest(out, "sweep", args.config, config)
    halted = [log.scenario.name for _, log, _ in results if log.halted]
    if not args.quiet:
        for value, _, m in results:
            print(f"{param}={value}: xy_error_sum={m.xy_error_sum:.6g} "
                  f"converged={m.converged}")
    if halted:
        print(f"halted runs: {', '.join(halted)}", file=sys.stderr)
        return 1
    return 0


def _cmd_compare_lqr(args) -> int:
    config, out = _prepare(args)
    log_mpc, log_lqr = lqr_comparison(config.scenario)
    out.mkdir(parents=True, exist_ok=True)
    write_log_csv(log_mpc, out / f"{log_mpc.scenario.name}_log.csv")
    write_log_csv(log_lqr, out / f"{log_lqr.scenario.name}_log.csv")
    (out / f"{config.scenario.name}_lqr_compare.csv").write_text(
        figures.lqr_compare_csv(log_mpc, log_lqr))
    write_manifest(out, "compare-lqr", args.config, config)
    if not args.quiet:
        w_mpc = max(np.abs(log_mpc.rows.omega).tolist(), default=0.0)
        w_lqr = max(np.abs(log_lqr.rows.omega).tolist(), default=0.0)
        print(f"max |omega|: mpc={w_mpc:.4g} lqr={w_lqr:.4g}")
    return 1 if log_mpc.halted else 0


def _cmd_terminal_set(args) -> int:
    config, out = _prepare(args)
    scn, spec = config.scenario, config.terminal_set
    controller, _ = build_controller(scn)
    schedule, inputs = controller.schedule, controller.ref.inputs
    cons = TerminalConstraints(np.asarray(spec.e_max), scn.mpc.u_max)
    try:
        levels = compute_c_schedule(schedule, cons, inputs, c0=spec.c0, shrink=spec.shrink)
    except ValueError as e:  # a P that is not positive definite, or no level
        raise ConfigError(f"terminal_set: {e}") from e
    bad = [i for i, (c, box) in enumerate(levels)
           if not vertices_feasible(box, cons, schedule.K_at(i), inputs[i])]
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{scn.name}_terminal_set.csv").write_text(figures.terminal_set_csv(levels))
    write_manifest(out, "terminal-set", args.config, config)
    cs = [c for c, _ in levels]
    if not args.quiet:
        print(f"{len(levels)} levels, c in [{min(cs):.6g}, {max(cs):.6g}], "
              f"vertex checks {'all pass' if not bad else f'FAIL at {bad[:5]}'}")
    return 0 if not bad else 1


# -- entry point ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltvmpc",
        description="Batch simulation of LTV MPC unicycle tracking scenarios.")
    parser.add_argument("--version", action="version", version=f"ltvmpc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="YAML scenario config, or a manifest.json to re-run")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    for name, fn, desc in (
        ("run", _cmd_run, "run one scenario; write log, metrics, obstacle paths"),
        ("sweep", _cmd_sweep, "run the config's parameter sweep"),
        ("compare-lqr", _cmd_compare_lqr, "paired MPC vs unconstrained-LQR runs"),
        ("terminal-set", _cmd_terminal_set, "terminal level schedule + vertex table"),
    ):
        p = sub.add_parser(name, parents=[common], help=desc)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse prints usage itself; keep its code
        return 2 if e.code not in (0, None) else int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
