"""Batch front end: config files in, CSV logs + metrics + manifests out.

Subcommands: run, sweep, compare-lqr, terminal-set, dump-figures. A config is
YAML whose keys are the field names of the frozen dataclasses it builds: the
Scenario's fields at the top level (`mpc` holds MpcConfig's), beside the
optional `sweep` (SweepSpec) and `terminal_set` (TerminalSetSpec) sections.
Unknown keys are rejected (a typo in a sweep study should fail loudly, not
silently fall back to a default). Every command writes a manifest.json whose
`config` block holds every field of the resolved Config; that block is itself
a valid config, and passing the manifest as --config re-runs it and
reproduces the CSV outputs byte for byte.

Exit codes: 0 success, 1 scenario halted on unrecoverable infeasibility,
2 config/usage error.
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
from .sim import (Config, Scenario, SimLog, SweepSpec, TerminalSetSpec, build_controller,
                  compute_metrics, lqr_comparison, obstacle_tracks, read_log_csv, run_scenario,
                  sweep, write_log_csv)
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
    item type, else kept as written), a float from a string in a float field
    (YAML 1.1 reads 1e4 as a string); anything else as written. No float may
    be NaN or infinite, except the entries of `terminal_set.e_max`, where
    .inf leaves an error unbounded."""
    if dataclasses.is_dataclass(hint):
        return _from_dict(hint, value, path)
    if hint is float and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"'{path}' must be a number, not {value!r}") from None
    if hint is not tuple and typing.get_origin(hint) is not tuple:
        return _finite(value, path)
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' must be a list")
    item = (typing.get_args(hint) or (None,))[0]
    try:
        items = tuple(float(v) if item is float else _value(item, v, f"{path}[{i}]")
                      for i, v in enumerate(value))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e
    return items if path == "terminal_set.e_max" else _finite(items, path)


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
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    text = p.read_text()
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
    config = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _cmd_run(args) -> int:
    config, out = _prepare(args)
    scn = config.scenario
    log = run_scenario(scn)
    write_log_csv(log, out / f"{scn.name}_log.csv")
    figures.write_run_bundle(log, out, scn.name)
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
    levels = compute_c_schedule(schedule, cons, inputs, c0=spec.c0, shrink=spec.shrink)
    bad = [i for i, (c, poly) in enumerate(levels)
           if not vertices_feasible(poly, cons, schedule.K_at(i), inputs[i])]
    (out / f"{scn.name}_terminal_set.csv").write_text(figures.terminal_set_csv(levels))
    write_manifest(out, "terminal-set", args.config, config)
    cs = [c for c, _ in levels]
    if not args.quiet:
        print(f"{len(levels)} levels, c in [{min(cs):.6g}, {max(cs):.6g}], "
              f"vertex checks {'all pass' if not bad else f'FAIL at {bad[:5]}'}")
    return 0 if not bad else 1


def _cmd_dump_figures(args) -> int:
    config, out = _prepare(args)
    scn = config.scenario
    log_path = out / f"{scn.name}_log.csv"
    if not log_path.exists():
        raise ConfigError(f"no log at {log_path}; run the scenario first")
    # the tracks are built once, for the obstacle CSV and the velocity dump
    log = SimLog(scn, read_log_csv(log_path), tracks=obstacle_tracks(scn))
    paths = figures.write_run_bundle(log, out, scn.name)
    if (scn.mpc.avoidance == "velocity_space" and scn.controller == "mpc"
            and len(log.rows) and scn.obstacles):
        k = int(log.rows.k[np.argmin(log.rows.min_dist)])  # closest approach
        text = figures.velocity_space_csv(scn, k, log.tracks)
        if text is None:
            print(f"{scn.name}: no velocity-space constraint active at the closest approach"
                  f" (step {k}); no velocity-space dump written", file=sys.stderr)
        else:
            p = out / f"{scn.name}_velocity_space.csv"
            p.write_text(text)
            paths.append(p)
    if not args.quiet:
        print("\n".join(str(p) for p in paths))
    return 0


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
        ("run", _cmd_run, "run one scenario; write log, metrics, figure bundle"),
        ("sweep", _cmd_sweep, "run the config's parameter sweep"),
        ("compare-lqr", _cmd_compare_lqr, "paired MPC vs unconstrained-LQR runs"),
        ("terminal-set", _cmd_terminal_set, "terminal level schedule + vertex table"),
        ("dump-figures", _cmd_dump_figures, "re-emit figure bundles from existing logs"),
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
