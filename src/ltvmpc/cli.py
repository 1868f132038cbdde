"""Batch front end: config files in, CSV logs + metrics + manifests out.

Subcommands: run, sweep, compare-lqr, terminal-set, dump-figures. Configs are
YAML with strict unknown-key rejection (a typo in a sweep study should fail
loudly, not silently fall back to a default). Every command writes a
manifest.json holding the fully-resolved scenario; passing a manifest as
--config re-runs it and reproduces the CSV outputs byte for byte.

Exit codes: 0 success, 1 scenario halted on unrecoverable infeasibility,
2 config/usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, figures
from .mpc import MpcConfig
from .sim import (ObstacleSpec, Scenario, SimLog, TrajectorySpec, build_controller,
                  compute_metrics, lqr_comparison, read_log_csv, run_scenario, sweep,
                  write_log_csv)
from .terminal_set import TerminalConstraints, compute_c_schedule, vertices_feasible


class ConfigError(Exception):
    """Anything wrong with a config/manifest; maps to exit code 2."""


# -- config schema ---------------------------------------------------------------

_TOP_KEYS = ("name", "trajectory", "duration", "initial_state", "Q_diag", "R_diag",
             "controller", "reference_mode", "mpc", "obstacles", "sweep", "terminal_set")
_TRAJ_KEYS = ("kind", "T", "x_speed", "amplitude", "angular_freq", "start", "heading",
              "speed", "center", "radius", "angular_rate", "phase")
_MPC_KEYS = ("N", "beta", "terminal_mode", "u_max", "slack_weight", "avoidance",
             "theta_s_deg", "r_safe", "d_activate", "robot_radius", "tau",
             "forbid_reverse")
_OBS_KEYS = ("kind", "radius", "position", "velocity", "control", "trajectory")
_TERMINAL_KEYS = ("e_max", "c0", "shrink")
_SWEEP_KEYS = ("param", "values")

_DEFAULT_E_MAX = (1.0, 1.0, math.pi)


def _require_mapping(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    return d


def _check_keys(d: dict, allowed, where: str):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        prefix = f"{where}." if where else ""
        raise ConfigError(f"unknown key '{prefix}{unknown[0]}'"
                          f" (allowed: {', '.join(sorted(allowed))})")


def _traj_from_dict(d, where: str = "trajectory") -> TrajectorySpec:
    d = _require_mapping(d, where)
    _check_keys(d, _TRAJ_KEYS, where)
    if "kind" not in d:
        raise ConfigError(f"'{where}.kind' is required")
    kw = dict(d)
    for key in ("start", "center"):
        if key in kw:
            kw[key] = tuple(float(x) for x in kw[key])
    try:
        return TrajectorySpec(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _mpc_from_dict(d) -> MpcConfig:
    d = _require_mapping(d, "mpc")
    _check_keys(d, _MPC_KEYS, "mpc")
    kw = {}
    for key in ("N", "beta", "terminal_mode", "slack_weight", "r_safe", "d_activate",
                "robot_radius", "tau", "forbid_reverse"):
        if key in d:
            kw[key] = d[key]
    if "u_max" in d:
        kw["u_max"] = np.asarray(d["u_max"], dtype=float)
    if "avoidance" in d:
        kw["avoidance_mode"] = d["avoidance"]
    if "theta_s_deg" in d:
        kw["theta_s"] = math.radians(float(d["theta_s_deg"]))
    try:
        return MpcConfig(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"mpc: {e}") from e


def _obstacle_from_dict(d, i: int) -> ObstacleSpec:
    where = f"obstacles[{i}]"
    d = _require_mapping(d, where)
    _check_keys(d, _OBS_KEYS, where)
    kw = dict(d)
    if "trajectory" in kw:
        kw["trajectory"] = _traj_from_dict(kw["trajectory"], f"{where}.trajectory")
    for key in ("position", "velocity"):
        if key in kw:
            kw[key] = tuple(float(x) for x in kw[key])
    try:
        return ObstacleSpec(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


class ConfigBundle:
    """Parsed config: the scenario plus optional sweep / terminal-set sections."""

    def __init__(self, scenario: Scenario, sweep_spec=None, terminal=None):
        self.scenario = scenario
        self.sweep_spec = sweep_spec  # (param, values) or None
        self.terminal = terminal or {}

    def constraints(self) -> TerminalConstraints:
        e_max = self.terminal.get("e_max", _DEFAULT_E_MAX)
        return TerminalConstraints(np.asarray(e_max, dtype=float),
                                   self.scenario.cfg.u_max)


def parse_config(text: str) -> ConfigBundle:
    """Strictly-validated YAML config -> fully-resolved scenario bundle."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"parse error: {e}") from e
    data = _require_mapping(data, "config root")
    _check_keys(data, _TOP_KEYS, "")
    if "trajectory" not in data:
        raise ConfigError("'trajectory' section is required")

    kw = {"trajectory": _traj_from_dict(data["trajectory"])}
    for key in ("name", "duration", "controller", "reference_mode"):
        if key in data:
            kw[key] = data[key]
    if data.get("initial_state") is not None:
        kw["initial_state"] = tuple(float(x) for x in data["initial_state"])
    for key in ("Q_diag", "R_diag"):
        if key in data:
            kw[key] = tuple(float(x) for x in data[key])
    if "mpc" in data:
        kw["cfg"] = _mpc_from_dict(data["mpc"])
    if "obstacles" in data:
        if not isinstance(data["obstacles"], list):
            raise ConfigError("'obstacles' must be a list")
        kw["obstacles"] = tuple(_obstacle_from_dict(o, i)
                                for i, o in enumerate(data["obstacles"]))
    try:
        scn = Scenario(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e

    sweep_spec = None
    if "sweep" in data:
        sw = _require_mapping(data["sweep"], "sweep")
        _check_keys(sw, _SWEEP_KEYS, "sweep")
        param = sw.get("param")
        values = sw.get("values")
        if param not in ("N", "beta"):
            raise ConfigError("sweep.param must be 'N' or 'beta'")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values must be a non-empty list")
        sweep_spec = (param, list(values))

    terminal = {}
    if "terminal_set" in data:
        terminal = _require_mapping(data["terminal_set"], "terminal_set")
        _check_keys(terminal, _TERMINAL_KEYS, "terminal_set")
    return ConfigBundle(scn, sweep_spec, terminal)


# -- manifest (resolved-scenario) serialization ---------------------------------------

def _traj_to_dict(t: TrajectorySpec) -> dict:
    return {"kind": t.kind, "T": t.T, "x_speed": t.x_speed, "amplitude": t.amplitude,
            "angular_freq": t.angular_freq, "start": list(t.start),
            "heading": t.heading, "speed": t.speed, "center": list(t.center),
            "radius": t.radius, "angular_rate": t.angular_rate, "phase": t.phase}


def scenario_to_dict(scn: Scenario) -> dict:
    cfg = scn.cfg
    return {
        "name": scn.name,
        "trajectory": _traj_to_dict(scn.trajectory),
        "duration": scn.duration,
        "initial_state": None if scn.initial_state is None else list(scn.initial_state),
        "Q_diag": list(scn.Q_diag),
        "R_diag": list(scn.R_diag),
        "controller": scn.controller,
        "reference_mode": scn.reference_mode,
        "mpc": {"N": cfg.N, "beta": cfg.beta, "terminal_mode": cfg.terminal_mode,
                "u_max": list(map(float, cfg.u_max)), "slack_weight": cfg.slack_weight,
                "avoidance_mode": cfg.avoidance_mode, "theta_s": cfg.theta_s,
                "r_safe": cfg.r_safe, "d_activate": cfg.d_activate,
                "robot_radius": cfg.robot_radius, "tau": cfg.tau,
                "forbid_reverse": cfg.forbid_reverse},
        "obstacles": [{"kind": o.kind, "radius": o.radius, "position": list(o.position),
                       "velocity": list(o.velocity), "control": o.control,
                       "trajectory": None if o.trajectory is None
                       else _traj_to_dict(o.trajectory)}
                      for o in scn.obstacles],
    }


def scenario_from_dict(d: dict) -> Scenario:
    mpc = d["mpc"]
    cfg = MpcConfig(N=mpc["N"], beta=mpc["beta"], terminal_mode=mpc["terminal_mode"],
                    u_max=np.asarray(mpc["u_max"], dtype=float),
                    slack_weight=mpc["slack_weight"],
                    avoidance_mode=mpc["avoidance_mode"], theta_s=mpc["theta_s"],
                    r_safe=mpc["r_safe"], d_activate=mpc["d_activate"],
                    robot_radius=mpc["robot_radius"], tau=mpc["tau"],
                    forbid_reverse=mpc["forbid_reverse"])
    obstacles = tuple(
        ObstacleSpec(kind=o["kind"], radius=o["radius"],
                     position=tuple(o["position"]), velocity=tuple(o["velocity"]),
                     control=o["control"],
                     trajectory=None if o["trajectory"] is None
                     else TrajectorySpec(**{**o["trajectory"],
                                            "start": tuple(o["trajectory"]["start"]),
                                            "center": tuple(o["trajectory"]["center"])}))
        for o in d["obstacles"])
    traj = d["trajectory"]
    return Scenario(
        name=d["name"],
        trajectory=TrajectorySpec(**{**traj, "start": tuple(traj["start"]),
                                     "center": tuple(traj["center"])}),
        duration=d["duration"],
        initial_state=None if d["initial_state"] is None else tuple(d["initial_state"]),
        cfg=cfg, Q_diag=tuple(d["Q_diag"]), R_diag=tuple(d["R_diag"]),
        obstacles=obstacles, controller=d["controller"],
        reference_mode=d["reference_mode"],
    )


def write_manifest(out_dir: Path, command: str, config_path: str,
                   bundle: ConfigBundle) -> Path:
    doc = {
        "tool": "ltvmpc",
        "version": __version__,
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_path": str(config_path),
        "out_dir": str(out_dir),
        "scenario": scenario_to_dict(bundle.scenario),
        "sweep": None if bundle.sweep_spec is None
        else {"param": bundle.sweep_spec[0], "values": bundle.sweep_spec[1]},
        "terminal_set": bundle.terminal or None,
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_config(path) -> ConfigBundle:
    """YAML config or a previously-written manifest.json (resolved scenario)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    text = p.read_text()
    if p.suffix == ".json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"manifest parse error: {e}") from e
        if not isinstance(doc, dict) or doc.get("tool") != "ltvmpc":
            raise ConfigError(f"{p} is not an ltvmpc manifest")
        try:
            scn = scenario_from_dict(doc["scenario"])
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"manifest scenario invalid: {e}") from e
        sw = doc.get("sweep")
        sweep_spec = None if sw is None else (sw["param"], list(sw["values"]))
        return ConfigBundle(scn, sweep_spec, doc.get("terminal_set") or {})
    return parse_config(text)


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
    bundle = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return bundle, out


def _cmd_run(args) -> int:
    bundle, out = _prepare(args)
    scn = bundle.scenario
    log = run_scenario(scn)
    write_log_csv(log, out / f"{scn.name}_log.csv")
    figures.write_run_bundle(log, out, scn.name)
    if log.rows:
        _write_json(out / f"{scn.name}_metrics.json", _metrics_dict(compute_metrics(log)))
    write_manifest(out, "run", args.config, bundle)
    if log.halted:
        print(f"{scn.name}: halted — {log.halt_reason}", file=sys.stderr)
        return 1
    if not args.quiet:
        m = compute_metrics(log) if log.rows else None
        extra = "" if m is None else (f" xy_error_sum={m.xy_error_sum:.4g}"
                                      f" converged={m.converged}")
        print(f"{scn.name}: {len(log.rows)} steps{extra} -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    bundle, out = _prepare(args)
    if bundle.sweep_spec is None:
        raise ConfigError("sweep subcommand needs a 'sweep' section in the config")
    param, values = bundle.sweep_spec
    results = sweep(bundle.scenario, param, values)
    for value, log, m in results:
        write_log_csv(log, out / f"{log.scenario.name}_log.csv")
    (out / "sweep_summary.csv").write_text(figures.sweep_summary_csv(param, results))
    write_manifest(out, "sweep", args.config, bundle)
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
    bundle, out = _prepare(args)
    log_mpc, log_lqr = lqr_comparison(bundle.scenario)
    write_log_csv(log_mpc, out / f"{log_mpc.scenario.name}_log.csv")
    write_log_csv(log_lqr, out / f"{log_lqr.scenario.name}_log.csv")
    (out / f"{bundle.scenario.name}_lqr_compare.csv").write_text(
        figures.lqr_compare_csv(log_mpc, log_lqr))
    write_manifest(out, "compare-lqr", args.config, bundle)
    if not args.quiet:
        w_mpc = max((abs(r.omega) for r in log_mpc.rows), default=0.0)
        w_lqr = max((abs(r.omega) for r in log_lqr.rows), default=0.0)
        print(f"max |omega|: mpc={w_mpc:.4g} lqr={w_lqr:.4g}")
    return 1 if log_mpc.halted else 0


def _cmd_terminal_set(args) -> int:
    bundle, out = _prepare(args)
    scn = bundle.scenario
    controller, _ = build_controller(scn)
    schedule, inputs = controller.schedule, controller.ref.inputs
    cons = bundle.constraints()
    c0 = float(bundle.terminal.get("c0", 10.0))
    shrink = float(bundle.terminal.get("shrink", 1.01))
    levels = compute_c_schedule(schedule, cons, inputs, c0=c0, shrink=shrink)
    bad = [i for i, (c, poly) in enumerate(levels)
           if not vertices_feasible(poly, cons, schedule.K_at(i), inputs[i])]
    (out / f"{scn.name}_terminal_set.csv").write_text(figures.terminal_set_csv(levels))
    write_manifest(out, "terminal-set", args.config, bundle)
    cs = [c for c, _ in levels]
    if not args.quiet:
        print(f"{len(levels)} levels, c in [{min(cs):.6g}, {max(cs):.6g}], "
              f"vertex checks {'all pass' if not bad else f'FAIL at {bad[:5]}'}")
    return 0 if not bad else 1


def _cmd_dump_figures(args) -> int:
    bundle, out = _prepare(args)
    scn = bundle.scenario
    log_path = out / f"{scn.name}_log.csv"
    if not log_path.exists():
        raise ConfigError(f"no log at {log_path}; run the scenario first")
    log = SimLog(scn, read_log_csv(log_path))
    paths = figures.write_run_bundle(log, out, scn.name)
    if scn.cfg.avoidance_mode == "velocity_space" and scn.obstacles:
        p = out / f"{scn.name}_velocity_space.csv"
        p.write_text(figures.velocity_space_csv(scn))
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
