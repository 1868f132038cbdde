"""Correctness gate: every pass's outputs are read back from disk and checked.

Every scene must exit 0 without a halt, keep |u| <= u_max + 1e-9 on every
logged step and report `converged`. The collision-free avoidance scenes must
keep centre distance >= the sum of the physical radii, recomputed here from
the logged robot path and the obstacle-path CSV; `static_hyperplane_90`, the
documented failure mode, must report slack > 0. The terminal-set scene must
pass its vertex checks on every level. On the default seed the outputs must
also match the reference recorded by `record_reference.py`: states, inputs
and slack within REF_ATOL, QP status exactly, levels within REF_RTOL.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import ROBOT_RADIUS

U_TOL = 1e-9
REF_ATOL = 1e-6
REF_RTOL = 1e-6
DEFAULT_U_MAX = (2.0, 10.0)  # the library default, used by configs without u_max
_RUN_COLUMNS = ("k", "x", "y", "theta", "v", "omega", "qp_status", "slack")
_LEVEL_COLUMNS = ("i", "c")


def _read_csv(path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def levels_expected(cfg: dict) -> int:
    return cfg["duration"] + cfg["mpc"]["N"] + 1


def _min_clearance(rows, obstacle_rows) -> float:
    """Smallest centre distance minus both physical radii over all steps."""
    robot = {int(r["k"]): (float(r["x"]), float(r["y"])) for r in rows}
    worst = math.inf
    for o in obstacle_rows:
        k = int(o["k"])
        if k in robot:
            x, y = robot[k]
            d = math.hypot(x - float(o["x"]), y - float(o["y"]))
            worst = min(worst, d - ROBOT_RADIUS - float(o["radius"]))
    return worst


def check_run(scene, cfg: dict, out: Path, exit_code) -> tuple:
    """(failures, attempted, failed) of one `ltvmpc run` scene; an operation
    is a control step, and a step never run because of a halt fails."""
    name, duration = cfg["name"], cfg["duration"]
    failures = [] if exit_code == 0 else [f"{name}: exit code {exit_code}"]
    log_path = out / f"{name}_log.csv"
    if not log_path.exists():
        return failures + [f"{name}: no log written"], duration, duration
    rows = _read_csv(log_path)
    failed = sum(r["qp_status"] != "optimal" for r in rows) + max(0, duration - len(rows))
    if len(rows) < duration:
        failures.append(f"{name}: halted after {len(rows)} of {duration} steps")
    u_max = cfg["mpc"].get("u_max", DEFAULT_U_MAX)
    for r in rows:
        if abs(float(r["v"])) > u_max[0] + U_TOL or abs(float(r["omega"])) > u_max[1] + U_TOL:
            failures.append(f"{name}: input bound violated at step {r['k']}")
            break
    metrics_path = out / f"{name}_metrics.json"
    metrics = json.loads(metrics_path.read_text()) if metrics_path.exists() else {}
    if metrics.get("converged") is not True or metrics.get("halted") is not False:
        failures.append(f"{name}: not converged or halted ({metrics or 'no metrics'})")
    if scene.collision_free:
        clearance = _min_clearance(rows, _read_csv(out / f"{name}_obstacles.csv"))
        if not clearance >= 0.0:
            failures.append(f"{name}: collision, surface clearance {clearance:.6g} m")
    if scene.expects_slack and not sum(float(r["slack"]) for r in rows) > 0.0:
        failures.append(f"{name}: documented slack fallback did not engage")
    return failures, duration, failed


def check_terminal_set(cfg: dict, out: Path, exit_code, vertex_ok) -> tuple:
    """(failures, attempted, failed) of one `ltvmpc terminal-set` scene; an
    operation is a level, and it fails if its vertex check fails or never ran.
    vertex_ok lists each vertex check's result, or is None when the check
    cannot be observed, in which case the exit code stands for all levels."""
    name, expected = cfg["name"], levels_expected(cfg)
    failures = [] if exit_code == 0 else [f"{name}: exit code {exit_code}"]
    if vertex_ok is None:
        failed = 0 if exit_code == 0 else expected
    else:
        failed = expected - min(expected, sum(vertex_ok))
    path = out / f"{name}_terminal_set.csv"
    levels = _read_csv(path) if path.exists() else []
    if len(levels) != expected:
        failures.append(f"{name}: {len(levels)} levels written, expected {expected}")
    if not all(0.0 < float(r["c"]) < math.inf for r in levels):
        failures.append(f"{name}: a level is not positive and finite")
    return failures, expected, failed


def reference_rows(scene, cfg: dict, out: Path) -> list:
    """The rows a reference file holds for a scene: header first."""
    if scene.command == "terminal-set":
        rows = _read_csv(out / f"{cfg['name']}_terminal_set.csv")
        return [_LEVEL_COLUMNS] + [tuple(r[c] for c in _LEVEL_COLUMNS) for r in rows]
    rows = _read_csv(out / f"{cfg['name']}_log.csv")
    return [_RUN_COLUMNS] + [tuple(r[c] for c in _RUN_COLUMNS) for r in rows]


def compare_reference(scene, cfg: dict, out: Path, ref_path: Path) -> list:
    """Failures of a scene's outputs against its recorded reference."""
    name = cfg["name"]
    try:
        got = reference_rows(scene, cfg, out)
    except (OSError, KeyError) as e:
        return [f"{name}: outputs unreadable for the reference check ({e})"]
    with open(ref_path, newline="") as f:
        want = [tuple(r) for r in csv.reader(f)]
    if got[0] != want[0] or len(got) != len(want):
        return [f"{name}: {len(got) - 1} rows, reference has {len(want) - 1}"]
    for g, w in zip(got[1:], want[1:]):
        for col, a, b in zip(want[0], g, w):
            if col == "qp_status":
                ok = a == b
            elif col == "c":
                ok = abs(float(a) - float(b)) <= REF_RTOL * abs(float(b))
            else:
                ok = abs(float(a) - float(b)) <= REF_ATOL
            if not ok:
                return [f"{name}: row {g[0]} column {col} is {a}, reference {b}"]
    return []
