"""Plot-data CSV bundles derived from simulation logs.

Every public function returns CSV text; write_run_bundle emits the standard
set next to a log file. The files are deliberately tiny and tool-agnostic
(gnuplot, pandas, a spreadsheet) — this package ships no plotting code.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .sim import Scenario, SimLog, _column_table, _table, obstacle_tracks


def _columns(rows, names) -> str:
    return _column_table(names, [rows[c] for c in names])


def trajectory_overlay_csv(rows) -> str:
    """Robot path against the reference path."""
    return _columns(rows, ("k", "t", "x", "y", "x_ref", "y_ref"))


def error_curves_csv(rows) -> str:
    e_inf = np.max(np.abs([rows.e1, rows.e2, rows.e3]), axis=0)
    return _column_table(("t", "e1", "e2", "e3", "e_inf"),
                         [rows.t, rows.e1, rows.e2, rows.e3, e_inf])


def control_curves_csv(rows) -> str:
    return _columns(rows, ("t", "v", "omega", "v_ref", "omega_ref"))


def cost_curves_csv(rows) -> str:
    return _columns(rows, ("t", "stage_cost", "terminal_cost", "slack", "min_dist"))


def obstacle_paths_csv(scn: Scenario, n_steps: int = None, tracks=None) -> str:
    """Obstacle disc positions over the first n_steps steps (all by default),
    one row per step and obstacle, read from `tracks` (built by
    `sim.obstacle_tracks` when not given)."""
    positions, _, radii = obstacle_tracks(scn) if tracks is None else tracks
    positions = positions[:n_steps]
    n, m = positions.shape[:2]
    k = np.repeat(np.arange(n), m)
    return _column_table(("k", "t", "obstacle", "x", "y", "radius"),
                         [k, k * scn.trajectory.T, np.tile(np.arange(m), n),
                          *positions.reshape(-1, 2).T, np.tile(radii, n)])


def sweep_summary_csv(param: str, results) -> str:
    """One metrics row per sweep value; results as returned by sim.sweep."""
    rows = []
    for value, log, m in results:
        rows.append((value, m.xy_error_sum, m.input_effort[0], m.input_effort[1],
                     int(m.converged), m.min_clearance, m.lyapunov_violations,
                     m.slack_total, int(m.halted)))
    return _table((param, "xy_error_sum", "effort_v", "effort_omega", "converged",
                   "min_clearance", "lyapunov_violations", "slack_total", "halted"),
                  rows)


def lqr_compare_csv(log_mpc: SimLog, log_lqr: SimLog) -> str:
    """Per-step controls of the paired runs, aligned on k."""
    n = min(len(log_mpc.rows), len(log_lqr.rows))
    a, b = log_mpc.rows[:n], log_lqr.rows[:n]
    return _column_table(("k", "t", "v_mpc", "omega_mpc", "v_lqr", "omega_lqr", "dv", "domega"),
                         [a.k, a.t, a.v, a.omega, b.v, b.omega, np.abs(a.v - b.v),
                          np.abs(a.omega - b.omega)])


def terminal_set_csv(levels) -> str:
    """Level schedule rows (i, c, 8 vertices) from compute_c_schedule output."""
    header = ["i", "c"] + [f"v{j}_{e}" for j in range(8) for e in ("e1", "e2", "e3")]
    vertices = np.array([poly.vertices.reshape(-1) for _, poly in levels]).reshape(-1, 24)
    return _column_table(header, [np.arange(len(levels)), np.array([c for c, _ in levels]),
                                  *vertices.T])


def write_run_bundle(log: SimLog, out_dir, stem: str = None):
    """Write the standard per-run bundle; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = stem or log.scenario.name
    parts = {
        "trajectory": trajectory_overlay_csv(log.rows),
        "errors": error_curves_csv(log.rows),
        "controls": control_curves_csv(log.rows),
        "costs": cost_curves_csv(log.rows),
    }
    if log.scenario.obstacles:
        parts["obstacles"] = obstacle_paths_csv(log.scenario, len(log.rows), log.tracks)
    paths = []
    for label, text in parts.items():
        p = out / f"{stem}_{label}.csv"
        p.write_text(text)
        paths.append(p)
    return paths
