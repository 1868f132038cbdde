"""CSV tables that the log does not hold: obstacle paths, sweep summaries,
the paired MPC/LQR controls and the terminal level schedule.

Each public function but write_run_bundle returns CSV text; write_run_bundle
writes the obstacle paths beside a run's log, which is the one per-step
record (plot a run from `{name}_log.csv`). The files are deliberately tiny
and tool-agnostic (gnuplot, pandas, a spreadsheet) — this package ships no
plotting code.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .sim import Scenario, SimLog, _column_table, _table, obstacle_tracks


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
    vertices = np.array([box for _, box in levels]).reshape(-1, 24)
    return _column_table(header, [np.arange(len(levels)), np.array([c for c, _ in levels]),
                                  *vertices.T])


def write_run_bundle(log: SimLog, out_dir, stem: str = None):
    """Write the per-run bundle beside the log, into the existing out_dir:
    `{stem}_obstacles.csv` when the scene has obstacles, else nothing;
    returns the created paths."""
    if not log.scenario.obstacles:
        return []
    path = Path(out_dir) / f"{stem or log.scenario.name}_obstacles.csv"
    path.write_text(obstacle_paths_csv(log.scenario, len(log.rows), log.tracks))
    return [path]
