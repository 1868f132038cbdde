"""Closed-loop engine: logging, metrics aggregation, CSV round trips,
determinism, and the parameter-study helpers."""

import math

import numpy as np
import pytest

from ltvmpc.mpc import MpcConfig
from ltvmpc.sim import (Metrics, ObstacleSpec, Scenario, SimLog, SimRow,
                        TrajectorySpec, compute_metrics, log_to_csv,
                        lqr_comparison, read_log_csv, run_scenario, sweep,
                        write_log_csv)

SHORT = Scenario(name="short", trajectory=TrajectorySpec("sinusoid"),
                 duration=40, mpc=MpcConfig(N=8))


def test_zero_duration_gives_empty_log():
    log = run_scenario(Scenario(name="empty", duration=0))
    assert log.rows == []
    assert not log.halted
    with pytest.raises(ValueError, match="empty log"):
        compute_metrics(log)


def hand_row(k, e1, e2, e3, v=0.3, omega=-0.1):
    return SimRow(k=k, t=0.05 * k, x=0.0, y=0.0, theta=0.0, x_ref=0.0,
                  y_ref=0.0, theta_ref=0.0, e1=e1, e2=e2, e3=e3, v=v,
                  omega=omega, v_ref=0.0, omega_ref=0.0, stage_cost=0.0,
                  terminal_cost=0.0, qp_status="optimal", slack=0.0,
                  min_dist=math.inf)


def test_metrics_on_hand_built_rows():
    rows = [hand_row(0, 1.0, -2.0, 0.0), hand_row(1, 0.5, 0.5, 0.0),
            hand_row(2, 0.0, 0.0, 0.0)]
    m = compute_metrics(SimLog(SHORT, rows))
    assert m.xy_error_sum == pytest.approx(4.0, abs=1e-15)
    assert m.input_effort == (pytest.approx(0.9), pytest.approx(0.3))
    assert m.converged  # tail window is the final all-zero row
    assert m.min_clearance == math.inf
    assert m.lyapunov_violations == 0
    assert m.slack_total == 0.0
    assert not m.halted


def test_on_reference_run_stays_exact():
    log = run_scenario(Scenario(name="onref", duration=100))
    assert len(log.rows) == 100
    m = compute_metrics(log)
    assert m.xy_error_sum <= 1e-4
    assert m.converged
    assert m.slack_total == 0.0
    assert all(r.qp_status == "optimal" for r in log.rows)


def test_offset_start_converges():
    scn = Scenario(name="offset", duration=150, initial_state=(0.0, 0.4, 0.2))
    m = compute_metrics(run_scenario(scn))
    assert m.xy_error_sum > 0.1
    assert m.converged
    assert not m.halted


def test_csv_round_trip(tmp_path):
    log = run_scenario(SHORT)
    path = tmp_path / "short_log.csv"
    write_log_csv(log, path)
    rows = read_log_csv(path)
    assert len(rows) == len(log.rows)
    for a, b in zip(log.rows, rows):
        assert a.k == b.k
        assert a.qp_status == b.qp_status
        for f in ("t", "x", "y", "theta", "e1", "e2", "e3", "v", "omega",
                  "stage_cost", "terminal_cost", "slack", "min_dist"):
            assert getattr(a, f) == getattr(b, f)  # 17 significant digits


def test_repeated_runs_are_identical():
    scn = Scenario(name="det", duration=60,
                   initial_state=(0.1, -0.2, 0.1),
                   obstacles=(ObstacleSpec("linear", radius=0.2,
                                           position=(4.0, 1.0),
                                           velocity=(-0.2, 0.0)),),
                   mpc=MpcConfig(N=8, avoidance="velocity_space"))
    assert log_to_csv(run_scenario(scn)) == log_to_csv(run_scenario(scn))


def test_single_point_sweep_equals_direct_run():
    results = sweep(SHORT, "N", [8])
    assert len(results) == 1
    value, log, metrics = results[0]
    assert value == 8
    assert log.scenario.name == "short_N8"
    assert log_to_csv(log) == log_to_csv(run_scenario(SHORT))
    assert metrics == compute_metrics(log)


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="sweep parameter"):
        sweep(SHORT, "gamma", [1.0])


def test_lqr_comparison_agrees_on_reference():
    log_mpc, log_lqr = lqr_comparison(Scenario(name="cmp", duration=50))
    assert log_mpc.scenario.name == "cmp_mpc"
    assert log_lqr.scenario.name == "cmp_lqr"
    for col in ("x", "y", "theta", "v", "omega"):
        assert np.allclose(log_mpc.column(col), log_lqr.column(col), atol=1e-7)


def test_obstacle_run_logs_clearance():
    scn = Scenario(name="clear", duration=40,
                   obstacles=(ObstacleSpec("static", radius=0.3,
                                           position=(1.0, 2.5)),),
                   mpc=MpcConfig(N=8))
    m = compute_metrics(run_scenario(scn))
    assert np.isfinite(m.min_clearance)
    assert m.min_clearance > 1.0  # obstacle sits well off the path


def test_spec_validation():
    with pytest.raises(ValueError):
        TrajectorySpec("spiral")
    with pytest.raises(ValueError):
        TrajectorySpec("line", T=0.0)
    with pytest.raises(ValueError):
        ObstacleSpec("wall")
    with pytest.raises(ValueError):
        ObstacleSpec("unicycle")  # needs its own trajectory
    with pytest.raises(ValueError):
        ObstacleSpec("static", control="closed_loop")
    with pytest.raises(ValueError):
        Scenario(duration=-1)
    with pytest.raises(ValueError):
        Scenario(controller="pid")
    with pytest.raises(ValueError):
        Scenario(Q_diag=(1.0, 1.0))
