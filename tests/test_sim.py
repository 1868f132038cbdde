"""Closed-loop engine: logging, metrics aggregation, CSV round trips,
determinism, and the parameter-study helpers."""

import math

import numpy as np
import pytest

from ltvmpc.dynamics import RobotState, derive_reference, step_discrete
from ltvmpc.mpc import MpcConfig
from ltvmpc.sim import (CSV_COLUMNS, LOG_DTYPE, LYAP_ENTRY, LYAP_TOL, Metrics, ObstacleSpec,
                        Scenario, SimLog, TrajectorySpec, _table, compute_metrics, log_to_csv,
                        lqr_comparison, obstacle_tracks, read_log_csv, run_scenario, sweep,
                        write_log_csv)

SHORT = Scenario(name="short", trajectory=TrajectorySpec("sinusoid"),
                 duration=40, mpc=MpcConfig(N=8))


def test_zero_duration_gives_empty_log():
    log = run_scenario(Scenario(name="empty", duration=0))
    assert len(log.rows) == 0
    assert not log.halted
    with pytest.raises(ValueError, match="empty log"):
        compute_metrics(log)


def hand_row(k, e1, e2, e3, v=0.3, omega=-0.1, **fields):
    """One log record; the fields not given are 0, except t = 0.05 k, an
    optimal QP status and no obstacle (min_dist inf)."""
    row = {**dict.fromkeys(CSV_COLUMNS, 0.0), "k": k, "t": 0.05 * k, "e1": e1, "e2": e2,
           "e3": e3, "v": v, "omega": omega, "qp_status": "optimal", "min_dist": math.inf,
           **fields}
    return tuple(row[c] for c in CSV_COLUMNS)


def hand_log(rows):
    return SimLog(SHORT, np.array(rows, dtype=LOG_DTYPE).view(np.recarray))


def test_metrics_on_hand_built_rows():
    rows = [hand_row(0, 1.0, -2.0, 0.0), hand_row(1, 0.5, 0.5, 0.0),
            hand_row(2, 0.0, 0.0, 0.0)]
    m = compute_metrics(hand_log(rows))
    assert m.xy_error_sum == pytest.approx(4.0, abs=1e-15)
    assert m.input_effort == (pytest.approx(0.9), pytest.approx(0.3))
    assert m.converged  # tail window is the final all-zero row
    assert m.min_clearance == math.inf
    assert m.lyapunov_violations == 0
    assert m.slack_total == 0.0
    assert not m.halted


def test_metrics_match_per_step_loops():
    # the column arithmetic against the per-step loops it replaced: a run
    # with an obstacle, and a hand log whose terminal cost twice fails to
    # decrease by the stage cost
    run = run_scenario(Scenario(name="loops", duration=40, initial_state=(0.0, 0.3, 0.1),
                                obstacles=(ObstacleSpec("static", position=(1.0, 1.0)),),
                                mpc=MpcConfig(N=8)))
    costs = [(0.5, 0.2, 0.0, 2.0), (0.4, 0.1, 0.3, 1.5), (0.4, 0.1, 0.0, 1.7),
             (0.2, 0.1, 0.1, 1.1), (0.1, 0.1, 0.0, 0.9)]
    hand = hand_log([hand_row(k, 0.01 * k, -0.02, 0.0, terminal_cost=vf, stage_cost=l,
                              slack=s, min_dist=d)
                     for k, (vf, l, s, d) in enumerate(costs)])
    for log in (run, hand):
        rows = [dict(zip(CSV_COLUMNS, r)) for r in log.rows.tolist()]
        e_inf = [max(abs(r["e1"]), abs(r["e2"]), abs(r["e3"])) for r in rows]
        k0 = next(k for k, e in enumerate(e_inf) if e < LYAP_ENTRY)
        violations = sum(rows[i]["terminal_cost"] - rows[i + 1]["terminal_cost"] + LYAP_TOL
                         < rows[i]["stage_cost"] for i in range(k0, len(rows) - 1))
        m = compute_metrics(log)
        assert m.input_effort == (sum(abs(r["v"]) for r in rows),
                                  sum(abs(r["omega"]) for r in rows))
        assert m.slack_total == sum(r["slack"] for r in rows)
        assert m.min_clearance == min(r["min_dist"] for r in rows)
        assert m.lyapunov_violations == violations
    assert compute_metrics(hand).lyapunov_violations == 2
    assert math.isfinite(compute_metrics(run).min_clearance)


def test_on_reference_run_stays_exact():
    log = run_scenario(Scenario(name="onref", duration=100))
    assert len(log.rows) == 100
    m = compute_metrics(log)
    assert m.xy_error_sum <= 1e-4
    assert m.converged
    assert m.slack_total == 0.0
    assert all(log.rows.qp_status == "optimal")


def test_offset_start_converges():
    scn = Scenario(name="offset", duration=150, initial_state=(0.0, 0.4, 0.2))
    m = compute_metrics(run_scenario(scn))
    assert m.xy_error_sum > 0.1
    assert m.converged
    assert not m.halted


def test_csv_round_trip(tmp_path):
    # every status the QP solver returns, so a too-narrow status field shows
    hand = hand_log([hand_row(0, 1.0, -2.0, 0.3, x_ref=0.1, theta_ref=-3.0, slack=0.25),
                     hand_row(1, 0.5, 0.5, 0.0, qp_status="max_iter", min_dist=1.5),
                     hand_row(2, 0.0, 0.0, 0.0, v_ref=0.5, qp_status="infeasible")])
    for log in (run_scenario(SHORT), hand):
        path = tmp_path / f"{len(log.rows)}_log.csv"
        write_log_csv(log, path)
        rows = read_log_csv(path)
        assert len(rows) == len(log.rows)
        for c in CSV_COLUMNS:
            assert np.array_equal(rows[c], log.rows[c]), c  # 17 significant digits
    assert rows.qp_status.tolist() == ["optimal", "max_iter", "infeasible"]
    assert rows.min_dist[0] == math.inf


def test_column_writer_matches_per_value_formatting():
    # _table formats value by value through _fmt, the reference for _column_table
    hand = hand_log([hand_row(0, -0.0, 5e-324, -1.7976931348623157e308, slack=math.nan),
                     hand_row(-3, 1e-300, 0.1, 2.0 / 3.0, qp_status="infeasible",
                              min_dist=-math.inf)])
    for log in (run_scenario(SHORT), hand):
        columns = [log.rows[c] for c in CSV_COLUMNS]
        assert log_to_csv(log) == _table(CSV_COLUMNS, zip(*(c.tolist() for c in columns)))


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
        assert np.allclose(log_mpc.rows[col], log_lqr.rows[col], atol=1e-7)


def test_obstacle_run_logs_clearance():
    scn = Scenario(name="clear", duration=40,
                   obstacles=(ObstacleSpec("static", radius=0.3,
                                           position=(1.0, 2.5)),),
                   mpc=MpcConfig(N=8))
    m = compute_metrics(run_scenario(scn))
    assert np.isfinite(m.min_clearance)
    assert m.min_clearance > 1.0  # obstacle sits well off the path


def test_obstacle_tracks_match_a_step_by_step_replay():
    # The oracle replays each obstacle one step at a time: a unicycle starts
    # on its curve's first pose and is stepped by step_discrete under the
    # curve's feed-forward, moving at v_ref along its heading. The line runs
    # _arc's small-turn branch, the circle (omega != 0) its exact branch.
    obstacles = (
        ObstacleSpec("static", radius=0.3, position=(1.0, 2.5)),
        ObstacleSpec("linear", radius=0.25, position=(4.0, -1.0), velocity=(-0.3, 0.1)),
        ObstacleSpec("unicycle", radius=0.2, trajectory=TrajectorySpec(
            "line", start=(6.0, 1.0), heading=0.9 * math.pi, speed=0.4)),
        ObstacleSpec("unicycle", radius=0.35, trajectory=TrajectorySpec(
            "circle", center=(2.0, 0.0), radius=1.5, angular_rate=-0.6, phase=1.0)),
    )
    scn = Scenario(name="tracks", duration=300, mpc=MpcConfig(N=8), obstacles=obstacles)
    positions, velocities, radii = obstacle_tracks(scn)
    assert positions.shape == velocities.shape == (300, 4, 2)
    assert radii.tolist() == [0.3, 0.25, 0.2, 0.35]
    T = scn.trajectory.T
    for i, o in enumerate(obstacles):
        if o.kind == "unicycle":
            curve = derive_reference(o.trajectory.samples(scn.duration + scn.mpc.N + 1), T)
            z = RobotState(*curve.poses[0])
        for k in range(scn.duration):
            if o.kind == "static":
                p, v = np.array(o.position, dtype=float), np.zeros(2)
            elif o.kind == "linear":
                v = np.array(o.velocity)
                p = np.array(o.position) + v * (k * T)
            else:
                u = curve.inputs[k]
                p = np.array([z.x, z.y])
                v = u[0] * np.array([math.cos(z.theta), math.sin(z.theta)])
                z = step_discrete(z, u, o.trajectory.T)
            assert positions[k, i].tolist() == p.tolist(), (i, k)
            assert velocities[k, i].tolist() == v.tolist(), (i, k)


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
