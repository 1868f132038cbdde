"""End-to-end acceptance gate: one test per shipped guarantee, each printing a
single pass/fail line under `pytest -v`. Tolerances are stated inline; shipped
runs are read from the session's `shipped` outputs, written once from the
checked-in config files so the gate exercises exactly what ships."""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ltvmpc.avoidance import (tangent_halfplane, velocity_constraint_row,
                              velocity_debug_csv, velocity_obstacle, Obstacle)
from ltvmpc.cli import load_config, main
from ltvmpc.dynamics import (OMEGA_EPS, RobotState, input_matrix,
                             linearize, step_discrete, wrap_angle)
from ltvmpc.mpc import MpcController
from ltvmpc.qp import QpProblem
from ltvmpc.riccati import CostMatrices, backward_riccati, riccati_map, solve_dare
from ltvmpc.sim import TrajectorySpec, build_reference, read_log_csv
from ltvmpc.terminal_set import TerminalConstraints, compute_c_schedule

from oracles import (controllability_rank, error_field, euler_richardson,
                     nonlinear_velocity_margin, qp_brute_force, solve_qp, velocity_hits_disc)
from study import AVOIDANCE, sweep_errors

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COSTS = CostMatrices(np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05]))
REPLAY_SCENE = (  # a short velocity-space pass by one static disc
    "name: replay\n"
    "duration: 60\n"
    "trajectory: {kind: line, speed: 0.5}\n"
    "R_diag: [1.0, 0.05]\n"
    "mpc: {N: 10, avoidance: velocity_space, robot_radius: 0.22}\n"
    "obstacles:\n"
    "  - {kind: static, position: [3.0, 0.0], radius: 0.3}\n")


def load_scenario(name):
    return load_config(CONFIGS / name).scenario


def run_outputs(shipped, config):
    """A shipped config's scenario, with the log and the metrics its `run` wrote."""
    scn = load_scenario(f"{config}.yaml")
    out = shipped.out / config
    return (scn, read_log_csv(out / f"{scn.name}_log.csv"),
            json.loads((out / f"{scn.name}_metrics.json").read_text()))


def sinusoid_schedule(n):
    ref = build_reference(TrajectorySpec("sinusoid"), n)
    A, B = linearize(ref.inputs, ref.T), input_matrix(ref.T)
    return ref, A, B, backward_riccati(A, B, COSTS)


def test_a01_discrete_step_matches_fine_integration_oracle(rng):
    t0 = time.perf_counter()
    n = 1000
    Z = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-2, 2, n),
                         rng.uniform(-math.pi, math.pi, n)])
    U = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-3, 3, n)])
    T = rng.uniform(0.01, 0.2, n)
    want = euler_richardson(Z, U, T)
    got = np.array([step_discrete(RobotState(*z), u, t).as_array()
                    for z, u, t in zip(Z, U, T)])
    err_xy = np.max(np.abs(got[:, :2] - want[:, :2]))
    err_th = np.max(np.abs(wrap_angle(got[:, 2] - want[:, 2])))
    assert err_xy <= 1e-6 and err_th <= 1e-6

    # continuity across the small-turn-rate branch switch
    z0, T_b = RobotState(0.3, -0.2, 0.7), 0.2
    for w0 in (OMEGA_EPS, -OMEGA_EPS):
        lo = step_discrete(z0, (1.3, w0 * (1 - 1e-3)), T_b).as_array()
        hi = step_discrete(z0, (1.3, w0 * (1 + 1e-3)), T_b).as_array()
        assert np.max(np.abs(hi - lo)) <= 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_a02_linear_model_matches_field_derivatives():
    from oracles import central_jacobian
    T = 0.05
    B = input_matrix(T)
    for v_r in np.linspace(-2.0, 2.0, 5):
        for w_r in np.linspace(-3.0, 3.0, 5):
            A = linearize((v_r, w_r), T)
            Je = central_jacobian(lambda e: error_field(e, np.zeros(2), v_r, w_r),
                                  np.zeros(3))
            Ju = central_jacobian(lambda ub: error_field(np.zeros(3), ub, v_r, w_r),
                                  np.zeros(2))
            assert np.max(np.abs((A - np.eye(3)) / T - Je)) <= 1e-6
            assert np.max(np.abs(B / T - Ju)) <= 1e-6


def test_a03_rank_drops_only_at_standstill():
    T = 0.05
    for v_r in np.linspace(-2.0, 2.0, 5):
        for w_r in np.linspace(-3.0, 3.0, 5):
            want = 2 if (v_r == 0.0 and w_r == 0.0) else 3
            assert controllability_rank(linearize((v_r, w_r), T), input_matrix(T)) == want, \
                (v_r, w_r)


def test_a04_riccati_fixed_points_and_recursion():
    # scalar fixed point and its gain
    P = solve_dare(np.array([[1.0]]), np.array([[1.0]]),
                   np.array([[1.0]]), np.array([[1.0]]))
    assert abs(P[0, 0] - (1 + math.sqrt(5)) / 2) <= 1e-6

    # 3x3 stationary residual
    A = linearize(build_reference(TrajectorySpec("circle"), 2).inputs[0], 0.1)
    B = input_matrix(0.1)
    P3 = solve_dare(A, B, COSTS.Q, COSTS.R)
    assert np.max(np.abs(riccati_map(P3, A, B, COSTS.Q, COSTS.R) - P3)) <= 1e-9

    # backward closed-loop recursion satisfied at every index
    ref, models, B, sched = sinusoid_schedule(100)
    for i in range(len(models) - 1):
        A_K = models[i] + B @ sched.K[i]
        Q_K = COSTS.Q + sched.K[i].T @ COSTS.R @ sched.K[i]
        want = A_K.T @ sched.P[i + 1] @ A_K + Q_K
        assert np.max(np.abs(sched.P[i] - want)) <= 1e-9

    # constant-model schedule sits at the stationary solution
    flat = build_reference(TrajectorySpec("line", speed=1.0), 100)
    fmodels, fB = linearize(flat.inputs, flat.T), input_matrix(flat.T)
    fsched = backward_riccati(fmodels, fB, COSTS)
    P_inf = solve_dare(fmodels[0], fB, COSTS.Q, COSTS.R)
    assert np.max(np.abs(fsched.P[0] - P_inf)) <= 1e-8


def test_a05_cost_decrease_identity(rng):
    _, models, B, sched = sinusoid_schedule(100)
    X = rng.normal(size=(1000, 3))
    nsq = np.sum(X * X, axis=1)
    for i in range(len(models) - 1):
        A_K = models[i] + B @ sched.K[i]
        Q_K = COSTS.Q + sched.K[i].T @ COSTS.R @ sched.K[i]
        lhs = (np.einsum("ij,jk,ik->i", X, sched.P[i], X)
               - np.einsum("ij,jk,ik->i", X @ A_K.T, sched.P[i + 1], X @ A_K.T))
        rhs = np.einsum("ij,jk,ik->i", X, Q_K, X)
        assert np.max(np.abs(lhs - rhs) / nsq) <= 1e-9


def test_a06_terminal_level_schedule_valid(rng):
    t0 = time.perf_counter()
    ref, _, _, sched = sinusoid_schedule(600)
    cons = TerminalConstraints(np.array([1.0, 1.0, math.pi]),
                               np.array([2.0, 10.0]))
    u_refs = ref.inputs
    levels = compute_c_schedule(sched, cons, u_refs)
    assert len(levels) == 600
    D = rng.normal(size=(1000, 3))
    for i, (c, box) in enumerate(levels):
        assert c > 0.0
        # all 8 vertices inside the state and input limits
        assert np.all(np.abs(box) <= cons.e_max[None, :] + 1e-12)
        u = u_refs[i][None, :] + box @ sched.K_at(i).T
        assert np.all(np.abs(u) <= cons.u_max[None, :] + 1e-12)
        # sampled level-set boundary stays inside the vertex box
        lam, V = np.linalg.eigh(sched.P_at(i))
        semi = np.sqrt(c / lam)
        X = D * np.sqrt(c / np.einsum("ij,jk,ik->i", D, sched.P_at(i), D))[:, None]
        assert np.all(np.abs(X @ V) <= semi[None, :] + 1e-12)
    assert time.perf_counter() - t0 < 10.0


def test_a07_qp_certificates_on_shipped_instances_and_random_oracle(shipped, rng):
    t0 = time.perf_counter()
    for log in shipped.out.glob("*/*_log.csv"):
        assert set(read_log_csv(log).qp_status) == {"optimal"}, log.name
    assert len(shipped.residuals) >= 420
    assert max(shipped.residuals) <= 1e-6

    for trial in range(500):
        n = int(rng.integers(1, 5))
        m_i = int(rng.integers(0, 7))
        m_e = int(rng.integers(0, min(3, n + 1)))
        M = rng.normal(size=(n, n))
        x_feas = rng.normal(size=n)
        A_in = rng.normal(size=(m_i, n)) if m_i else None
        b_in = A_in @ x_feas + rng.uniform(0, 2, m_i) if m_i else None
        A_eq = rng.normal(size=(m_e, n)) if m_e else None
        b_eq = A_eq @ x_feas if m_e else None
        p = QpProblem(H=M @ M.T + 0.1 * np.eye(n), g=rng.normal(size=n),
                      A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)
        sol = solve_qp(p)
        ref = qp_brute_force(p.H, p.g, p.A_eq, p.b_eq, p.A_in, p.b_in)
        assert sol.status == "optimal" and ref is not None
        assert abs(p.objective(sol.x) - ref[1]) <= 1e-6
    assert time.perf_counter() - t0 < 30.0


def test_every_shipped_qp_is_strictly_convex_through_r(shipped):
    # Eliminating the dynamics leaves Gamma' Qbar Gamma + Rbar, which R
    # positive definite bounds below by lambda_min(R): 0.05 on the avoidance
    # scenes (measured 0.0503), 0.02 on lqr_comparison (measured 0.0213).
    # The builders skip QpProblem's convexity test, so no shipped run makes it.
    solved = {config: eigs for config, eigs in shipped.reduced.items() if eigs}
    assert set(solved) >= {*AVOIDANCE, "lqr_comparison"}
    for config, eigs in solved.items():
        R = load_config(shipped.out / config / "manifest.json").scenario.costs().R
        assert min(eigs) >= np.linalg.eigvalsh(R).min() > 0, config
    assert sum(map(len, solved.values())) >= 1500
    assert shipped.calls["_reduced_min_eig"] == 0


def test_a08_offset_start_converges_and_exact_start_stays(shipped):
    _, rows, m = run_outputs(shipped, "tracking")
    e = np.abs(np.column_stack([rows.e1, rows.e2, rows.e3]))
    n_tail = math.ceil(0.10 * len(rows))
    assert len(rows) == 600
    assert np.max(e[-n_tail:]) < 0.01
    assert m["converged"] and not m["halted"]

    on_ref = read_log_csv(shipped.out / "tracking_on_ref" / "tracking_on_ref_log.csv")
    assert len(on_ref) == 600
    e_on = np.column_stack([on_ref.e1, on_ref.e2, on_ref.e3])
    assert np.max(np.abs(e_on)) <= 1e-6


def test_a09_horizon_sensitivity_depends_on_terminal_weight(shipped):
    errs = sweep_errors(shipped.out / "horizon_sweep")
    assert set(errs) == {5, 10, 20, 50}
    assert max(errs.values()) / min(errs.values()) <= 2.0

    errs0 = sweep_errors(shipped.out / "horizon_sweep_no_terminal")
    assert errs0[5] >= 2.0 * errs0[50]


def test_a10_terminal_weight_insensitive_once_positive(shipped):
    errs = sweep_errors(shipped.out / "beta_sweep")
    for a in (1, 2, 5):
        for b in (1, 2, 5):
            if a < b:
                gap = abs(errs[a] - errs[b]) / min(errs[a], errs[b])
                assert gap <= 0.20, f"beta {a} vs {b}: {gap:.3f}"
    gap_low = abs(errs[0.1] - errs[5]) / min(errs[0.1], errs[5])
    assert gap_low > 0.20


def test_a11_input_clipping_versus_unclipped_gain(shipped):
    scn = load_scenario("lqr_comparison.yaml")
    log_mpc, log_lqr = (read_log_csv(shipped.out / "lqr_comparison" / f"{scn.name}_{c}_log.csv")
                        for c in ("mpc", "lqr"))
    w_max = scn.mpc.u_max[1]
    assert np.max(np.abs(log_mpc.omega)) <= w_max + 1e-9
    assert np.max(np.abs(log_lqr.omega)) > w_max
    k_settle = round(1.0 / scn.trajectory.T)
    dv = np.abs(log_mpc.v - log_lqr.v)[k_settle:]
    dw = np.abs(log_mpc.omega - log_lqr.omega)[k_settle:]
    assert max(np.max(dv), np.max(dw)) <= 0.05


def test_a12_terminal_cost_decreases_after_entry(shipped):
    _, rows, m = run_outputs(shipped, "tracking")
    assert m["lyapunov_violations"] == 0
    e_inf = np.max(np.abs(np.column_stack([rows.e1, rows.e2, rows.e3])), axis=1)
    entered = np.nonzero(e_inf < 0.05)[0]
    assert entered.size > 0
    vf = rows.terminal_cost[entered[0]:]
    assert np.all(np.diff(vf) <= 1e-6)


def test_a13_velocity_rows_match_derivatives_and_exclude_cone(rng):
    h = 1e-6
    for _ in range(1000):
        n = rng.normal(size=2)
        n /= np.linalg.norm(n)
        a = rng.uniform(-1.5, 1.5)
        theta = rng.uniform(-math.pi, math.pi)
        u_r = rng.uniform(0.1, 2.0)
        w_r = rng.uniform(-1.0, 1.0)
        dt = rng.uniform(0.01, 0.1)
        cu, cw, const = velocity_constraint_row(n, a, theta, u_r, w_r, dt)
        dfu = (nonlinear_velocity_margin(n, a, u_r + h, theta, w_r, dt)
               - nonlinear_velocity_margin(n, a, u_r - h, theta, w_r, dt)) / (2 * h)
        dfw = (nonlinear_velocity_margin(n, a, u_r, theta, w_r + h, dt)
               - nonlinear_velocity_margin(n, a, u_r, theta, w_r - h, dt)) / (2 * h)
        assert abs(cu + dfu) <= 1e-6
        assert abs(cw + dfw) <= 1e-6

    d = np.array([2.0, 0.0])
    cone = velocity_obstacle((0.0, 0.0), 0.5, Obstacle(d, 0.5, (0.1, -0.2)))
    hp = tangent_halfplane(cone, (1.0, 0.4))

    def rotate(phi):
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, -s], [s, c]])

    for _ in range(1000):
        phi = rng.uniform(-cone.half_angle, cone.half_angle)
        speed = rng.uniform(0.0, 3.0)
        u = cone.apex + speed * (rotate(phi) @ cone.axis)
        assert float(hp.n @ u) <= hp.a + 1e-12  # interior never on feasible side
        if float(hp.n @ u) >= hp.a + 1e-9:
            assert not velocity_hits_disc(u, d, 1.0, cone.apex, 4.0)


def test_a14_avoidance_scenes_keep_distance_and_reconverge(shipped):
    _, _, m = run_outputs(shipped, "avoid_static_velocity")
    assert m["min_clearance"] >= 0.5  # the physical radii, robot 0.2 + disc 0.3
    assert m["slack_total"] == 0.0
    assert m["converged"] and not m["halted"]

    _, _, m = run_outputs(shipped, "avoid_static_hyperplane_90")
    assert m["slack_total"] > 0.0  # documented fallback engages
    assert not m["halted"]

    for config in ("avoid_face_to_face", "avoid_intersection"):
        scn, _, m = run_outputs(shipped, config)
        r_sum = 0.2 + scn.obstacles[0].radius
        assert m["min_clearance"] >= r_sum
        assert m["converged"] and not m["halted"]

    assert all(shipped.seconds[c] < 5.0 for c in ("avoid_static_velocity", "avoid_intersection",
               "avoid_static_hyperplane_90", "avoid_face_to_face")), shipped.seconds


def test_static_hyperplane_scene_collision_free_with_reported_slack(shipped):
    # The rotated plane can cut through the current pose, so this scene keeps
    # only the physical radii (not r_safe) and leans on the reported slack.
    scn, rows, m = run_outputs(shipped, "avoid_static_hyperplane")
    assert m["converged"] and not m["halted"]
    assert m["min_clearance"] >= scn.mpc.robot_radius + scn.obstacles[0].radius
    slack = rows.slack
    assert m["slack_total"] > 0.0 and m["slack_total"] == pytest.approx(slack.sum())
    assert np.count_nonzero(slack > 0.0) == 23


def test_a15_manifest_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "scene.yaml"
    cfg.write_text(REPLAY_SCENE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2), "--quiet"]) == 0
    a = (out1 / "replay_log.csv").read_bytes()
    b = (out2 / "replay_log.csv").read_bytes()
    assert a == b


def test_velocity_space_dump_is_the_logged_run_at_closest_approach(tmp_path, monkeypatch):
    # record what the controller itself built at every step of `run`; the
    # dump `run` writes must be that step's geometry at the logged closest
    # approach
    recorded = []
    control_step = MpcController.control_step

    def recording(self, *args, **kwargs):
        step = control_step(self, *args, **kwargs)
        recorded.append(self.last_debug)
        return step

    cfg = tmp_path / "scene.yaml"
    cfg.write_text(REPLAY_SCENE)
    monkeypatch.setattr(MpcController, "control_step", recording)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    monkeypatch.undo()
    with open(tmp_path / "replay_log.csv", newline="") as f:
        dist = [float(row["min_dist"]) for row in csv.DictReader(f)]
    assert len(recorded) == len(dist) == 60
    k = dist.index(min(dist))  # closest approach, the first on a tie
    assert recorded[k] is not None
    dump = (tmp_path / "replay_velocity_space.csv").read_text()
    assert dump == velocity_debug_csv(*recorded[k])
