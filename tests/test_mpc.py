"""Stacked and condensed tracking QPs and the horizon maps: dimensions, row
placement, bound handling, equivalence with a dense finite-horizon
backward-pass oracle when nothing but the dynamics constrains the problem,
the maps against the condensed solve, and each step's plan against the
stacked problem's solve and KKT conditions."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ltvmpc import mpc, qp
from ltvmpc.avoidance import velocity_debug_csv
from ltvmpc.cli import load_config
from ltvmpc.dynamics import (RobotState, input_matrix, linearize, step_discrete,
                             to_error_frame)
from ltvmpc.mpc import (MAP_BLOCK, MpcConfig, MpcController, _with_shared_slack, build_qp,
                        condense_qp, horizon_maps, stage_cost_value, terminal_cost_value)
from ltvmpc.qp import QpSolution, QpSolver, kkt_residuals
from ltvmpc.riccati import CostMatrices, backward_riccati
from ltvmpc.sim import Scenario, TrajectorySpec, build_controller, build_reference, run_scenario

from oracles import FreshKktSolver, adjoint_multipliers, build_qp_loops, solve_qp

COSTS = CostMatrices(np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05]))
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_setup(n_ref=60, kind="sinusoid"):
    ref = build_reference(TrajectorySpec(kind), n_ref)
    A, B = linearize(ref.inputs, ref.T), input_matrix(ref.T)
    return ref, A, B, backward_riccati(A, B, COSTS)


def test_problem_dimensions():
    ref, models, B, schedule = make_setup()
    cfg = MpcConfig(N=10)
    p = build_qp(np.zeros(3), 0, ref, models, B, schedule, COSTS, cfg)
    assert p.n == 50
    assert p.A_eq.shape == (30, 50)
    assert p.A_in.shape == (40, 50)
    assert p.b_eq.shape == (30,)


def test_forbid_reverse_adds_one_row_per_step():
    ref, models, B, schedule = make_setup()
    cfg = MpcConfig(N=6, forbid_reverse=True)
    p = build_qp(np.zeros(3), 0, ref, models, B, schedule, COSTS, cfg)
    assert p.A_in.shape[0] == 4 * 6 + 6


def test_extra_row_column_placement():
    # an avoidance row lands below the bound rows on the columns it names,
    # its last entry the right-hand side, whatever the avoidance mode
    ref, models, B, schedule = make_setup()
    N = 5
    block = np.zeros((N, 5 * N + 1))
    block[2, [3 * 2, 3 * 2 + 1, -1]] = (0.6, -0.8, 0.7)
    block[4, [3 * N + 2 * 4, 3 * N + 2 * 4 + 1, -1]] = (1.5, 2.5, -0.1)
    for mode in ("off", "state_space", "velocity_space"):
        cfg = MpcConfig(N=N, avoidance=mode)
        p = build_qp(np.zeros(3), 0, ref, models, B, schedule, COSTS, cfg, block)
        assert p.A_in.shape[0] == 4 * N + N
        rows, b = p.A_in[-N:], p.b_in[-N:]
        assert np.array_equal(rows[2, 6: 8], [0.6, -0.8])
        assert np.count_nonzero(rows[2]) == 2
        assert np.array_equal(rows[4, 3 * N + 8: 3 * N + 10], [1.5, 2.5])
        assert np.count_nonzero(rows) == 4
        assert np.array_equal(b, block[:, -1])
    for width in (5 * N, 5 * N + 2, 3):  # a row is 5N coefficients and its rhs
        with pytest.raises(ValueError):
            build_qp(np.zeros(3), 0, ref, models, B, schedule, COSTS, cfg,
                     np.ones((N, width)))


def test_assembly_does_not_depend_on_the_avoidance_mode():
    # the rows say where they act, so every mode assembles the same problem
    ref, models, B, schedule = make_setup()
    N = 6
    avoid = np.random.default_rng(3).normal(size=(2 * N, 5 * N + 1))
    problems = [build_qp(np.ones(3), 4, ref, models, B, schedule, COSTS,
                         MpcConfig(N=N, forbid_reverse=True, avoidance=mode), avoid)
                for mode in ("off", "state_space", "velocity_space")]
    for p in problems[1:]:
        for name in ("H", "g", "A_eq", "b_eq", "A_in", "b_in"):
            assert np.array_equal(getattr(p, name), getattr(problems[0], name)), name


@pytest.mark.parametrize("N", [1, 2, 10, 50])
def test_assembly_is_bit_identical_to_loop_oracle(N):
    ref, models, B, schedule = make_setup()
    rng = np.random.default_rng(N)
    e0 = rng.normal(size=3)
    blocks = rng.normal(size=(2 * N, 5 * N + 1))  # two obstacles' blocks
    # k = len(ref) - 3 clamps models, references and the terminal weight
    for k in (0, 7, len(ref) - 3):
        for forbid in (False, True):
            for mode in ("off", "state_space", "velocity_space"):
                cfg = MpcConfig(N=N, forbid_reverse=forbid, u_max=np.array([0.9, 1.7]),
                                avoidance=mode)
                for avoid in ((), blocks[:N], blocks):
                    got = build_qp(e0, k, ref, models, B, schedule, COSTS, cfg, avoid)
                    want = build_qp_loops(e0, k, ref, models, B, schedule, COSTS, cfg, avoid)
                    case = (k, forbid, mode, len(avoid))
                    for name in ("H", "g", "A_eq", "b_eq", "A_in", "b_in"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.shape == b.shape, (name, *case)
                        assert np.array_equal(a, b), (name, *case)
                        a[...] = np.nan  # a problem owns its arrays; the cached layout stays


def test_assembly_templates_follow_their_keys():
    # Builds one after another, each changing one thing from the last: the
    # step (consecutive steps), the costs, the input matrix, the horizon,
    # the no-reverse rows and the terminal weight. Each matches the loop
    # oracle bit for bit, so a template cached on too small a key fails, as
    # does one a problem's arrays alias (each is overwritten with NaN after
    # its check). The second costs are not diagonal
    # and their Q, like the skewed terminal weight, is symmetric only to
    # 1e-12: CostMatrices and TerminalSchedule store both exactly symmetric,
    # so every H, stored as built, is exactly symmetric too.
    ref, models, B, schedule = make_setup()
    tilted = CostMatrices(np.array([[1.0, 0.2, 0.0], [0.2 + 1e-12, 1.0, 0.0],
                                    [0.0, 0.0, 0.5]]), np.array([[0.1, 0.01], [0.01, 0.05]]))
    skew = np.zeros((3, 3))
    skew[0, 1] = 1e-12
    skewed = replace(schedule, P=schedule.P + skew)
    assert np.array_equal(skewed.P, 0.5 * (schedule.P + skew + (schedule.P + skew).mT))
    assert tilted.Q[0, 1] == tilted.Q[1, 0] == 0.5 * (0.2 + (0.2 + 1e-12))
    rng = np.random.default_rng(27)
    cases = [(0, 10, COSTS, B, False, schedule), (1, 10, COSTS, B, False, schedule),
             (2, 10, tilted, B, False, schedule), (3, 10, tilted, 2.0 * B, False, schedule),
             (4, 6, tilted, 2.0 * B, False, schedule), (5, 6, tilted, 2.0 * B, True, schedule),
             (6, 6, COSTS, B, True, schedule), (7, 10, COSTS, B, False, schedule),
             (8, 10, COSTS, B, False, skewed), (9, 10, COSTS, B, False, schedule)]
    for k, N, costs, B_k, forbid, sched in cases:
        cfg = MpcConfig(N=N, forbid_reverse=forbid, avoidance="state_space")
        e0 = rng.normal(size=3)
        avoid = rng.normal(size=(N, 5 * N + 1))
        got = build_qp(e0, k, ref, models, B_k, sched, costs, cfg, avoid)
        want = build_qp_loops(e0, k, ref, models, B_k, sched, costs, cfg, avoid)
        assert np.array_equal(got.H, got.H.T), k
        for name in ("H", "g", "A_eq", "b_eq", "A_in", "b_in"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and np.array_equal(a, b), (name, k)
            a[...] = np.nan


@pytest.mark.parametrize("config", ["avoid_intersection.yaml", "avoid_static_hyperplane_90.yaml"])
def test_stacked_steps_solve_bit_identically_to_fresh_kkt_loop(config, monkeypatch):
    # The stacked QPs of a scene's first steps, phase-1 starts and the
    # slack fallback included, re-solved by the solver and by the loop that
    # assembles a fresh KKT matrix per iteration: same floats, same KKT calls.
    scn = replace(load_config(CONFIGS / config).scenario, name="first_steps", duration=3)
    captured = []

    class Recording(QpSolver):
        def solve(self, p, x0=None):
            captured.append((p, x0))
            return super().solve(p, x0)

    monkeypatch.setattr(mpc, "QpSolver", Recording)
    run_scenario(scn)
    calls = []
    solve_kkt = qp._solve_kkt
    monkeypatch.setattr(qp, "_solve_kkt",
                        lambda *args: calls.append(args[2].shape[0]) or solve_kkt(*args))
    phase1 = slacked = 0
    for p, x0 in captured:
        calls.clear()
        got = QpSolver(max_iter=800).solve(p, x0)
        ref = FreshKktSolver(max_iter=800)
        want = ref.solve(p, x0)
        assert got.status == want.status
        for name in ("x", "lambda_eq", "mu_in"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert calls == ref.kkt_rows
        phase1 += x0 is not None and bool((p.A_in @ x0 - p.b_in).max() > qp.FEAS_TOL)
        slacked += p.n == 5 * scn.mpc.N + 1
    assert phase1 >= 2
    assert slacked == (3 if "hyperplane_90" in config else 0)


def test_step_solutions_compute_their_residual_once_on_first_read(monkeypatch):
    # No control step reads a solution's KKT residual: a scene's first
    # steps, shared-slack re-solves included, compute none. The first read
    # computes max(kkt_residuals(problem, sol)) bit for bit, later reads
    # reuse it, and an infeasible solve reads inf.
    scn = replace(load_config(CONFIGS / "avoid_static_hyperplane_90.yaml").scenario,
                  name="first_steps", duration=3)
    solved = []

    class Recording(QpSolver):
        def solve(self, p, x0=None):
            sol = super().solve(p, x0)
            solved.append((p, sol))
            return sol

    monkeypatch.setattr(mpc, "QpSolver", Recording)
    calls = []
    residuals = qp.kkt_residuals
    monkeypatch.setattr(qp, "kkt_residuals", lambda p, sol: calls.append(sol) or residuals(p, sol))
    run_scenario(scn)
    assert calls == []
    slacked = [sol for p, sol in solved if p.n == 5 * scn.mpc.N + 1]
    assert len(slacked) == 3 and {sol.status for sol in slacked} == {"optimal"}
    for p, sol in solved:
        want = math.inf if sol.status == "infeasible" else max(residuals(p, sol))
        assert sol.kkt_residual == want and sol.kkt_residual == want
    assert len(calls) == sum(sol.status != "infeasible" for _, sol in solved) == 3


def test_builders_store_their_problems_as_built(monkeypatch):
    # Every QP a control step solves comes from build_qp, condense_qp or
    # _with_shared_slack, stored as built: the constructor's conversions and
    # checks never run, and each H is exactly symmetric. The first steps of
    # the static_hyperplane_90 scene take three slack re-solves; a far start
    # under tight bounds takes the condensed QP.
    monkeypatch.setattr(qp.QpProblem, "__post_init__",
                        lambda self: pytest.fail("a builder ran the constructor's checks"))
    solved = []

    class Recording(QpSolver):
        def solve(self, p, x0=None):
            solved.append(p)
            return super().solve(p, x0)

    monkeypatch.setattr(mpc, "QpSolver", Recording)
    scn = replace(load_config(CONFIGS / "avoid_static_hyperplane_90.yaml").scenario,
                  name="first_steps", duration=3)
    run_scenario(scn)
    ref, models, B, schedule = make_setup()
    tight = MpcController(ref, models, B, schedule, COSTS,
                          MpcConfig(N=10, u_max=np.array([0.9, 0.6])))
    tight.control_step(RobotState(*(ref.poses[3] + [0.8, -0.6, 0.9])), 3)
    sizes = [(p.n, p.A_eq.shape[0]) for p in solved]
    assert sizes.count((51, 30)) == 3 and sizes[-1] == (20, 0)
    for p in solved:
        assert np.array_equal(p.H, p.H.T)
        assert {a.dtype for a in (p.H, p.g, p.A_eq, p.b_eq, p.A_in, p.b_in)} == {np.dtype(float)}


def test_shared_slack_wrapping():
    ref, models, B, schedule = make_setup()
    N = 4
    cfg = MpcConfig(N=N, avoidance="state_space")
    rows = np.zeros((2 * N, 5 * N + 1))  # two obstacles' blocks
    rows[:, [0, -1]] = (1.0, 0.2)
    p = build_qp(np.zeros(3), 0, ref, models, B, schedule, COSTS, cfg, rows)
    q = _with_shared_slack(p, len(rows), weight=1e4)
    assert q.n == p.n + 1
    assert q.H[-1, -1] == 1e4
    assert q.A_in.shape[0] == p.A_in.shape[0] + 1
    # only the avoidance rows and the nonnegativity row touch the slack column
    slack_col = q.A_in[:, -1]
    assert np.array_equal(slack_col[: -2 * N - 1], np.zeros(4 * N))
    assert np.array_equal(slack_col[-2 * N - 1:], np.full(2 * N + 1, -1.0))
    assert q.b_in[-1] == 0.0
    assert np.allclose(q.A_eq[:, -1], 0.0)


def test_zero_error_start_is_a_fixed_point():
    ref, models, B, schedule = make_setup()
    cfg = MpcConfig(N=10)
    p = build_qp(np.zeros(3), 7, ref, models, B, schedule, COSTS, cfg)
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.x)) <= 1e-9
    assert p.objective(sol.x) <= 1e-12


def test_input_bounds_respected_to_tolerance():
    ref, models, B, schedule = make_setup()
    cfg = MpcConfig(N=8, u_max=np.array([0.9, 0.6]))
    e0 = np.array([0.8, -0.6, 0.9])
    p = build_qp(e0, 3, ref, models, B, schedule, COSTS, cfg)
    sol = solve_qp(p)
    assert sol.status == "optimal"
    for j in range(8):
        u_ref = ref.inputs[3 + j]
        u = u_ref + sol.x[24 + 2 * j: 24 + 2 * j + 2]
        assert np.all(np.abs(u) <= cfg.u_max + 1e-9)


def test_terminal_cost_values():
    e = np.array([1.0, 1.0, 1.0])
    assert terminal_cost_value(np.zeros(3), np.eye(3), 1.0) == 0.0
    assert terminal_cost_value(e, np.eye(3), 1.0) == pytest.approx(1.5)
    assert terminal_cost_value(e, np.eye(3), 5.0) == pytest.approx(7.5)
    assert stage_cost_value(np.array([1.0, 0, 0]), np.zeros(2), COSTS) == \
        pytest.approx(0.5)


def test_cost_values_are_the_operator_products(rng):
    # the same floats as the `@` chains, for non-diagonal weights too
    M, W = rng.normal(size=(3, 3)), rng.normal(size=(2, 2))
    costs = CostMatrices(M @ M.T, W @ W.T + np.eye(2))
    for _ in range(200):
        e, u, beta = rng.normal(size=3), rng.normal(size=2), rng.uniform(0, 5)
        assert stage_cost_value(e, u, costs) == float(0.5 * (e @ costs.Q @ e + u @ costs.R @ u))
        assert terminal_cost_value(e, costs.Q, beta) == float(0.5 * beta * e @ costs.Q @ e)


def backward_pass(models, B, P_end, costs, k, N):
    """Dense finite-horizon oracle: gains for cost sum_{i=1}^{N-1} e'Qe
    + e_N' P_end e_N + sum u'Ru (all halved), indices clamped like the QP."""
    last = len(models) - 1
    P = P_end
    gains = [None] * N
    for i in range(N - 1, -1, -1):
        A = models[min(k + i, last)]
        K = -np.linalg.solve(costs.R + B.T @ P @ B, B.T @ P @ A)
        AK = A + B @ K
        Q_i = costs.Q if i >= 1 else np.zeros((3, 3))
        P = Q_i + K.T @ costs.R @ K + AK.T @ P @ AK
        gains[i] = K
    return gains


def test_soft_terminal_horizon_matches_dense_recursion(rng):
    ref, models, B, schedule = make_setup()
    N, k = 12, 9
    cfg = MpcConfig(N=N, beta=1.0, u_max=np.array([1e6, 1e6]))
    P_end = schedule.P_at(k + N)
    gains = backward_pass(models, B, P_end, COSTS, k, N)
    for _ in range(5):
        e0 = rng.uniform(-0.5, 0.5, size=3)
        p = build_qp(e0, k, ref, models, B, schedule, COSTS, cfg)
        sol = solve_qp(p)
        assert sol.status == "optimal"
        e = e0.copy()
        last = len(models) - 1
        for i in range(N):
            u_oracle = gains[i] @ e
            u_qp = sol.x[3 * N + 2 * i: 3 * N + 2 * i + 2]
            assert np.max(np.abs(u_qp - u_oracle)) <= 1e-6
            e = models[min(k + i, last)] @ e + B @ u_oracle
            assert np.max(np.abs(sol.x[3 * i: 3 * i + 3] - e)) <= 1e-6


def test_controller_holds_reference_exactly():
    ref, models, B, schedule = make_setup()
    controller = MpcController(ref, models, B, schedule, COSTS, MpcConfig(N=10))
    z = RobotState(*ref.poses[4])
    u_ref = ref.inputs[4]
    step = controller.control_step(z, 4)
    assert step.qp_status == "optimal"
    assert step.u_applied[0] == pytest.approx(u_ref[0], abs=1e-9)
    assert step.u_applied[1] == pytest.approx(u_ref[1], abs=1e-9)
    assert step.predicted_errors.shape == (11, 3)
    assert np.max(np.abs(step.predicted_errors)) <= 1e-9
    assert step.stage_cost <= 1e-18

    lqr = controller.lqr_control_step(z, 4)
    assert lqr.u_applied[0] == pytest.approx(u_ref[0], abs=1e-12)
    assert np.allclose(lqr.u_feedback, 0.0)


class _CountingSolver:
    """Wraps a QpSolver and counts its solves, so a test can tell the steps
    that fell back to the condensed QP from those taken by the maps."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def solve(self, p, x0=None):
        self.calls += 1
        return self.inner.solve(p, x0)


@pytest.mark.parametrize("config, N, every", [
    ("tracking.yaml", 10, 1),
    ("tracking.yaml", 50, 20),
    ("lqr_comparison.yaml", 10, 1),  # the omega bound binds in the transient
])
def test_condensed_plan_matches_stacked_solve(config, N, every):
    scn = load_config(CONFIGS / config).scenario
    scn = replace(scn, mpc=replace(scn.mpc, N=N))
    ctl, _ = build_controller(scn)
    ref, cfg = ctl.ref, ctl.cfg
    ctl.solver = counting = _CountingSolver(ctl.solver)
    solver = QpSolver()
    z = RobotState(*scn.initial_state)
    bound_steps = fallback_steps = 0
    for k in range(scn.duration):
        before = counting.calls
        step = ctl.control_step(z, k)
        fallback = counting.calls > before
        fallback_steps += fallback
        if k % every == 0:
            e0 = step.predicted_errors[0]
            problem, free, Gamma = condense_qp(e0, k, ref, ctl.A, ctl.B, ctl.schedule,
                                               ctl.costs, cfg)
            sol = solver.solve(problem)
            e = free + Gamma @ sol.x
            if fallback:
                assert np.array_equal(step.predicted_errors[1:].ravel(), e), k
            else:
                G, F = horizon_maps([k], ref, ctl.A, ctl.B, ctl.schedule, ctl.costs, cfg)
                assert np.array_equal(step.predicted_errors[1:].ravel(), F[0] @ e0), k
                assert np.all(problem.A_in @ (G[0] @ e0) <= problem.b_in), k
            dense = build_qp(e0, k, ref, ctl.A, ctl.B, ctl.schedule, ctl.costs, cfg)
            want = solver.solve(dense, x0=ctl._rollout_start(e0, k))
            assert sol.status == want.status == "optimal"
            assert np.max(np.abs(sol.x - want.x[3 * N:])) <= 1e-9, k
            assert np.max(np.abs(e - want.x[: 3 * N])) <= 1e-9, k
            # the expanded plan with adjoint dynamics multipliers is a KKT
            # point of the stacked problem
            lam = adjoint_multipliers(e.reshape(N, 3), ctl.A[ref.clamp(np.arange(k, k + N))],
                                      ctl.costs.Q, cfg.beta * ctl.schedule.P_at(k + N))
            full = QpSolution(np.concatenate([e, sol.x]), lam, sol.mu_in, sol.status)
            assert max(kkt_residuals(dense, full)) <= 1e-8, k
            binding = bool(np.any(sol.mu_in > 0.0))
            assert fallback or not binding, k  # a binding bound never takes the maps
            bound_steps += binding
        z = step_discrete(z, step.u_applied, scn.trajectory.T)
    if config == "lqr_comparison.yaml":
        assert bound_steps > 0
        assert fallback_steps >= bound_steps


def test_condensed_step_without_binding_bound_factors_only_its_hessian(monkeypatch):
    # With no bound binding, the step takes the horizon maps and factors
    # nothing. A binding step solves the condensed QP, which has no equality
    # rows: its first KKT solve is with H alone. The stacked QP of an
    # avoidance controller carries its 3N dynamics rows into every KKT solve.
    ref, models, B, schedule = make_setup()
    calls = []
    solve_kkt = qp._solve_kkt
    monkeypatch.setattr(qp, "_solve_kkt",
                        lambda *args: calls.append(args[2].shape[0]) or solve_kkt(*args))
    z = RobotState(*(ref.poses[4] + [0.1, -0.2, 0.1]))
    plain = MpcController(ref, models, B, schedule, COSTS, MpcConfig(N=10))
    step = plain.control_step(z, 4)
    assert step.qp_status == "optimal"
    assert calls == []

    problems = []
    tight = MpcController(ref, models, B, schedule, COSTS,
                          MpcConfig(N=10, u_max=np.array([0.9, 0.6])))
    solve = tight.solver.solve
    tight.solver.solve = lambda p, x0=None: problems.append(p) or solve(p, x0)
    far = RobotState(*(ref.poses[3] + [0.8, -0.6, 0.9]))
    assert tight.control_step(far, 3).qp_status == "optimal"
    assert [(p.n, p.A_eq.shape[0]) for p in problems] == [(20, 0)]
    assert calls[0] == 0 and max(calls) >= 1  # a bound entered the working set
    calls.clear()
    avoiding = MpcController(ref, models, B, schedule, COSTS,
                             MpcConfig(N=10, avoidance="state_space"))
    obstacle = (ref.poses[12:13, :2] + [0.0, 0.1], np.zeros((1, 2)), np.array([0.3]))
    assert avoiding.control_step(z, 4, obstacle).qp_status == "optimal"
    assert calls and min(calls) >= 30


def test_plan_outside_a_bound_falls_back_to_the_qp():
    # A robot 0.5 m ahead of its reference backs up within the input bounds:
    # the maps' plan reverses, so with reversing forbidden the step must
    # solve the QP.
    ref, models, B, schedule = make_setup()
    x, y, theta = ref.poses[5]
    z = RobotState(x + 0.5 * np.cos(theta), y + 0.5 * np.sin(theta), theta)
    free = MpcController(ref, models, B, schedule, COSTS, MpcConfig(N=10))
    free.solver = unused = _CountingSolver(free.solver)
    assert free.control_step(z, 5).u_applied[0] < 0.0
    assert unused.calls == 0
    cfg = MpcConfig(N=10, forbid_reverse=True)
    ctl = MpcController(ref, models, B, schedule, COSTS, cfg)
    ctl.solver = counting = _CountingSolver(ctl.solver)
    step = ctl.control_step(z, 5)
    assert counting.calls == 1 and step.qp_status == "optimal"
    assert step.u_applied[0] >= -1e-12
    e0 = step.predicted_errors[0]
    problem, free_e, Gamma = condense_qp(e0, 5, ref, models, B, schedule, COSTS, cfg)
    sol = QpSolver().solve(problem)
    assert np.array_equal(step.predicted_errors[1:].ravel(), free_e + Gamma @ sol.x)

    # 1.0 m ahead the plan would back up faster than u_max: the lower bound
    # on v binds, so the step falls back even with reversing allowed.
    z = RobotState(x + np.cos(theta), y + np.sin(theta), theta)
    step = free.control_step(z, 5)
    assert unused.calls == 1 and step.qp_status == "optimal"
    assert step.u_applied[0] == pytest.approx(-free.cfg.u_max[0], abs=1e-9)


class _RecordingSolver:
    """Stands in for the condensed solve: records that the step fell back."""

    calls = 0

    def solve(self, p, x0=None):
        self.calls += 1
        return QpSolution(np.zeros(p.n), np.zeros(0), np.zeros(0), "optimal")


@pytest.mark.parametrize("forbid_reverse", [False, True])
def test_bound_check_decides_as_the_condensed_rows(forbid_reverse):
    # Plans just inside and just outside each row of the first and last
    # horizon step, put into the controller's map block, at start steps
    # whose horizons end before, at and past the end of the reference: the
    # step takes the plan exactly when it keeps every row of `condense_qp`.
    L, N = 20, 6
    ref, models, B, schedule = make_setup(n_ref=L)
    cfg = MpcConfig(N=N, forbid_reverse=forbid_reverse)
    ctl = MpcController(ref, models, B, schedule, COSTS, cfg)
    ctl.solver = solver = _RecordingSolver()
    decisions = set()
    for k in (0, L - N - 1, L - 2, L + 3):
        z = RobotState(*(ref.poses[ref.clamp(k)] + [-0.1, 0.05, 0.02]))
        e0 = to_error_frame(z, ref.poses[ref.clamp(k)])
        problem, _, _ = condense_qp(e0, k, ref, models, B, schedule, COSTS, cfg)
        for r in np.flatnonzero(np.any(problem.A_in[:, [0, 1, 2 * N - 2, 2 * N - 1]], axis=1)):
            col = np.flatnonzero(problem.A_in[r])[0]
            for eps in (-1e-9, 1e-9):
                target = np.zeros(2 * N)
                target[col] = problem.A_in[r, col] * (problem.b_in[r] + eps)
                G = np.zeros((MAP_BLOCK, 2 * N, 3))
                G[k % MAP_BLOCK] = np.outer(target, e0) / (e0 @ e0)
                ctl._maps = (k // MAP_BLOCK, G, np.zeros((MAP_BLOCK, 3 * N, 3)))
                u = G[k % MAP_BLOCK] @ e0  # the plan the step checks, bit for bit
                inside = bool(np.all(problem.A_in @ u <= problem.b_in))
                before = solver.calls
                ctl.control_step(z, k)
                assert (solver.calls == before) == inside, (k, r, eps)
                decisions.add(inside)
        # a NaN entry keeps no bound: the step falls back
        G[k % MAP_BLOCK, 0] = np.nan
        before = solver.calls
        ctl.control_step(z, k)
        assert solver.calls == before + 1
    assert decisions == {True, False}


def _rollout(gains, models, B, e0, k):
    """Inputs and errors of the oracle gains applied along the horizon."""
    last = len(models) - 1
    u, e = [], [e0]
    for i, K in enumerate(gains):
        u.append(K @ e[-1])
        e.append(models[min(k + i, last)] @ e[-1] + B @ u[-1])
    return np.concatenate(u), np.concatenate(e[1:])


@pytest.mark.parametrize("R", [COSTS.R, np.diag([1e-6, 1e-6])])
def test_horizon_maps_match_backward_pass_oracle(R, rng):
    # The closed-form gain against the oracle's LAPACK solve, also with an
    # input weight so small that R + B'SB is nearly B'SB alone.
    costs = CostMatrices(COSTS.Q, R)
    ref, models, B, _ = make_setup()
    schedule = backward_riccati(models, B, costs)
    for N, k, cfg_kw in ((12, 9, {}), (10, 55, {}), (8, 3, {"beta": 0.0})):
        cfg = MpcConfig(N=N, **cfg_kw)
        gains = backward_pass(models, B, cfg.beta * schedule.P_at(k + N), costs, k, N)
        G, F = horizon_maps([k], ref, models, B, schedule, costs, cfg)
        assert G.shape == (1, 2 * N, 3) and F.shape == (1, 3 * N, 3)
        assert np.max(np.abs(G[0, :2] - gains[0])) <= 1e-12
        for e0 in rng.uniform(-0.5, 0.5, size=(5, 3)):
            u, e = _rollout(gains, models, B, e0, k)
            assert np.max(np.abs(G[0] @ e0 - u)) <= 1e-12
            assert np.max(np.abs(F[0] @ e0 - e)) <= 1e-12


@pytest.mark.parametrize("cfg", [
    MpcConfig(N=10),
    MpcConfig(N=12, beta=0.0),
    MpcConfig(N=6, forbid_reverse=True),
    MpcConfig(N=30, beta=5.0),
])
def test_horizon_maps_match_condensed_solve(cfg, rng):
    ref, models, B, schedule = make_setup()
    N = cfg.N
    # the last starts run past the reference end: models, reference inputs
    # and the terminal weight clamp
    ks = np.array([0, 7, 31, len(ref) - N, len(ref) - 3, len(ref) + 5])
    G, F = horizon_maps(ks, ref, models, B, schedule, COSTS, cfg)
    solver = QpSolver()
    for i, k in enumerate(ks):
        e0 = rng.uniform(-0.05, 0.05, size=3)
        problem, free, Gamma = condense_qp(e0, k, ref, models, B, schedule, COSTS, cfg)
        sol = solver.solve(problem)
        assert sol.status == "optimal" and not np.any(sol.mu_in > 0.0), k
        assert np.max(np.abs(G[i] @ e0 - sol.x)) <= 1e-9, k
        assert np.max(np.abs(F[i] @ e0 - (free + Gamma @ sol.x))) <= 1e-9, k


def test_horizon_map_does_not_depend_on_its_block():
    ref, models, B, schedule = make_setup()
    cfg = MpcConfig(N=10)
    G, F = horizon_maps(np.arange(MAP_BLOCK), ref, models, B, schedule, COSTS, cfg)
    for k in (2, 50, 63):
        for ks in ([k], np.arange(k, k + 3), np.arange(k - 2, k + 1)):
            g, f = horizon_maps(ks, ref, models, B, schedule, COSTS, cfg)
            j = list(ks).index(k)
            assert np.array_equal(g[j], G[k]) and np.array_equal(f[j], F[k]), (k, list(ks))


def test_fresh_controller_matches_sequential_run():
    ref, models, B, schedule = make_setup(n_ref=160)
    cfg = MpcConfig(N=10)
    seq = MpcController(ref, models, B, schedule, COSTS, cfg)
    z = RobotState(*(ref.poses[0] + [0.3, -0.4, 0.2]))
    for k in range(140):
        step = seq.control_step(z, k)
        if k in (3, 63, 64, 100, 139):
            fresh = MpcController(ref, models, B, schedule, COSTS, cfg).control_step(z, k)
            assert np.array_equal(fresh.u_applied, step.u_applied), k
            assert np.array_equal(fresh.predicted_errors, step.predicted_errors), k
            assert fresh.qp_status == step.qp_status == "optimal"
        z = step_discrete(z, step.u_applied, ref.T)


def test_velocity_debug_keeps_the_nearest_obstacle():
    # two static discs on a line reference, both within d_activate: the robot
    # where the closed loop of that scene is at step 111, 0.77 m from the
    # first disc and 2.98 m from the second
    scn = Scenario(name="two_discs", trajectory=TrajectorySpec("line"), duration=120,
                   R_diag=(1.0, 0.05),
                   mpc=MpcConfig(avoidance="velocity_space", r_safe=0.5, robot_radius=0.22))
    near, far = [2.0, 0.6], [4.5, 0.0]
    z, k = RobotState(1.525, 0.0, 0.0), 111

    def dump(*centers):  # step k's rows of static discs of radius 0.3
        controller, _ = build_controller(scn)
        m = len(centers)
        controller.control_step(z, k, (np.array(centers), np.zeros((m, 2)), np.full(m, 0.3)))
        return velocity_debug_csv(*controller.last_debug)

    assert dump(near, far) == dump(far, near) == dump(near) != dump(far)


def test_tracking_at_n50_takes_the_maps_on_every_step(monkeypatch):
    counts = {"solve": 0, "maps": 0}
    solve, maps = QpSolver.solve, mpc.horizon_maps

    def counted_solve(self, *args, **kw):
        counts["solve"] += 1
        return solve(self, *args, **kw)

    def counted_maps(*args):
        counts["maps"] += 1
        return maps(*args)

    monkeypatch.setattr(QpSolver, "solve", counted_solve)
    monkeypatch.setattr(mpc, "horizon_maps", counted_maps)
    scn = load_config(CONFIGS / "tracking.yaml").scenario
    scn = replace(scn, mpc=replace(scn.mpc, N=50))
    log = run_scenario(scn)
    assert len(log.rows) == scn.duration == 600
    assert set(log.rows.qp_status) == {"optimal"}
    assert counts == {"solve": 0, "maps": math.ceil(600 / MAP_BLOCK)}


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(N=0)
    with pytest.raises(ValueError):
        MpcConfig(beta=-0.5)
    with pytest.raises(ValueError):
        MpcConfig(avoidance="both")
    with pytest.raises(ValueError):
        MpcConfig(u_max=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        MpcConfig(slack_weight=0.0)
    for bad in ({"robot_radius": -0.2}, {"r_safe": -0.5}, {"d_activate": 0.0}):
        with pytest.raises(ValueError):
            MpcConfig(**bad)
