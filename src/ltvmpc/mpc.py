"""Error-space MPC with a stacked QP, soft terminal cost, and avoidance rows.

Decision vector per solve: [e(1) ... e(N), u_b(0) ... u_b(N-1)] (5N entries).
The predicted errors follow the time-varying linear model; the applied input
is u = u_ref + u_b, so the input box |u| <= u_max becomes two-sided bounds on
u_b shifted by the reference feed-forward. The terminal block weights e(N) by
beta * P(k+N) from the Riccati schedule ("soft" terminal ingredient: no hard
terminal set membership constraint is imposed).

Obstacle rows arrive as DecisionRow entries. If they make the QP infeasible,
the solve is repeated once with a shared nonnegative slack on the avoidance
rows only (quadratic penalty); input bounds and dynamics stay hard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import avoidance as av
from .dynamics import ControlInput, ErrorState, to_error_frame
from .qp import QpProblem, QpSolution, QpSolver
from .riccati import CostMatrices


@dataclass(frozen=True)
class MpcConfig:
    """Controller parameters; validated on construction."""

    N: int = 10
    beta: float = 2.0  # > 1 leaves Lyapunov-decrease slack for plant nonlinearity
    terminal_mode: str = "soft_beta"  # soft_beta | none
    u_max: np.ndarray = field(default_factory=lambda: np.array([2.0, 10.0]))
    slack_weight: float = 1e4
    avoidance_mode: str = "off"  # off | state_space | velocity_space
    theta_s: float = math.radians(20.0)
    r_safe: float = 0.5
    d_activate: float = 3.0
    robot_radius: float = 0.2
    tau: float = None  # None -> N * T at controller construction
    forbid_reverse: bool = False

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("horizon must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.terminal_mode not in ("soft_beta", "none"):
            raise ValueError("terminal_mode must be 'soft_beta' or 'none'")
        if self.avoidance_mode not in ("off", "state_space", "velocity_space"):
            raise ValueError("avoidance_mode must be off, state_space or velocity_space")
        u_max = np.asarray(self.u_max, dtype=float).reshape(2)
        if np.any(u_max <= 0):
            raise ValueError("u_max entries must be positive")
        if self.slack_weight <= 0:
            raise ValueError("slack_weight must be positive")
        object.__setattr__(self, "u_max", u_max)

    @property
    def beta_eff(self) -> float:
        return self.beta if self.terminal_mode == "soft_beta" else 0.0


@dataclass
class MpcStep:
    """Everything the simulator logs about one controller invocation."""

    u_applied: ControlInput
    u_feedback: np.ndarray
    predicted_errors: np.ndarray  # (N+1, 3) including the measured e(0)
    stage_cost: float
    terminal_cost: float  # V_f(e(k), k): time-varying terminal cost at the realized error
    qp_status: str
    active_avoidance_rows: int = 0
    slack_used: float = 0.0


def stage_cost_value(e: np.ndarray, u_b: np.ndarray, costs: CostMatrices) -> float:
    """Running cost 0.5 (e'Qe + u_b'R u_b)."""
    e = np.asarray(e, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    return float(0.5 * (e @ costs.Q @ e + u_b @ costs.R @ u_b))


def terminal_cost_value(e: np.ndarray, P: np.ndarray, beta: float) -> float:
    """Terminal cost 0.5 * beta * e'Pe."""
    e = np.asarray(e, dtype=float)
    return float(0.5 * beta * e @ P @ e)


def build_qp(e0, k: int, traj, models, schedule, costs: CostMatrices, cfg: MpcConfig,
             extra_rows=()) -> QpProblem:
    """Assemble the stacked tracking QP at timestep k.

    Layout: variables [e(1)..e(N), u_b(0)..u_b(N-1)]; equalities are the N
    dynamics steps; inequalities are 4N two-sided input bounds
    (-u_max - u_ref <= u_b <= u_max - u_ref), optional no-reverse rows, then
    the avoidance rows in the order given. Model/reference/schedule indices
    clamp at the trajectory end (setpoint hold).
    """
    N = cfg.N
    n = 5 * N
    e0 = np.asarray(e0, dtype=float).reshape(3)
    last = len(models) - 1

    H = np.zeros((n, n))
    for j in range(1, N):
        H[3 * (j - 1): 3 * j, 3 * (j - 1): 3 * j] = costs.Q
    P_term = schedule.P_at(min(k + N, len(schedule.P) - 1))
    H[3 * (N - 1): 3 * N, 3 * (N - 1): 3 * N] = cfg.beta_eff * P_term
    for j in range(N):
        i0 = 3 * N + 2 * j
        H[i0: i0 + 2, i0: i0 + 2] = costs.R
    g = np.zeros(n)

    A_eq = np.zeros((3 * N, n))
    b_eq = np.zeros(3 * N)
    for j in range(N):
        m = models[min(k + j, last)]
        r = slice(3 * j, 3 * j + 3)
        A_eq[r, 3 * j: 3 * j + 3] = np.eye(3)
        if j == 0:
            b_eq[r] = m.A @ e0
        else:
            A_eq[r, 3 * (j - 1): 3 * j] = -m.A
        A_eq[r, 3 * N + 2 * j: 3 * N + 2 * j + 2] = -m.B

    rows = []
    rhs = []
    for j in range(N):
        u_ref = traj[min(k + j, len(traj) - 1)].control.as_array()
        i0 = 3 * N + 2 * j
        up = np.zeros(n)
        up[i0] = 1.0
        rows.append(up)
        rhs.append(cfg.u_max[0] - u_ref[0])
        up2 = np.zeros(n)
        up2[i0 + 1] = 1.0
        rows.append(up2)
        rhs.append(cfg.u_max[1] - u_ref[1])
        lo = np.zeros(n)
        lo[i0] = -1.0
        rows.append(lo)
        rhs.append(cfg.u_max[0] + u_ref[0])
        lo2 = np.zeros(n)
        lo2[i0 + 1] = -1.0
        rows.append(lo2)
        rhs.append(cfg.u_max[1] + u_ref[1])
    if cfg.forbid_reverse:
        for j in range(N):
            u_ref = traj[min(k + j, len(traj) - 1)].control.as_array()
            row = np.zeros(n)
            row[3 * N + 2 * j] = -1.0
            rows.append(row)
            rhs.append(u_ref[0])

    for dr in extra_rows:
        row = np.zeros(n)
        if dr.e_coeff is not None:
            if not 1 <= dr.step <= N:
                raise ValueError("error-space row step must lie in 1..N")
            row[3 * (dr.step - 1): 3 * (dr.step - 1) + 2] = dr.e_coeff
        if dr.u_coeff is not None:
            if not 0 <= dr.step <= N - 1:
                raise ValueError("input-space row step must lie in 0..N-1")
            row[3 * N + 2 * dr.step: 3 * N + 2 * dr.step + 2] = dr.u_coeff
        rows.append(row)
        rhs.append(dr.rhs)

    return QpProblem(H=H, g=g, A_eq=A_eq, b_eq=b_eq,
                     A_in=np.array(rows), b_in=np.array(rhs))


def _with_shared_slack(p: QpProblem, n_avoid: int, weight: float) -> QpProblem:
    """Append one slack s >= 0 relaxing the last n_avoid inequality rows."""
    n = p.n
    H = np.zeros((n + 1, n + 1))
    H[:n, :n] = p.H
    H[n, n] = weight
    g = np.concatenate([p.g, [0.0]])
    A_eq = np.hstack([p.A_eq, np.zeros((p.A_eq.shape[0], 1))])
    m = p.A_in.shape[0]
    A_in = np.hstack([p.A_in, np.zeros((m, 1))])
    A_in[m - n_avoid:, n] = -1.0  # row . x - s <= rhs
    nonneg = np.zeros((1, n + 1))
    nonneg[0, n] = -1.0
    A_in = np.vstack([A_in, nonneg])
    b_in = np.concatenate([p.b_in, [0.0]])
    return QpProblem(H=H, g=g, A_eq=A_eq, b_eq=p.b_eq, A_in=A_in, b_in=b_in)


class MpcController:
    """Receding-horizon tracking controller bound to one reference trajectory.

    Holds the QP solver workspace, the previous solution for warm starting,
    and the per-obstacle side memory used by the state-space avoidance
    hysteresis (obstacles are identified by their position in the list passed
    to control_step, which the simulator keeps stable).
    """

    def __init__(self, traj, models, schedule, costs: CostMatrices, cfg: MpcConfig):
        self.traj = traj
        self.models = models
        self.schedule = schedule
        self.costs = costs
        self.cfg = cfg
        self.tau = cfg.tau if cfg.tau is not None else cfg.N * traj.T
        self.solver = QpSolver(tol=1e-8, max_iter=800)
        self._sides = {}
        self._plan_e3 = None  # previous solve's predicted heading errors
        self._plan_k = None
        self.last_debug = None  # (cone, halfplane, rows) of the latest velocity solve

    # -- avoidance row assembly -------------------------------------------

    def _avoidance_rows(self, z, e0: ErrorState, k: int, obstacles):
        cfg = self.cfg
        rows = []
        self.last_debug = None
        if cfg.avoidance_mode == "off" or not obstacles:
            return rows
        p_robot = np.array([z.x, z.y])
        for idx, obs in enumerate(obstacles):
            dist = float(np.linalg.norm(obs.position - p_robot))
            if dist > cfg.d_activate:
                continue
            if cfg.avoidance_mode == "state_space":
                hp, side, _inside = av.state_space_halfplane(
                    p_robot, obs, cfg.theta_s, cfg.r_safe,
                    ref_heading=self.traj[k].state.theta,
                    prev_side=self._sides.get(idx, 0),
                )
                self._sides[idx] = side
                rows.extend(av.position_rows(hp, self.traj, k, cfg.N))
            else:  # velocity_space
                if dist <= cfg.robot_radius + obs.radius:
                    continue  # already overlapping; no cone exists, leave it to the log
                cone = av.velocity_obstacle(p_robot, cfg.robot_radius, obs, self.tau)
                ref = self.traj[k]
                u_pref = ref.control.v * np.array(
                    [math.cos(ref.state.theta), math.sin(ref.state.theta)]
                )
                hp = av.tangent_halfplane(cone, u_pref)
                vrows = av.velocity_rows(hp, self.traj, k, cfg.N,
                                         self._heading_error_path(e0, k), self.traj.T)
                rows.extend(vrows)
                self.last_debug = (cone, hp, vrows)
        return rows

    def _heading_error_path(self, e0: ErrorState, k: int) -> np.ndarray:
        """Per-step heading-error estimates: measured now, previous plan later."""
        if self._plan_e3 is not None and self._plan_k == k - 1:
            return np.concatenate([[e0.e3], self._plan_e3[1:]])
        return np.full(self.cfg.N, e0.e3)

    # -- warm start ---------------------------------------------------------

    def _rollout_start(self, e0: np.ndarray, k: int) -> np.ndarray:
        """Equality-feasible start: predicted errors under u_b = 0."""
        N = self.cfg.N
        x = np.zeros(5 * N)
        e = e0
        last = len(self.models) - 1
        for j in range(N):
            e = self.models[min(k + j, last)].A @ e
            x[3 * j: 3 * j + 3] = e
        return x

    # -- main steps -----------------------------------------------------------

    def control_step(self, z, k: int, obstacles=()) -> MpcStep:
        cfg = self.cfg
        N = cfg.N
        ref = self.traj[k]
        e0 = to_error_frame(z, ref)
        e0_arr = e0.as_array()
        extra = self._avoidance_rows(z, e0, k, obstacles)

        problem = build_qp(e0_arr, k, self.traj, self.models, self.schedule,
                           self.costs, cfg, extra)
        sol = self.solver.solve(problem, x0=self._rollout_start(e0_arr, k))
        slack_used = 0.0
        if sol.status == "infeasible" and extra:
            slacked = _with_shared_slack(problem, len(extra), cfg.slack_weight)
            ssol = self.solver.solve(slacked)
            if ssol.status != "infeasible":
                slack_used = float(ssol.x[-1])
                sol = QpSolution(ssol.x[:-1], ssol.lambda_eq,
                                 ssol.mu_in[: problem.A_in.shape[0]],
                                 ssol.status, ssol.kkt_residual)

        x = sol.x
        u_b0 = x[3 * N: 3 * N + 2].copy()
        if sol.status == "infeasible":
            u_b0 = np.zeros(2)  # hold the feed-forward; the simulator will halt
        u_applied = ControlInput(ref.control.v + u_b0[0], ref.control.omega + u_b0[1])
        predicted = np.vstack([e0_arr, x[: 3 * N].reshape(N, 3)])
        n_active = 0
        if extra and sol.mu_in.size >= len(extra):
            n_active = int(np.sum(sol.mu_in[-len(extra):] > 1e-8))
        P_k = self.schedule.P_at(k)
        if sol.status != "infeasible":
            self._plan_e3 = predicted[1:, 2].copy()
            self._plan_k = k
        return MpcStep(
            u_applied=u_applied,
            u_feedback=u_b0,
            predicted_errors=predicted,
            stage_cost=stage_cost_value(e0_arr, u_b0, self.costs),
            terminal_cost=terminal_cost_value(e0_arr, P_k, cfg.beta_eff),
            qp_status=sol.status,
            active_avoidance_rows=n_active,
            slack_used=slack_used,
        )

    def lqr_control_step(self, z, k: int) -> MpcStep:
        """Unconstrained per-step LQR: u = u_ref + K(k) e, never clipped."""
        cfg = self.cfg
        ref = self.traj[k]
        e0 = to_error_frame(z, ref).as_array()
        K = self.schedule.K_at(k)
        u_b = K @ e0
        u_applied = ControlInput(ref.control.v + u_b[0], ref.control.omega + u_b[1])
        predicted = np.zeros((cfg.N + 1, 3))
        predicted[0] = e0
        e = e0
        last = len(self.models) - 1
        for j in range(cfg.N):
            m = self.models[min(k + j, last)]
            e = (m.A + m.B @ self.schedule.K_at(k + j)) @ e
            predicted[j + 1] = e
        return MpcStep(
            u_applied=u_applied,
            u_feedback=u_b,
            predicted_errors=predicted,
            stage_cost=stage_cost_value(e0, u_b, self.costs),
            terminal_cost=terminal_cost_value(e0, self.schedule.P_at(k), cfg.beta_eff),
            qp_status="optimal",
        )
