"""Error-space MPC over a stacked or a condensed QP, with a soft terminal
cost and avoidance rows.

The predicted errors follow the time-varying linear model, read from the
stack A (L, 3, 3) and the constant B with step indices clamped at the
reference end; the applied input is u = u_ref + u_b, so the input box
|u| <= u_max becomes two-sided bounds on u_b shifted by the reference
feed-forward. The terminal block weights e(N) by beta * P(k+N) from the
Riccati schedule ("soft" terminal ingredient: no hard terminal set
membership constraint is imposed).

A controller without avoidance first takes the unconstrained minimizer from
the horizon maps (`horizon_maps`: a backward Riccati recursion gives
u_b = G e(0) and e = F e(0), batched over a block of start steps); if that
plan keeps every input bound, read from bound arrays the controller builds
once, it is the optimum. Otherwise it solves the condensed QP over the 2N
inputs (`condense_qp`: the dynamics are eliminated, e = Phi e(0) + Gamma u_b).
An avoidance controller solves the stacked QP over [e(1) ... e(N),
u_b(0) ... u_b(N-1)] (`build_qp`, 5N entries, the dynamics as equality
rows). Both go to the same active-set solver. Obstacle rows arrive as
(N, 5N + 1) blocks over that stacked vector, the right-hand side last, one
block per obstacle; `avoidance` decides which columns a row acts on, and
`build_qp` appends the rows as they are. If they make the QP infeasible,
the solve is repeated once with a shared nonnegative slack on the avoidance
rows only (quadratic penalty); input bounds and dynamics stay hard.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import avoidance as av
from .dynamics import Reference, to_error_frame
from .qp import QpProblem, QpSolver
from .riccati import CostMatrices

MAP_BLOCK = 64  # start steps per batch of `horizon_maps` built by the controller


@dataclass(frozen=True)
class MpcConfig:
    """Controller parameters, validated on construction. The field names are
    the keys of a config's `mpc` section."""

    N: int = 10
    beta: float = 2.0  # > 1 leaves Lyapunov-decrease slack for plant nonlinearity
    u_max: np.ndarray = field(default_factory=lambda: np.array([2.0, 10.0]))
    slack_weight: float = 1e4
    avoidance: str = "off"  # off | state_space | velocity_space
    theta_s_deg: float = 20.0  # state-space plane rotation, degrees
    r_safe: float = 0.5
    d_activate: float = 3.0
    robot_radius: float = 0.2
    forbid_reverse: bool = False

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("horizon must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.avoidance not in ("off", "state_space", "velocity_space"):
            raise ValueError("avoidance must be off, state_space or velocity_space")
        u_max = np.asarray(self.u_max, dtype=float).reshape(2)
        if np.any(u_max <= 0):
            raise ValueError("u_max entries must be positive")
        if self.slack_weight <= 0:
            raise ValueError("slack_weight must be positive")
        if self.robot_radius < 0 or self.r_safe < 0:
            raise ValueError("robot_radius and r_safe must be >= 0")
        if self.d_activate <= 0:
            raise ValueError("d_activate must be positive")
        object.__setattr__(self, "u_max", u_max)
        object.__setattr__(self, "theta_s_deg", float(self.theta_s_deg))

    def __eq__(self, other):  # field by field, with the u_max array compared by value
        return isinstance(other, MpcConfig) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in vars(self))


@dataclass
class MpcStep:
    """Everything the simulator logs about one controller invocation."""

    u_applied: np.ndarray  # (v, omega)
    u_feedback: np.ndarray
    predicted_errors: np.ndarray  # (N+1, 3) including the measured e(0)
    stage_cost: float
    terminal_cost: float  # V_f(e(k), k): time-varying terminal cost at the realized error
    qp_status: str
    active_avoidance_rows: int = 0
    slack_used: float = 0.0


def stage_cost_value(e: np.ndarray, u_b: np.ndarray, costs: CostMatrices) -> float:
    """Running cost 0.5 (e'Qe + u_b'R u_b); ndarray.dot gives the floats of `@`, faster."""
    return float(0.5 * (e.dot(costs.Q).dot(e) + u_b.dot(costs.R).dot(u_b)))


def terminal_cost_value(e: np.ndarray, P: np.ndarray, beta: float) -> float:
    """Terminal cost 0.5 * beta * e'Pe, by ndarray.dot as in `stage_cost_value`."""
    return float((0.5 * beta * e).dot(P).dot(e))


@functools.cache
def _bound_rows(N: int, n: int, first: int, forbid_reverse: bool) -> np.ndarray:
    """The rows of `_input_rows`, built once per layout and read-only."""
    v_col = first + 2 * np.arange(N)  # column of v in u_b(j); omega follows
    rows = np.zeros((5 * N if forbid_reverse else 4 * N, n))
    cols = (v_col[:, None] + [0, 1, 0, 1]).ravel()
    rows[np.arange(4 * N), cols] = np.tile([1.0, 1.0, -1.0, -1.0], N)
    if forbid_reverse:
        rows[4 * N + np.arange(N), v_col] = -1.0
    rows.flags.writeable = False
    return rows


def _input_rows(U, cfg: MpcConfig, n: int, first: int):
    """Input-bound rows over n columns, u_b(0) starting at column `first`,
    for the reference inputs U (N, 2): per step +v, +omega, -v, -omega
    (-u_max - u_ref <= u_b <= u_max - u_ref), then one no-reverse row per step
    when reversing is forbidden. Returns (rows, bounds), the rows read-only."""
    bounds = np.concatenate([cfg.u_max - U, cfg.u_max + U], axis=1).ravel()
    if cfg.forbid_reverse:
        bounds = np.concatenate([bounds, U[:, 0]])
    return _bound_rows(len(U), n, first, cfg.forbid_reverse), bounds


@functools.lru_cache(maxsize=8)
def _stacked_template(N: int, Q: bytes, R: bytes, B: bytes):
    """`build_qp`'s read-only starting arrays for horizon N, the cost blocks
    Q (3, 3) and R (2, 2) and the input matrix B (3, 2), keyed by their
    float64 bytes: H with Q on e(1)..e(N-1) and R on every u_b(j); A_eq with
    the dynamics rows' identity blocks on e(1)..e(N) and -B on every u_b(j);
    the flat A_eq positions of the blocks -A_j on e(j), j = 1..N-1, in
    order; and whether Q and R are exactly symmetric."""
    Q, R, B = (np.frombuffer(b).reshape(shape)
               for b, shape in ((Q, (3, 3)), (R, (2, 2)), (B, (3, 2))))
    j = np.arange(N)
    u0 = 3 * N + 2 * j  # column of v in u_b(j); omega follows
    e_row = 3 * j[:, None, None] + np.arange(3)[None, :, None]
    e_col = 3 * j[:, None, None] + np.arange(3)[None, None, :]
    u_row = u0[:, None, None] + np.arange(2)[None, :, None]
    u_col = u0[:, None, None] + np.arange(2)[None, None, :]
    H = np.zeros((5 * N, 5 * N))
    H[e_row[:-1], e_col[:-1]] = Q
    H[u_row, u_col] = R
    A_eq = np.eye(3 * N, 5 * N)
    A_eq[e_row, u_col] = -B
    models = (e_row[1:] * 5 * N + e_col[:-1]).ravel()
    for a in (H, A_eq, models):
        a.flags.writeable = False
    return H, A_eq, models, bool((Q == Q.T).all() and (R == R.T).all())


def condense_qp(e0, k: int, ref: Reference, A, B, schedule, costs: CostMatrices,
                cfg: MpcConfig):
    """The tracking QP of `build_qp` without avoidance rows, over u_b alone.

    The dynamics are eliminated: the stacked predicted errors are
    e = Phi e0 + Gamma u_b, where row block j of Gamma holds
    A_j ... A_(i+1) B in column block i <= j. One loop over the horizon
    builds [Gamma | Phi e0] three rows at a time; the cost terms are then
    batched products: H = Gamma' Qbar Gamma + Rbar and g = Gamma' Qbar Phi e0,
    with beta * P(k+N) as the last block of Qbar. The inequality rows are
    the input bounds and no-reverse rows of `build_qp`, in the same order.
    Returns (problem, free, Gamma): the predicted errors are free + Gamma u_b.
    """
    N = cfg.N
    steps = ref.clamp(np.arange(k, k + N))
    A = A[steps]
    M = np.empty((N, 3, 2 * N + 1))  # row block j: [Gamma_j | Phi_j e0]
    block = np.zeros((3, 2 * N + 1))
    block[:, -1] = e0
    for j in range(N):
        block = A[j] @ block
        block[:, 2 * j: 2 * j + 2] = B
        M[j] = block
    W = np.empty((N, 3, 3))
    W[:-1] = costs.Q
    W[-1] = cfg.beta * schedule.P_at(k + N)
    M = M.reshape(3 * N, 2 * N + 1)
    HG = M.T @ (W @ M.reshape(N, 3, 2 * N + 1)).reshape(3 * N, 2 * N + 1)
    H = HG[:-1, :-1].copy()
    j = np.arange(N)
    H.reshape(N, 2, N, 2)[j, :, j, :] += costs.R
    A_in, b_in = _input_rows(ref.inputs[steps], cfg, 2 * N, 0)
    problem = QpProblem._symmetric(H=0.5 * (H + H.T), g=HG[:-1, -1], A_in=A_in, b_in=b_in)
    return problem, M[:, -1], M[:, :-1]


def horizon_maps(ks, ref: Reference, A, B, schedule, costs: CostMatrices, cfg: MpcConfig):
    """Unconstrained minimizer maps of `condense_qp` for each start step in ks.

    A backward Riccati recursion over the horizon, batched over ks, from the
    terminal weight beta * P(k+N) with the same index clamping:
    K_j = -M^-1 B'S A_j, M = R + B'S B, then S <- Q + A_j'S (A_j + B K_j). M is
    2 x 2 and positive definite, so M^-1 = adj(M) / det(M) in closed form.
    The closed-loop models A_j + B K_j overwrite the gathered model copy; the
    forward pass Phi <- (A_j + B K_j) Phi from the identity then overwrites
    them with F_j = Phi and the gains with G_j = K_j Phi. Returns (G, F),
    G (len(ks), 2N, 3) and F (len(ks), 3N, 3): without binding bounds the
    solution is u_b = G e0, with predicted errors e = F e0. Each map's floats
    do not depend on the others in ks.
    """
    N = cfg.N
    ks = np.asarray(ks)
    As = A[ref.clamp(ks[:, None] + np.arange(N))]  # (len(ks), N, 3, 3), overwritten below
    S = cfg.beta * schedule.P_at(ks + N)
    K = np.empty(As.shape[:2] + B.T.shape)
    for j in range(N - 1, -1, -1):
        BtS = B.T @ S
        M = costs.R + BtS @ B
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        neg_adj = M[:, ::-1, ::-1].swapaxes(1, 2) * [[-1.0, 1.0], [1.0, -1.0]]
        K[:, j] = neg_adj @ (BtS @ As[:, j]) / det[:, None, None]
        AtS = As[:, j].swapaxes(1, 2) @ S
        As[:, j] += B @ K[:, j]
        S = costs.Q + AtS @ As[:, j]
    Phi = np.broadcast_to(np.eye(3), (len(ks), 3, 3))
    for j in range(N):
        K[:, j] = K[:, j] @ Phi
        Phi = As[:, j] = As[:, j] @ Phi
    return K.reshape(len(ks), 2 * N, 3), As.reshape(len(ks), 3 * N, 3)


def build_qp(e0, k: int, ref: Reference, A, B, schedule, costs: CostMatrices,
             cfg: MpcConfig, avoid=()) -> QpProblem:
    """Assemble the stacked tracking QP at timestep k from the model stack
    A (L, 3, 3), the constant input matrix B and the reference inputs.

    Layout: variables [e(1)..e(N), u_b(0)..u_b(N-1)]; equalities are the N
    dynamics steps; inequalities are 4N two-sided input bounds
    (-u_max - u_ref <= u_b <= u_max - u_ref), optional no-reverse rows, then
    the avoidance rows `avoid` as given: each holds its 5N coefficients over
    the stacked vector and then its right-hand side (ValueError for another
    width). Model/reference/schedule indices clamp at the trajectory end
    (setpoint hold). Each step copies a template cached per N, Q, R and B
    (`_stacked_template`) and the bound rows cached per (N, forbid_reverse).
    """
    N = cfg.N
    n = 5 * N
    e0 = np.asarray(e0, dtype=float).reshape(3)
    steps = ref.clamp(np.arange(k, k + N))
    A = A[steps]
    H, A_eq, models, symmetric = _stacked_template(
        N, costs.Q.tobytes(), costs.R.tobytes(), np.asarray(B, dtype=float).tobytes())

    H = H.copy()
    terminal = cfg.beta * schedule.P_at(k + N)
    H[3 * (N - 1): 3 * N, 3 * (N - 1): 3 * N] = terminal
    g = np.zeros(n)

    A_eq = A_eq.copy()
    A_eq.put(models, -A[1:])
    b_eq = np.zeros(3 * N)
    b_eq[:3] = A[0] @ e0

    bound_rows, bounds = _input_rows(ref.inputs[steps], cfg, n, 3 * N)
    avoid = np.asarray(avoid, dtype=float).reshape(len(avoid), n + 1)
    A_in = np.concatenate([bound_rows, avoid[:, :-1]])
    b_in = np.concatenate([bounds, avoid[:, -1]])
    # H is exactly symmetric when its blocks are; the constructor tests the rest
    symmetric = symmetric and (terminal == terminal.T).all()
    return (QpProblem._symmetric if symmetric else QpProblem)(
        H=H, g=g, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)


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
    return QpProblem._symmetric(H=H, g=g, A_eq=A_eq, b_eq=p.b_eq, A_in=A_in, b_in=b_in)


class MpcController:
    """Receding-horizon tracking controller bound to one reference, its model
    stack A, input matrix B and terminal schedule.

    With avoidance off a step applies the plan G e0 of the horizon maps, and
    predicts F e0, when that plan keeps every input-bound (and no-reverse)
    row: the QP is strictly convex, so its unconstrained minimizer is then
    its unique optimum. The bounds of those rows on u_b, u_max - u_ref above
    and -(u_max + u_ref) below, are built once over the reference inputs and
    N - 1 copies of the last row, flattened to (v, omega) pairs, so the 2N
    entries from step clamp(k) hold, bit for bit, the bounds `_input_rows`
    gives the horizon at k (negation is exact). With reversing forbidden the
    lower v bound is -v_ref: never below -(u_max + v_ref), so the no-reverse
    row implies the v row. The maps are built lazily, MAP_BLOCK start steps
    at a time, and only the latest block is kept. Otherwise the step solves
    the condensed QP (`condense_qp`) from u_b = 0 and expands the predicted
    errors from Gamma u_b. With avoidance on every step solves the stacked QP
    (`build_qp`) started from `_rollout_start`, the prediction under u_b = 0,
    and falls back to the shared slack when the avoidance rows make it
    infeasible. Those rows are the `avoidance` blocks, (N, 5N + 1) each, of
    the obstacles within d_activate, concatenated in list order; the mode
    picks the row builder, and `build_qp` appends the rows without reading it.

    Holds the QP solver, the bound arrays, the latest block of horizon maps,
    the previous plan's heading errors (velocity-space only, used to
    linearize its rows) and the per-obstacle side memory used by the
    state-space avoidance hysteresis (obstacles are identified by their
    position in the list passed to control_step, which the simulator keeps
    stable). No previous solution is reused.
    """

    def __init__(self, ref: Reference, A, B, schedule, costs: CostMatrices, cfg: MpcConfig):
        self.ref = ref
        self.A = A
        self.B = B
        self.schedule = schedule
        self.costs = costs
        self.cfg = cfg
        self.solver = QpSolver(max_iter=800)
        self._sides = {}
        self._plan_e3 = self._plan_k = None  # previous velocity-space plan's heading errors, step
        self._maps = (None, None, None)  # (block index, G, F) of the latest map batch
        U = ref.inputs[ref.clamp(np.arange(len(ref) + cfg.N - 1))]
        upper, lower = cfg.u_max - U, cfg.u_max + U
        if cfg.forbid_reverse:
            lower[:, 0] = U[:, 0]
        self._upper, self._lower = upper.ravel(), -lower.ravel()
        self.last_debug = None  # (cone, halfplane, rows) of the nearest obstacle's velocity rows

    # -- avoidance row assembly -------------------------------------------

    def _avoidance_rows(self, z, e0: np.ndarray, k: int, obstacles):
        cfg = self.cfg
        blocks = []
        self.last_debug = None
        p_robot = np.array([z.x, z.y])
        i = self.ref.clamp(k)
        theta_ref, v_ref = self.ref.poses[i, 2], self.ref.inputs[i, 0]
        nearest = math.inf
        for idx, obs in enumerate(obstacles):
            dist = float(np.linalg.norm(obs.position - p_robot))
            if dist > cfg.d_activate:
                continue
            if cfg.avoidance == "state_space":
                hp, side = av.state_space_halfplane(
                    p_robot, obs, math.radians(cfg.theta_s_deg), cfg.r_safe,
                    ref_heading=theta_ref,
                    prev_side=self._sides.get(idx, 0),
                )
                self._sides[idx] = side
                blocks.append(av.position_rows(hp, self.ref, k, cfg.N))
            else:  # velocity_space
                if dist <= cfg.robot_radius + obs.radius:
                    continue  # already overlapping; no cone exists, leave it to the log
                cone = av.velocity_obstacle(p_robot, cfg.robot_radius, obs)
                u_pref = v_ref * np.array([math.cos(theta_ref), math.sin(theta_ref)])
                hp = av.tangent_halfplane(cone, u_pref)
                vrows = av.velocity_rows(hp, self.ref, k, cfg.N,
                                         self._heading_error_path(e0, k), self.ref.T)
                blocks.append(vrows)
                if dist < nearest:
                    nearest, self.last_debug = dist, (cone, hp, vrows)
        return np.concatenate(blocks) if blocks else np.empty((0, 5 * cfg.N + 1))

    def _heading_error_path(self, e0: np.ndarray, k: int) -> np.ndarray:
        """Per-step heading-error estimates: measured now, previous plan later."""
        if self._plan_e3 is not None and self._plan_k == k - 1:
            return np.concatenate([e0[2:], self._plan_e3[1:]])
        return np.full(self.cfg.N, e0[2])

    # -- start point --------------------------------------------------------

    def _rollout_start(self, e0: np.ndarray, k: int) -> np.ndarray:
        """Equality-feasible start: predicted errors under u_b = 0."""
        N = self.cfg.N
        x = np.zeros(5 * N)
        E = x[:3 * N].reshape(N, 3)
        e = e0
        for j, A_j in enumerate(self.A[self.ref.clamp(np.arange(k, k + N))]):
            e = A_j.dot(e, out=E[j])
        return x

    # -- main steps -----------------------------------------------------------

    def control_step(self, z, k: int, obstacles=()) -> MpcStep:
        cfg = self.cfg
        N = cfg.N
        i = self.ref.clamp(k)
        e0 = to_error_frame(z, self.ref.poses[i])

        slack_used, n_active = 0.0, 0
        if cfg.avoidance == "off":
            block, G, F = self._maps
            if block != k // MAP_BLOCK:
                block = k // MAP_BLOCK
                G, F = horizon_maps(block * MAP_BLOCK + np.arange(MAP_BLOCK), self.ref,
                                    self.A, self.B, self.schedule, self.costs, cfg)
                self._maps = block, G, F
            u_plan = G[k % MAP_BLOCK].dot(e0)
            j = 2 * i
            # every entry within both bounds; a NaN entry fails either comparison
            if (np.count_nonzero(u_plan <= self._upper[j:j + 2 * N])
                    + np.count_nonzero(u_plan >= self._lower[j:j + 2 * N]) == 4 * N):
                status, e_plan = "optimal", F[k % MAP_BLOCK].dot(e0)  # the QP's unique optimum
            else:
                problem, free, Gamma = condense_qp(e0, k, self.ref, self.A, self.B,
                                                   self.schedule, self.costs, cfg)
                sol = self.solver.solve(problem)
                status, u_plan, e_plan = sol.status, sol.x, free + Gamma @ sol.x
        else:
            avoid = self._avoidance_rows(z, e0, k, obstacles)
            problem = build_qp(e0, k, self.ref, self.A, self.B, self.schedule,
                               self.costs, cfg, avoid)
            sol = self.solver.solve(problem, x0=self._rollout_start(e0, k))
            status, x, mu_in = sol.status, sol.x, sol.mu_in
            if status == "infeasible" and len(avoid):
                slacked = _with_shared_slack(problem, len(avoid), cfg.slack_weight)
                ssol = self.solver.solve(slacked)
                if ssol.status != "infeasible":
                    slack_used = float(ssol.x[-1])
                    status, x, mu_in = ssol.status, ssol.x[:-1], ssol.mu_in[:problem.A_in.shape[0]]
            u_plan, e_plan = x[3 * N:], x[: 3 * N]
            if len(avoid) and mu_in.size >= len(avoid):
                n_active = int(np.sum(mu_in[-len(avoid):] > 1e-8))

        # an infeasible step holds the feed-forward; the simulator will halt
        u_b0 = np.zeros(2) if status == "infeasible" else u_plan[:2].copy()
        predicted = np.concatenate([e0, e_plan]).reshape(N + 1, 3)
        if cfg.avoidance == "velocity_space" and status != "infeasible":
            self._plan_e3 = predicted[1:, 2].copy()
            self._plan_k = k
        return MpcStep(
            u_applied=self.ref.inputs[i] + u_b0,
            u_feedback=u_b0,
            predicted_errors=predicted,
            stage_cost=stage_cost_value(e0, u_b0, self.costs),
            terminal_cost=terminal_cost_value(e0, self.schedule.P_at(k), cfg.beta),
            qp_status=status,
            active_avoidance_rows=n_active,
            slack_used=slack_used,
        )

    def lqr_control_step(self, z, k: int) -> MpcStep:
        """Unconstrained per-step LQR: u = u_ref + K(k) e, never clipped."""
        cfg = self.cfg
        i = self.ref.clamp(k)
        e0 = to_error_frame(z, self.ref.poses[i])
        u_b = self.schedule.K_at(k) @ e0
        steps = np.arange(k, k + cfg.N)
        A_K = self.A[self.ref.clamp(steps)] + self.B @ self.schedule.K_at(steps)
        predicted = np.empty((cfg.N + 1, 3))
        predicted[0] = e0
        for j in range(cfg.N):
            predicted[j + 1] = A_K[j] @ predicted[j]
        return MpcStep(
            u_applied=self.ref.inputs[i] + u_b,
            u_feedback=u_b,
            predicted_errors=predicted,
            stage_cost=stage_cost_value(e0, u_b, self.costs),
            terminal_cost=terminal_cost_value(e0, self.schedule.P_at(k), cfg.beta),
            qp_status="optimal",
        )
