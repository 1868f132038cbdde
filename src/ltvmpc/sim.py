"""Closed-loop simulation: scenarios, reference curves, obstacle tracks, logs,
metrics.

The plant is the exact discrete unicycle step; the controller sees the same
reference the plant rolls along (references are integrated through the
discrete dynamics, which makes "start on the reference, apply the
feed-forward" an exact fixed point of the loop). Obstacles are static discs,
constant-velocity discs, or secondary unicycles driven open-loop along their
own reference; only the primary robot avoids, so every obstacle's path is
fixed before the run and held as arrays (`obstacle_tracks`).

The closed loop is `run_scenario`. It writes each step into one
preallocated record array with a field per CSV column (LOG_DTYPE), so
metrics and the log CSV both read columns, and it keeps the controller's
velocity-space geometry at the closest approach for the debug dump, so no
dump re-runs the loop.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .avoidance import Obstacle
from .dynamics import (Reference, RobotState, derive_reference, input_matrix, linearize,
                       roll_reference, step_discrete)
from .mpc import MpcConfig, MpcController
from .riccati import CostMatrices, backward_riccati
from .terminal_set import C_MIN

MAX_LEVELS = 100_000  # the longest level sequence a terminal_set section may ask for

CSV_COLUMNS = ("k", "t", "x", "y", "theta", "x_ref", "y_ref", "theta_ref",
               "e1", "e2", "e3", "v", "omega", "v_ref", "omega_ref",
               "stage_cost", "terminal_cost", "qp_status", "slack", "min_dist")
# one field per column; "infeasible" is the longest QP status
LOG_DTYPE = np.dtype([(c, {"k": int, "qp_status": "U10"}.get(c, float)) for c in CSV_COLUMNS])

CONVERGENCE_TOL = 0.01  # final-window error bound for the converged flag
CONVERGENCE_WINDOW = 0.10  # fraction of the log checked for convergence
LYAP_ENTRY = 0.05  # error threshold that starts the decrease audit
LYAP_TOL = 1e-6  # additive tolerance of the decrease inequality


@dataclass(frozen=True)
class TrajectorySpec:
    """Analytic reference curve; samples() returns (x, xd, xdd, y, yd, ydd)."""

    kind: str  # sinusoid | line | circle
    T: float = 0.05
    x_speed: float = 0.5
    amplitude: float = 1.0
    angular_freq: float = 0.5
    start: tuple[float, ...] = (0.0, 0.0)
    heading: float = 0.0
    speed: float = 0.5
    center: tuple[float, ...] = (0.0, 0.0)
    radius: float = 1.0
    angular_rate: float = 0.5
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sinusoid", "line", "circle"):
            raise ValueError("trajectory kind must be sinusoid, line or circle")
        if self.T <= 0:
            raise ValueError("sampling period T must be positive")
        if len(self.start) != 2 or len(self.center) != 2:
            raise ValueError("start and center need 2 entries")

    def samples(self, n: int) -> np.ndarray:
        t = np.arange(n) * self.T
        if self.kind == "sinusoid":
            x, xd, xdd = self.x_speed * t, np.full(n, self.x_speed), np.zeros(n)
            w = self.angular_freq
            y = self.amplitude * np.sin(w * t)
            yd = self.amplitude * w * np.cos(w * t)
            ydd = -self.amplitude * w * w * np.sin(w * t)
        elif self.kind == "line":
            cx, sy = math.cos(self.heading), math.sin(self.heading)
            x = self.start[0] + self.speed * cx * t
            y = self.start[1] + self.speed * sy * t
            xd, yd = np.full(n, self.speed * cx), np.full(n, self.speed * sy)
            xdd = ydd = np.zeros(n)
        else:  # circle
            w = self.angular_rate
            ph = w * t + self.phase
            x = self.center[0] + self.radius * np.cos(ph)
            y = self.center[1] + self.radius * np.sin(ph)
            xd, yd = -self.radius * w * np.sin(ph), self.radius * w * np.cos(ph)
            xdd, ydd = -self.radius * w * w * np.cos(ph), -self.radius * w * w * np.sin(ph)
        return np.column_stack([x, xd, xdd, y, yd, ydd])


def build_reference(spec: TrajectorySpec, n: int) -> Reference:
    """Reference of n points, its poses integrated through the discrete
    dynamics (`roll_reference`: an exact fixed point)."""
    return roll_reference(spec.samples(n), spec.T)


@dataclass(frozen=True)
class ObstacleSpec:
    """Scene obstacle: static disc, constant-velocity disc, or a unicycle
    driven by its own reference's feed-forward ('open_loop', the only control)."""

    kind: str  # static | linear | unicycle
    radius: float = 0.3
    position: tuple[float, ...] = (0.0, 0.0)
    velocity: tuple[float, ...] = (0.0, 0.0)
    trajectory: TrajectorySpec = None
    control: str = "open_loop"

    def __post_init__(self):
        if self.kind not in ("static", "linear", "unicycle"):
            raise ValueError("obstacle kind must be static, linear or unicycle")
        if self.kind == "unicycle" and self.trajectory is None:
            raise ValueError("unicycle obstacle needs a trajectory")
        if self.control != "open_loop":
            raise ValueError("obstacle control must be open_loop")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if len(self.position) != 2 or len(self.velocity) != 2:
            raise ValueError("position and velocity need 2 entries")


@dataclass(frozen=True)
class Scenario:
    """Full experiment description; everything needed to reproduce a run.
    The field names are a config's top-level keys."""

    name: str = "scenario"
    trajectory: TrajectorySpec = field(default_factory=lambda: TrajectorySpec("sinusoid"))
    duration: int = 600
    initial_state: tuple[float, ...] = None  # None -> start on the reference
    mpc: MpcConfig = field(default_factory=MpcConfig)
    Q_diag: tuple[float, ...] = (1.0, 1.0, 0.5)
    R_diag: tuple[float, ...] = (0.1, 0.05)
    obstacles: tuple[ObstacleSpec, ...] = ()
    controller: str = "mpc"  # mpc | lqr

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name or "/" in self.name \
                or os.sep in self.name:
            raise ValueError("name must be a non-empty string without path separators")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.initial_state is not None and len(self.initial_state) != 3:
            raise ValueError("initial_state needs 3 entries (x, y, heading)")
        if self.controller not in ("mpc", "lqr"):
            raise ValueError("controller must be 'mpc' or 'lqr'")
        if len(self.Q_diag) != 3 or len(self.R_diag) != 2:
            raise ValueError("Q_diag needs 3 entries and R_diag needs 2")
        if self.mpc.avoidance == "velocity_space" and any(
                self.mpc.robot_radius + o.radius <= 0 for o in self.obstacles):
            raise ValueError("velocity_space avoidance needs robot_radius + obstacle radius > 0")
        for i, o in enumerate(self.obstacles):  # an obstacle steps on the scene's clock
            if o.kind == "unicycle" and o.trajectory.T != self.trajectory.T:
                raise ValueError(f"'obstacles[{i}].trajectory.T' must equal the scene's "
                                 f"trajectory.T ({self.trajectory.T}), not {o.trajectory.T}")
        self.costs()  # Q PSD and R PD, checked here rather than at the first run
        n_points = self.duration + self.mpc.N + 1
        for spec in (self.trajectory,
                     *(o.trajectory for o in self.obstacles if o.kind == "unicycle")):
            derive_reference(spec.samples(n_points), spec.T)  # speed above zero throughout

    def costs(self) -> CostMatrices:
        return CostMatrices(np.diag(self.Q_diag), np.diag(self.R_diag))


@dataclass(frozen=True)
class SweepSpec:
    """Parameter study: one run per value of `param` (N or beta). The values
    stay as written, since each run is named {name}_{param}{value}."""

    param: str
    values: tuple


@dataclass(frozen=True)
class TerminalSetSpec:
    """Terminal-level search: state box e_max, first level c0, and the factor
    each level shrinks by until its vertex box fits. The sequence from c0 to
    the search's floor C_MIN may hold at most MAX_LEVELS levels, since a
    search may walk all of it."""

    e_max: tuple[float, ...] = (1.0, 1.0, math.pi)
    c0: float = 10.0
    shrink: float = 1.01

    def __post_init__(self):
        if len(self.e_max) != 3 or not all(e > 0 for e in self.e_max):
            raise ValueError("e_max needs three positive entries")
        if not (self.c0 >= C_MIN and self.shrink > 1):
            raise ValueError(f"c0 must be at least {C_MIN:g} and shrink greater than 1")
        levels = math.log(self.c0 / C_MIN) / math.log(self.shrink)
        if levels > MAX_LEVELS:
            raise ValueError(f"shrink {self.shrink!r} needs {levels:.3g} levels from c0 to"
                             f" {C_MIN:g}, more than {MAX_LEVELS}")


@dataclass(frozen=True)
class Config:
    """One config file: the scenario (its fields are the top-level keys) and
    the optional `sweep` and `terminal_set` sections. Every sweep value is
    checked by building the scenario its run would use."""

    scenario: Scenario
    sweep: SweepSpec = None
    terminal_set: TerminalSetSpec = field(default_factory=TerminalSetSpec)

    def __post_init__(self):
        if self.sweep is None:
            return
        if self.sweep.param not in ("N", "beta"):
            raise ValueError("sweep.param must be 'N' or 'beta'")
        if not self.sweep.values:
            raise ValueError("sweep.values must be a non-empty list")
        for value in self.sweep.values:
            try:
                sweep_scenario(self.scenario, self.sweep.param, value)
            except (TypeError, ValueError) as e:
                raise ValueError(f"sweep.values: {value!r}: {e}") from e


@dataclass
class SimLog:
    """One run: `rows` is a record array of LOG_DTYPE, one record per step
    up to and including the halting step, so `rows.v` is the v column.
    `tracks` holds the obstacle tracks the run used (`obstacle_tracks`), and
    `closest_debug` the controller's `last_debug` (cone, half-plane, velocity
    rows) at the first step of smallest `min_dist`, None if it built no
    velocity rows there; both are None where not given (`read_log_csv` reads
    the rows only)."""

    scenario: Scenario
    rows: np.recarray
    halted: bool = False
    halt_reason: str = ""
    tracks: tuple = None
    closest_debug: tuple = None


@dataclass(frozen=True)
class Metrics:
    """Aggregates over one log; min_clearance is +inf when no obstacles."""

    xy_error_sum: float
    input_effort: tuple
    converged: bool
    min_clearance: float
    lyapunov_violations: int
    slack_total: float
    halted: bool


# -- main loop ----------------------------------------------------------------------


def obstacle_tracks(scn: Scenario):
    """Obstacle positions and velocities over the run, each (duration, m, 2),
    and radii (m,). Obstacles never react to the robot, so their paths are
    fixed: a static disc stays put, a linear one is at p0 + v (kT), and a
    unicycle is on its rolled reference, where its open-loop feed-forward
    steps it bit for bit, moving at the reference speed along its heading."""
    n = scn.duration
    positions = np.empty((n, len(scn.obstacles), 2))
    velocities = np.zeros_like(positions)
    for i, o in enumerate(scn.obstacles):
        if o.kind == "static":
            positions[:, i] = o.position
        elif o.kind == "linear":
            velocities[:, i] = o.velocity
            kT = np.arange(n) * scn.trajectory.T
            positions[:, i] = np.array(o.position) + kT[:, None] * o.velocity
        else:  # sampled at the length whose speeds Scenario checks
            ref = build_reference(o.trajectory, n + scn.mpc.N + 1)
            positions[:, i] = ref.poses[:n, :2]
            heading = [(math.cos(th), math.sin(th)) for th in ref.poses[:n, 2].tolist()]
            velocities[:, i] = ref.inputs[:n, :1] * np.array(heading).reshape(n, 2)
    return positions, velocities, np.array([o.radius for o in scn.obstacles], dtype=float)


def build_controller(scn: Scenario):
    """The controller and the obstacle tracks (`obstacle_tracks`) exactly as
    run_scenario builds them (exposed so tests and the terminal-set command
    can inspect controller state)."""
    T = scn.trajectory.T
    ref = build_reference(scn.trajectory, scn.duration + scn.mpc.N + 1)
    A, B = linearize(ref.inputs, T), input_matrix(T)
    costs = scn.costs()
    schedule = backward_riccati(A, B, costs)
    controller = MpcController(ref, A, B, schedule, costs, scn.mpc)
    return controller, obstacle_tracks(scn)


def run_scenario(scn: Scenario) -> SimLog:
    """The closed loop of scn: at each step k the controller acts on the
    robot state and step k's rows of the obstacle tracks, the step is
    logged, and the plant advances. Ends after `scn.duration` steps, or
    halts after a step whose QP is infeasible."""
    controller, tracks = build_controller(scn)
    ref, T = controller.ref, scn.trajectory.T
    positions, velocities, radii = tracks
    rows = np.recarray(scn.duration, dtype=LOG_DTYPE)
    z = RobotState(*(ref.poses[0] if scn.initial_state is None else scn.initial_state))
    closest, debug = math.inf, None
    for k in range(scn.duration):
        obstacles = [Obstacle(*o) for o in zip(positions[k], radii, velocities[k])]
        if scn.controller == "lqr":
            step = controller.lqr_control_step(z, k)
        else:
            step = controller.control_step(z, k, obstacles)
        p = np.array([z.x, z.y])
        min_dist = math.inf
        for o in obstacles:
            min_dist = min(min_dist, float(np.linalg.norm(o.position - p)))
        if min_dist < closest:  # the first step on a tie, as the log's argmin
            closest, debug = min_dist, controller.last_debug
        rows[k] = (k, k * T, z.x, z.y, z.theta, *ref.poses[k], *step.predicted_errors[0],
                   *step.u_applied, *ref.inputs[k], step.stage_cost, step.terminal_cost,
                   step.qp_status, step.slack_used, min_dist)
        if step.qp_status == "infeasible":
            return SimLog(scn, rows[:k + 1], True, f"unrecoverable QP infeasibility at step {k}",
                          tracks, debug)
        z = step_discrete(z, step.u_applied, T)
    return SimLog(scn, rows, tracks=tracks, closest_debug=debug)


def compute_metrics(log: SimLog) -> Metrics:
    rows = log.rows
    if not len(rows):
        raise ValueError("empty log")
    e = np.column_stack([rows.e1, rows.e2, rows.e3])
    xy_error_sum = float(np.sum(np.abs(e[:, 0])) + np.sum(np.abs(e[:, 1])))
    # the builtin sum adds in step order; np.sum would add pairwise
    effort = (float(sum(np.abs(rows.v).tolist())), float(sum(np.abs(rows.omega).tolist())))
    n_tail = max(1, math.ceil(CONVERGENCE_WINDOW * len(rows)))
    tail = np.max(np.abs(e[-n_tail:]), axis=1)
    converged = bool(np.all(tail < CONVERGENCE_TOL)) and not log.halted
    min_clearance = float(np.min(rows.min_dist))

    e_inf = np.max(np.abs(e), axis=1)
    entered = np.nonzero(e_inf < LYAP_ENTRY)[0]
    violations = 0
    if entered.size:
        k0 = int(entered[0])
        decrease = rows.terminal_cost[k0:-1] - rows.terminal_cost[k0 + 1:]
        violations = int(np.count_nonzero(decrease + LYAP_TOL < rows.stage_cost[k0:-1]))
    slack_total = float(sum(rows.slack.tolist()))
    return Metrics(xy_error_sum, effort, converged, min_clearance, violations,
                   slack_total, log.halted)


# -- parameter studies ----------------------------------------------------------------


def sweep_scenario(scn: Scenario, param: str, value) -> Scenario:
    """The scenario one sweep value runs: N or beta set, named {name}_{param}{value}."""
    if param == "N":
        mpc = replace(scn.mpc, N=int(value))
    elif param == "beta":
        mpc = replace(scn.mpc, beta=float(value))
    else:
        raise ValueError(f"unknown sweep parameter '{param}'")
    return replace(scn, mpc=mpc, name=f"{scn.name}_{param}{value}")


def sweep(scn: Scenario, param: str, values):
    """Run the scenario once per parameter value; returns [(value, log, metrics)]."""
    logs = [(v, run_scenario(sweep_scenario(scn, param, v))) for v in values]
    return [(v, log, compute_metrics(log)) for v, log in logs]


def lqr_comparison(scn: Scenario):
    """Same scenario under MPC and under unclipped per-step LQR."""
    log_mpc = run_scenario(replace(scn, controller="mpc", name=f"{scn.name}_mpc"))
    log_lqr = run_scenario(replace(scn, controller="lqr", name=f"{scn.name}_lqr"))
    return log_mpc, log_lqr


# -- CSV io ------------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _table(header, rows) -> str:
    """CSV text, one line per row; floats at 17 significant digits, which
    round-trip exactly."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _column_table(header, columns) -> str:
    """CSV text from equal-length array columns, as `_table` writes it: each
    column read once via .tolist(), each row formatted in one call with a
    format per column (strings as they are, floats at 17 significant digits,
    integers in decimal)."""
    fmt = ",".join({"U": "%s", "f": "%.17g"}.get(c.dtype.kind, "%d") for c in columns)
    lines = [",".join(header)]
    lines += [fmt % row for row in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def log_to_csv(log: SimLog) -> str:
    return _column_table(CSV_COLUMNS, [log.rows[c] for c in CSV_COLUMNS])


def write_log_csv(log: SimLog, path):
    with open(path, "w") as f:
        f.write(log_to_csv(log))


def read_log_csv(path) -> np.recarray:
    """Parse a log CSV back into a record array of LOG_DTYPE."""
    with open(path) as f:
        if tuple(f.readline().strip().split(",")) != CSV_COLUMNS:
            raise ValueError(f"unexpected log columns in {path}")
        records = [tuple(line.strip().split(",")) for line in f]
    return np.array(records, dtype=LOG_DTYPE).view(np.recarray)
