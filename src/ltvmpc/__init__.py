"""Linear time-varying MPC tracking control for unicycle robots.

Library layout: dynamics (exact step, error frame, array reference and
linearization), riccati (DARE + backward schedule), terminal_set (level-set
sizing), qp (active-set solver with phase-1 start), avoidance (hyperplane and
velocity-cone rows), mpc (condensed and stacked QPs, the receding-horizon
controller), sim (scenario engine + metrics), figures (CSV tables beside the
log), cli (batch front end).
"""

from .avoidance import (HalfPlane, VoCone, state_space_halfplane, tangent_halfplane,
                        velocity_constraint_row, velocity_obstacle)
from .dynamics import (Reference, RobotState, derive_reference, input_matrix,
                       linearize, roll_reference, step_discrete, to_error_frame, wrap_angle)
from .mpc import MpcConfig, MpcController, MpcStep, build_qp, condense_qp
from .qp import QpProblem, QpSolution, QpSolver, kkt_residuals
from .riccati import CostMatrices, TerminalSchedule, backward_riccati, lqr_gain, solve_dare
from .sim import (Metrics, ObstacleSpec, Scenario, SimLog, TrajectorySpec,
                  build_controller, build_reference, compute_metrics, lqr_comparison,
                  read_log_csv, run_scenario, sweep, write_log_csv)
from .terminal_set import (NoTerminalLevel, TerminalConstraints, compute_c_schedule, outer_box,
                           shrink_level, unit_spreads, vertices_feasible)

__version__ = "0.1.0"

__all__ = [
    "CostMatrices", "HalfPlane",
    "Metrics", "MpcConfig", "MpcController", "MpcStep", "NoTerminalLevel",
    "ObstacleSpec", "QpProblem", "QpSolution", "QpSolver",
    "Reference", "RobotState", "Scenario", "SimLog",
    "TerminalConstraints", "TerminalSchedule",
    "TrajectorySpec", "VoCone", "backward_riccati", "build_controller", "build_qp",
    "build_reference", "compute_c_schedule", "compute_metrics", "condense_qp",
    "derive_reference", "input_matrix", "kkt_residuals", "linearize",
    "lqr_comparison", "lqr_gain", "outer_box",
    "read_log_csv", "roll_reference", "run_scenario", "shrink_level", "solve_dare",
    "state_space_halfplane", "step_discrete", "sweep",
    "tangent_halfplane", "to_error_frame", "unit_spreads", "velocity_constraint_row",
    "velocity_obstacle", "vertices_feasible", "wrap_angle", "write_log_csv",
]
