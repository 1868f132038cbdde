"""Unicycle kinematics, exact discretization, and tracking-error coordinates.

The robot is a planar unicycle z = (x, y, theta) driven by u = (v, omega),
a length-2 array like each row of a Reference's inputs.
Everything downstream (Riccati design, MPC, simulation) works on the error
state e = R(theta) (z_ref - z) expressed in the robot's local frame, so this
module also owns the error-frame transforms and the linearized time-varying
error model. Everything indexed by time is an array: a Reference holds the
poses (L, 3) and feed-forward inputs (L, 2), linearize turns the inputs into
the stack A (L, 3, 3) in one call, and B = input_matrix(T) is one constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this turn rate the exact arc formulas are replaced by their
# second-order Taylor limit to avoid 0/0.
OMEGA_EPS = 1e-6

TAU = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap an angle (scalar or array) to the half-open interval (-pi, pi];
    float `%` and numpy's mod round alike, so both wrap to the same bits."""
    return (theta - math.pi) % -TAU + math.pi


@dataclass(frozen=True)
class RobotState:
    """Pose (x, y, theta); theta is normalized to (-pi, pi] on construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(wrap_angle(self.theta)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


@dataclass(frozen=True)
class Reference:
    """Sampled reference: poses (L, 3) as rows (x, y, theta), the feed-forward
    inputs (L, 2) as rows (v, omega) that generate them, and the period T."""

    poses: np.ndarray
    inputs: np.ndarray
    T: float

    def __len__(self) -> int:
        return len(self.poses)

    def clamp(self, k):
        """Step index k >= 0 (int or integer array), held at the last step
        past the end."""
        last = len(self.poses) - 1
        return min(k, last) if isinstance(k, int) else np.minimum(k, last)


def _arc(x: float, y: float, th: float, v: float, w: float, T: float):
    """Exact arc motion over T under constant (v, w), on floats, heading not
    wrapped. For |w| < OMEGA_EPS uses the Taylor limit with its second-order
    correction so the two branches join C1-continuously."""
    th_next = th + T * w
    if abs(w) < OMEGA_EPS:
        return (x + T * v * math.cos(th) - 0.5 * v * T * T * w * math.sin(th),
                y + T * v * math.sin(th) + 0.5 * v * T * T * w * math.cos(th), th_next)
    return (x + (v / w) * (math.sin(th_next) - math.sin(th)),
            y + (v / w) * (math.cos(th) - math.cos(th_next)), th_next)


def step_discrete(z: RobotState, u, T: float) -> RobotState:
    """Advance one sampling period under constant u = (v, omega): exact arc
    motion (`_arc`)."""
    if T < 0:
        raise ValueError("sampling period T must be >= 0")
    v, w = u
    return RobotState(*_arc(z.x, z.y, z.theta, v, w, T))


def _flat_outputs(samples: np.ndarray, v_min: float):
    """Positions, raw heading and feed-forward (v_r, omega_r) of curve samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 6:
        raise ValueError("samples must be (n, 6): columns x, xd, xdd, y, yd, ydd")
    x, xd, xdd, y, yd, ydd = samples.T
    speed_sq = xd**2 + yd**2
    if np.any(speed_sq < v_min**2):
        k_bad = int(np.argmax(speed_sq < v_min**2))
        raise ValueError(f"reference speed below {v_min} at sample {k_bad}")
    v_r = np.sqrt(speed_sq)
    theta_r = np.arctan2(yd, xd)
    omega_r = (xd * ydd - yd * xdd) / speed_sq
    return x, y, theta_r, np.column_stack([v_r, omega_r])


def derive_reference(samples: np.ndarray, T: float, v_min: float = 1e-9) -> Reference:
    """Build a reference from curve samples (x, xd, xdd, y, yd, ydd) per row.

    The feed-forward input follows from the flat outputs:
      v_r = hypot(xd, yd),  theta_r = atan2(yd, xd),
      omega_r = (xd*ydd - yd*xdd) / (xd^2 + yd^2).
    Raises ValueError where the planar speed falls below v_min (heading and
    turn rate are undefined at rest).
    """
    x, y, theta_r, inputs = _flat_outputs(samples, v_min)
    return Reference(np.column_stack([x, y, wrap_angle(theta_r)]), inputs, T)


def roll_reference(samples: np.ndarray, T: float, v_min: float = 1e-9) -> Reference:
    """Discretization-consistent reference: poses rolled through step_discrete.

    The feed-forward inputs come from the curve derivatives exactly as in
    derive_reference, but the pose sequence starts at the first curve sample
    and then obeys z_ref(k+1) = step_discrete(z_ref(k), u_ref(k), T). A robot
    started on this reference and fed u_ref stays on it to machine precision,
    which is what makes the zero-error fixed point of the closed loop exact.
    The float loop shares `_arc` and `wrap_angle` with step_discrete.
    """
    x, y, theta_r, inputs = _flat_outputs(samples, v_min)
    pose = (float(x[0]), float(y[0]), float(wrap_angle(theta_r[0])))
    poses = [pose]
    for v, w in inputs[:-1].tolist():
        px, py, th = _arc(*pose, v, w, T)
        pose = (px, py, wrap_angle(th))
        poses.append(pose)
    return Reference(np.array(poses), inputs, T)


def to_error_frame(z: RobotState, pose) -> np.ndarray:
    """Tracking error e = R(theta) (z_ref - z) in the robot's local frame, as
    the array (e1, e2, e3) with e3 wrapped to (-pi, pi]; pose is the
    reference row (x, y, theta). The arithmetic is on Python floats."""
    x_r, y_r, th_r = np.asarray(pose, dtype=float).tolist()
    dx, dy = x_r - z.x, y_r - z.y
    c, s = math.cos(z.theta), math.sin(z.theta)
    return np.array([c * dx + s * dy, -s * dx + c * dy, wrap_angle(th_r - z.theta)])


def linearize(inputs, T: float) -> np.ndarray:
    """Time-varying error matrices A (..., 3, 3), one per row (v_r, w_r) of
    inputs (forward-Euler discrete):

    A = [[1, w_r T, 0], [-w_r T, 1, v_r T], [0, 0, 1]].
    The input matrix is the constant input_matrix(T).
    """
    inputs = np.asarray(inputs, dtype=float)
    v_r, w_r = inputs[..., 0], inputs[..., 1]
    A = np.zeros(inputs.shape[:-1] + (3, 3))
    A[..., 0, 0] = A[..., 1, 1] = A[..., 2, 2] = 1.0
    A[..., 0, 1] = w_r * T
    A[..., 1, 0] = -w_r * T
    A[..., 1, 2] = v_r * T
    return A


def input_matrix(T: float) -> np.ndarray:
    """Constant input map B = [[-T, 0], [0, 0], [0, -T]] of the error model."""
    return np.array([[-T, 0.0], [0.0, 0.0], [0.0, -T]])
