"""Linear obstacle-avoidance constraints for the error-space MPC.

Two constructions, both yielding rows that drop straight into the QP:

1. State-space half-planes: a separating line tangent to the obstacle's
   safety disc, rotated by a steering angle theta_s about the robot-obstacle
   direction. The rotation side flips with the obstacle's side of the
   reference direction (with hysteresis so a dead-ahead obstacle does not
   chatter), which steers approach and departure differently.

2. Velocity obstacles: the set of velocities that collide at some time
   t > 0 (the velocity obstacle for an unbounded horizon) is a cone; one
   tangent half-plane through the cone apex (the obstacle's velocity) is
   kept, chosen to restrict the preferred velocity least. The induced
   constraint on speed/turn-rate deviations is the first-order expansion of
   the signed margin at the reference input.

Both emit one float block of shape (N, 5N + 1) per obstacle: N rows over
the MPC's stacked decision vector [e(1) ... e(N), u_b(0) ... u_b(N-1)], each
row's right-hand side in the last column. Row j acts on one variable pair of
horizon step j, the position part of e(j+1) for the half-planes and u_b(j)
for the velocity rows; this module alone decides which. An obstacle enters
as its center, radius and velocity: step k's rows of the simulator's
obstacle tracks, checked at load (a negative radius still raises here).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

HYSTERESIS_RAD = math.radians(5.0)


class HalfPlane(NamedTuple):
    """Constraint n . x (sense) a with unit normal n; sense is 'le' or 'ge'."""

    n: np.ndarray
    a: float
    sense: str = "le"


class VoCone(NamedTuple):
    """Velocity-obstacle cone: apex at the obstacle velocity, unit axis toward
    the obstacle, half-angle from the combined radius."""

    apex: np.ndarray
    axis: np.ndarray
    half_angle: float


def _rot(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _stacked_rows(first: int, stride: int, pairs, rhs) -> np.ndarray:
    """Rows over the stacked vector [e(1)..e(N), u_b(0)..u_b(N-1)], the
    right-hand side last: row j holds pairs[j] on columns first + stride * j
    and the one after, and rhs[j]; every other entry is zero."""
    N = len(rhs)
    rows = np.zeros((N, 5 * N + 1))
    j = np.arange(N)[:, None]
    rows[j, first + stride * j + [0, 1]] = pairs
    rows[:, -1] = rhs
    return rows


# -- method 1: state-space half-planes ----------------------------------------


def state_space_halfplane(p_robot, center, theta_s: float, r_safe: float,
                          ref_heading: float, prev_side: int = 0):
    """Separating half-plane n . x <= a for the robot's position.

    The base direction d points from robot to obstacle center; the plane is
    tangent to the disc of radius r_safe around the center, then rotated by
    +/- theta_s. The sign follows the side of the obstacle relative to the
    reference direction (cross product), held by hysteresis within
    HYSTERESIS_RAD of the switching boundaries; pass the previously used side
    as prev_side (0 when none). Returns (halfplane, side); a robot already
    within r_safe of the center still gets a plane pointing away from the
    obstacle.
    """
    p_robot = np.asarray(p_robot, dtype=float).reshape(2)
    d = center - p_robot
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise ValueError("robot and obstacle centers coincide")
    d_hat = d / dist
    ref_dir = np.array([math.cos(ref_heading), math.sin(ref_heading)])
    cross = float(ref_dir[0] * d_hat[1] - ref_dir[1] * d_hat[0])
    dot = float(ref_dir @ d_hat)
    ang = math.atan2(cross, dot)
    near_boundary = min(abs(ang), math.pi - abs(ang)) < HYSTERESIS_RAD
    if prev_side != 0 and near_boundary:
        side = prev_side
    else:
        side = 1 if ang >= 0.0 else -1
    n = _rot(side * theta_s) @ d_hat
    a = float(n @ center) - r_safe
    return HalfPlane(n, a, "le"), side


def position_rows(hp: HalfPlane, ref, k: int, N: int):
    """Map a world half-plane onto predicted-error rows for steps 1..N.

    The predicted world position at step j is p_ref(k+j) - R(theta)' e_pos
    with theta taken as the reference heading, so n . p <= a becomes
    -(R(theta_ref) n) . e_pos <= a - n . p_ref, with R(theta) the
    world-to-robot rotation [[c, s], [-s, c]] of the error definition. ref is
    the dynamics.Reference; its step indices clamp at the end. Returns the
    (N, 5N + 1) block: row j - 1 acts on e(j)'s position pair.

    Both products run per pose, as stacks of 2 x 2 and 1 x 2 matrices: a
    single (N, 2) product would sum each row's two terms differently.
    """
    poses = ref.poses[ref.clamp(np.arange(k + 1, k + N + 1))]
    R = np.array([[[c, s], [-s, c]] for c, s in
                  ((math.cos(th), math.sin(th)) for th in poses[:, 2].tolist())])
    return _stacked_rows(0, 3, -(R @ hp.n), hp.a - (poses[:, None, :2] @ hp.n)[:, 0])


# -- method 2: velocity obstacles ----------------------------------------------


def velocity_obstacle(p_robot, r_robot: float, center, radius: float, velocity) -> VoCone:
    """Cone of robot velocities that hit the obstacle, a disc of the given
    center (2,), radius and velocity (2,), at some time t > 0.

    The union of the discs D((p_j - p_i)/t + v_j, (r_i + r_j)/t) over all
    t > 0 is the cone with apex v_j, axis toward the obstacle, half-angle
    asin((r_i + r_j)/dist). Raises ValueError for a negative radius, or when
    the discs already overlap (dist <= r_i + r_j). The axis d / dist is
    divided by its own norm once more, which moves its last bits in about a
    third of directions; the shipped outputs depend on those bits.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    p_robot = np.asarray(p_robot, dtype=float).reshape(2)
    d = center - p_robot
    dist = float(np.linalg.norm(d))
    r_sum = r_robot + radius
    if dist <= r_sum:
        raise ValueError("already in collision: center distance <= combined radius")
    axis = d / dist
    return VoCone(velocity, axis / float(np.linalg.norm(axis)),
                  math.asin(r_sum / dist))


def tangent_halfplane(cone: VoCone, u_pref) -> HalfPlane:
    """Feasible half-plane n . u >= a bounding the cone from one side.

    Candidate normals are the outward normals of the two tangent rays; the
    chosen side maximizes n . (u_pref - apex), i.e. restricts the preferred
    velocity least. Ties go to the left tangent. a = n . apex, so the apex
    (obstacle velocity) lies exactly on the boundary.
    """
    u_pref = np.asarray(u_pref, dtype=float).reshape(2)
    n_left = _rot(cone.half_angle + math.pi / 2) @ cone.axis
    n_right = _rot(-cone.half_angle - math.pi / 2) @ cone.axis
    w = u_pref - cone.apex
    n = n_left if float(n_left @ w) >= float(n_right @ w) else n_right
    return HalfPlane(n, float(n @ cone.apex), "ge")


def velocity_constraint_row(n, a: float, theta: float, u_r: float, w_r: float, dt: float):
    """First-order row in the input deviations (e_u, e_w) at the reference.

    Expanding the margin at (u_r, w_r) and flipping f >= 0 into a <= row:
        coef_eu * e_u + coef_ew * e_w + const <= 0.
    Returns (coef_eu, coef_ew, const), computed on Python floats.
    """
    n0, n1 = float(n[0]), float(n[1])
    phase = theta + w_r * dt
    c, s = math.cos(phase), math.sin(phase)
    coef_eu = -n0 * c - n1 * s
    coef_ew = (n0 * u_r * s - n1 * u_r * c) * dt
    const = -n0 * u_r * c - n1 * u_r * s + a
    return coef_eu, coef_ew, const


def velocity_rows(hp: HalfPlane, ref, k: int, N: int, e3_path, dt: float):
    """Linearized velocity rows for horizon steps 0..N-1, as the (N, 5N + 1)
    block whose row j acts on u_b(j).

    The heading estimate at step j is the reference heading at k+j shifted by
    entry j of e3_path (N entries). Passing the previous solve's predicted
    heading errors makes a turn planned early in the horizon pay off in the
    later rows; one frozen shift for every step would instead charge each
    step the full turn from scratch, which prices steering out of the
    solution. ref is the dynamics.Reference; its step indices clamp at the
    end.
    """
    e3_path = np.asarray(e3_path, dtype=float).ravel().tolist()
    if len(e3_path) != N:
        raise ValueError("e3_path must have one entry per step")
    steps = ref.clamp(np.arange(k, k + N))
    n = hp.n.tolist()
    coefs = [velocity_constraint_row(n, hp.a, theta - e3, v_r, w_r, dt)
             for theta, (v_r, w_r), e3 in zip(ref.poses[steps, 2].tolist(),
                                              ref.inputs[steps].tolist(), e3_path)]
    coefs = np.array(coefs)
    return _stacked_rows(3 * N, 2, coefs[:, :2], -coefs[:, 2])


# -- debug dump -----------------------------------------------------------------


def velocity_debug_csv(cone: VoCone, hp: HalfPlane, rows) -> str:
    """Velocity-space snapshot (cone, half-plane, the `velocity_rows` block)
    as CSV: per step, the (v, omega) coefficients of u_b(j) and the
    right-hand side."""
    N = len(rows)
    j = np.arange(N)
    coefs = np.column_stack([rows[j, 3 * N + 2 * j], rows[j, 3 * N + 2 * j + 1], rows[:, -1]])
    lines = ["record,field0,field1,field2,field3"]
    lines.append(f"cone_apex,{cone.apex[0]:.17g},{cone.apex[1]:.17g},,")
    lines.append(f"cone_axis,{cone.axis[0]:.17g},{cone.axis[1]:.17g},,")
    lines.append(f"cone_shape,{cone.half_angle:.17g},,,")
    lines.append(f"halfplane,{hp.n[0]:.17g},{hp.n[1]:.17g},{hp.a:.17g},{hp.sense}")
    lines += [f"row_step_{j},{cu:.17g},{cw:.17g},{rhs:.17g},"
              for j, (cu, cw, rhs) in enumerate(coefs.tolist())]
    return "\n".join(lines) + "\n"
