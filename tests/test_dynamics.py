"""Kinematics: exact step vs fine integration, error-frame algebra, the
time-varying linear model vs finite differences of the nonlinear field."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmpc.cli import load_config
from ltvmpc.dynamics import (RobotState, derive_reference, input_matrix, linearize,
                             roll_reference, step_discrete, to_error_frame, wrap_angle)
from ltvmpc.sim import TrajectorySpec, build_controller, build_reference

from oracles import (arc_step, central_jacobian, controllability_rank, error_field,
                     euler_richardson, from_error_frame, linearize_step, step_continuous)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

angles = st.floats(-10.0, 10.0, allow_nan=False)
coords = st.floats(-100.0, 100.0, allow_nan=False)


def test_wrap_angle_range_and_idempotence():
    th = np.linspace(-50, 50, 20001)
    w = wrap_angle(th)
    assert np.all(w > -math.pi) and np.all(w <= math.pi)
    assert np.allclose(wrap_angle(w), w, atol=1e-12)
    # the half-open convention: pi stays pi, -pi flips to pi
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)


def test_continuous_field_known_points():
    assert np.allclose(step_continuous(RobotState(0, 0, 0), (1, 0)),
                       [1, 0, 0])
    assert np.allclose(step_continuous(RobotState(0, 0, math.pi / 2), (1, 0)),
                       [0, 1, 0], atol=1e-15)
    out = step_continuous(RobotState(0, 0, math.pi / 4), (math.sqrt(2), 0.5))
    assert np.allclose(out, [1, 1, 0.5], atol=1e-15)


def test_discrete_step_known_points():
    z = step_discrete(RobotState(0, 0, 0), (1, 0), 0.1)
    assert np.allclose(z.as_array(), [0.1, 0, 0], atol=1e-15)
    # quarter circle of radius v/omega = 1
    z = step_discrete(RobotState(0, 0, 0), (math.pi / 2, math.pi / 2), 1.0)
    assert np.allclose(z.as_array(), [1, 1, math.pi / 2], atol=1e-12)
    z = step_discrete(RobotState(0, 0, 0), (1, 1), 0.1)
    assert np.allclose(z.as_array(), [math.sin(0.1), 1 - math.cos(0.1), 0.1], atol=1e-15)


def test_discrete_step_matches_richardson_euler(rng):
    n = 100
    z = np.column_stack([rng.uniform(-5, 5, n), rng.uniform(-5, 5, n),
                         rng.uniform(-math.pi, math.pi, n)])
    u = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-10, 10, n)])
    T = rng.uniform(0.01, 0.2, n)
    want = euler_richardson(z, u, T)
    got = np.array([step_discrete(RobotState(*z[i]), u[i], T[i]).as_array()
                    for i in range(n)])
    err_xy = np.max(np.abs(got[:, :2] - want[:, :2]))
    err_th = np.max(np.abs(wrap_angle(got[:, 2] - want[:, 2])))
    assert err_xy <= 1e-6, f"max xy deviation {err_xy:.3e}"
    assert err_th <= 1e-6, f"max heading deviation {err_th:.3e}"


def test_discrete_step_branch_continuity():
    eps = 1e-6  # the branch threshold
    for th in (0.0, 0.7, -2.1):
        for sign in (1.0, -1.0):
            lo = step_discrete(RobotState(0.3, -0.2, th),
                               (1.7, sign * eps * (1 - 1e-3)), 0.2)
            hi = step_discrete(RobotState(0.3, -0.2, th),
                               (1.7, sign * eps * (1 + 1e-3)), 0.2)
            assert np.max(np.abs(lo.as_array() - hi.as_array())) <= 1e-8


def test_derive_reference_known_curves():
    t = np.linspace(0, 2, 21)
    line = np.column_stack([t, np.ones_like(t), np.zeros_like(t),
                            np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)])
    ref = derive_reference(line, 0.1)
    assert ref.poses.shape == (21, 3) and ref.inputs.shape == (21, 2) and len(ref) == 21
    assert ref.inputs == pytest.approx(np.tile([1.0, 0.0], (21, 1)))
    assert ref.poses[0, 2] == pytest.approx(0.0)

    # sinusoid x=t, y=sin t at t=0: derivatives (1, cos t) and (0, -sin t)
    sin0 = np.array([[0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
    ref = derive_reference(sin0, 0.1)
    assert ref.inputs[0] == pytest.approx([math.sqrt(2), 0.0])
    assert ref.poses[0, 2] == pytest.approx(math.pi / 4)

    circ0 = np.array([[1.0, 0.0, -1.0, 0.0, 1.0, 0.0]])
    ref = derive_reference(circ0, 0.1)
    assert ref.inputs[0] == pytest.approx([1.0, 1.0])
    assert ref.poses[0, 2] == pytest.approx(math.pi / 2)


def test_derive_reference_rejects_stationary_sample():
    bad = np.zeros((3, 6))
    bad[:, 1] = [1.0, 0.0, 1.0]  # middle sample at rest
    with pytest.raises(ValueError, match="sample 1"):
        derive_reference(bad, 0.1)


def test_rolled_reference_is_flowed_by_its_own_feedforward():
    t = np.arange(200) * 0.05
    curve = np.column_stack([0.5 * t, np.full_like(t, 0.5), np.zeros_like(t),
                             np.sin(0.5 * t), 0.5 * np.cos(0.5 * t),
                             -0.25 * np.sin(0.5 * t)])
    ref = roll_reference(curve, 0.05)
    z = RobotState(*ref.poses[0])
    for k in range(len(ref) - 1):
        z = step_discrete(z, ref.inputs[k], 0.05)
        assert np.max(np.abs(z.as_array() - ref.poses[k + 1])) <= 1e-12
    assert np.array_equal(ref.inputs, derive_reference(curve, 0.05).inputs)


@pytest.mark.parametrize("kind", ["sinusoid", "line", "circle"])
def test_rolled_reference_equals_the_step_chain_bit_for_bit(kind):
    # The float loop of roll_reference against the chain of step_discrete
    # calls and against the arc step written out with numpy's mod, over the
    # 651 points of an N = 50 tracking run; the circle's heading wraps at pi.
    ref = build_reference(TrajectorySpec(kind), 651)
    z = RobotState(*ref.poses[0])
    chain, written = [ref.poses[0]], [tuple(ref.poses[0])]
    for u in ref.inputs[:-1]:
        z = step_discrete(z, u, ref.T)
        chain.append(z.as_array())
        written.append(arc_step(written[-1], u, ref.T))
    assert np.array_equal(ref.poses, np.array(chain))
    assert np.array_equal(ref.poses, np.array(written))
    assert kind != "circle" or np.any(np.abs(np.diff(ref.poses[:, 2])) > math.pi)


def test_error_frame_known_points():
    e = to_error_frame(RobotState(0, 0, 0), (1, 2, 0.5))
    assert e.dtype == float and e.shape == (3,)
    assert np.allclose(e, [1, 2, 0.5])
    pose = np.array([1, 0, math.pi / 2])
    e = to_error_frame(RobotState(0, 0, math.pi / 2), pose)
    assert np.allclose(e, [0, -1, 0], atol=1e-15)
    z = from_error_frame(e, pose)
    assert np.allclose(z.as_array(), [0, 0, math.pi / 2], atol=1e-15)
    # the heading error is wrapped: 3.0 - (-3.0) is 6.0 before wrapping
    e = to_error_frame(RobotState(0, 0, -3.0), (0, 0, 3.0))
    assert e[2] == wrap_angle(6.0) and -math.pi < e[2] < 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coords, coords, angles, coords, coords, angles)
def test_error_frame_round_trip(x, y, th, xr, yr, thr):
    pose = (xr, yr, thr)
    z = RobotState(x, y, th)
    e = to_error_frame(z, pose)
    # bit for bit the rotation on numpy scalars read from a pose row
    row = np.array(pose)
    c, s = math.cos(z.theta), math.sin(z.theta)
    dx, dy = row[0] - z.x, row[1] - z.y
    assert e.tolist() == [c * dx + s * dy, -s * dx + c * dy, wrap_angle(row[2] - z.theta)]
    z2 = from_error_frame(e, pose)
    assert abs(z2.x - z.x) <= 1e-9 * max(1.0, abs(z.x))
    assert abs(z2.y - z.y) <= 1e-9 * max(1.0, abs(z.y))
    assert abs(wrap_angle(z2.theta - z.theta)) <= 1e-12


def test_linearize_known_model():
    A = linearize(np.array([[1.0, 0.5], [0.0, 0.0]]), 0.1)
    assert A.shape == (2, 3, 3)
    assert np.allclose(A[0], [[1, 0.05, 0], [-0.05, 1, 0.1], [0, 0, 1]])
    assert np.array_equal(A[1], np.eye(3))
    assert np.array_equal(linearize((1.0, 0.5), 0.1), A[0])  # one input, one matrix
    assert np.array_equal(input_matrix(0.1), [[-0.1, 0], [0, 0], [0, -0.1]])


@pytest.mark.parametrize("source", ["tracking.yaml", "sinusoid", "circle"])
def test_linearize_stack_equals_per_step_oracle(source):
    if source.endswith(".yaml"):
        ref = build_controller(load_config(CONFIGS / source).scenario)[0].ref
    else:
        ref = build_reference(TrajectorySpec(source, T=0.1), 200)
    A = linearize(ref.inputs, ref.T)
    assert A.shape == (len(ref), 3, 3)
    for A_k, (v_r, w_r) in zip(A, ref.inputs):
        A_want, B_want = linearize_step(v_r, w_r, ref.T)
        assert np.array_equal(A_k, A_want)
    assert np.array_equal(input_matrix(ref.T), B_want)


def test_linearize_matches_field_jacobian():
    T = 0.05
    B = input_matrix(T)
    for v_r in np.linspace(0.0, 2.0, 5):
        for w_r in np.linspace(-1.0, 1.0, 5):
            A = linearize((v_r, w_r), T)
            Je = central_jacobian(lambda e: error_field(e, np.zeros(2), v_r, w_r),
                                  np.zeros(3))
            Ju = central_jacobian(lambda ub: error_field(np.zeros(3), ub, v_r, w_r),
                                  np.zeros(2))
            assert np.max(np.abs((A - np.eye(3)) / T - Je)) <= 1e-6
            assert np.max(np.abs(B / T - Ju)) <= 1e-6


def test_controllability_rank_grid():
    T = 0.05
    for v_r in np.linspace(0.0, 2.0, 5):
        for w_r in np.linspace(-1.0, 1.0, 5):
            A = linearize((v_r, w_r), T)
            expected = 2 if (v_r == 0.0 and w_r == 0.0) else 3
            assert controllability_rank(A, input_matrix(T)) == expected, (v_r, w_r)
