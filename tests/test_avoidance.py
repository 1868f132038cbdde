"""Obstacle constraints: separating half-planes with side hysteresis, velocity
cones against a time-gridded collision oracle, and the linearized rows."""

import math

import numpy as np
import pytest

from ltvmpc.avoidance import (HalfPlane, Obstacle, VoCone, position_rows,
                              state_space_halfplane, tangent_halfplane,
                              velocity_constraint_row, velocity_debug_csv,
                              velocity_obstacle, velocity_rows)
from ltvmpc.sim import TrajectorySpec, build_reference

from oracles import (cone_contains, from_error_frame, halfplane_satisfied,
                     nonlinear_velocity_margin, velocity_hits_disc)


def _rot(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


# -- separating half-planes ----------------------------------------------------


def test_head_on_plane_points_at_obstacle():
    hp, side = state_space_halfplane(
        (0.0, 0.0), Obstacle((2.0, 0.0), 0.3), theta_s=0.0, r_safe=0.5,
        ref_heading=0.0)
    assert np.allclose(hp.n, [1.0, 0.0])
    assert hp.a == pytest.approx(1.5)
    assert hp.sense == "le"
    assert side == 1
    assert halfplane_satisfied(hp, (0.0, 0.0)) and not halfplane_satisfied(hp, (1.8, 0.0))


def test_mirrored_obstacle_mirrors_the_plane(rng):
    for _ in range(50):
        p_obs = rng.uniform(-3, 3, size=2)
        if abs(p_obs[1]) < 0.1 or np.linalg.norm(p_obs) < 0.2:
            continue
        theta_s = rng.uniform(0, math.radians(80))
        hp_u, side_u = state_space_halfplane(
            (0, 0), Obstacle(p_obs, 0.3), theta_s, 0.4, ref_heading=0.0)
        hp_d, side_d = state_space_halfplane(
            (0, 0), Obstacle(p_obs * [1, -1], 0.3), theta_s, 0.4, ref_heading=0.0)
        assert side_u == -side_d
        assert hp_u.n[0] == pytest.approx(hp_d.n[0], abs=1e-12)
        assert hp_u.n[1] == pytest.approx(-hp_d.n[1], abs=1e-12)
        assert hp_u.a == pytest.approx(hp_d.a, abs=1e-12)


def test_side_held_by_hysteresis_near_dead_ahead():
    obs = Obstacle((2.0, 0.01), 0.3)  # barely on the left of the reference ray
    _, side_fresh = state_space_halfplane((0, 0), obs, 0.3, 0.5, 0.0)
    assert side_fresh == 1
    _, side_held = state_space_halfplane((0, 0), obs, 0.3, 0.5, 0.0,
                                         prev_side=-1)
    assert side_held == -1
    # well off the boundary the fresh side wins regardless of history
    obs_left = Obstacle((2.0, 1.0), 0.3)
    _, side = state_space_halfplane((0, 0), obs_left, 0.3, 0.5, 0.0,
                                    prev_side=-1)
    assert side == 1


def test_plane_inside_safety_disc_points_away():
    hp, _ = state_space_halfplane((1.8, 0.0), Obstacle((2.0, 0.0), 0.3),
                                  0.0, r_safe=0.5, ref_heading=0.0)
    assert not halfplane_satisfied(hp, (1.8, 0.0))  # the robot is past the plane
    assert halfplane_satisfied(hp, (1.4, 0.0))


def test_position_rows_match_world_halfplane(rng):
    ref = build_reference(TrajectorySpec("sinusoid"), 30)
    hp = HalfPlane(np.array([0.6, 0.8]), 1.2, "le")
    rows = position_rows(hp, ref, k=5, N=8)
    assert rows.shape == (8, 5 * 8 + 1)
    for j, row in enumerate(rows, start=1):  # the row of e(j): its position pair, rhs last
        col = 3 * (j - 1)
        (c1, c2), rhs = row[col: col + 2], row[-1]
        assert not np.any(np.delete(row, [col, col + 1, len(row) - 1]))
        pose = ref.poses[5 + j]
        # bit for bit the per-pose products: the error rotation times n, and n . p
        c, s = math.cos(pose[2]), math.sin(pose[2])
        assert np.array_equal([c1, c2], -(np.array([[c, s], [-s, c]]) @ hp.n))
        assert rhs == hp.a - float(hp.n @ pose[:2])
        for _ in range(10):
            e_pos = rng.uniform(-1, 1, size=2)
            z = from_error_frame((e_pos[0], e_pos[1], 0.0), pose)
            lhs_world = hp.n @ np.array([z.x, z.y])
            lhs_row = np.array([c1, c2]) @ e_pos
            # same number on both routes when the heading error is zero
            assert lhs_world - hp.a == pytest.approx(lhs_row - rhs, abs=1e-12)


# -- velocity cones --------------------------------------------------------------


ORACLE_HORIZON = 4.0  # time horizon of the collision oracle checks on the cones


def head_on_cone(v_obs=(0.0, 0.0)):
    return velocity_obstacle((0.0, 0.0), 0.5, Obstacle((2.0, 0.0), 0.5, v_obs))


def test_cone_geometry_head_on():
    cone = head_on_cone()
    assert np.allclose(cone.axis, [1.0, 0.0])
    assert cone.half_angle == pytest.approx(math.pi / 6)
    assert np.allclose(cone.apex, [0.0, 0.0])


def test_obstacle_velocity_translates_apex():
    moving = head_on_cone(v_obs=(0.0, 1.0))
    still = head_on_cone()
    assert np.allclose(moving.apex, [0.0, 1.0])
    assert np.allclose(moving.axis, still.axis)
    assert moving.half_angle == still.half_angle
    shift = np.array([0.0, 1.0])
    for u in [(0.8, 0.1), (0.3, 0.4), (1.5, -0.2)]:
        assert cone_contains(still, u) == cone_contains(moving, np.asarray(u) + shift)


def test_overlapping_discs_rejected():
    with pytest.raises(ValueError):
        velocity_obstacle((0, 0), 0.5, Obstacle((0.8, 0.0), 0.5))


def test_cone_membership_against_time_grid_oracle(rng):
    d = np.array([2.0, 0.0])
    r_sum = 1.0
    for v_obs in (np.zeros(2), np.array([0.2, -0.4])):
        cone = head_on_cone(v_obs=v_obs)
        # collision within the horizon implies cone membership (band-tolerant)
        for _ in range(1000):
            u = rng.uniform(-2.5, 2.5, size=2)
            if velocity_hits_disc(u, d, r_sum, v_obs, ORACLE_HORIZON):
                assert cone_contains(cone, u, tol=1e-3)
        # robustly-interior, fast-enough velocities do collide
        for _ in range(200):
            phi = rng.uniform(-cone.half_angle + 0.05, cone.half_angle - 0.05)
            speed = rng.uniform(1.1 * np.linalg.norm(d) / ORACLE_HORIZON, 3.0)
            u = cone.apex + speed * (_rot(phi) @ cone.axis)
            assert velocity_hits_disc(u, d, r_sum, v_obs, ORACLE_HORIZON)


def test_tangent_plane_touches_cone_boundary():
    cone = head_on_cone()
    for u_pref, want_side in [((1.0, 0.8), 1), ((1.0, -0.8), -1)]:
        hp = tangent_halfplane(cone, u_pref)
        assert hp.sense == "ge"
        assert hp.a == pytest.approx(float(hp.n @ cone.apex), abs=1e-15)
        ray = _rot(want_side * cone.half_angle) @ cone.axis
        assert hp.n @ ray == pytest.approx(0.0, abs=1e-12)
        assert hp.n @ cone.axis == pytest.approx(-math.sin(cone.half_angle), abs=1e-12)
        assert halfplane_satisfied(hp, u_pref)


def test_tangent_tie_breaks_left_and_reflection_swaps():
    cone = head_on_cone()
    on_axis = tangent_halfplane(cone, (1.0, 0.0))
    left = _rot(cone.half_angle + math.pi / 2) @ cone.axis
    assert np.allclose(on_axis.n, left, atol=1e-15)
    hi = tangent_halfplane(cone, (0.7, 0.3))
    lo = tangent_halfplane(cone, (0.7, -0.3))
    assert hi.n[0] == pytest.approx(lo.n[0], abs=1e-15)
    assert hi.n[1] == pytest.approx(-lo.n[1], abs=1e-15)


def test_cone_lies_outside_feasible_side(rng):
    cone = head_on_cone(v_obs=(0.1, 0.3))
    hp = tangent_halfplane(cone, (1.0, 0.5))
    for _ in range(500):
        phi = rng.uniform(-cone.half_angle, cone.half_angle)
        speed = rng.uniform(0.0, 3.0)
        u = cone.apex + speed * (_rot(phi) @ cone.axis)
        assert float(hp.n @ u) <= hp.a + 1e-12


def test_margin_on_feasible_side_implies_no_collision(rng):
    d = np.array([2.0, 0.0])
    cone = head_on_cone()
    hp = tangent_halfplane(cone, (1.0, 0.6))
    checked = 0
    for _ in range(2000):
        u = rng.uniform(-2.5, 2.5, size=2)
        if float(hp.n @ u) >= hp.a + 1e-9:
            assert not velocity_hits_disc(u, d, 1.0, np.zeros(2), ORACLE_HORIZON)
            checked += 1
    assert checked > 200


# -- linearized velocity rows ----------------------------------------------------


def test_row_for_lateral_normal_is_pure_turn_rate():
    cu, cw, const = velocity_constraint_row((0.0, 1.0), 0.0, theta=0.0,
                                            u_r=1.0, w_r=0.0, dt=0.1)
    assert cu == pytest.approx(0.0, abs=1e-15)
    assert cw == pytest.approx(-0.1, abs=1e-15)
    assert const == pytest.approx(0.0, abs=1e-15)


def test_row_for_forward_normal_is_pure_speed():
    cu, cw, const = velocity_constraint_row((1.0, 0.0), 0.0, theta=0.0,
                                            u_r=1.0, w_r=0.0, dt=0.1)
    assert cu == pytest.approx(-1.0, abs=1e-15)
    assert cw == pytest.approx(0.0, abs=1e-15)
    assert const == pytest.approx(-1.0, abs=1e-15)


def test_margin_known_values():
    assert nonlinear_velocity_margin((1, 0), 0.0, 1.0, 0.0, 0.0, 0.1) == pytest.approx(1.0)
    assert nonlinear_velocity_margin((0, 1), 0.0, 1.0, 0.0, 0.0, 0.1) == pytest.approx(0.0)
    assert nonlinear_velocity_margin((0, 1), 0.0, 1.0, 0.0, 1.0, 0.1) == \
        pytest.approx(math.sin(0.1))


def test_row_matches_central_differences_of_margin(rng):
    h = 1e-6
    for _ in range(200):
        n = rng.normal(size=2)
        n /= np.linalg.norm(n)
        a = rng.uniform(-1.5, 1.5)
        theta = rng.uniform(-math.pi, math.pi)
        u_r = rng.uniform(0.1, 2.0)
        w_r = rng.uniform(-1.0, 1.0)
        dt = rng.uniform(0.01, 0.1)
        cu, cw, const = velocity_constraint_row(n, a, theta, u_r, w_r, dt)
        f0 = nonlinear_velocity_margin(n, a, u_r, theta, w_r, dt)
        dfu = (nonlinear_velocity_margin(n, a, u_r + h, theta, w_r, dt)
               - nonlinear_velocity_margin(n, a, u_r - h, theta, w_r, dt)) / (2 * h)
        dfw = (nonlinear_velocity_margin(n, a, u_r, theta, w_r + h, dt)
               - nonlinear_velocity_margin(n, a, u_r, theta, w_r - h, dt)) / (2 * h)
        assert cu == pytest.approx(-dfu, abs=1e-6)
        assert cw == pytest.approx(-dfw, abs=1e-6)
        assert const == pytest.approx(-f0, abs=1e-12)


def test_linearization_fidelity_inside_trust_box(rng):
    # wherever the linear row admits a deviation inside the box, the true
    # margin cannot dip far below zero
    worst = 0.0
    for _ in range(3000):
        n = rng.normal(size=2)
        n /= np.linalg.norm(n)
        a = rng.uniform(-2.0, 2.0)
        theta = rng.uniform(-math.pi, math.pi)
        u_r = rng.uniform(0.0, 2.0)
        w_r = rng.uniform(-1.0, 1.0)
        dt = rng.uniform(0.01, 0.1)
        e_u = rng.uniform(-0.2, 0.2)
        e_w = rng.uniform(-0.5, 0.5)
        cu, cw, const = velocity_constraint_row(n, a, theta, u_r, w_r, dt)
        if cu * e_u + cw * e_w + const <= 0.0:
            f = nonlinear_velocity_margin(n, a, u_r + e_u, theta, w_r + e_w, dt)
            worst = min(worst, f)
    assert worst >= -0.05


def test_velocity_rows_phase_and_path_validation():
    ref = build_reference(TrajectorySpec("circle", T=0.05, radius=2.0,
                                         angular_rate=0.25), 20)
    hp = HalfPlane(np.array([0.0, 1.0]), -0.3, "ge")
    rows = velocity_rows(hp, ref, k=2, N=6, e3_path=np.full(6, 0.05), dt=0.05)
    assert rows.shape == (6, 5 * 6 + 1)
    # row j acts on u_b(j) alone, the rhs last, bit for bit the pointwise
    # construction at the shifted heading
    for j, row in enumerate(rows):
        col = 3 * 6 + 2 * j
        (v_r, w_r), theta = ref.inputs[2 + j], ref.poses[2 + j, 2]
        cu, cw, const = velocity_constraint_row(hp.n, hp.a, theta - 0.05, v_r, w_r, 0.05)
        assert [row[col], row[col + 1], row[-1]] == [cu, cw, -const]
        assert not np.any(np.delete(row, [col, col + 1, len(row) - 1]))
    with pytest.raises(ValueError):
        velocity_rows(hp, ref, 2, 6, e3_path=np.zeros(4), dt=0.05)


def test_debug_csv_shape():
    cone = head_on_cone()
    hp = tangent_halfplane(cone, (1.0, 0.2))
    rows = velocity_rows(hp, build_reference(TrajectorySpec("line"), 10),
                         k=0, N=3, e3_path=np.zeros(3), dt=0.05)
    text = velocity_debug_csv(cone, hp, rows)
    lines = text.strip().splitlines()
    assert lines[0] == "record,field0,field1,field2,field3"
    assert len(lines) == 1 + 4 + 3
    assert lines[3] == f"cone_shape,{cone.half_angle:.17g},,,"
    assert lines[4].startswith("halfplane,")
    for j in range(3):  # each step's u_b(j) coefficients, then the rhs
        cu, cw, rhs = rows[j, 9 + 2 * j], rows[j, 10 + 2 * j], rows[j, -1]
        assert lines[5 + j] == f"row_step_{j},{cu:.17g},{cw:.17g},{rhs:.17g},"
