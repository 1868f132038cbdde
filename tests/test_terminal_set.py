"""Terminal level sizing: outer vertex boxes, the divide-until-feasible level
search, and the one-step invariance of the produced level sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmpc.dynamics import linearize
from ltvmpc.riccati import CostMatrices, backward_riccati, closed_loop
from ltvmpc.sim import TrajectorySpec, build_reference
from ltvmpc.terminal_set import (OuterPolyhedron, TerminalConstraints,
                                 TerminalEllipsoid, compute_c_schedule,
                                 outer_polyhedron, shrink_level, vertices_feasible)

from oracles import shrink_sequence_level, unit_box_corners_pass

LOOSE = TerminalConstraints(np.full(3, 1e3), np.full(2, 1e3))


def boundary_samples(P, c, n, rng):
    d = rng.normal(size=(n, 3))
    scale = np.sqrt(c / np.einsum("ij,jk,ik->i", d, P, d))
    return d * scale[:, None]


def sequence_level(P, cons, K, u_ref, c0=10.0, shrink=1.01):
    """The divide-until-feasible level under the candidate-by-candidate
    corner check, or None when the sequence runs out."""
    feasible = unit_box_corners_pass(P, cons.e_max, cons.u_max, K, u_ref)
    try:
        return shrink_sequence_level(c0, shrink, feasible)
    except AssertionError:
        return None


def test_unit_ball_box_is_the_cube():
    poly = outer_polyhedron(TerminalEllipsoid(np.eye(3), 1.0))
    got = set(map(tuple, np.round(poly.vertices, 12)))
    want = {(sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)
            for sz in (-1.0, 1.0)}
    assert got == want


def test_anisotropic_box_semi_axes():
    poly = outer_polyhedron(TerminalEllipsoid(np.diag([4.0, 1.0, 1.0]), 1.0))
    spans = np.max(np.abs(poly.vertices), axis=0)
    assert np.allclose(sorted(spans), [0.5, 1.0, 1.0])


def test_box_contains_sampled_boundary(rng):
    M = rng.normal(size=(3, 3))
    P = M @ M.T + 0.5 * np.eye(3)
    c = 2.3
    poly = outer_polyhedron(TerminalEllipsoid(P, c))
    lam, V = np.linalg.eigh(P)
    semi = np.sqrt(c / lam)
    X = boundary_samples(P, c, 1000, rng)
    assert np.all(np.abs(X @ V) <= semi[None, :] + 1e-12)


def test_vertex_feasibility_cases():
    cube = OuterPolyhedron(np.array([(sx, sy, sz) for sx in (-1, 1)
                                     for sy in (-1, 1) for sz in (-1, 1)], dtype=float))
    K0 = np.zeros((2, 3))
    u0 = np.zeros(2)
    ok = TerminalConstraints(np.full(3, 2.0), np.full(2, 1.0))
    assert vertices_feasible(cube, ok, K0, u0)
    tight = TerminalConstraints(np.array([0.5, 2.0, 2.0]), np.full(2, 1.0))
    assert not vertices_feasible(cube, tight, K0, u0)
    # input bound through the gain: u = u_ref + Kx hits 1.5 at a corner
    K = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    u_ref = np.array([1.2, 0.0])
    assert not vertices_feasible(cube, TerminalConstraints(np.full(3, 2.0),
                                                           np.array([1.5, 1.0])),
                                 K, u_ref)


def test_level_search_matches_division_sequence_oracle():
    cons = TerminalConstraints(np.ones(3), np.full(2, 1e3))
    c_lib = shrink_level(np.eye(3), cons, np.zeros((2, 3)), np.zeros(2))
    # for P=I the box is the cube of half-width sqrt(c)
    c_oracle = shrink_sequence_level(10.0, 1.01, lambda c: math.sqrt(c) <= 1.0)
    assert c_lib == pytest.approx(c_oracle, rel=1e-12)
    assert 1.0 / 1.01 < c_lib <= 1.0
    assert c_lib == pytest.approx(0.99412, abs=1e-4)


def test_level_search_keeps_c0_when_unconstrained():
    assert shrink_level(np.eye(3), LOOSE, np.zeros((2, 3)), np.zeros(2)) == 10.0
    # non-diagonal P, a zero gain row and an unbounded state axis
    P = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
    K = np.array([[0.4, 0.0, 0.1], [0.0, 0.0, 0.0]])
    cons = TerminalConstraints(np.array([50.0, 50.0, np.inf]), np.array([30.0, 1.0]))
    assert shrink_level(P, cons, K, np.array([0.5, 0.2]), c0=7.3) == 7.3


def test_level_search_raises_when_origin_infeasible():
    cons = TerminalConstraints(np.ones(3), np.array([2.0, 10.0]))
    u_ref = np.array([3.0, 0.0])  # violates the input bound even at x = 0
    with pytest.raises(ValueError):
        shrink_level(np.eye(3), cons, np.zeros((2, 3)), u_ref)
    with pytest.raises(ValueError):  # also through a nonzero gain
        shrink_level(np.eye(3), cons, np.array([[0.4, 0.2, 0.1], [0.0, 0.3, 0.0]]), u_ref)


def test_level_search_raises_when_c0_below_c_min():
    with pytest.raises(ValueError):
        shrink_level(np.eye(3), LOOSE, np.zeros((2, 3)), np.zeros(2), c0=1e-13)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3),
       zero_rows=st.integers(0, 2), inf_state=st.booleans(), inf_input=st.booleans(),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), shrink=st.sampled_from([1.01, 1.1, 2.0]))
def test_level_search_equals_division_sequence_exactly(seed, n, zero_rows, inf_state,
                                                       inf_input, scale, shrink):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    P = M @ M.T + rng.uniform(1e-3, 1.0) * np.eye(n)
    K = rng.normal(size=(2, n))
    K[:zero_rows] = 0.0  # zero rows give r-independent input checks
    u_ref = rng.uniform(-1.0, 1.0, 2)
    e_max = rng.uniform(0.01, 2.0, n) * scale
    u_max = np.abs(u_ref) + rng.uniform(-0.3, 2.0, 2) * scale  # may sit below |u_ref|
    if inf_state:
        e_max[rng.integers(n)] = np.inf
    if inf_input:
        u_max[rng.integers(2)] = np.inf
    c0 = float(rng.uniform(0.1, 100.0))
    cons = TerminalConstraints(e_max, u_max)
    want = sequence_level(P, cons, K, u_ref, c0, shrink)
    if want is None:
        with pytest.raises(ValueError):
            shrink_level(P, cons, K, u_ref, c0=c0, shrink=shrink)
    else:
        assert shrink_level(P, cons, K, u_ref, c0=c0, shrink=shrink) == want


def test_level_search_follows_exact_check_where_rounding_beats_the_bound():
    # u_ref sits on its bound, so the closed-form radius bound is 0; but
    # u_ref + 1e-20 * r rounds back to u_ref, so the exact corner check passes
    # at every level and the division sequence keeps c0
    K = np.array([[1e-20, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cons = TerminalConstraints(np.full(3, 10.0), np.array([1.0, 1.0]))
    u_ref = np.array([1.0, 0.0])
    assert sequence_level(np.eye(3), cons, K, u_ref) == 10.0
    assert shrink_level(np.eye(3), cons, K, u_ref) == 10.0


def _sinusoid_schedule(n=80):
    ref = build_reference(TrajectorySpec("sinusoid"), n)
    models = [linearize(ref[i], ref.T) for i in range(len(ref))]
    costs = CostMatrices(np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05]))
    return ref, models, backward_riccati(models, costs)


def test_schedule_levels_feasible_and_invariant(rng):
    ref, models, sched = _sinusoid_schedule()
    cons = TerminalConstraints(np.array([1.0, 1.0, math.pi]), np.array([2.0, 10.0]))
    u_refs = [ref[i].control.as_array() for i in range(len(ref))]
    levels = compute_c_schedule(sched, cons, u_refs)
    assert len(levels) == len(sched.P)
    assert [c for c, _ in levels] == [
        sequence_level(sched.P[i], cons, sched.K_at(i), u_refs[i]) for i in range(len(levels))]
    for i, (c, poly) in enumerate(levels):
        assert 0 < c <= 10.0
        assert vertices_feasible(poly, cons, sched.K_at(i), u_refs[i])

    # one-step invariance: boundary points of level i map into level c(i)
    # measured with the next step's cost matrix
    for i in (0, len(sched.K) // 2, len(sched.K) - 1):
        c = levels[i][0]
        A_K = closed_loop(models[i], sched.K[i])
        X = boundary_samples(sched.P[i], c, 100, rng)
        X_next = X @ A_K.T
        vals = np.einsum("ij,jk,ik->i", X_next, sched.P[i + 1], X_next)
        assert np.all(vals <= c + 1e-9)
