"""Terminal level sizing: outer vertex boxes, the divide-until-feasible level
search, and the one-step invariance of the produced level sets."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltvmpc.cli as cli
from ltvmpc import terminal_set
from ltvmpc.dynamics import input_matrix, linearize
from ltvmpc.riccati import CostMatrices, backward_riccati
from ltvmpc.sim import TrajectorySpec, build_controller, build_reference
from ltvmpc.terminal_set import (NoTerminalLevel, TerminalConstraints, compute_c_schedule,
                                 outer_box, shrink_level, unit_spreads, vertices_feasible)

from oracles import eigen_box_vertices, shrink_sequence_level, unit_box_corners_pass

LOOSE = TerminalConstraints(np.full(3, 1e3), np.full(2, 1e3))
SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "terminal_set.yaml"


@pytest.fixture(scope="module")
def shipped_search():
    """(schedule, constraints, reference inputs, spec) of the shipped
    terminal-set config, as `ltvmpc terminal-set` builds them."""
    config = cli.load_config(SHIPPED)
    controller, _ = build_controller(config.scenario)
    spec = config.terminal_set
    cons = TerminalConstraints(np.asarray(spec.e_max), config.scenario.mpc.u_max)
    return controller.schedule, cons, controller.ref.inputs, spec


def boundary_samples(P, c, n, rng):
    d = rng.normal(size=(n, 3))
    scale = np.sqrt(c / np.einsum("ij,jk,ik->i", d, P, d))
    return d * scale[:, None]


def search(P, cons, K, u_ref, c0=10.0, shrink=1.01, **kw):
    """shrink_level on the unit_spreads row of one (P, K)."""
    return shrink_level(unit_spreads(P, K), cons, u_ref, c0, shrink, **kw)


def sequence_level(P, cons, K, u_ref, c0=10.0, shrink=1.01):
    """The divide-until-feasible level under the candidate-by-candidate
    corner check, or None when the sequence runs out."""
    feasible = unit_box_corners_pass(P, cons.e_max, cons.u_max, K, u_ref)
    try:
        return shrink_sequence_level(c0, shrink, feasible)
    except AssertionError:
        return None


def test_unit_ball_box_is_the_cube():
    got = set(map(tuple, np.round(outer_box(np.eye(3), 1.0), 12)))
    want = {(sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)
            for sz in (-1.0, 1.0)}
    assert got == want


def test_anisotropic_box_semi_axes():
    spans = np.max(np.abs(outer_box(np.diag([4.0, 1.0, 1.0]), 1.0)), axis=0)
    assert np.allclose(sorted(spans), [0.5, 1.0, 1.0])


def test_box_contains_sampled_boundary(rng):
    M = rng.normal(size=(3, 3))
    P = M @ M.T + 0.5 * np.eye(3)
    c = 2.3
    _, V = np.linalg.eigh(P)
    semi = np.abs(outer_box(P, c) @ V).max(axis=0)  # the box in P's eigenbasis
    X = boundary_samples(P, c, 1000, rng)
    assert np.all(np.abs(X @ V) <= semi[None, :] + 1e-12)


def test_vertex_feasibility_cases():
    cube = np.array([(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                    dtype=float)
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
    c_lib = search(np.eye(3), cons, np.zeros((2, 3)), np.zeros(2))
    # for P=I the box is the cube of half-width sqrt(c)
    c_oracle = shrink_sequence_level(10.0, 1.01, lambda c: math.sqrt(c) <= 1.0)
    assert c_lib == pytest.approx(c_oracle, rel=1e-12)
    assert 1.0 / 1.01 < c_lib <= 1.0
    assert c_lib == pytest.approx(0.99412, abs=1e-4)


def test_level_search_keeps_c0_when_unconstrained():
    assert search(np.eye(3), LOOSE, np.zeros((2, 3)), np.zeros(2)) == 10.0
    # non-diagonal P, a zero gain row and an unbounded state axis
    P = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
    K = np.array([[0.4, 0.0, 0.1], [0.0, 0.0, 0.0]])
    cons = TerminalConstraints(np.array([50.0, 50.0, np.inf]), np.array([30.0, 1.0]))
    assert search(P, cons, K, np.array([0.5, 0.2]), c0=7.3) == 7.3


def test_level_search_raises_when_origin_infeasible():
    cons = TerminalConstraints(np.ones(3), np.array([2.0, 10.0]))
    u_ref = np.array([3.0, 0.0])  # violates the input bound even at x = 0
    with pytest.raises(ValueError):
        search(np.eye(3), cons, np.zeros((2, 3)), u_ref)
    with pytest.raises(ValueError):  # also through a nonzero gain
        search(np.eye(3), cons, np.array([[0.4, 0.2, 0.1], [0.0, 0.3, 0.0]]), u_ref)


def test_level_search_fails_at_the_floor_without_growing_the_sequence():
    # no level passes when u_ref breaks its bound at x = 0; the check at
    # c_min says so before the cached sequence grows by a single level
    cons = TerminalConstraints(np.ones(3), np.array([2.0, 10.0]))
    terminal_set._sequence.cache_clear()
    with pytest.raises(NoTerminalLevel, match="no level at or above c_min = 1e-12"):
        search(np.eye(3), cons, np.zeros((2, 3)), np.array([3.0, 0.0]), 10.0, 1.001)
    assert terminal_set._sequence(10.0, 1.001) == [10.0]
    # the unit cube fits only from c = 1 down, so a floor of 2 fails at once
    with pytest.raises(NoTerminalLevel, match="no level at or above c_min = 2 "):
        search(np.eye(3), cons, np.zeros((2, 3)), np.zeros(2), 10.0, 1.001, c_min=2.0)
    assert terminal_set._sequence(10.0, 1.001) == [10.0]
    assert 1.0 / 1.001 < search(np.eye(3), cons, np.zeros((2, 3)), np.zeros(2), 10.0,
                                1.001) <= 1.0


def test_level_search_raises_when_c0_below_c_min():
    with pytest.raises(ValueError):
        search(np.eye(3), LOOSE, np.zeros((2, 3)), np.zeros(2), c0=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
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
            search(P, cons, K, u_ref, c0=c0, shrink=shrink)
    else:
        assert search(P, cons, K, u_ref, c0=c0, shrink=shrink) == want


def test_level_search_follows_exact_check_where_rounding_beats_the_bound():
    # u_ref sits on its bound, so the closed-form radius bound is 0; but
    # u_ref + 1e-20 * r rounds back to u_ref, so the exact corner check passes
    # at every level and the division sequence keeps c0
    K = np.array([[1e-20, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cons = TerminalConstraints(np.full(3, 10.0), np.array([1.0, 1.0]))
    u_ref = np.array([1.0, 0.0])
    assert sequence_level(np.eye(3), cons, K, u_ref) == 10.0
    assert search(np.eye(3), cons, K, u_ref) == 10.0


def _sinusoid_schedule(n=80):
    ref = build_reference(TrajectorySpec("sinusoid"), n)
    A, B = linearize(ref.inputs, ref.T), input_matrix(ref.T)
    costs = CostMatrices(np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05]))
    return ref, A, B, backward_riccati(A, B, costs)


def test_schedule_levels_feasible_and_invariant(rng):
    ref, models, B, sched = _sinusoid_schedule()
    cons = TerminalConstraints(np.array([1.0, 1.0, math.pi]), np.array([2.0, 10.0]))
    u_refs = ref.inputs
    levels = compute_c_schedule(sched, cons, u_refs)
    assert len(levels) == len(sched.P)
    assert [c for c, _ in levels] == [
        sequence_level(sched.P[i], cons, sched.K_at(i), u_refs[i]) for i in range(len(levels))]
    for i, (c, box) in enumerate(levels):
        assert 0 < c <= 10.0
        assert vertices_feasible(box, cons, sched.K_at(i), u_refs[i])

    # one-step invariance: boundary points of level i map into level c(i)
    # measured with the next step's cost matrix
    for i in (0, len(sched.K) // 2, len(sched.K) - 1):
        c = levels[i][0]
        A_K = models[i] + B @ sched.K[i]
        X = boundary_samples(sched.P[i], c, 100, rng)
        X_next = X @ A_K.T
        vals = np.einsum("ij,jk,ik->i", X_next, sched.P[i + 1], X_next)
        assert np.all(vals <= c + 1e-9)


def test_shipped_schedule_equals_per_level_route_bit_for_bit(shipped_search):
    sched, cons, u_refs, spec = shipped_search
    levels = compute_c_schedule(sched, cons, u_refs, c0=spec.c0, shrink=spec.shrink)
    assert len(levels) == len(sched.P) == 611
    for i, (c, box) in enumerate(levels):
        feasible = unit_box_corners_pass(sched.P[i], cons.e_max, cons.u_max, sched.K_at(i),
                                         u_refs[i])
        want = shrink_sequence_level(spec.c0, spec.shrink, feasible)
        assert c == want
        assert np.array_equal(box, outer_box(sched.P[i], want))
        assert np.array_equal(box, eigen_box_vertices(sched.P[i], want))
    cs, boxes = zip(*levels)
    assert np.array_equal(outer_box(sched.P, cs), boxes)


def test_outer_box_rejects_a_p_that_is_not_positive_definite_and_a_level_not_above_zero():
    with pytest.raises(ValueError, match="positive definite"):
        outer_box(np.diag([1.0, 0.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match=r"positive definite \(step 1\)"):
        outer_box(np.stack([np.eye(3), -np.eye(3)]), [1.0, 1.0])
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="level c must be positive"):
            outer_box(np.eye(3), c)


def test_level_search_does_not_depend_on_cache_order(shipped_search):
    sched, cons, u_refs, spec = shipped_search
    steps = range(0, len(sched.P), 7)

    def level(i):
        return search(sched.P[i], cons, sched.K_at(i), u_refs[i], spec.c0, spec.shrink)

    fresh = []
    for i in steps:  # each search on an empty cache, as in a fresh process
        terminal_set._sequence.cache_clear()
        fresh.append(level(i))
    terminal_set._sequence.cache_clear()
    assert [level(i) for i in reversed(steps)] == fresh[::-1]
    terminal_set._sequence.cache_clear()
    with pytest.raises(ValueError):  # fails at the floor, growing no sequence
        search(np.eye(3), TerminalConstraints(np.ones(3), np.ones(2)), np.zeros((2, 3)),
               np.array([2.0, 0.0]), spec.c0, spec.shrink)
    assert [level(i) for i in steps] == fresh


def test_unit_spreads_of_the_stack_equal_one_p_at_a_time(shipped_search):
    sched, _, _, _ = shipped_search
    steps = np.arange(len(sched.P))
    stacked = unit_spreads(sched.P, sched.K_at(steps))
    assert stacked.shape == (611, 5)
    one = np.array([unit_spreads(sched.P[i], sched.K_at(i)) for i in steps])
    assert np.array_equal(stacked, one)
    # the unit box at c = 1 is the box outer_box builds at level 1
    box = outer_box(sched.P[7], 1.0)
    want = np.abs(np.hstack([box, box @ sched.K_at(7).T])).max(axis=0)
    assert np.array_equal(stacked[7], want)


def test_unit_spreads_name_the_step_whose_p_is_not_positive_definite():
    P = np.stack([np.eye(3)] * 5)
    P[3, 2, 2] = -1.0
    with pytest.raises(ValueError, match=r"positive definite \(step 3\)"):
        unit_spreads(P, np.zeros((5, 2, 3)))
    with pytest.raises(ValueError, match="positive definite$"):
        unit_spreads(P[3], np.zeros((2, 3)))


def test_schedule_names_the_first_step_without_a_level(shipped_search):
    sched, cons, u_refs, spec = shipped_search
    u_refs = u_refs.copy()
    u_refs[[5, 9], 0] = 2.5  # beyond u_max[0] = 2 at x = 0
    with pytest.raises(NoTerminalLevel, match=r"^step 5: no level"):
        compute_c_schedule(sched, cons, u_refs, c0=spec.c0, shrink=spec.shrink)


def test_terminal_set_calls_one_search_and_one_vertex_check_per_level(shipped):
    # the benchmark times terminal_set.shrink_level per level, and its gate
    # counts failed levels from cli.vertices_feasible
    assert shipped.code == 0
    rows = (shipped.out / "terminal_set" / "terminal_levels_terminal_set.csv").read_text()
    rows = rows.splitlines()[1:]
    assert shipped.calls == {"shrink_level": len(rows), "vertices_feasible": len(rows)}
    assert len(rows) == 611
