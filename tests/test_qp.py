"""Active-set solver: hand-checked small problems, a brute-force active-subset
oracle over random convex problems, multiplier signs, and the text dump."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmpc.qp import (QpProblem, QpSolver, dump_problem, kkt_residuals,
                       load_problem, solve_qp)

from oracles import qp_brute_force


def scalar_problem(**kw):
    return QpProblem(H=np.array([[1.0]]), g=np.array([-1.0]), **kw)


def test_unconstrained_scalar_minimum():
    sol = solve_qp(scalar_problem())
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-10)


def test_active_bound_and_its_multiplier():
    sol = solve_qp(scalar_problem(A_in=np.array([[1.0]]), b_in=np.array([0.5])))
    assert sol.x[0] == pytest.approx(0.5, abs=1e-10)
    assert sol.mu_in[0] == pytest.approx(0.5, abs=1e-10)


def test_equality_multiplier_sign():
    p = QpProblem(H=np.eye(2), g=np.zeros(2),
                  A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
    sol = solve_qp(p)
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-10)
    assert sol.lambda_eq[0] == pytest.approx(-1.0, abs=1e-10)


def test_residuals_at_perturbed_and_trivial_points():
    from ltvmpc.qp import QpSolution
    p = scalar_problem()
    off = QpSolution(np.array([1.1]), np.zeros(0), np.zeros(0), "optimal")
    stat, eq, ineq, comp = kkt_residuals(p, off)
    assert stat == pytest.approx(0.1, abs=1e-12)
    assert eq == ineq == comp == 0.0

    zero = QpProblem(H=np.eye(2), g=np.zeros(2))
    at0 = QpSolution(np.zeros(2), np.zeros(0), np.zeros(0), "optimal")
    assert kkt_residuals(zero, at0) == (0.0, 0.0, 0.0, 0.0)


def test_solution_reports_small_kkt_residual():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(3, 3))
    p = QpProblem(H=M @ M.T + 0.1 * np.eye(3), g=rng.normal(size=3),
                  A_in=rng.normal(size=(4, 3)), b_in=rng.normal(size=4) + 2.0)
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.kkt_residual <= 1e-9
    assert max(kkt_residuals(p, sol)) <= 1e-9


def random_problem(rng):
    n = int(rng.integers(1, 5))
    m_i = int(rng.integers(0, 7))
    m_e = int(rng.integers(0, min(3, n + 1)))
    M = rng.normal(size=(n, n))
    H = M @ M.T + 0.1 * np.eye(n)
    g = rng.normal(size=n)
    x_feas = rng.normal(size=n)
    A_in = rng.normal(size=(m_i, n)) if m_i else None
    b_in = A_in @ x_feas + rng.uniform(0.0, 2.0, size=m_i) if m_i else None
    A_eq = rng.normal(size=(m_e, n)) if m_e else None
    b_eq = A_eq @ x_feas if m_e else None
    return QpProblem(H=H, g=g, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)


def test_500_random_problems_match_enumeration_oracle(rng):
    mismatches = []
    for trial in range(500):
        p = random_problem(rng)
        sol = solve_qp(p)
        ref = qp_brute_force(p.H, p.g, p.A_eq, p.b_eq, p.A_in, p.b_in)
        assert ref is not None, f"oracle found trial {trial} infeasible"
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        x_ref, obj_ref = ref
        if abs(p.objective(sol.x) - obj_ref) > 1e-6 or \
                np.max(np.abs(sol.x - x_ref)) > 1e-5:
            mismatches.append(trial)
    assert mismatches == []


def test_contradictory_rows_are_certified_infeasible():
    p = scalar_problem(A_in=np.array([[1.0], [-1.0]]),
                       b_in=np.array([-1.0, -1.0]))  # x <= -1 and x >= 1
    assert solve_qp(p).status == "infeasible"


def test_feasible_problem_with_large_offsets_not_misreported():
    # Phase-1 slack minimization carries a regularization bias that grows with
    # row count and data magnitude; a single pass used to leave enough residual
    # slack on this problem to cross the infeasibility threshold.
    rng = np.random.default_rng(11)
    n, m = 8, 60
    x_feas = rng.normal(size=n) * 50.0
    A = rng.normal(size=(m, n)) * 20.0
    b = A @ x_feas + rng.uniform(0.0, 1e-3, size=m)
    p = QpProblem(H=np.eye(n), g=rng.normal(size=n) * 100.0, A_in=A, b_in=b)
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert np.all(A @ sol.x - b <= 1e-7)


def test_warm_start_returns_same_point(rng):
    for _ in range(20):
        p = random_problem(rng)
        cold = solve_qp(p)
        warm = solve_qp(p, x0=cold.x)
        assert warm.status == "optimal"
        assert np.max(np.abs(warm.x - cold.x)) <= 1e-7


def dual_value(p, sol):
    grad_terms = p.g.copy()
    if p.A_eq.size:
        grad_terms = grad_terms + p.A_eq.T @ sol.lambda_eq
    if p.A_in.size:
        grad_terms = grad_terms + p.A_in.T @ sol.mu_in
    x_hat = np.linalg.solve(p.H, -grad_terms)
    val = 0.5 * x_hat @ p.H @ x_hat + grad_terms @ x_hat
    if p.A_eq.size:
        val -= sol.lambda_eq @ p.b_eq
    if p.A_in.size:
        val -= sol.mu_in @ p.b_in
    return val


def test_dual_value_bounds_primal(rng):
    for _ in range(50):
        p = random_problem(rng)
        sol = solve_qp(p)
        assert sol.status == "optimal"
        q = dual_value(p, sol)
        assert q <= p.objective(sol.x) + 1e-8
        assert q == pytest.approx(p.objective(sol.x), abs=1e-6)
        assert np.all(sol.mu_in >= -1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dump_round_trips_exactly(seed):
    p = random_problem(np.random.default_rng(seed))
    q = load_problem(dump_problem(p))
    for a, b in [(p.H, q.H), (p.g, q.g), (p.A_eq, q.A_eq), (p.b_eq, q.b_eq),
                 (p.A_in, q.A_in), (p.b_in, q.b_in)]:
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_shape_validation():
    with pytest.raises(ValueError):
        QpProblem(H=np.eye(2), g=np.zeros(3))
    with pytest.raises(ValueError):
        QpProblem(H=np.eye(2), g=np.zeros(2),
                  A_eq=np.zeros((3, 2)), b_eq=np.zeros(3))  # more eq than vars
    with pytest.raises(ValueError):
        QpSolver(check_convexity=True).solve(
            QpProblem(H=-np.eye(2), g=np.zeros(2)))


def test_convexity_checked_once_per_shape(monkeypatch):
    checked = []
    check = QpSolver._check_problem

    def counting_check(self, p):
        checked.append((p.n, p.A_eq.shape[0]))
        return check(self, p)

    monkeypatch.setattr(QpSolver, "_check_problem", counting_check)
    hard = QpProblem(H=np.eye(2), g=np.ones(2), A_eq=np.ones((1, 2)), b_eq=[1.0])
    slacked = QpProblem(H=np.eye(3), g=np.ones(3), A_eq=np.ones((1, 3)), b_eq=[1.0])
    solver = QpSolver()
    for _ in range(3):  # the hard / slacked alternation of an avoidance scene
        solver.solve(hard)
        solver.solve(slacked)
    assert sorted(checked) == [(2, 1), (3, 1)]


def test_nonconvex_problem_of_new_shape_still_raises():
    solver = QpSolver()
    solver.solve(QpProblem(H=np.eye(2), g=np.ones(2)))
    with pytest.raises(ValueError):
        solver.solve(QpProblem(H=np.diag([1.0, -1.0, 1.0]), g=np.zeros(3)))
