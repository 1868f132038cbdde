"""Active-set solver: hand-checked small problems, a brute-force active-subset
oracle over random convex problems (including degenerate, duplicate and
contradictory inequality rows), multiplier signs, and the text dump."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmpc import qp
from ltvmpc.qp import QpProblem, QpSolver, kkt_residuals

from oracles import (FreshKktSolver, dump_problem, load_problem, qp_brute_force, solve_qp,
                     stationarity_multipliers)


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


def inequality_problem(kind, seed):
    """A PD problem with general rows only: rows with room around a point,
    rows all through one point (a degenerate vertex), exact and scaled
    duplicates of rows, or a contradictory pair among random rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 6))
    M = rng.normal(size=(n, n))
    x_feas = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = A @ x_feas + (0.0 if kind == "degenerate" else rng.uniform(0.0, 1.0, size=m))
    if kind == "duplicate":
        A, b = np.vstack([A, A[:1], 2.0 * A[-1:]]), np.concatenate([b, b[:1], 2.0 * b[-1:]])
    if kind == "contradictory":  # a.x <= c and a.x >= c + gap
        gap = rng.uniform(0.1, 1.0)
        A, b = np.vstack([A, -A[:1]]), np.concatenate([b, -b[:1] - gap])
    return QpProblem(H=M @ M.T + 0.1 * np.eye(n), g=3.0 * rng.normal(size=n), A_in=A, b_in=b)


def check_against_enumeration_oracle(p):
    sol = QpSolver().solve(p)
    ref = qp_brute_force(p.H, p.g, A_in=p.A_in, b_in=p.b_in)
    assert (sol.status == "infeasible") == (ref is None)
    if ref is not None:
        assert sol.status == "optimal"
        assert abs(p.objective(sol.x) - ref[1]) <= 1e-8
        assert np.max(np.abs(sol.x - ref[0])) <= 1e-6
        assert np.all(sol.mu_in >= 0.0)
        assert sol.kkt_residual <= 1e-8


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["interior", "degenerate", "duplicate", "contradictory"]),
       seed=st.integers(0, 2**32 - 1))
def test_inequality_problems_match_enumeration_oracle(kind, seed):
    check_against_enumeration_oracle(inequality_problem(kind, seed))


def test_thin_wedge_is_found_feasible():
    # Five rows through one point in 2-D leave a wedge so thin that each
    # phase-1 pass shrinks the violation only by a factor of about 0.43; four
    # passes used to end above INFEAS_TOL and report the problem infeasible.
    p = inequality_problem("degenerate", 634)
    assert p.A_in.shape == (5, 2)
    check_against_enumeration_oracle(p)


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


@settings(max_examples=60, deadline=None, derandomize=True)
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
        QpProblem(H=-np.eye(2), g=np.zeros(2))  # not PSD: rejected on construction


def test_hessian_symmetry_handling():
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert np.array_equal(QpProblem(H=H, g=np.zeros(2)).H, H)
    skew = H + np.array([[0.0, 4e-11], [0.0, 0.0]])
    sym = QpProblem(H=skew, g=np.zeros(2)).H
    assert np.array_equal(sym, sym.T)
    assert sym[0, 1] == 0.5 * (skew[0, 1] + skew[1, 0])
    with pytest.raises(ValueError):
        QpProblem(H=H + np.array([[0.0, 1e-3], [0.0, 0.0]]), g=np.zeros(2))


def test_nonconvex_problem_of_a_checked_shape_raises():
    # Box rows |x| <= 1: solved as a convex QP, diag(1, -1) would stop at
    # (-1, 1), while its minimum over the box lies at (-1, -1). A solved
    # problem of the same shape does not exempt it: the test is the
    # constructor's, made on every problem built from outside the package.
    box = dict(A_in=np.vstack([np.eye(2), -np.eye(2)]), b_in=np.ones(4))
    QpSolver().solve(QpProblem(H=np.eye(2), g=np.ones(2), **box))
    with pytest.raises(ValueError, match="not PSD on the equality null space"):
        QpProblem(H=np.diag([1.0, -1.0]), g=np.ones(2), **box)


def test_nonconvex_problem_of_new_shape_still_raises():
    QpSolver().solve(QpProblem(H=np.eye(2), g=np.ones(2)))
    with pytest.raises(ValueError, match="not PSD on the equality null space"):
        QpProblem(H=np.diag([1.0, -1.0, 1.0]), g=np.zeros(3))


def test_convexity_is_tested_on_the_equality_null_space_and_skipped_by_builders():
    # diag(1, -1) is convex on {x2 = 0} and not on {x1 = 0}
    H = np.diag([1.0, -1.0])
    QpProblem(H=H, g=np.ones(2), A_eq=[[0.0, 1.0]], b_eq=[0.0])
    with pytest.raises(ValueError, match="not PSD"):
        QpProblem(H=H, g=np.ones(2), A_eq=[[1.0, 0.0]], b_eq=[0.0])
    # the tolerance: lambda_min(Z'HZ) >= -1e-8 passes, below it fails
    QpProblem(H=np.diag([1.0, -1e-8]), g=np.zeros(2))
    with pytest.raises(ValueError, match="not PSD"):
        QpProblem(H=np.diag([1.0, -1.1e-8]), g=np.zeros(2))
    # a package builder's problem is convex by construction and not tested
    assert np.array_equal(QpProblem._symmetric(H=H, g=np.ones(2)).H, H)


def counting_kkt(monkeypatch):
    """Wrap qp._solve_kkt; the returned list gets the active-row count of
    every KKT solve, one entry per factorization."""
    calls = []
    solve = qp._solve_kkt

    def counted(*args):
        calls.append(args[2].shape[0])
        return solve(*args)

    monkeypatch.setattr(qp, "_solve_kkt", counted)
    return calls


def test_equality_only_qp_takes_one_factorization(monkeypatch):
    # The least-squares start (1, 1) is not optimal: one full step reaches
    # the minimizer (0, 2), and that solve's multiplier is the answer's.
    p = QpProblem(H=np.eye(2), g=np.array([1.0, -1.0]),
                  A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
    calls = counting_kkt(monkeypatch)
    sol = solve_qp(p)
    assert calls == [1]
    x_ref, _ = qp_brute_force(p.H, p.g, p.A_eq, p.b_eq)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, x_ref, atol=1e-12)
    assert np.allclose(sol.lambda_eq, stationarity_multipliers(p.H, p.g, p.A_eq, x_ref),
                       atol=1e-12)


def test_one_blocking_bound_takes_two_factorizations(monkeypatch):
    # From 0 the step to the unconstrained minimizer (2, 2) is cut at x1 = 1;
    # the second solve, on that bound, is a full step to (1, 2).
    p = QpProblem(H=np.eye(2), g=np.array([-2.0, -2.0]),
                  A_in=np.array([[1.0, 0.0], [0.0, 1.0]]), b_in=np.array([1.0, 5.0]))
    calls = counting_kkt(monkeypatch)
    sol = solve_qp(p)
    assert calls == [0, 1]
    x_ref, _ = qp_brute_force(p.H, p.g, A_in=p.A_in, b_in=p.b_in)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, x_ref, atol=1e-12)
    mu_ref = stationarity_multipliers(p.H, p.g, p.A_in[:1], x_ref)
    assert np.allclose(sol.mu_in, [mu_ref[0], 0.0], atol=1e-12)
    assert sol.mu_in[0] > 0.0


@pytest.mark.parametrize("m_e", [0, 1])
def test_box_corner_fills_the_kkt_buffer(m_e, monkeypatch):
    # min 0.5 |x - 2|^2 over the box |x_i| <= 1 ends at a corner with every
    # coordinate's bound active, x_4 = 0.5 fixed by the equality row when
    # there is one: n working rows, equality rows included, the most the
    # loop's KKT buffer has room for without growing.
    n = 4
    A_eq = np.eye(n)[n - 1:] if m_e else None
    p = QpProblem(H=np.eye(n), g=np.full(n, -2.0), A_eq=A_eq, b_eq=[0.5] if m_e else None,
                  A_in=np.vstack([np.eye(n), -np.eye(n)]), b_in=np.ones(2 * n))
    calls = counting_kkt(monkeypatch)
    sol = solve_qp(p)
    x_ref, _ = qp_brute_force(p.H, p.g, p.A_eq, p.b_eq, p.A_in, p.b_in)
    assert sol.status == "optimal" and max(calls) == n
    assert np.array_equal(x_ref, [1.0, 1.0, 1.0, 0.5 if m_e else 1.0])
    assert np.max(np.abs(sol.x - x_ref)) <= 1e-12
    assert np.count_nonzero(sol.mu_in) == n - m_e


def test_dependent_working_rows_grow_the_kkt_buffer(monkeypatch):
    # Rows through one point of the line: at that vertex a second, dependent
    # row joins the working set, one more than the buffer first holds.
    p = inequality_problem("degenerate", 259)
    assert p.n == 1 and p.A_in.shape[0] == 3
    calls = counting_kkt(monkeypatch)
    got = QpSolver().solve(p)
    ref = FreshKktSolver()
    want = ref.solve(p)
    assert max(calls) == 2 and calls == ref.kkt_rows
    assert_same_loop_result((got.x, got.lambda_eq, got.mu_in, got.status),
                            (want.x, want.lambda_eq, want.mu_in, want.status))
    check_against_enumeration_oracle(p)


def test_kkt_solve_gives_linalg_solve_floats_and_steps_around_a_singular_kkt(monkeypatch):
    # The loop's solve is np.linalg.solve's gesv gufunc, called directly:
    # the same bits on KKT systems read, as the loop reads them, from the
    # leading square of a larger Fortran-ordered buffer.
    rng = np.random.default_rng(27)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        na = int(rng.integers(0, n + 1))
        M = rng.normal(size=(n, n))
        H = M @ M.T + 0.1 * np.eye(n)
        A = rng.normal(size=(na, n))
        buf = np.zeros((n + na + 3, n + na + 3), order="F")
        buf[:n, :n], buf[n:n + na, :n], buf[:n, n:n + na] = H, A, A.T
        KKT = buf[:n + na, :n + na]
        grad, r = rng.normal(size=n), rng.normal(size=na)
        p_step, mults = qp._solve_kkt(H, grad, A, r, KKT)
        want = np.linalg.solve(KKT, np.concatenate([-grad, r]))
        assert np.array_equal(np.concatenate([p_step, mults]), want)
    # A zero working row makes the KKT singular: np.linalg.solve raises,
    # the step is the least-squares one, and the loop warns nothing.
    A2 = np.vstack([M[:1], np.zeros((1, n))])
    KKT = np.block([[H, A2.T], [A2, np.zeros((2, 2))]])
    rhs = np.concatenate([-grad, [0.5, 0.5]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(KKT, rhs)
    with np.errstate(invalid="ignore"):
        p_step, mults = qp._solve_kkt(H, grad, A2, rhs[n:], KKT)
    assert np.array_equal(np.concatenate([p_step, mults]),
                          np.linalg.lstsq(KKT, rhs, rcond=None)[0])
    singular = []
    gesv = qp._gesv

    def recording(*args, **kwargs):
        sol = gesv(*args, **kwargs)
        singular.append(not np.isfinite(sol).all())
        return sol

    monkeypatch.setattr(qp, "_gesv", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = QpSolver().solve(inequality_problem("degenerate", 259))
    assert any(singular) and got.status == "optimal"


def assert_same_loop_result(got, want):
    assert got[3] == want[3]
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_active_set_loop_is_bit_identical_to_fresh_kkt_loop(monkeypatch):
    # Loops started at a feasible point with some rows active there and a
    # gradient pushing across them: blocking steps, drops, equality rows and
    # exhausted budgets must give the fresh-KKT loop's floats and KKT calls.
    calls = counting_kkt(monkeypatch)
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(300):
        n = int(rng.integers(2, 7))
        m_e = int(rng.integers(0, min(3, n)))
        m_i = int(rng.integers(2, 11))
        M = rng.normal(size=(n, n))
        H = M @ M.T + 0.05 * np.eye(n)
        x = rng.normal(size=n)
        A_eq = rng.normal(size=(m_e, n))
        A_in = rng.normal(size=(m_i, n))
        b_in = A_in @ x + np.where(rng.random(m_i) < 0.3, 0.0, rng.uniform(0.0, 0.5, m_i))
        g = 5.0 * rng.normal(size=n)
        max_iter = 2 if trial % 10 == 0 else 500
        calls.clear()
        got = QpSolver()._active_set_loop(H, g, A_eq, A_eq @ x, A_in, b_in, x, max_iter)
        ref = FreshKktSolver()
        want = ref._active_set_loop(H, g, A_eq, A_eq @ x, A_in, b_in, x, max_iter)
        assert_same_loop_result(got, want)
        assert calls == ref.kkt_rows, trial
        steps = np.diff(calls)
        seen |= {"block"} if (steps > 0).any() else set()
        seen |= {"drop"} if (steps < 0).any() else set()
        seen |= {got[3]} | ({"equality"} if m_e else set())
    assert seen == {"block", "drop", "equality", "optimal", "max_iter"}


def test_solve_with_phase1_is_bit_identical_to_fresh_kkt_loop(monkeypatch):
    calls = counting_kkt(monkeypatch)
    seen = set()
    kinds = ["interior", "degenerate", "duplicate", "contradictory"]
    for seed in range(120):
        p = inequality_problem(kinds[seed % 4], seed) if seed % 3 else \
            random_problem(np.random.default_rng(seed))
        calls.clear()
        got = QpSolver().solve(p)
        ref = FreshKktSolver()
        want = ref.solve(p)
        assert_same_loop_result((got.x, got.lambda_eq, got.mu_in, got.status),
                                (want.x, want.lambda_eq, want.mu_in, want.status))
        assert got.kkt_residual == want.kkt_residual
        assert calls == ref.kkt_rows, seed
        seen.add(got.status)
        if p.A_in.shape[0] and (-p.b_in).max() > qp.FEAS_TOL:
            seen.add("phase-1")
    assert seen == {"optimal", "infeasible", "phase-1"}
