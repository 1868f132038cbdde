"""Self-contained dense convex QP solver.

Solves   min 0.5 x'Hx + g'x   s.t.  A_eq x = b_eq,  A_in x <= b_in
with H symmetric PSD (positive definite on the null space of A_eq).

The primary algorithm is a primal active-set method with a phase-1 slack
minimization for finding a feasible start (and for detecting infeasibility:
the minimized slack is a violation certificate). A run that exhausts its
iteration budget is reported as `max_iter`, never replaced by a second
algorithm. Correctness is always judged by the returned KKT residuals, never
by the solver's internal state; a solution computes its residual from the
problem it solves on first read, which no control step does.

A problem is checked once, where it enters: the QpProblem constructor tests
that H is symmetric and PSD on the null space of A_eq, and the package's
builders, whose H is both by construction, skip it (`QpProblem._symmetric`).

Every product keeps its exact operand rows: BLAS sums a row's terms in an
order set by the row's place in its block, and with OpenBLAS 0.3.31
`A[rows] @ x` and `(A @ x)[rows]` differed in the last bit in 1,252 of
2,000 random half-row subsets of an 80 x 50 A. A strided row view
multiplies like its contiguous copy, so the KKT buffer's rows are used in place,
and the ratio test gathers the free rows once for both of its products. Each
KKT solve calls the gesv gufunc behind `np.linalg.solve` directly, as
`riccati` does: the same floats, but a singular matrix gives NaN (and then
the least-squares step) instead of LinAlgError.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# np.linalg.solve's gufunc for one right-hand side; a private numpy name,
# pinned to np.linalg.solve's floats by tests/test_qp.py.
from numpy.linalg._umath_linalg import solve1 as _gesv

FEAS_TOL = 1e-9  # feasibility considered exact below this
INFEAS_TOL = 1e-7  # phase-1 slack above this certifies infeasibility
PHASE1_PASSES = 64  # cap on phase-1 re-anchoring passes


def _floats(v, ndim: int):
    """v as a float64 array, flattened if ndim is 1; v itself if it is one of ndim dimensions."""
    if type(v) is np.ndarray and v.dtype == np.float64 and v.ndim == ndim:
        return v
    v = np.asarray(v, dtype=float)
    return v.reshape(-1) if ndim == 1 else v


def _as_2d(M, n_cols):
    M = np.zeros((0, n_cols)) if M is None else _floats(M, 2)
    if M.ndim != 2 or M.shape[1] != n_cols:
        raise ValueError(f"constraint matrix must have {n_cols} columns")
    return M


def _as_1d(v, n):
    v = np.zeros(0) if v is None else _floats(v, 1)
    if v.shape[0] != n:
        raise ValueError("constraint vector length mismatch")
    return v


@dataclass(frozen=True)
class QpProblem:
    """Dense QP data; empty constraint blocks may be passed as None."""

    H: np.ndarray
    g: np.ndarray
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None
    A_in: np.ndarray = None
    b_in: np.ndarray = None

    def __post_init__(self):
        self._store(self.H, self.g, self.A_eq, self.b_eq, self.A_in, self.b_in, True)

    @classmethod
    def _symmetric(cls, H, g, A_eq=None, b_eq=None, A_in=None, b_in=None):
        """A problem from one of this package's builders, whose H is symmetric
        and, R being positive definite, convex on the null space of A_eq by
        construction: the constructor's checks without those two tests."""
        p = object.__new__(cls)
        p._store(H, g, A_eq, b_eq, A_in, b_in, False)
        return p

    def _store(self, H, g, A_eq, b_eq, A_in, b_in, check: bool):
        H = _floats(H, 2)
        g = _floats(g, 1)
        n = g.shape[0]
        if H.shape != (n, n):
            raise ValueError("H must be n x n matching g")
        if check and not (H == H.T).all():
            if not np.allclose(H, H.T, atol=1e-10):
                raise ValueError("H must be symmetric (within 1e-10)")
            H = 0.5 * (H + H.T)
        A_eq = _as_2d(A_eq, n)
        A_in = _as_2d(A_in, n)
        b_eq = _as_1d(b_eq, A_eq.shape[0])
        b_in = _as_1d(b_in, A_in.shape[0])
        if A_eq.shape[0] > n:
            raise ValueError("more equality rows than variables")
        if check and _reduced_min_eig(H, A_eq) < -1e-8:
            raise ValueError("H is not PSD on the equality null space")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "A_eq", A_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "A_in", A_in)
        object.__setattr__(self, "b_in", b_in)

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def objective(self, x) -> float:
        return float(0.5 * x @ self.H @ x + self.g @ x)


@dataclass
class QpSolution:
    x: np.ndarray
    lambda_eq: np.ndarray
    mu_in: np.ndarray
    status: str  # optimal | infeasible | max_iter
    problem: QpProblem = field(default=None, repr=False)  # what was solved, if anything

    @cached_property
    def kkt_residual(self) -> float:
        """max(kkt_residuals(problem, self)), computed on first read; inf
        without a problem, as for an infeasible answer."""
        return np.inf if self.problem is None else max(kkt_residuals(self.problem, self))


def kkt_residuals(problem: QpProblem, sol: QpSolution):
    """(stationarity, primal_eq, primal_in, complementarity) in max norm.

    Plain matrix arithmetic, independent of any solver path.
    """
    x, lam, mu = sol.x, sol.lambda_eq, sol.mu_in
    stat = problem.H @ x + problem.g
    if problem.A_eq.shape[0]:
        stat = stat + problem.A_eq.T @ lam
    if problem.A_in.shape[0]:
        stat = stat + problem.A_in.T @ mu
    r_stat = float(abs(stat).max()) if stat.size else 0.0
    r_eq = float(abs(problem.A_eq @ x - problem.b_eq).max()) if problem.b_eq.size else 0.0
    if problem.b_in.size:
        slack = problem.A_in @ x - problem.b_in
        r_in = float(max(0.0, slack.max()))
        r_comp = float(abs(mu * slack).max())
    else:
        r_in = r_comp = 0.0
    return r_stat, r_eq, r_in, r_comp


def _reduced_min_eig(H, A_eq) -> float:
    """Smallest eigenvalue of Z'HZ, Z an orthonormal basis of null(A_eq)."""
    if A_eq.shape[0]:
        _, s, Vt = np.linalg.svd(A_eq)
        Z = Vt[int(np.sum(s > s[0] * max(A_eq.shape) * np.finfo(float).eps)):].T
        H = Z.T @ H @ Z
    return np.linalg.eigvalsh(H).min() if H.size else np.inf


def _solve_kkt(H, grad, A_act, r_act, KKT):
    """Equality-constrained step: min 0.5 p'Hp + grad'p s.t. A_act p = r_act,
    with KKT the assembled [[H, A_act'], [A_act, 0]] (H alone without rows).
    A singular or ill-conditioned KKT takes the least-squares step."""
    n = H.shape[0]
    rhs = np.concatenate([-grad, r_act])
    sol = _gesv(KKT, rhs, signature="dd->d")  # NaN where np.linalg.solve raises
    if not np.isfinite(sol).all():
        sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


class QpSolver:
    """Active-set QP solver; its iteration budget is all it holds.

    The optimum is unique only in exact arithmetic: a start point passed to
    `solve` changes the path to it, so the iteration count and the trailing
    bits of the answer. A closed loop can grow such bits; starting the slack
    re-solve from the rollout point moved v of the static_hyperplane_90
    scene by 1.37 at step 120.
    """

    def __init__(self, max_iter: int = 500):
        self.max_iter = max_iter

    # -- phase 1 -----------------------------------------------------------

    def _feasible_start(self, p: QpProblem, x0):
        """Return (x_feas, status): a point satisfying all constraints.

        status is 'ok' or 'infeasible'. Runs the slack phase-1 QP only when
        the candidate start violates inequalities.
        """
        n = p.n
        if x0 is not None:
            x = np.asarray(x0, dtype=float).copy()
        elif p.A_eq.shape[0]:
            x = np.linalg.lstsq(p.A_eq, p.b_eq, rcond=None)[0]
        else:
            x = np.zeros(n)
        if p.A_eq.shape[0]:
            r = p.A_eq.dot(x) - p.b_eq
            b_scale = 1.0 + abs(p.b_eq).max()
            if abs(r).max() > FEAS_TOL * b_scale:
                # restore equalities from the candidate (projection), then recheck
                dx = np.linalg.lstsq(p.A_eq, -r, rcond=None)[0]
                x = x + dx
                r = p.A_eq @ x - p.b_eq
                if abs(r).max() > 1e-6 * b_scale:
                    return x, "infeasible"
        if not p.A_in.shape[0]:
            return x, "ok"
        viol = float((p.A_in.dot(x) - p.b_in).max())
        if viol <= FEAS_TOL:
            return x, "ok"

        # phase-1: min 0.5*eps*||x - anchor||^2 + 0.5 s^2  s.t. A_in x - s <= b_in.
        # The eps term biases the minimized slack upward by O(eps * distance
        # moved), so one pass can end with a small positive s on a perfectly
        # feasible problem. Re-anchoring at the previous answer shrinks that
        # bias geometrically, by a factor near 0.4 per pass on a thin wedge of
        # near-parallel rows; true infeasibility keeps s pinned at the
        # violation floor, which is what the final threshold reads. Passes go
        # on while each at least halves the violation, up to a safety cap.
        eps = 1e-8
        He = np.zeros((n + 1, n + 1))
        He[:n, :n] = eps * np.eye(n)
        He[n, n] = 1.0
        A_eq1 = np.hstack([p.A_eq, np.zeros((p.A_eq.shape[0], 1))])
        A_in1 = np.hstack([p.A_in, -np.ones((p.A_in.shape[0], 1))])
        for _ in range(PHASE1_PASSES):
            ge = np.append(-eps * x, 0.0)
            start = np.append(x, viol + 1.0)
            xs, _, _, status = self._active_set_loop(
                He, ge, A_eq1, p.b_eq, A_in1, p.b_in, start, 4 * self.max_iter
            )
            if status != "optimal":
                break
            new_viol = float(max((p.A_in @ xs[:n] - p.b_in).max(), 0.0))
            if new_viol >= viol:
                break
            halved = new_viol <= 0.5 * viol
            x, viol = xs[:n], new_viol
            if viol <= FEAS_TOL:
                return x, "ok"
            if not halved:
                break
        return x, ("ok" if viol <= INFEAS_TOL else "infeasible")

    # -- phase 2 -----------------------------------------------------------

    @np.errstate(invalid="ignore")  # a singular KKT's NaN solve; _solve_kkt recovers
    def _active_set_loop(self, H, g, A_eq, b_eq, A_in, b_in, x, max_iter):
        """Primal active-set iterations from a feasible x.

        Each iteration factors one KKT matrix. A step that no row blocks lands
        on the working-set minimizer, and the multipliers of that same solve
        belong to the new point, so the optimality test needs no second solve.
        One KKT buffer serves the loop: H and A_eq are written once, the
        working rows from the first one that changed, and each solve reads
        its leading square.
        It has room for the n - m_e working rows that can be independent of
        the equality rows, and grows to all m_i if dependent rows join.
        """
        n, m_e, m_i = H.shape[0], A_eq.shape[0], A_in.shape[0]
        size = n + m_e + min(m_i, n - m_e)
        KKT = np.zeros((size, size), order="F")  # gesv's own layout: no strided copy
        KKT[:n, :n] = H
        KKT[n:n + m_e, :n] = A_eq
        KKT[:n, n:n + m_e] = A_eq.T
        b_act = np.concatenate([b_eq, b_in])  # b_in part rewritten to b_in[work]
        work = []  # working inequality indices, kept sorted
        stale = 0  # KKT rows and b_act entries from work[stale] on are out of date
        free = np.ones(m_i, dtype=bool)  # the rows outside the working set
        lam = np.zeros(m_e)
        mu = np.zeros(m_i)
        for _ in range(max_iter):
            grad = H.dot(x) + g
            na = m_e + len(work)
            if n + na > len(KKT):
                KKT = np.pad(KKT, (0, n + m_e + m_i - len(KKT)))
            if stale < len(work):
                changed, lo = work[stale:], n + m_e + stale
                KKT[lo:n + na, :n] = A_in[changed]
                KKT[:n, lo:n + na] = KKT[lo:n + na, :n].T
                b_act[m_e + stale:na] = b_in[changed]
                stale = len(work)
            A_act = KKT[:n, n:n + na].T  # unit column stride, as a row block copy
            r_act = b_act[:na] - A_act.dot(x) if na else np.zeros(0)
            p_step, mults = _solve_kkt(H, grad, A_act, r_act, KKT[:n + na, :n + na])

            if abs(p_step).max(initial=0.0) > 1e-11 * (1.0 + abs(x).max()):
                # ratio test over non-working rows, both products on one copy of them
                alpha = 1.0
                block = -1
                rows = free.nonzero()[0]
                if rows.size:
                    A_free = A_in[rows]
                    Ap = A_free.dot(p_step)
                    pos = Ap > 1e-13
                    if pos.any():
                        rows = rows[pos]
                        ratios = np.maximum((b_in[rows] - A_free[pos].dot(x)) / Ap[pos], 0.0)
                        j = ratios.argmin()
                        if ratios[j] < alpha:
                            alpha = float(ratios[j])
                            block = int(rows[j])
                if block >= 0:
                    x = x + alpha * p_step
                    stale = bisect_left(work, block)
                    work.insert(stale, block)
                    free[block] = False
                    continue
                x = x + p_step

            lam = mults[:m_e]
            mu_w = mults[m_e:]
            if mu_w.size == 0 or mu_w.min() >= -1e-9:
                mu = np.zeros(m_i)
                for idx, w in enumerate(work):
                    mu[w] = max(mu_w[idx], 0.0)
                return x, lam, mu, "optimal"
            # drop: most negative multiplier, smallest index breaking ties
            stale = int(mu_w.argmin())
            free[work.pop(stale)] = True
        return x, lam, mu, "max_iter"

    # -- main entry ----------------------------------------------------------

    def solve(self, p: QpProblem, x0=None) -> QpSolution:
        x_start, feas = self._feasible_start(p, x0)
        if feas == "infeasible":
            return QpSolution(x_start, np.zeros(p.A_eq.shape[0]), np.zeros(p.A_in.shape[0]),
                              "infeasible")
        x, lam, mu, status = self._active_set_loop(
            p.H, p.g, p.A_eq, p.b_eq, p.A_in, p.b_in, x_start, self.max_iter
        )
        return QpSolution(x, lam, mu, status, p)
