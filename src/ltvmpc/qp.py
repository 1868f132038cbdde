"""Self-contained dense convex QP solver.

Solves   min 0.5 x'Hx + g'x   s.t.  A_eq x = b_eq,  A_in x <= b_in
with H symmetric PSD (positive definite on the null space of A_eq).

The primary algorithm is a primal active-set method with a phase-1 slack
minimization for finding a feasible start (and for detecting infeasibility:
the minimized slack is a violation certificate). A run that exhausts its
iteration budget is reported as `max_iter`, never replaced by a second
algorithm. Correctness is always judged by the returned KKT residuals, never
by the solver's internal state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9  # feasibility considered exact below this
INFEAS_TOL = 1e-7  # phase-1 slack above this certifies infeasibility
PHASE1_PASSES = 64  # cap on phase-1 re-anchoring passes


def _as_2d(M, n_cols):
    if M is None:
        return np.zeros((0, n_cols))
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] != n_cols:
        raise ValueError(f"constraint matrix must have {n_cols} columns")
    return M


def _as_1d(v, n):
    if v is None:
        return np.zeros(0)
    v = np.asarray(v, dtype=float).reshape(-1)
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
        H = np.asarray(self.H, dtype=float)
        g = np.asarray(self.g, dtype=float).reshape(-1)
        n = g.shape[0]
        if H.shape != (n, n):
            raise ValueError("H must be n x n matching g")
        if not np.array_equal(H, H.T):
            if not np.allclose(H, H.T, atol=1e-10):
                raise ValueError("H must be symmetric (within 1e-10)")
            H = 0.5 * (H + H.T)
        A_eq = _as_2d(self.A_eq, n)
        A_in = _as_2d(self.A_in, n)
        b_eq = _as_1d(self.b_eq, A_eq.shape[0])
        b_in = _as_1d(self.b_in, A_in.shape[0])
        if A_eq.shape[0] > n:
            raise ValueError("more equality rows than variables")
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
    kkt_residual: float = np.inf


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
    r_stat = float(np.max(np.abs(stat))) if stat.size else 0.0
    r_eq = float(np.max(np.abs(problem.A_eq @ x - problem.b_eq))) if problem.b_eq.size else 0.0
    if problem.b_in.size:
        slack = problem.A_in @ x - problem.b_in
        r_in = float(max(0.0, np.max(slack)))
        r_comp = float(np.max(np.abs(mu * slack)))
    else:
        r_in = r_comp = 0.0
    return r_stat, r_eq, r_in, r_comp


def _solve_kkt(H, grad, A_act, r_act):
    """Equality-constrained step: min 0.5 p'Hp + grad'p s.t. A_act p = r_act."""
    n = H.shape[0]
    na = A_act.shape[0]
    if na == 0:
        try:
            return np.linalg.solve(H, -grad), np.zeros(0)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(H, -grad, rcond=None)[0], np.zeros(0)
    KKT = np.zeros((n + na, n + na))
    KKT[:n, :n] = H
    KKT[:n, n:] = A_act.T
    KKT[n:, :n] = A_act
    rhs = np.concatenate([-grad, r_act])
    try:
        sol = np.linalg.solve(KKT, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
    if not np.all(np.isfinite(sol)):
        sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


class QpSolver:
    """Active-set QP solver with its iteration budget.

    The only state kept between solves is the set of problem shapes whose
    convexity was already checked. A start point passed to `solve` changes
    the iteration count, never the answer.
    """

    def __init__(self, max_iter: int = 500):
        self.max_iter = max_iter
        self._checked_shapes = set()  # (n, m_eq) shapes whose convexity was checked

    # -- preconditions ----------------------------------------------------

    def _check_problem(self, p: QpProblem):
        if p.A_eq.shape[0]:
            # reduced Hessian on the equality null space must be PSD
            _, s, Vt = np.linalg.svd(p.A_eq)
            rank = int(np.sum(s > s[0] * max(p.A_eq.shape) * np.finfo(float).eps)) if s.size else 0
            Z = Vt[rank:].T
            Hz = Z.T @ p.H @ Z if Z.shape[1] else np.zeros((0, 0))
        else:
            Hz = p.H
        if Hz.size and np.min(np.linalg.eigvalsh(Hz)) < -1e-8:
            raise ValueError("H is not PSD on the equality null space")

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
            r = p.A_eq @ x - p.b_eq
            if np.max(np.abs(r)) > FEAS_TOL * (1.0 + np.max(np.abs(p.b_eq), initial=0.0)):
                # restore equalities from the candidate (projection), then recheck
                dx = np.linalg.lstsq(p.A_eq, -r, rcond=None)[0]
                x = x + dx
                r = p.A_eq @ x - p.b_eq
                if np.max(np.abs(r)) > 1e-6 * (1.0 + np.max(np.abs(p.b_eq), initial=0.0)):
                    return x, "infeasible"
        if not p.A_in.shape[0]:
            return x, "ok"
        viol = float(np.max(p.A_in @ x - p.b_in))
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
        A_eq1 = np.hstack([p.A_eq, np.zeros((p.A_eq.shape[0], 1))]) if p.A_eq.shape[0] else None
        A_in1 = np.hstack([p.A_in, -np.ones((p.A_in.shape[0], 1))])
        for _ in range(PHASE1_PASSES):
            ge = np.concatenate([-eps * x, [0.0]])
            start = np.concatenate([x, [viol + 1.0]])
            xs, _, _, status = self._active_set_loop(
                He, ge, _as_2d(A_eq1, n + 1), p.b_eq, A_in1, p.b_in, start, 4 * self.max_iter
            )
            if status != "optimal":
                break
            new_viol = float(max(np.max(p.A_in @ xs[:n] - p.b_in), 0.0))
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

    def _active_set_loop(self, H, g, A_eq, b_eq, A_in, b_in, x, max_iter):
        """Primal active-set iterations from a feasible x.

        Each iteration factors one KKT matrix. A step that no row blocks lands
        on the working-set minimizer, and the multipliers of that same solve
        belong to the new point, so the optimality test needs no second solve.
        """
        m_e, m_i = A_eq.shape[0], A_in.shape[0]
        work = []  # working inequality indices, kept sorted
        lam = np.zeros(m_e)
        mu = np.zeros(m_i)
        for _ in range(max_iter):
            grad = H @ x + g
            if work:
                A_act = np.vstack([A_eq, A_in[work]]) if m_e else A_in[work]
                b_act = np.concatenate([b_eq, b_in[work]]) if m_e else b_in[work]
            else:
                A_act, b_act = A_eq, b_eq
            r_act = b_act - A_act @ x if A_act.shape[0] else np.zeros(0)
            p_step, mults = _solve_kkt(H, grad, A_act, r_act)

            if np.max(np.abs(p_step), initial=0.0) > 1e-11 * (1.0 + np.max(np.abs(x))):
                # ratio test over non-working rows
                alpha = 1.0
                block = -1
                if m_i:
                    mask = np.ones(m_i, dtype=bool)
                    mask[work] = False
                    rows = np.where(mask)[0]
                    if rows.size:
                        Ap = A_in[rows] @ p_step
                        pos = Ap > 1e-13
                        if np.any(pos):
                            ratios = (b_in[rows[pos]] - A_in[rows[pos]] @ x) / Ap[pos]
                            ratios = np.maximum(ratios, 0.0)
                            j = int(np.argmin(ratios))
                            if ratios[j] < alpha:
                                alpha = float(ratios[j])
                                block = int(rows[pos][j])
                if block >= 0:
                    x = x + alpha * p_step
                    work.append(block)
                    work.sort()
                    continue
                x = x + p_step

            lam = mults[:m_e]
            mu_w = mults[m_e:]
            if mu_w.size == 0 or np.min(mu_w) >= -1e-9:
                mu = np.zeros(m_i)
                for idx, w in enumerate(work):
                    mu[w] = max(mu_w[idx], 0.0)
                return x, lam, mu, "optimal"
            # drop: most negative multiplier, smallest index breaking ties
            work.pop(int(np.argmin(mu_w)))
        return x, lam, mu, "max_iter"

    # -- main entry ----------------------------------------------------------

    def solve(self, p: QpProblem, x0=None) -> QpSolution:
        shape = (p.n, p.A_eq.shape[0])
        if shape not in self._checked_shapes:
            self._check_problem(p)
            self._checked_shapes.add(shape)

        x_start, feas = self._feasible_start(p, x0)
        if feas == "infeasible":
            sol = QpSolution(x_start, np.zeros(p.A_eq.shape[0]), np.zeros(p.A_in.shape[0]), "infeasible")
            sol.kkt_residual = np.inf
            return sol
        x, lam, mu, status = self._active_set_loop(
            p.H, p.g, p.A_eq, p.b_eq, p.A_in, p.b_in, x_start, self.max_iter
        )
        sol = QpSolution(x, lam, mu, status)
        sol.kkt_residual = max(kkt_residuals(p, sol))
        return sol
