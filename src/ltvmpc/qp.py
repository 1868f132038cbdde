"""Self-contained dense convex QP solver.

Solves   min 0.5 x'Hx + g'x   s.t.  A_eq x = b_eq,  A_in x <= b_in
with H symmetric PSD (positive definite on the null space of A_eq).

The primary algorithm is a primal active-set method with a phase-1 slack
minimization for finding a feasible start (and for detecting infeasibility:
the minimized slack is a violation certificate). If the active set fails to
converge within its iteration budget, an ADMM loop with an exact polish step
takes over behind the same interface. Correctness is always judged by the
returned KKT residuals, never by the solver's internal state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9  # feasibility considered exact below this
INFEAS_TOL = 1e-7  # phase-1 slack above this certifies infeasibility


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
        if not np.allclose(H, H.T, atol=1e-10):
            raise ValueError("H must be symmetric (within 1e-10)")
        A_eq = _as_2d(self.A_eq, n)
        A_in = _as_2d(self.A_in, n)
        b_eq = _as_1d(self.b_eq, A_eq.shape[0])
        b_in = _as_1d(self.b_in, A_in.shape[0])
        if A_eq.shape[0] > n:
            raise ValueError("more equality rows than variables")
        object.__setattr__(self, "H", 0.5 * (H + H.T))
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
    """Active-set QP solver instance holding a mutable workspace.

    One solve runs at a time per instance; the previous solution is kept for
    warm starting. Warm starts change iteration counts, never the answer.
    """

    def __init__(self, tol: float = 1e-8, max_iter: int = 500, check_convexity: bool = True):
        self.tol = tol
        self.max_iter = max_iter
        self.check_convexity = check_convexity
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

        # phase-1: min 0.5*eps*||x - anchor||^2 + 0.5 s^2  s.t. A_in x - s <= b_in.
        # The eps term biases the minimized slack upward by O(eps * distance
        # moved), so one pass can end with a small positive s on a perfectly
        # feasible problem. Re-anchoring at the previous answer shrinks that
        # bias geometrically; true infeasibility keeps s pinned at the
        # violation floor, which is what the final threshold reads.
        eps = 1e-8
        He = np.zeros((n + 1, n + 1))
        He[:n, :n] = eps * np.eye(n)
        He[n, n] = 1.0
        A_eq1 = np.hstack([p.A_eq, np.zeros((p.A_eq.shape[0], 1))]) if p.A_eq.shape[0] else None
        A_in1 = np.hstack([p.A_in, -np.ones((p.A_in.shape[0], 1))])
        viol = float(np.max(p.A_in @ x - p.b_in))
        for _ in range(4):
            if viol <= FEAS_TOL:
                return x, "ok"
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
            x, viol = xs[:n], new_viol
        return x, ("ok" if viol <= INFEAS_TOL else "infeasible")

    # -- phase 2 -----------------------------------------------------------

    def _active_set_loop(self, H, g, A_eq, b_eq, A_in, b_in, x, max_iter):
        """Primal active-set iterations from a feasible x."""
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

            if np.max(np.abs(p_step), initial=0.0) <= 1e-11 * (1.0 + np.max(np.abs(x))):
                lam = mults[:m_e]
                mu_w = mults[m_e:]
                if mu_w.size == 0 or np.min(mu_w) >= -1e-9:
                    mu = np.zeros(m_i)
                    for idx, w in enumerate(work):
                        mu[w] = max(mu_w[idx], 0.0)
                    return x, lam, mu, "optimal"
                # drop: most negative multiplier, smallest index breaking ties
                j = int(np.argmin(mu_w))
                work.pop(j)
                continue

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
            x = x + alpha * p_step
            if block >= 0 and alpha < 1.0:
                work.append(block)
                work.sort()
        return x, lam, mu, "max_iter"

    # -- ADMM fallback -----------------------------------------------------

    def _admm(self, p: QpProblem, max_iter=20_000):
        """Operator-splitting fallback with an exact KKT polish at the end."""
        n = p.n
        A = np.vstack([p.A_eq, p.A_in]) if (p.A_eq.shape[0] or p.A_in.shape[0]) else np.zeros((0, n))
        m_e = p.A_eq.shape[0]
        m = A.shape[0]
        lo = np.concatenate([p.b_eq, np.full(p.b_in.shape, -np.inf)])
        hi = np.concatenate([p.b_eq, p.b_in])
        rho, sigma = 10.0, 1e-6
        M = p.H + sigma * np.eye(n) + rho * (A.T @ A)
        x = np.zeros(n)
        z = np.zeros(m)
        y = np.zeros(m)
        solveM = np.linalg.solve
        for it in range(max_iter):
            x = solveM(M, sigma * x - p.g + A.T @ (rho * z - y))
            Ax = A @ x
            z_new = np.clip(Ax + y / rho, lo, hi)
            y = y + rho * (Ax - z_new)
            if np.max(np.abs(z_new - z), initial=0.0) < 1e-12 and np.max(np.abs(Ax - z_new), initial=0.0) < 1e-10:
                z = z_new
                break
            z = z_new
        # polish: treat near-active inequality rows as equalities
        act = [i for i in range(m - m_e) if hi[m_e + i] - z[m_e + i] < 1e-7 or y[m_e + i] > 1e-9]
        A_act = np.vstack([p.A_eq, p.A_in[act]]) if (m_e or act) else np.zeros((0, n))
        b_act = np.concatenate([p.b_eq, p.b_in[act]])
        px, mults = _solve_kkt(p.H, p.g, A_act, b_act)
        lam = mults[:m_e]
        mu = np.zeros(p.A_in.shape[0])
        for idx, a in enumerate(act):
            mu[a] = max(mults[m_e + idx], 0.0)
        cand = QpSolution(px, lam, mu, "optimal")
        res = kkt_residuals(p, cand)
        if max(res) <= self.tol * 10:
            cand.kkt_residual = max(res)
            return cand
        raw = QpSolution(x, y[:m_e], np.maximum(y[m_e:], 0.0), "max_iter")
        raw.kkt_residual = max(kkt_residuals(p, raw))
        return raw

    # -- main entry ----------------------------------------------------------

    def solve(self, p: QpProblem, x0=None) -> QpSolution:
        shape = (p.n, p.A_eq.shape[0])
        if self.check_convexity and shape not in self._checked_shapes:
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
        if status == "optimal" and sol.kkt_residual <= self.tol * 10:
            return sol
        admm = self._admm(p)
        return admm if admm.kkt_residual < sol.kkt_residual else sol


def solve_qp(problem: QpProblem, x0=None, tol: float = 1e-8, max_iter: int = 500) -> QpSolution:
    """One-shot convenience wrapper around a fresh QpSolver."""
    return QpSolver(tol=tol, max_iter=max_iter).solve(problem, x0=x0)


# -- plain-text round trip ---------------------------------------------------


def _fmt_matrix(name, M):
    lines = [name]
    for row in np.atleast_2d(M):
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return lines


def dump_problem(p: QpProblem) -> str:
    """Serialize to a plain-text block: dimension header plus row-major
    matrices at 17 significant digits (bit-exact for IEEE doubles)."""
    lines = [f"qp n {p.n} me {p.A_eq.shape[0]} mi {p.A_in.shape[0]}"]
    lines += _fmt_matrix("H", p.H)
    lines += _fmt_matrix("g", p.g)
    if p.A_eq.shape[0]:
        lines += _fmt_matrix("A_eq", p.A_eq)
        lines += _fmt_matrix("b_eq", p.b_eq)
    if p.A_in.shape[0]:
        lines += _fmt_matrix("A_in", p.A_in)
        lines += _fmt_matrix("b_in", p.b_in)
    return "\n".join(lines) + "\n"


def load_problem(text: str) -> QpProblem:
    """Parse the dump_problem format back into a QpProblem."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "qp":
        raise ValueError("not a qp dump")
    n, me, mi = int(head[2]), int(head[4]), int(head[6])
    pos = 1
    blocks = {}
    while pos < len(lines):
        name = lines[pos].strip()
        rows = {"H": n, "g": 1, "A_eq": me, "b_eq": 1, "A_in": mi, "b_in": 1}[name]
        data = [[float(v) for v in lines[pos + 1 + r].split()] for r in range(rows)]
        blocks[name] = np.array(data)
        pos += 1 + rows
    return QpProblem(
        H=blocks["H"],
        g=blocks["g"].reshape(-1),
        A_eq=blocks.get("A_eq"),
        b_eq=blocks["b_eq"].reshape(-1) if "b_eq" in blocks else None,
        A_in=blocks.get("A_in"),
        b_in=blocks["b_in"].reshape(-1) if "b_in" in blocks else None,
    )
