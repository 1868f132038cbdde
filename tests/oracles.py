"""Independent reference implementations the tests check the library against.

Each oracle recomputes its quantity by a different route than the shipped
code (fine-step integration, brute-force enumeration, dense grid sampling),
so a shared bug cannot hide on both sides of a comparison.
"""

import itertools
import math

import numpy as np

from ltvmpc.dynamics import RobotState
from ltvmpc.qp import QpProblem, QpSolver
from ltvmpc.riccati import TerminalSchedule


def euler_fine(z, u, T, substeps=10_000):
    """Explicit Euler on the kinematic ODE, vectorized over rows of z and u.

    Global truncation error is O(T^2 / substeps); at the default resolution
    that floor sits near 3e-5 for the fastest turn rates in the test ranges.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float)).copy()
    u = np.atleast_2d(np.asarray(u, dtype=float))
    T = np.broadcast_to(np.asarray(T, dtype=float).reshape(-1), (z.shape[0],))
    h = (T / substeps).reshape(-1, 1)
    v, w = u[:, 0:1], u[:, 1:2]
    for _ in range(substeps):
        c, s = np.cos(z[:, 2:3]), np.sin(z[:, 2:3])
        z = z + h * np.hstack([v * c, v * s, np.broadcast_to(w, c.shape)])
    return z


def euler_richardson(z, u, T, substeps=10_000):
    """Richardson-extrapolated Euler: 2 E(h/2) - E(h) cancels the O(h) term.

    Leaves an O(h^2) oracle error (measured well under 1e-9 over the test
    ranges), which is what makes a 1e-6 comparison against an exact step
    meaningful at all -- plain Euler's own truncation would dominate it.
    """
    return 2.0 * euler_fine(z, u, T, 2 * substeps) - euler_fine(z, u, T, substeps)


def qp_brute_force(H, g, A_eq=None, b_eq=None, A_in=None, b_in=None, tol=1e-8):
    """Enumerate every active subset of the inequalities, solve the resulting
    equality-constrained problem, keep KKT-consistent candidates, return the
    best (x, objective) or None when nothing is feasible."""
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    A_in = np.zeros((0, n)) if A_in is None else np.asarray(A_in, dtype=float)
    b_in = np.zeros(0) if b_in is None else np.asarray(b_in, dtype=float)
    m_e, m_i = A_eq.shape[0], A_in.shape[0]

    best = None
    for r in range(m_i + 1):
        for combo in itertools.combinations(range(m_i), r):
            A_act = np.vstack([A_eq, A_in[list(combo)]])
            b_act = np.concatenate([b_eq, b_in[list(combo)]])
            na = A_act.shape[0]
            KKT = np.zeros((n + na, n + na))
            KKT[:n, :n] = H
            KKT[:n, n:] = A_act.T
            KKT[n:, :n] = A_act
            rhs = np.concatenate([-g, b_act])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue  # dependent active rows; some other subset covers it
            if not np.all(np.isfinite(sol)):
                continue
            x, mult = sol[:n], sol[n:]
            mu = mult[m_e:]
            if mu.size and np.min(mu) < -tol:
                continue  # would need to pull on a one-sided constraint
            if m_e and np.max(np.abs(A_eq @ x - b_eq)) > tol:
                continue
            if m_i and np.max(A_in @ x - b_in) > tol:
                continue
            obj = float(0.5 * x @ H @ x + g @ x)
            if best is None or obj < best[1]:
                best = (x, obj)
    return best


def arc_step(z, u, T):
    """One exact unicycle step on (x, y, theta) written out as the library's
    step_discrete was before its float kernel, wrapping with numpy's mod:
    the chain `roll_reference` and `step_discrete` must match bit for bit."""
    x, y, th = z
    v, w = u
    if abs(w) < 1e-6:
        x = x + T * v * math.cos(th) - 0.5 * v * T * T * w * math.sin(th)
        y = y + T * v * math.sin(th) + 0.5 * v * T * T * w * math.cos(th)
    else:
        x = x + (v / w) * (math.sin(th + T * w) - math.sin(th))
        y = y + (v / w) * (math.cos(th) - math.cos(th + T * w))
    return x, y, float(np.mod(th + T * w - math.pi, -2.0 * math.pi) + math.pi)


def solve_kkt_fresh(H, grad, A_act, r_act):
    """Equality-constrained step with a freshly assembled KKT matrix per
    solve: the active-set loop's step before its one-buffer form."""
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


class FreshKktSolver(QpSolver):
    """QpSolver whose active-set loop stacks [A_eq; A_in[work]] anew, builds
    a fresh KKT matrix (`solve_kkt_fresh`) and a fresh free-row mask on every
    iteration: the loop before its one-buffer form, which
    `QpSolver._active_set_loop` must match bit for bit. `kkt_rows` records
    the active-row count of every factorization, phase-1 passes included."""

    def __init__(self, max_iter: int = 500):
        super().__init__(max_iter)
        self.kkt_rows = []

    def _active_set_loop(self, H, g, A_eq, b_eq, A_in, b_in, x, max_iter):
        m_e, m_i = A_eq.shape[0], A_in.shape[0]
        work = []
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
            self.kkt_rows.append(A_act.shape[0])
            p_step, mults = solve_kkt_fresh(H, grad, A_act, r_act)

            if np.max(np.abs(p_step), initial=0.0) > 1e-11 * (1.0 + np.max(np.abs(x))):
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
            work.pop(int(np.argmin(mu_w)))
        return x, lam, mu, "max_iter"


def input_space_min_eig(problem: QpProblem) -> float:
    """Smallest eigenvalue of H reduced onto the null space of A_eq, in the
    coordinates of the variables after the first m_eq: with E = A_eq[:, :m_eq]
    invertible (build_qp's dynamics rows are unit lower block triangular in
    e(1)..e(N)) and F the rest, x = Z y with Z = [-E^-1 F; I]. For build_qp's
    H that is the condensed Hessian Gamma' Qbar Gamma + Rbar, never below
    lambda_min(R); without equality rows it is lambda_min(H)."""
    m = problem.A_eq.shape[0]
    E, F = problem.A_eq[:, :m], problem.A_eq[:, m:]
    Z = np.vstack([-np.linalg.solve(E, F) if m else np.zeros((0, problem.n)),
                   np.eye(problem.n - m)])
    return float(np.linalg.eigvalsh(Z.T @ problem.H @ Z).min())


def linearize_step(v_r, w_r, T):
    """Error matrices (A, B) of one reference input, entry by entry: the
    per-step formula the vectorized `dynamics.linearize` must match bit for
    bit. A = [[1, w_r T, 0], [-w_r T, 1, v_r T], [0, 0, 1]],
    B = [[-T, 0], [0, 0], [0, -T]]."""
    A = np.array(
        [
            [1.0, w_r * T, 0.0],
            [-w_r * T, 1.0, v_r * T],
            [0.0, 0.0, 1.0],
        ]
    )
    B = np.array([[-T, 0.0], [0.0, 0.0], [0.0, -T]])
    return A, B


def build_qp_loops(e0, k: int, ref, A, B, schedule, costs, cfg, avoid=()):
    """Assemble the stacked tracking QP at timestep k, block by block and row
    by row in plain Python loops: the reference `mpc.build_qp` must match
    bit for bit.

    Layout: variables [e(1)..e(N), u_b(0)..u_b(N-1)]; equalities are the N
    dynamics steps; inequalities are 4N two-sided input bounds
    (-u_max - u_ref <= u_b <= u_max - u_ref), optional no-reverse rows, then
    the avoidance rows in the order given, each row of `avoid` its 5N
    coefficients over the stacked vector and then its right-hand side.
    Model/reference/schedule indices clamp at the trajectory end (setpoint
    hold).
    """
    N = cfg.N
    n = 5 * N
    e0 = np.asarray(e0, dtype=float).reshape(3)
    last = len(A) - 1

    H = np.zeros((n, n))
    for j in range(1, N):
        H[3 * (j - 1): 3 * j, 3 * (j - 1): 3 * j] = costs.Q
    P_term = schedule.P_at(min(k + N, len(schedule.P) - 1))
    H[3 * (N - 1): 3 * N, 3 * (N - 1): 3 * N] = cfg.beta * P_term
    for j in range(N):
        i0 = 3 * N + 2 * j
        H[i0: i0 + 2, i0: i0 + 2] = costs.R
    g = np.zeros(n)

    A_eq = np.zeros((3 * N, n))
    b_eq = np.zeros(3 * N)
    for j in range(N):
        A_j = A[min(k + j, last)]
        r = slice(3 * j, 3 * j + 3)
        A_eq[r, 3 * j: 3 * j + 3] = np.eye(3)
        if j == 0:
            b_eq[r] = A_j @ e0
        else:
            A_eq[r, 3 * (j - 1): 3 * j] = -A_j
        A_eq[r, 3 * N + 2 * j: 3 * N + 2 * j + 2] = -B

    rows = []
    rhs = []
    for j in range(N):
        u_ref = ref.inputs[min(k + j, last)]
        i0 = 3 * N + 2 * j
        up = np.zeros(n)
        up[i0] = 1.0
        rows.append(up)
        rhs.append(cfg.u_max[0] - u_ref[0])
        up2 = np.zeros(n)
        up2[i0 + 1] = 1.0
        rows.append(up2)
        rhs.append(cfg.u_max[1] - u_ref[1])
        lo = np.zeros(n)
        lo[i0] = -1.0
        rows.append(lo)
        rhs.append(cfg.u_max[0] + u_ref[0])
        lo2 = np.zeros(n)
        lo2[i0 + 1] = -1.0
        rows.append(lo2)
        rhs.append(cfg.u_max[1] + u_ref[1])
    if cfg.forbid_reverse:
        for j in range(N):
            u_ref = ref.inputs[min(k + j, last)]
            row = np.zeros(n)
            row[3 * N + 2 * j] = -1.0
            rows.append(row)
            rhs.append(u_ref[0])

    for *coefs, b in avoid:
        row = np.zeros(n)
        for col, c in enumerate(coefs):
            row[col] = c
        rows.append(row)
        rhs.append(b)

    return QpProblem(H=H, g=g, A_eq=A_eq, b_eq=b_eq,
                     A_in=np.array(rows), b_in=np.array(rhs))


def riccati_map_step(P, A, B, Q, R):
    """One Riccati difference step for a single model, as 2-D products."""
    M = B.T @ P @ A
    G = np.linalg.solve(R + B.T @ P @ B, M)
    return A.T @ P @ A - M.T @ G + Q


def solve_dare_step(A, B, Q, R, P0, tol=1e-10, max_iter=100_000):
    """The fixed-point DARE iteration for a single model, symmetrized each
    step, stopping once the step's Frobenius norm is at most tol."""
    P = Q.copy() if P0 is None else P0.copy()
    for _ in range(max_iter):
        P_next = riccati_map_step(P, A, B, Q, R)
        P_next = 0.5 * (P_next + P_next.T)
        if np.linalg.norm(P_next - P, ord="fro") <= tol:
            return P_next
        P = P_next
    raise ValueError(f"Riccati iteration did not converge within {max_iter} steps")


def doubling_dare_two_solves(A, B, Q, R):
    """The batched SDA start with W^-1 A and W^-1 G solved separately."""
    G = np.broadcast_to(B @ np.linalg.solve(R, B.T), A.shape).copy()
    H = np.broadcast_to(Q, A.shape).copy()
    eye = np.eye(A.shape[-1])
    for _ in range(64):
        W = eye + G @ H
        W_A = np.linalg.solve(W, A)
        W_G = np.linalg.solve(W, G)
        A_t = A.swapaxes(-1, -2)
        H_next = H + A_t @ H @ W_A
        H_next = 0.5 * (H_next + H_next.swapaxes(-1, -2))
        G = G + A @ W_G @ A_t
        A = A @ W_A
        converged = np.max(np.abs(H_next - H), axis=(1, 2)) <= 1e-13 * np.max(
            np.abs(H_next), axis=(1, 2))
        H = H_next
        if converged.all():
            return H
    raise ValueError("doubling DARE did not converge within 64 doublings")


def backward_riccati_steps(A, B, costs, doubling=True):
    """The terminal schedule built one step at a time: every frozen DARE by
    its own fixed-point iteration, warm-started backward from the next step's
    solution (the last from Q), except that with `doubling` a step whose
    model differs from the next step's takes its SDA solution as is; then one
    gain and one closed-loop P step per model. This is `backward_riccati`
    before its stacked build, the reference its P and K must equal bit for
    bit; with doubling=False it is the plain warm-started chain. A is the
    model stack and B the constant input matrix."""
    L = len(A)
    if L == 0:
        raise ValueError("backward_riccati needs at least one model")
    Q, R = costs.Q, costs.R
    solved = {}
    changed = np.flatnonzero(np.any(A[:-1] != A[1:], axis=(1, 2)))
    if doubling and changed.size:
        solved = dict(zip(changed.tolist(), doubling_dare_two_solves(A[changed], B, Q, R)))

    # Frozen DARE solution per step, solved backward with warm starts.
    dare = [None] * L
    P_prev = None
    for i in range(L - 1, -1, -1):
        P_prev = solved[i] if i in solved else solve_dare_step(A[i], B, Q, R, P0=P_prev)
        dare[i] = P_prev

    K = []
    for i in range(L - 1):
        BtP = B.T @ dare[i]
        K.append(-np.linalg.solve(R + BtP @ B, BtP @ A[i]))

    P = [None] * L
    P[L - 1] = dare[L - 1]
    for i in range(L - 2, -1, -1):
        A_K = A[i] + B @ K[i]
        Q_K = Q + K[i].T @ R @ K[i]
        P_i = A_K.T @ P[i + 1] @ A_K + Q_K
        P[i] = 0.5 * (P_i + P_i.T)
    return TerminalSchedule(np.array(P), np.array(K).reshape((L - 1,) + B.T.shape))


def stationarity_multipliers(H, g, A_act, x):
    """Multipliers of the active rows at x, read off the stationarity
    condition H x + g + A_act' m = 0 by least squares, without any KKT
    factorization or solver state."""
    grad = np.asarray(H, dtype=float) @ np.asarray(x, dtype=float) + np.asarray(g, dtype=float)
    return np.linalg.lstsq(np.asarray(A_act, dtype=float).T, -grad, rcond=None)[0]


def velocity_hits_disc(u, d, r_sum, v_obs, tau, n_grid=10_000):
    """Does relative motion at velocity u enter the combined disc within tau?

    Brute force over a dense time grid: collision iff some t in (0, tau] has
    ||d - (u - v_obs) t|| <= r_sum, with d the obstacle offset. This is the
    set-definition route to cone membership, no tangent geometry involved.
    """
    t = np.linspace(tau / n_grid, tau, n_grid).reshape(-1, 1)
    w = np.asarray(u, dtype=float) - np.asarray(v_obs, dtype=float)
    pts = np.asarray(d, dtype=float)[None, :] - w[None, :] * t
    return bool(np.any(np.einsum("ij,ij->i", pts, pts) <= r_sum * r_sum))


def shrink_sequence_level(c0, shrink, feasible):
    """Walk c0, c0/shrink, c0/shrink^2, ... and return the first feasible c.

    The plainest possible reading of the divide-until-feasible loop, used to
    pin down expected level values independently of the library's version.
    """
    c = float(c0)
    while c >= 1e-12:
        if feasible(c):
            return c
        c /= shrink
    raise AssertionError("sequence exhausted without a feasible level")


def unit_box_corners_pass(P, e_max, u_max, K, u_ref):
    """Corner check at level c, evaluated candidate by candidate as the
    divide-until-feasible loop always did: the unit-level eigen box scaled by
    sqrt(c), every corner tested against the state box and, through
    u = u_ref + K x, the input box. Returns the predicate c -> bool. Each
    entry is checked on its own in plain floats, the same products, sums and
    comparisons an elementwise numpy check makes, at a fraction of its
    per-call cost."""
    lam, V = np.linalg.eigh(np.asarray(P, dtype=float))
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=lam.shape[0])))
    unit_vertices = corners * np.sqrt(1.0 / lam) @ V.T
    unit_inputs = unit_vertices @ np.asarray(K, dtype=float).T
    e_max, u_max, u_ref = (np.asarray(a, dtype=float).tolist() for a in (e_max, u_max, u_ref))
    state = [(abs(x), e) for row in unit_vertices.tolist() for x, e in zip(row, e_max)]
    inputs = [(x, u0, um) for row in unit_inputs.tolist()
              for x, u0, um in zip(row, u_ref, u_max)]

    def feasible(c):
        r = math.sqrt(c)
        if any(x * r > e for x, e in state):
            return False
        return not any(abs(u0 + x * r) > um for x, u0, um in inputs)

    return feasible


def eigen_box_vertices(P, c):
    """The outer box of {x : x' P x <= c} built level by level as it always
    was: eigh of the symmetrized P, semi-axes sqrt(c / eigenvalue), the
    corners in itertools.product order mapped back by the eigenvectors."""
    P = np.asarray(P, dtype=float)
    lam, V = np.linalg.eigh(0.5 * (P + P.T))
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=lam.shape[0])))
    return corners * np.sqrt(c / lam) @ V.T


def central_jacobian(f, x, h=1e-6):
    """Central finite differences of a vector function, column per input."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = h
        cols.append((np.asarray(f(x + dx)) - np.asarray(f(x - dx))) / (2 * h))
    return np.column_stack(cols)


def adjoint_multipliers(errors, A_steps, Q, P_end):
    """Dynamics multipliers of the stacked QP at a plan, by the backward
    adjoint recursion of its stationarity in the errors.

    errors (N, 3) holds e(1)..e(N), A_steps (N, 3, 3) the models A_0..A_(N-1)
    of the horizon and P_end the terminal weight beta * P(k+N). Row block j
    of the dynamics reads e(j+1) - A_j e(j) - B u_b(j) = 0, so stationarity in
    e(j+1) is W_(j+1) e(j+1) + lam_j - A_(j+1)' lam_(j+1) = 0, with W = Q
    before the last step and P_end at it. Returns lam_0..lam_(N-1) stacked.
    """
    N = len(errors)
    lam = [None] * N
    lam[N - 1] = -np.asarray(P_end) @ errors[N - 1]
    for j in range(N - 2, -1, -1):
        lam[j] = A_steps[j + 1].T @ lam[j + 1] - Q @ errors[j]
    return np.concatenate(lam)


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


def error_field(e: np.ndarray, u_b: np.ndarray, v_r: float, w_r: float) -> np.ndarray:
    """Nonlinear continuous-time error dynamics around a moving reference.

    With the applied input split as (v, w) = (v_r + v_b, w_r + w_b):
      e1' = v_r cos(e3) - (v_r + v_b) + e2 (w_r + w_b)
      e2' = v_r sin(e3) - e1 (w_r + w_b)
      e3' = -w_b
    Its Jacobian at (e, u_b) = 0 equals ((A - I)/T, B/T) of linearize and
    input_matrix, which the tests check by central finite differences.
    """
    e1, e2, e3 = e
    v_b, w_b = u_b
    w = w_r + w_b
    return np.array(
        [
            v_r * math.cos(e3) - (v_r + v_b) + e2 * w,
            v_r * math.sin(e3) - e1 * w,
            -w_b,
        ]
    )


def nonlinear_velocity_margin(n, a: float, speed: float, theta: float, omega: float,
                              dt: float) -> float:
    """Signed margin f = n . u(next) - a of the velocity half-plane, where the
    velocity vector after dt is speed * (cos, sin)(theta + omega dt).
    Nonnegative f means the constraint n . u >= a holds."""
    n = np.asarray(n, dtype=float).reshape(2)
    phase = theta + omega * dt
    return float(n[0] * speed * math.cos(phase) + n[1] * speed * math.sin(phase) - a)


def controllability_rank(A, B) -> int:
    """Numerical rank of [B, AB, ..., A^(n-1)B] via SVD.

    Threshold sigma_max * n * machine_eps * 1e3, loose enough to ignore
    roundoff but tight enough to detect the rank drop at v_r = w_r = 0.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    C = np.hstack(blocks)
    s = np.linalg.svd(C, compute_uv=False)
    return int(np.sum(s > s[0] * n * np.finfo(float).eps * 1e3))


def solve_qp(problem: QpProblem, x0=None, max_iter: int = 500):
    """One-shot convenience wrapper around a fresh QpSolver."""
    return QpSolver(max_iter=max_iter).solve(problem, x0=x0)


def step_continuous(z: RobotState, u) -> np.ndarray:
    """Continuous-time field zdot = (v cos th, v sin th, omega) under u = (v, omega)."""
    v, w = u
    return np.array([v * math.cos(z.theta), v * math.sin(z.theta), w])


def from_error_frame(e, pose) -> RobotState:
    """Invert to_error_frame: recover the robot pose from (error (e1, e2, e3),
    reference pose)."""
    x_r, y_r, th_r = pose
    e1, e2, e3 = e
    theta = th_r - e3
    c, s = math.cos(theta), math.sin(theta)
    x = x_r - (c * e1 - s * e2)
    y = y_r - (s * e1 + c * e2)
    return RobotState(x, y, theta)


def halfplane_satisfied(hp, x, margin: float = 0.0) -> bool:
    """Whether x lies on the feasible side of the HalfPlane hp."""
    v = float(hp.n @ np.asarray(x, dtype=float))
    return v <= hp.a - margin if hp.sense == "le" else v >= hp.a + margin


def cone_contains(cone, u, tol: float = 0.0) -> bool:
    """Membership of u in the untruncated VoCone (interior plus boundary)."""
    w = np.asarray(u, dtype=float).reshape(2) - cone.apex
    nw = float(np.linalg.norm(w))
    if nw == 0.0:
        return False
    cos_ang = float(w @ cone.axis) / nw
    return cos_ang >= math.cos(cone.half_angle) - tol
