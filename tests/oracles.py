"""Independent reference implementations the tests check the library against.

Each oracle recomputes its quantity by a different route than the shipped
code (fine-step integration, brute-force enumeration, dense grid sampling),
so a shared bug cannot hide on both sides of a comparison.
"""

import itertools

import numpy as np


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
    u = u_ref + K x, the input box. Returns the predicate c -> bool."""
    lam, V = np.linalg.eigh(np.asarray(P, dtype=float))
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=lam.shape[0])))
    unit_vertices = corners * np.sqrt(1.0 / lam) @ V.T
    unit_inputs = unit_vertices @ np.asarray(K, dtype=float).T
    e_max = np.asarray(e_max, dtype=float)
    u_max = np.asarray(u_max, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)

    def feasible(c):
        r = np.sqrt(c)
        if np.any(np.abs(unit_vertices) * r > e_max[None, :]):
            return False
        return not np.any(np.abs(u_ref[None, :] + unit_inputs * r) > u_max[None, :])

    return feasible


def central_jacobian(f, x, h=1e-6):
    """Central finite differences of a vector function, column per input."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = h
        cols.append((np.asarray(f(x + dx)) - np.asarray(f(x - dx))) / (2 * h))
    return np.column_stack(cols)
