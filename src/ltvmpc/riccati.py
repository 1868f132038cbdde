"""Discrete-time Riccati machinery for the time-varying terminal cost.

Per-step LQR gains come from the frozen-model discrete algebraic Riccati
equation; the time-varying terminal weight P(i) then follows the backward
closed-loop recursion

    P(i) = A_K(i)' P(i+1) A_K(i) + Q_K(i),
    A_K(i) = A(i) + B K(i),   Q_K(i) = Q + K(i)' R K(i),

anchored at the final step by the frozen DARE solution there. This makes
V_f(x, i) = 0.5 x' P(i) x a valid time-varying Lyapunov function for the
per-step LQR policy on the linear model: the decrease identity
x' P(i) x - x' A_K' P(i+1) A_K x = x' Q_K(i) x holds exactly by construction.

The models arrive as one stack A (L, n, n) with a single constant input
matrix B, and the schedule is returned as the arrays P (L, n, n) and
K (L-1, m, n). Where the model changes along the sequence, its frozen DARE
is solved by the structure-preserving doubling algorithm (SDA; Chu, Fan, Lin
et al., 2004-05), batched over exactly those models; the gains and the
closed-loop terms are batched over the whole stack. The rest runs on one
model at a time in 2-D products (`ndarray.dot`): the last step's DARE by
the fixed-point iteration `solve_dare` from Q (254 Riccati maps on the
tracking reference at N=50, 344 on the avoidance scenes' line), each run of
unchanged models (a backward chain of `solve_dare` calls, cut short once a
step repeats its neighbour's solution bit for bit), and the P recursion
(cut short once P repeats over equal closed-loop terms). Each map's m x m
solve calls the LAPACK gufunc behind `np.linalg.solve` directly, the same
floats without the wrapper's per-call cost, so a singular or overflowing map
gives NaN or inf instead of `LinAlgError`; `solve_dare` raises ValueError on
it at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# The gesv gufunc np.linalg.solve calls: the same bits on float64 arrays,
# without the wrapper's conversions and errstate, about 4 of the 5.7 us of a
# 2x2 solve, paid hundreds of times per set-up by the sequential DARE maps.
# A private numpy name, imported here only; tests/test_riccati.py pins its
# floats to np.linalg.solve's.
from numpy.linalg._umath_linalg import solve as _gesv

from .qp import _symmetrized

STABLE_RADIUS = 1.0 - 1e-9  # a closed-loop eigenvalue of this modulus or more is unstable


@dataclass(frozen=True)
class CostMatrices:
    """State weight Q (PSD) and input weight R (PD), validated, each within
    1e-10 of symmetric and stored exactly symmetric (`_symmetrized`)."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        R = np.asarray(self.R, dtype=float)
        for name, M in (("Q", Q), ("R", R)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square")
        Q, R = _symmetrized("Q", Q), _symmetrized("R", R)
        if np.min(np.linalg.eigvalsh(Q)) < -1e-10:
            raise ValueError("Q must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(R)) <= 1e-12:
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class TerminalSchedule:
    """Backward-recursion output: P (L, n, n) for steps 0..L-1 and gains
    K (L-1, m, n) for steps 0..L-2; P is stored exactly symmetric (`_symmetrized`)."""

    P: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _symmetrized("P", self.P))

    def __len__(self) -> int:
        return len(self.P)

    def P_at(self, i):
        """P at step i >= 0 (int or integer array); past the end the last holds."""
        last = len(self.P) - 1
        return self.P[min(i, last) if isinstance(i, int) else np.minimum(i, last)]

    def K_at(self, i):
        """K at step i >= 0 (int or integer array); past the end the last holds."""
        return self.K[np.minimum(i, len(self.K) - 1)]


def riccati_map(P, A, B, Q, R):
    """One Riccati difference step for one model P, A (n, n):
    A'PA - A'PB (R + B'PB)^-1 B'PA + Q, multiplied with `ndarray.dot` (the
    same floats as `@` at about half the call cost). The solve is
    `np.linalg.solve`'s own gufunc (`_gesv`), the same floats, but a singular
    R + B'PB gives NaN (and a RuntimeWarning), not LinAlgError; `solve_dare`
    checks for it."""
    BtP = B.T.dot(P)
    M = BtP.dot(A)
    G = _gesv(R + BtP.dot(B), M, signature="dd->d")
    return A.T.dot(P).dot(A) - M.T.dot(G) + Q


def solve_dare(A, B, Q, R, tol: float = 1e-10, max_iter: int = 100_000, P0=None):
    """Fixed point of the Riccati difference iteration for one model A (n, n),
    symmetrized each step.

    Converges linearly for stabilizable (A, B); P0 warm-starts the iteration
    (defaults to Q). Done once the Frobenius norm of a step is at most tol.
    Raises ValueError at the first map that turns non-finite (a singular
    R + B'PB, say), or when the step does not reach tol within max_iter.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    P = Q if P0 is None else np.asarray(P0, dtype=float)
    for _ in range(max_iter):
        P_next = riccati_map(P, A, B, Q, R)
        P_next = 0.5 * (P_next + P_next.T)
        step = (P_next - P).ravel()
        norm = math.sqrt(np.vecdot(step, step))
        if norm <= tol:
            return P_next
        if not math.isfinite(norm) and not np.isfinite(P_next).all():
            raise ValueError("Riccati map turned non-finite")
        P = P_next
    raise ValueError(f"Riccati iteration did not converge within {max_iter} steps")


class DareError(ValueError):
    """A frozen DARE without a stabilizing solution; `models` indexes the
    stack (the steps, when `backward_riccati` raises it)."""

    def __init__(self, message: str, models: np.ndarray):
        super().__init__(message)
        self.models = models


def doubling_dare(A, B, Q, R):
    """Stabilizing DARE solutions for a stack A (L,n,n) and one B (n,m) by SDA.

    From G = B R^-1 B', H = Q, each doubling with W = I + G H sets
    A <- A W^-1 A, G <- G + A W^-1 G A', H <- H + A' H W^-1 A (H symmetrized),
    so H is the Riccati solution over twice the previous horizon. Stops once
    max|dH| <= 1e-13 max|H| for every model; raises DareError naming the
    models that turn non-finite or have not converged after 64 doublings.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    G = np.broadcast_to(B @ np.linalg.solve(R, B.T), A.shape).copy()
    H = np.broadcast_to(Q, A.shape).copy()
    eye = np.eye(A.shape[-1])
    for _ in range(64):
        W = eye + G @ H
        W_A, W_G = np.split(np.linalg.solve(W, np.concatenate((A, G), axis=-1)), 2, axis=-1)
        A_t = A.swapaxes(-1, -2)
        H_next = H + A_t @ H @ W_A
        H_next = 0.5 * (H_next + H_next.swapaxes(-1, -2))
        G = G + A @ W_G @ A_t
        A = A @ W_A
        bad = np.flatnonzero(~np.all(np.isfinite(H_next), axis=(1, 2)))
        if bad.size:
            raise DareError(f"doubling DARE turned non-finite for model(s) {bad.tolist()}", bad)
        converged = np.max(np.abs(H_next - H), axis=(1, 2)) <= 1e-13 * np.max(
            np.abs(H_next), axis=(1, 2))
        H = H_next
        if converged.all():
            return H
    bad = np.flatnonzero(~converged)
    raise DareError(f"doubling DARE did not converge within 64 doublings for model(s) "
                    f"{bad.tolist()}", bad)


def lqr_gain(A, B, P, R):
    """Infinite-horizon feedback K = -(R + B'PB)^-1 B'PA, so u = K x; for one
    model or a stack A, P (L, n, n), giving K (L, m, n)."""
    BtP = B.T @ P
    return -np.linalg.solve(R + BtP @ B, BtP @ A)


def backward_riccati(A, B, costs: CostMatrices) -> TerminalSchedule:
    """Time-varying terminal weights over a model stack A (L, n, n) with the
    constant input matrix B (n, m).

    K(i) is the frozen DARE gain of model i; P is the backward closed-loop
    recursion anchored at the final frozen DARE solution. The last step and
    every step whose A differs from the next step's start a run. The last
    step is solved alone by `solve_dare` from Q; the changed steps take their
    `doubling_dare` solutions, from one batched call over exactly those steps.
    Each earlier step of a run (its A equal to the next step's bit for bit)
    is solved by `solve_dare` warm-started from the next step's solution,
    backward; once a step returns its start bit for bit, every earlier step
    of the run takes that same P. A constant-model sequence thus makes no
    doubling call and gives the same P and K as the plain warm-started chain.
    The gains, A_K and Q_K are computed for the whole stack at once. The P
    recursion then runs step by step (`closed_loop_step`); once a step's P
    equals the next step's bit for bit and the step before it has the same
    A_K and Q_K bit for bit, every step of that stretch of equal closed-loop
    terms takes that P, and the recursion resumes before the stretch. Raises
    DareError naming the step, before any Riccati map, when the last model
    is not stabilizable (a standstill, say) or a changed model has no
    stabilizing DARE solution; every other step shares its model with a
    later one of those. It raises DareError naming the first steps, before
    the P recursion, when a step's frozen closed loop A + B K is not stable
    (`_unstable_steps`): a DARE solution that is not stabilizing, such as
    P = 0 from Q = 0.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    L = len(A)
    if L == 0:
        raise ValueError("backward_riccati needs at least one model")
    Q, R = costs.Q, costs.R
    if not stabilizable(A[-1], B):
        raise DareError(f"unstabilizable model at step(s) [{L - 1}]: "
                        "no stabilizing frozen DARE solution", np.array([L - 1]))

    # Frozen DARE solution per step: the changed steps by doubling, the last
    # step from Q, then each run backward from its last step until the chain
    # reaches a fixed point.
    dare = np.empty_like(A)
    changed = np.flatnonzero(np.any(A[:-1] != A[1:], axis=(1, 2)))
    if changed.size:
        try:
            dare[changed] = doubling_dare(A[changed], B, Q, R)
        except DareError as exc:
            raise DareError(f"no stabilizing frozen DARE solution at step(s) "
                            f"{changed[exc.models].tolist()}", changed[exc.models]) from exc
    dare[L - 1] = solve_dare(A[L - 1], B, Q, R)
    heads = np.append(changed, L - 1)
    for first, head in zip(np.append(0, heads[:-1] + 1).tolist(), heads.tolist()):
        for i in range(head - 1, first - 1, -1):
            dare[i] = solve_dare(A[i], B, Q, R, P0=dare[i + 1])
            if (dare[i] == dare[i + 1]).all():
                dare[first:i] = dare[i]
                break

    K = lqr_gain(A[:-1], B, dare[:-1], R)
    A_K = A[:-1] + B @ K
    unstable = _unstable_steps(A_K)
    if unstable.size:
        raise DareError(f"no stabilizing frozen DARE solution at {unstable.size} step(s), first "
                        f"{unstable[:5].tolist()}: A + B K has an eigenvalue of modulus >= 1",
                        unstable)
    Q_K = Q + K.swapaxes(-1, -2) @ R @ K
    # first step of each stretch of equal closed-loop terms (A_K, Q_K)
    new = np.any((A_K[1:] != A_K[:-1]) | (Q_K[1:] != Q_K[:-1]), axis=(1, 2))
    start = np.maximum.accumulate(np.arange(L - 1) * np.append(True, new)).tolist()
    P = np.empty_like(A)
    P[L - 1] = dare[L - 1]
    i = L - 2
    while i >= 0:
        P[i] = closed_loop_step(P[i + 1], A_K[i], Q_K[i])
        # a P that repeats over equal terms repeats through the rest of the stretch
        s = start[i]
        if s < i and (P[i] == P[i + 1]).all():
            P[s:i] = P[i]
            i = s
        i -= 1
    return TerminalSchedule(P, K)


def _unstable_steps(A_K) -> np.ndarray:
    """Indices of the matrices of a stack A_K (L, n, n) with an eigenvalue of
    modulus at least STABLE_RADIUS. For n <= 3, by the Jury conditions on the
    characteristic polynomial z^3 + a2 z^2 + a1 z + a0 of A_K / STABLE_RADIUS,
    padded to 3 x 3 with zeros (zero eigenvalues): every root lies strictly
    inside the unit circle iff 1 + a2 + a1 + a0 > 0, 1 - a2 + a1 - a0 > 0 and
    1 - a0^2 > |a0 a2 - a1| (which implies |a0| < 1). These are products of
    (L,) arrays, far cheaper than a stacked eigvals, which serves a larger n."""
    L, n, _ = A_K.shape
    if n > 3:
        return np.flatnonzero(np.abs(np.linalg.eigvals(A_K)).max(axis=-1) >= STABLE_RADIUS)
    M = np.zeros((L, 3, 3))
    M[:, :n, :n] = A_K / STABLE_RADIUS
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M.transpose(1, 2, 0)
    minor = m11 * m22 - m12 * m21
    a2 = -(m00 + m11 + m22)
    a1 = minor + m00 * m22 - m02 * m20 + m00 * m11 - m01 * m10
    a0 = -(m00 * minor - m01 * (m10 * m22 - m12 * m20) + m02 * (m10 * m21 - m11 * m20))
    stable = ((1 + a2 + a1 + a0 > 0) & (1 - a2 + a1 - a0 > 0)
              & (1 - a0 * a0 > abs(a0 * a2 - a1)))
    return np.flatnonzero(~stable)


def closed_loop_step(P, A_K, Q_K):
    """One step of the backward recursion for one model, in 2-D products:
    A_K' P A_K + Q_K, symmetrized."""
    P_i = A_K.T.dot(P).dot(A_K) + Q_K
    return 0.5 * (P_i + P_i.T)


def recursion_residuals(schedule: TerminalSchedule, A, B, costs: CostMatrices):
    """Frobenius residuals of the backward recursion, re-checkable post hoc."""
    Q, R = costs.Q, costs.R
    res = []
    for i in range(len(schedule.P) - 1):
        K = schedule.K[i]
        A_K = A[i] + B @ K
        Q_K = Q + K.T @ R @ K
        residual = schedule.P[i] - (A_K.T @ schedule.P[i + 1] @ A_K + Q_K)
        res.append(float(np.linalg.norm(residual, ord="fro")))
    return res


def stabilizable(A, B) -> bool:
    """PBH test: rank [A - lam I, B] = n at every eigenvalue |lam| >= 1 - 1e-9,
    counting singular values above sigma_max * n * machine_eps * 1e3 (loose
    enough to ignore roundoff, tight enough to see the rank drop at
    standstill); False at standstill."""
    n = len(A)
    for lam in np.linalg.eigvals(A):
        if abs(lam) < 1 - 1e-9:
            continue
        s = np.linalg.svd(np.hstack([A - lam * np.eye(n), B]), compute_uv=False)
        if np.sum(s > s[0] * n * np.finfo(float).eps * 1e3) < n:
            return False
    return True
