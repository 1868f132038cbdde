"""Terminal-cost design: DARE fixed point, backward schedule, and the exact
cost-to-go decrease identity the whole stability argument leans on."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ltvmpc import riccati
from ltvmpc.cli import load_config
from ltvmpc.dynamics import input_matrix, linearize
from ltvmpc.riccati import (CostMatrices, TerminalSchedule, _unstable_steps, backward_riccati,
                            doubling_dare, lqr_gain, recursion_residuals, riccati_map,
                            solve_dare, stabilizable)
from ltvmpc.sim import build_controller

import oracles
from oracles import (backward_riccati_steps, controllability_rank, doubling_dare_two_solves,
                     solve_dare_step)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


B = input_matrix(0.1)


def tracking_model(v_r, w_r, T=0.1):
    return linearize((v_r, w_r), T)


def sinusoid_models(n=100, T=0.1):
    t = np.arange(n) * T
    inputs = []
    for k in range(n):
        v_r = math.hypot(0.5, 0.5 * math.cos(0.5 * t[k]))
        w_r = (0.5 * -0.25 * math.sin(0.5 * t[k])) / v_r**2
        inputs.append((v_r, w_r))
    return linearize(inputs, T)


def constant_models(v_r, w_r, n):
    return np.repeat(tracking_model(v_r, w_r)[None], n, axis=0)


def test_cost_matrices_validate():
    with pytest.raises(ValueError):
        CostMatrices(np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]), np.eye(2))
    with pytest.raises(ValueError):
        CostMatrices(np.eye(3), np.diag([1.0, 0.0]))  # R must be PD
    CostMatrices(np.diag([1.0, 1.0, 0.0]), np.eye(2))  # PSD Q is fine


def test_weights_enter_exactly_symmetric():
    # Q, R and each P within 1e-10 of symmetric are stored as 0.5 (M + M');
    # an exactly symmetric one is kept as it is, one further off is rejected
    skew, far = np.zeros((3, 3)), np.zeros((3, 3))
    skew[0, 1], far[0, 1] = 1e-11, 2e-10
    Q = np.diag([1.0, 1.0, 0.5]) + skew
    costs = CostMatrices(Q, np.eye(2))
    assert np.array_equal(costs.Q, 0.5 * (Q + Q.T)) and costs.Q[0, 1] == 5e-12
    P = np.stack([np.eye(3), np.eye(3) + skew])
    sched = TerminalSchedule(P, np.zeros((1, 2, 3)))
    assert np.array_equal(sched.P, 0.5 * (P + P.mT)) and sched.P[1, 1, 0] == 5e-12
    P_sym = np.stack([np.eye(3), 2.0 * np.eye(3)])
    assert TerminalSchedule(P_sym, np.zeros((1, 2, 3))).P is P_sym
    with pytest.raises(ValueError, match=r"Q must be symmetric \(within 1e-10\)"):
        CostMatrices(np.diag([1.0, 1.0, 0.5]) + far, np.eye(2))
    with pytest.raises(ValueError, match=r"P must be symmetric \(within 1e-10\)"):
        TerminalSchedule(P_sym + far, np.zeros((1, 2, 3)))


def test_unstable_closed_loops_match_eigenvalue_moduli(rng):
    # the Jury conditions flag exactly the matrices with an eigenvalue of
    # modulus >= 1 - 1e-9, for n = 1, 2, 3 (padded) and the eigvals path
    for n in (1, 2, 3, 4):
        A = rng.normal(size=(4000, n, n)) * rng.uniform(0.2, 1.2, size=(4000, 1, 1))
        radius = np.abs(np.linalg.eigvals(A)).max(axis=-1)
        assert 0.1 < np.mean(radius >= 1.0) < 0.9
        flagged = np.zeros(len(A), dtype=bool)
        flagged[_unstable_steps(A)] = True
        clear = np.abs(radius - (1.0 - 1e-9)) > 1e-9
        assert np.array_equal(flagged[clear], (radius >= 1.0 - 1e-9)[clear])
    # the unicycle model's own unit eigenvalue, as with Q = 0 (K = 0), is unstable
    assert _unstable_steps(tracking_model(0.5, 0.3)[None]).tolist() == [0]


def test_scalar_dare_gives_golden_ratio():
    one = np.eye(1)
    P = solve_dare(one, one, one, one)
    assert abs(P[0, 0] - GOLDEN) <= 1e-6
    K = lqr_gain(one, one, P, one)
    assert abs(K[0, 0] - (-(GOLDEN - 1.0))) <= 1e-6  # -p/(p+1) = 1 - phi


def test_dare_deadbeat_plant_collapses_to_q():
    A = np.zeros((3, 3))
    B = np.array([[-0.1, 0], [0, 0], [0, -0.1]])
    P = solve_dare(A, B, np.eye(3), np.eye(2))
    assert np.allclose(P, np.eye(3), atol=1e-12)


def test_dare_matches_scipy_and_residual():
    A = tracking_model(1.0, 0.5)
    Q, R = np.eye(3), np.eye(2)
    P = solve_dare(A, B, Q, R)
    res = np.linalg.norm(P - riccati_map(P, A, B, Q, R))
    assert res <= 1e-9
    P_ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
    assert np.max(np.abs(P - P_ref)) <= 1e-6
    assert np.min(np.linalg.eigvalsh(P)) > 0


def test_dare_insensitive_to_initialization():
    A = tracking_model(0.7, -0.3)
    Q, R = np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05])
    P1 = solve_dare(A, B, Q, R, P0=Q)
    P2 = solve_dare(A, B, Q, R, P0=10.0 * np.eye(3))
    assert np.max(np.abs(P1 - P2)) <= 1e-7


def test_dare_fails_loudly_when_uncontrollable():
    A = tracking_model(0.0, 0.0)
    with pytest.raises(ValueError, match=r"within 20000 steps"):
        solve_dare(A, B, np.eye(3), np.eye(2), max_iter=20_000)


@pytest.mark.filterwarnings("ignore:invalid value encountered in solve:RuntimeWarning")
def test_singular_map_fails_on_the_first_map(monkeypatch):
    # R + B'PB = 0 at P = Q: R is singular and B'QB vanishes (B has no second
    # row), so the first map's solve gives NaN; R bypasses CostMatrices
    A = tracking_model(1.0, 0.5)
    Q, R = np.diag([0.0, 1.0, 0.0]), np.zeros((2, 2))
    maps = count_calls(monkeypatch, "riccati_map")
    with pytest.raises(ValueError, match="Riccati map turned non-finite"):
        solve_dare(A, B, Q, R)
    assert maps == [1]


def test_gain_stabilizes_closed_loop():
    assert np.allclose(lqr_gain(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1)), 0.0)
    A = tracking_model(1.0, 0.5)
    P = solve_dare(A, B, np.eye(3), np.eye(2))
    K = lqr_gain(A, B, P, np.eye(2))
    rho = np.max(np.abs(np.linalg.eigvals(A + B @ K)))
    assert rho < 1.0


def test_backward_schedule_constant_model_is_stationary():
    models = constant_models(1.0, 0.5, 40)
    costs = CostMatrices(np.eye(3), np.eye(2))
    sched = backward_riccati(models, B, costs)
    assert sched.P.shape == (40, 3, 3) and sched.K.shape == (39, 2, 3)
    P_end = sched.P[-1]
    for P in sched.P:
        assert np.max(np.abs(P - P_end)) <= 1e-8


def test_backward_schedule_single_step():
    models = constant_models(1.0, 0.5, 1)
    sched = backward_riccati(models, B, CostMatrices(np.eye(3), np.eye(2)))
    assert len(sched.P) == 1 and len(sched.K) == 0
    assert np.allclose(sched.P[0], solve_dare(models[0], B, np.eye(3), np.eye(2)),
                       atol=1e-8)


def test_backward_schedule_recursion_residuals():
    models = sinusoid_models()
    costs = CostMatrices(np.eye(3), np.eye(2))
    sched = backward_riccati(models, B, costs)
    assert np.max(recursion_residuals(sched, models, B, costs)) <= 1e-9
    for P in sched.P:
        assert np.max(np.abs(P - P.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(P)) > 0


def test_exact_decrease_identity(rng):
    models = sinusoid_models()
    costs = CostMatrices(np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05]))
    sched = backward_riccati(models, B, costs)
    X = rng.normal(size=(1000, 3))
    for i in range(len(sched.K)):
        A_K = models[i] + B @ sched.K[i]
        Q_K = costs.Q + sched.K[i].T @ costs.R @ sched.K[i]
        lhs = np.einsum("ij,jk,ik->i", X, sched.P[i] - A_K.T @ sched.P[i + 1] @ A_K, X)
        rhs = np.einsum("ij,jk,ik->i", X, Q_K, X)
        norms = np.einsum("ij,ij->i", X, X)
        assert np.max(np.abs(lhs - rhs) / norms) <= 1e-9


def test_stage_and_terminal_bounds(rng):
    models = sinusoid_models(50)
    costs = CostMatrices(np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05]))
    sched = backward_riccati(models, B, costs)
    lam_min_q = np.min(np.linalg.eigvalsh(costs.Q))
    lam_max_p = max(np.max(np.linalg.eigvalsh(P)) for P in sched.P)
    X = rng.normal(size=(200, 3))
    for x in X:
        n2 = float(x @ x)
        for i in (0, len(sched.K) // 2, len(sched.K) - 1):
            u = sched.K[i] @ x
            stage = 0.5 * (x @ costs.Q @ x + u @ costs.R @ u)
            assert stage >= 0.5 * lam_min_q * n2 - 1e-12
            assert 0.5 * x @ sched.P[i] @ x <= 0.5 * lam_max_p * n2 + 1e-12


def count_calls(monkeypatch, name, module=riccati):
    """Wrap module.<name> (looked up as a module global) with a counter of the
    models it is called on: one entry per call, holding the stack length of a
    stacked (3-D) first argument and 1 otherwise, so sum() counts models."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(len(args[0]) if np.ndim(args[0]) == 3 else 1)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_doubling_dare_matches_scipy(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        L = int(rng.integers(1, 6))
        A = rng.normal(size=(L, n, n)) * rng.uniform(0.2, 0.6)
        B = rng.normal(size=(n, m))
        Fq = rng.normal(size=(n, n))
        Q = Fq @ Fq.T + 0.1 * np.eye(n)
        Fr = rng.normal(size=(m, m))
        R = Fr @ Fr.T + 0.1 * np.eye(m)
        P = doubling_dare(A, B, Q, R)
        assert P.shape == (L, n, n)
        assert np.array_equal(P, doubling_dare_two_solves(A, B, Q, R))
        for l in range(L):
            P_ref = scipy.linalg.solve_discrete_are(A[l], B, Q, R)
            assert np.max(np.abs(P[l] - P_ref)) <= 1e-9 * np.max(np.abs(P_ref))
            assert np.array_equal(P[l], P[l].T)


def test_doubling_dare_rejects_uncontrollable_and_non_finite():
    A = linearize([(1.0, 0.5), (0.0, 0.0), (1.0, 0.5)], 0.1)
    with pytest.raises(ValueError, match=r"model\(s\) \[1\]"):
        doubling_dare(A, B, np.eye(3), np.eye(2))
    A[2, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"non-finite for model\(s\) \[2\]"):
        doubling_dare(A, B, np.eye(3), np.eye(2))


def test_constant_model_chains_are_bit_identical_to_plain_warm_start(monkeypatch):
    controller, _ = build_controller(load_config(CONFIGS / "avoid_static_velocity.yaml").scenario)
    doublings = count_calls(monkeypatch, "doubling_dare")
    for models, B_models in ((controller.A, controller.B), (constant_models(1.0, 0.5, 40), B)):
        sched = backward_riccati(models, B_models, controller.costs)
        ref = backward_riccati_steps(models, B_models, controller.costs, doubling=False)
        assert len(sched.P) == len(ref.P) and len(sched.K) == len(ref.K)
        assert all(np.array_equal(a, b) for a, b in zip(sched.P, ref.P))
        assert all(np.array_equal(a, b) for a, b in zip(sched.K, ref.K))
    assert not doublings  # no model changes, so no doubling start


def test_sinusoid_schedule_close_to_plain_warm_start():
    models = sinusoid_models()
    costs = CostMatrices(np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05]))
    sched = backward_riccati(models, B, costs)
    ref = backward_riccati_steps(models, B, costs, doubling=False)
    assert max(np.max(np.abs(a - b)) for a, b in zip(sched.P, ref.P)) <= 1e-9
    assert max(np.max(np.abs(a - b)) for a, b in zip(sched.K, ref.K)) <= 1e-9


def test_doubling_start_needs_few_riccati_maps(monkeypatch):
    models = sinusoid_models(200)
    calls = count_calls(monkeypatch, "riccati_map")
    backward_riccati(models, B, CostMatrices(np.eye(3), np.eye(2)))
    # the plain warm-started chain needs about 188 maps per step
    assert sum(calls) <= len(models) + 200


def test_uncontrollable_changed_model_fails_before_any_riccati_map(monkeypatch):
    calls = count_calls(monkeypatch, "riccati_map")
    # a standstill at step 7, at the last step, and throughout
    for standstill, step in ((slice(7, 8), 7), (slice(19, 20), 19), (slice(None), 19)):
        models = sinusoid_models(20)
        models[standstill] = tracking_model(0.0, 0.0)
        with pytest.raises(ValueError, match=rf"step\(s\) \[{step}\]"):
            backward_riccati(models, B, CostMatrices(np.eye(3), np.eye(2)))
    assert not calls


def test_uncontrollable_but_stabilizable_last_model_is_solved():
    # the second state is uncontrollable but decays, so a stabilizing DARE exists
    A = np.repeat(np.diag([1.2, 0.5])[None], 4, axis=0)
    B_1 = np.array([[1.0], [0.0]])
    assert controllability_rank(A[-1], B_1) == 1 and stabilizable(A[-1], B_1)
    sched = backward_riccati(A, B_1, CostMatrices(np.eye(2), np.eye(1)))
    P_ref = scipy.linalg.solve_discrete_are(A[-1], B_1, np.eye(2), np.eye(1))
    assert np.max(np.abs(sched.P[-1] - P_ref)) <= 1e-9 * np.max(np.abs(P_ref))
    # unstable and uncontrollable second state: no stabilizing solution
    assert not stabilizable(np.diag([0.5, 1.2]), B_1)
    assert not stabilizable(tracking_model(0.0, 0.0), B)
    assert stabilizable(tracking_model(1.0, 0.5), B)


def test_rank_helper_on_degenerate_pairs():
    assert controllability_rank(np.eye(3), np.array([[-0.1, 0], [0, 0], [0, -0.1]])) == 2
    assert controllability_rank(tracking_model(0.0, 1.0), B) == 3


def config_stack(name, **mpc):
    """The model stack, B and costs that build_controller gives config `name`,
    with the MpcConfig fields in `mpc` replaced."""
    scn = load_config(CONFIGS / name).scenario
    controller, _ = build_controller(replace(scn, mpc=replace(scn.mpc, **mpc)))
    return controller.A, controller.B, controller.costs


def mixed_models():
    """Changed models with two long constant runs, at the start and in the
    middle, each ending at a changed model (its doubling-started step)."""
    models = sinusoid_models(420)
    models[:180] = models[179]
    models[200:380] = models[379]
    return models


def short_run_models():
    """Changed models with a 40-model constant run in the middle, too short
    for the closed-loop P to reach its fixed point there, and a constant tail
    on which it does: the recursion resumes before the tail's stretch and
    walks the short run's equal terms step by step."""
    models = np.concatenate((sinusoid_models(120), constant_models(1.0, 0.5, 150)))
    models[40:80] = models[79]
    return models


def fixed_tail_models():
    """Changed models, then a constant tail whose first model is one step
    before the step where the tail's closed-loop P first repeats (walking
    backward) over equal terms: the stretch of equal terms ends one step
    after P becomes fixed. The tail alone locates that step, since nothing
    before the tail changes the recursion over it."""
    tail = constant_models(1.0, 0.5, 200)
    costs = CostMatrices(np.eye(3), np.eye(2))
    ref = backward_riccati_steps(tail, B, costs)
    terms = [np.hstack((A + B @ K, costs.Q + K.T @ costs.R @ K)) for A, K in zip(tail, ref.K)]
    fixed = max(i for i in range(1, len(terms)) if np.array_equal(ref.P[i], ref.P[i + 1])
                and np.array_equal(terms[i - 1], terms[i]))
    return np.concatenate((sinusoid_models(30), tail[fixed - 1:]))


STACKS = {
    "track_n50": lambda: config_stack("tracking.yaml", N=50),
    "terminal_set": lambda: config_stack("terminal_set.yaml"),
    "lqr_comparison": lambda: config_stack("lqr_comparison.yaml"),
    **{p.stem: (lambda p=p: config_stack(p.name)) for p in sorted(CONFIGS.glob("avoid_*.yaml"))},
    "L1": lambda: (sinusoid_models(1), B, CostMatrices(np.eye(3), np.eye(2))),
    "L2": lambda: (sinusoid_models(2), B, CostMatrices(np.eye(3), np.eye(2))),
    "mixed": lambda: (mixed_models(), B,
                      CostMatrices(np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05]))),
    "short_run": lambda: (short_run_models(), B, CostMatrices(np.eye(3), np.eye(2))),
    "fixed_tail": lambda: (fixed_tail_models(), B, CostMatrices(np.eye(3), np.eye(2))),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_stacked_schedule_is_bit_identical_to_per_step_build(stack):
    A, B_s, costs = STACKS[stack]()
    sched = backward_riccati(A, B_s, costs)
    ref = backward_riccati_steps(A, B_s, costs)
    assert sched.P.shape == ref.P.shape and sched.K.shape == ref.K.shape
    assert np.array_equal(sched.P, ref.P) and np.array_equal(sched.K, ref.K)


def test_constant_run_stops_mapping_at_its_fixed_point(monkeypatch):
    A, B_s, costs = config_stack("avoid_face_to_face.yaml")
    ref_maps = count_calls(monkeypatch, "riccati_map_step", oracles)
    ref = backward_riccati_steps(A, B_s, costs)
    maps = count_calls(monkeypatch, "riccati_map")
    steps = count_calls(monkeypatch, "closed_loop_step")
    sched = backward_riccati(A, B_s, costs)
    # the per-step chain maps every step of the scene's one constant run: 344
    # maps for the last step from Q and one per earlier step; the chain stops
    # after 142 of those 310
    assert sum(ref_maps) == 654 and sum(maps) == 344 + 142
    # the P recursion stops at its own fixed point: 166 of 310 steps skipped
    assert len(sched.P) == 311 and sum(steps) == 310 - 166
    assert np.array_equal(sched.P, ref.P) and np.array_equal(sched.K, ref.K)


def test_each_constant_run_of_a_mixed_stack_stops_at_its_fixed_point(monkeypatch):
    models = mixed_models()
    chained = []  # the model of each solve_dare call: the last step's, then chain steps
    real = riccati.solve_dare

    def recorded(A, *args, **kwargs):
        chained.append(A)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(riccati, "solve_dare", recorded)
    backward_riccati(models, B, CostMatrices(np.eye(3), np.eye(2)))
    for run_model in (models[0], models[200]):
        # each run has 179 chain steps before its doubling-started step
        assert 0 < sum(np.array_equal(A, run_model) for A in chained) < 179


def linalg_solve_map(P, A, B, Q, R):
    """The Riccati map of one model as a 1-stack through `np.linalg.solve`."""
    P, A = P[None], A[None]
    BtP = B.T @ P
    M = BtP @ A
    G = np.linalg.solve(R + BtP @ B, M)
    return (A.swapaxes(-1, -2) @ P @ A - M.swapaxes(-1, -2) @ G + Q)[0]


def test_dare_and_stacked_gain_equal_per_model_references(rng, monkeypatch):
    A = sinusoid_models(12)
    Q, R = np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05])
    # starts at different distances converge after different numbers of maps;
    # the last start is not symmetric
    P0 = np.array([Q * (1.0 + rng.uniform(0.0, 50.0)) for _ in A])
    P0[-1] += np.triu(rng.uniform(0.0, 1.0, size=(3, 3)), 1)
    # the map's solve is np.linalg.solve's own gufunc: the same bits on 2x2
    # positive-definite systems with three right-hand sides
    for _ in range(200):
        F = rng.normal(size=(3, 3))
        P_r, A_r, B_r = F @ F.T + 0.1 * np.eye(3), rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
        R_r = np.diag(rng.uniform(0.01, 2.0, size=2))
        assert np.array_equal(riccati_map(P_r, A_r, B_r, Q, R_r),
                              linalg_solve_map(P_r, A_r, B_r, Q, R_r))
    assert np.array_equal(riccati_map(P0[-1], A[-1], B, Q, R),
                          linalg_solve_map(P0[-1], A[-1], B, Q, R))
    P = np.array([solve_dare(A_l, B, Q, R, P0=P0_l) for A_l, P0_l in zip(A, P0)])
    for l in range(len(A)):
        assert np.array_equal(P[l], solve_dare_step(A[l], B, Q, R, P0=P0[l]))
    assert np.array_equal(solve_dare(A[3], B, Q, R), solve_dare_step(A[3], B, Q, R, None))
    # the shipped line model from Q: 344 maps on 2-D arrays
    line, B_line, costs = config_stack("avoid_face_to_face.yaml")
    maps = count_calls(monkeypatch, "riccati_map")
    P_line = solve_dare(line[-1], B_line, costs.Q, costs.R)
    assert sum(maps) == len(maps) == 344
    assert np.array_equal(riccati_map(costs.Q, line[-1], B_line, costs.Q, costs.R),
                          linalg_solve_map(costs.Q, line[-1], B_line, costs.Q, costs.R))
    assert np.array_equal(P_line, solve_dare_step(line[-1], B_line, costs.Q, costs.R, None))
    K = lqr_gain(A, B, P, R)
    assert K.shape == (12, 2, 3)
    assert all(np.array_equal(K[l], lqr_gain(A[l], B, P[l], R)) for l in range(len(A)))


CHANGED_STACKS = {
    "sinusoid": lambda: (sinusoid_models(), B,
                         CostMatrices(np.diag([1.0, 1.0, 0.5]), np.diag([0.1, 0.05]))),
    "track_n50": STACKS["track_n50"],
}


@pytest.mark.parametrize("stack", sorted(CHANGED_STACKS))
def test_changed_steps_keep_their_doubling_solution(stack, monkeypatch):
    A, B_s, costs = CHANGED_STACKS[stack]()
    changed = np.flatnonzero(np.any(A[:-1] != A[1:], axis=(1, 2)))
    assert changed.size == len(A) - 1  # the model changes at every step
    maps = count_calls(monkeypatch, "riccati_map")
    sched = backward_riccati(A, B_s, costs)
    schedule_maps = len(maps)
    solve_dare(A[-1], B_s, costs.Q, costs.R)
    # the schedule's only Riccati maps are those of the last step's DARE from Q
    assert schedule_maps == len(maps) - schedule_maps > 0
    for i in changed:
        P_ref = scipy.linalg.solve_discrete_are(A[i], B_s, costs.Q, costs.R)
        K_ref = -np.linalg.solve(costs.R + B_s.T @ P_ref @ B_s, B_s.T @ P_ref @ A[i])
        assert np.max(np.abs(sched.K[i] - K_ref)) <= 1e-9, i
