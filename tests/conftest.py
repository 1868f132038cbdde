import math
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import study
from ltvmpc import cli, qp, terminal_set
from ltvmpc.mpc import MpcController, condense_qp, horizon_maps
from ltvmpc.qp import QpSolution, QpSolver, kkt_residuals

from oracles import input_space_min_eig


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def map_step_residual(ctl, step, k):
    """KKT residual of a step that took the horizon maps: the plan G e0,
    tied bit for bit to the applied input and the predicted errors (inf if
    it is not), with zero multipliers in its condensed QP."""
    e0 = step.predicted_errors[0]
    G, F = horizon_maps([k], ctl.ref, ctl.A, ctl.B, ctl.schedule, ctl.costs, ctl.cfg)
    u_plan = G[0] @ e0
    if not (np.array_equal(step.u_feedback, u_plan[:2])
            and np.array_equal(step.predicted_errors[1:].ravel(), F[0] @ e0)):
        return math.inf
    problem, _, _ = condense_qp(e0, k, ctl.ref, ctl.A, ctl.B, ctl.schedule, ctl.costs,
                                ctl.cfg)
    plan = QpSolution(u_plan, np.zeros(0), np.zeros(problem.A_in.shape[0]), "optimal")
    return max(kkt_residuals(problem, plan))


@pytest.fixture(scope="session")
def shipped(tmp_path_factory):
    """Every shipped output, written once by `study.write` through
    `ltvmpc.cli.main` into `out` as out/<config>/ is, with each command's wall
    time by config (`seconds`), the level search, vertex check and convexity
    test `calls`, and of the `run` and `compare-lqr` commands (a sweep re-runs
    tracking's scene) the KKT `residuals` of each optimal solve and each maps
    step, and by config the `input_space_min_eig` of every problem solved
    (`reduced`)."""
    out = tmp_path_factory.mktemp("shipped")
    seconds, residuals, calls, reduced = {}, [], Counter(), {}
    solve, control_step, main = QpSolver.solve, MpcController.control_step, cli.main

    def certified(eigs):
        def certified_solve(self, p, x0=None):
            eigs.append(input_space_min_eig(p))
            sol = solve(self, p, x0)
            if sol.status == "optimal":
                residuals.append(sol.kkt_residual)
            return sol
        return certified_solve

    def certified_step(self, z, k, obstacles=()):
        solved = len(residuals)
        step = control_step(self, z, k, obstacles)
        if self.cfg.avoidance == "off" and len(residuals) == solved:
            residuals.append(map_step_residual(self, step, k))
        return step

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    def timed_main(argv):
        name = Path(argv[-1]).name
        with pytest.MonkeyPatch.context() as mp:
            if argv[0] != "sweep":
                mp.setattr(QpSolver, "solve", certified(reduced.setdefault(name, [])))
                mp.setattr(MpcController, "control_step", certified_step)
            t0 = time.perf_counter()
            code = main(argv)
            seconds[name] = time.perf_counter() - t0
        return code

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "main", timed_main)
        mp.setattr(terminal_set, "shrink_level", counted(terminal_set.shrink_level))
        mp.setattr(cli, "vertices_feasible", counted(cli.vertices_feasible))
        mp.setattr(qp, "_reduced_min_eig", counted(qp._reduced_min_eig))
        code = study.write(out)
    return SimpleNamespace(out=out, code=code, seconds=seconds, residuals=residuals,
                           calls=calls, reduced=reduced)
