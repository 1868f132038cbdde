"""The wrapped targets and the metrics computed from their spans.

BOUNDARY targets are the request boundaries timed in the untraced run: the
controller set-up, one control step, and one terminal level (the operation
of the terminal-set workload), plus the vertex check whose result decides
whether a level failed. LAYER targets add one span per call into each
library layer for the traced run. Span names are `caller_module.name`.
"""

from __future__ import annotations

import math
import statistics

from tracing import Target, self_times


def _step_attrs(args, kwargs, step):
    return {"slack": float(getattr(step, "slack_used", 0.0)) > 0.0,
            "active": int(getattr(step, "active_avoidance_rows", 0))}


def _level_search_attrs(args, kwargs, levels):
    # compute_c_schedule(schedule, cons, u_refs, c0=..., shrink=...)
    c0, shrink = kwargs.get("c0", 10.0), kwargs.get("shrink", 1.01)
    steps = sum(math.log(c0 / c) / math.log(shrink) for c, _ in levels)
    return {"levels": len(levels), "shrink_steps": steps}


def _qp_rows_attrs(args, kwargs, problem):
    return {"rows": int(problem.A_in.shape[0])}


def _solve_attrs(args, kwargs, sol):
    return {"status": sol.status, "kkt": float(sol.kkt_residual)}


def _rows_attrs(args, kwargs, rows):
    return {"rows": len(rows)}


def _vertex_attrs(args, kwargs, ok):
    return {"ok": bool(ok)}


BOUNDARY = (
    Target("sim.build_controller", "ltvmpc.sim", "build_controller"),
    Target("cli.build_controller", "ltvmpc.cli", "build_controller"),
    Target("mpc.control_step", "ltvmpc.mpc", "MpcController.control_step", _step_attrs),
    Target("terminal_set.shrink_level", "ltvmpc.terminal_set", "shrink_level"),
    Target("cli.vertices_feasible", "ltvmpc.cli", "vertices_feasible", _vertex_attrs),
)

LAYER = BOUNDARY + (
    Target("cli.load_config", "ltvmpc.cli", "load_config"),
    Target("cli.compute_c_schedule", "ltvmpc.cli", "compute_c_schedule",
           _level_search_attrs),
    Target("cli.write_log_csv", "ltvmpc.cli", "write_log_csv"),
    Target("cli.compute_metrics", "ltvmpc.cli", "compute_metrics"),
    Target("figures.write_run_bundle", "ltvmpc.figures", "write_run_bundle"),
    Target("sim.build_reference", "ltvmpc.sim", "build_reference"),
    Target("sim.linearize", "ltvmpc.sim", "linearize"),
    Target("sim.backward_riccati", "ltvmpc.sim", "backward_riccati"),
    Target("sim.step_discrete", "ltvmpc.sim", "step_discrete"),
    Target("riccati.solve_dare", "ltvmpc.riccati", "solve_dare"),
    Target("riccati.riccati_map", "ltvmpc.riccati", "riccati_map"),
    Target("mpc.build_qp", "ltvmpc.mpc", "build_qp", _qp_rows_attrs),
    Target("qp.QpSolver.solve", "ltvmpc.qp", "QpSolver.solve", _solve_attrs),
    Target("avoidance.state_space_halfplane", "ltvmpc.avoidance", "state_space_halfplane"),
    Target("avoidance.velocity_obstacle", "ltvmpc.avoidance", "velocity_obstacle"),
    Target("avoidance.tangent_halfplane", "ltvmpc.avoidance", "tangent_halfplane"),
    Target("avoidance.position_rows", "ltvmpc.avoidance", "position_rows", _rows_attrs),
    Target("avoidance.velocity_rows", "ltvmpc.avoidance", "velocity_rows", _rows_attrs),
)

_CONSTRUCT = ("avoidance.state_space_halfplane", "avoidance.velocity_obstacle",
              "avoidance.tangent_halfplane")
_ROWS = ("avoidance.position_rows", "avoidance.velocity_rows")


class PassSpans:
    """The spans of one pass grouped by name, with self times."""

    def __init__(self, spans):
        self.by_name = {}
        for s, self_s in zip(spans, self_times(spans)):
            self.by_name.setdefault(s[0], []).append((s[2] - s[1], self_s, s[4] or {}))

    def calls(self, *names) -> int:
        return sum(len(self.by_name.get(n, ())) for n in names)

    def total(self, *names) -> float:
        return sum(d for n in names for d, _, _ in self.by_name.get(n, ()))

    def self_total(self, name) -> float:
        return sum(s for _, s, _ in self.by_name.get(name, ()))

    def durations(self, name) -> list:
        return [d for d, _, _ in self.by_name.get(name, ())]

    def attrs(self, name) -> list:
        return [a for _, _, a in self.by_name.get(name, ())]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _kkt_max(p: PassSpans) -> float:
    vals = [a["kkt"] for a in p.attrs("qp.QpSolver.solve")
            if a["status"] == "optimal" and math.isfinite(a["kkt"])]
    return max(vals, default=0.0)


# name -> (unit, source spans, value of one pass). A metric whose source
# target is absent is reported absent. All are medians over traced passes.
PER_LAYER = {
    "riccati.backward_riccati_s": ("s", ("sim.backward_riccati",),
                                   lambda p: p.total("sim.backward_riccati")),
    "riccati.solve_dare_s": ("s", ("riccati.solve_dare",),
                             lambda p: p.total("riccati.solve_dare")),
    "riccati.solve_dare_calls": ("count", ("riccati.solve_dare",),
                                 lambda p: p.calls("riccati.solve_dare")),
    "riccati.riccati_map_calls": ("count", ("riccati.riccati_map",),
                                  lambda p: p.calls("riccati.riccati_map")),
    "terminal_set.compute_c_schedule_s": ("s", ("cli.compute_c_schedule",),
                                          lambda p: p.total("cli.compute_c_schedule")),
    "terminal_set.levels": ("count", ("cli.compute_c_schedule",),
                            lambda p: sum(a["levels"] for a in p.attrs("cli.compute_c_schedule"))),
    "terminal_set.shrink_steps": ("count", ("cli.compute_c_schedule",),
                                  lambda p: sum(a["shrink_steps"]
                                                for a in p.attrs("cli.compute_c_schedule"))),
    "qp.solve_s": ("s", ("qp.QpSolver.solve",), lambda p: p.total("qp.QpSolver.solve")),
    "qp.solve_calls": ("count", ("qp.QpSolver.solve",),
                       lambda p: p.calls("qp.QpSolver.solve")),
    "qp.useful_solve_ratio": ("ratio", ("qp.QpSolver.solve", "mpc.control_step"),
                              lambda p: _ratio(p.calls("mpc.control_step"),
                                               p.calls("qp.QpSolver.solve"))),
    "qp.nonoptimal": ("count", ("qp.QpSolver.solve",),
                      lambda p: sum(a["status"] != "optimal"
                                    for a in p.attrs("qp.QpSolver.solve"))),
    "qp.kkt_residual_max": ("1", ("qp.QpSolver.solve",), _kkt_max),
    "mpc.build_qp_s": ("s", ("mpc.build_qp",), lambda p: p.total("mpc.build_qp")),
    "mpc.qp_in_rows": ("rows", ("mpc.build_qp",),
                       lambda p: _ratio(sum(a["rows"] for a in p.attrs("mpc.build_qp")),
                                        p.calls("mpc.build_qp"))),
    "mpc.control_step_self_s": ("s", ("mpc.control_step",),
                                lambda p: p.self_total("mpc.control_step")),
    "mpc.slack_steps": ("count", ("mpc.control_step",),
                        lambda p: sum(a["slack"] for a in p.attrs("mpc.control_step"))),
    "mpc.active_avoidance_rows": ("count", ("mpc.control_step",),
                                  lambda p: sum(a["active"]
                                                for a in p.attrs("mpc.control_step"))),
    "avoidance.construct_s": ("s", _CONSTRUCT, lambda p: p.total(*_CONSTRUCT)),
    "avoidance.rows_s": ("s", _ROWS, lambda p: p.total(*_ROWS)),
    "avoidance.rows_emitted": ("count", _ROWS,
                               lambda p: sum(a["rows"] for n in _ROWS for a in p.attrs(n))),
    "dynamics.build_reference_s": ("s", ("sim.build_reference",),
                                   lambda p: p.total("sim.build_reference")),
    "dynamics.linearize_calls": ("count", ("sim.linearize",),
                                 lambda p: p.calls("sim.linearize")),
    "dynamics.step_discrete_s": ("s", ("sim.step_discrete",),
                                 lambda p: p.total("sim.step_discrete")),
    "dynamics.step_discrete_calls": ("count", ("sim.step_discrete",),
                                     lambda p: p.calls("sim.step_discrete")),
    "sim.write_log_csv_s": ("s", ("cli.write_log_csv",),
                            lambda p: p.total("cli.write_log_csv")),
    "figures.write_run_bundle_s": ("s", ("figures.write_run_bundle",),
                                   lambda p: p.total("figures.write_run_bundle")),
    "sim.compute_metrics_s": ("s", ("cli.compute_metrics",),
                              lambda p: p.total("cli.compute_metrics")),
    "cli.load_config_s": ("s", ("cli.load_config",), lambda p: p.total("cli.load_config")),
}


def layer_metrics(passes, absent) -> dict:
    """Median over traced passes of every per-layer metric whose sources exist."""
    out = {}
    for name, (unit, sources, value) in PER_LAYER.items():
        if any(s in absent for s in sources):
            continue
        out[name] = (statistics.median(value(p) for p in passes), unit)
    return out
