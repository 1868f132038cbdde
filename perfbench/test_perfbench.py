"""Self-tests of the benchmark's pure pieces, plus a smoke run per workload.

    python3 -m pytest -q perfbench

The smoke runs execute each workload once untraced and once traced (about
ninety seconds on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gate import check_run, check_terminal_set
from layers import PER_LAYER, PassSpans, layer_metrics
from run import beyond, fail_frac, percentile
from tracing import Target, Tracer, self_times
from workloads import DEFAULT_SEED, WORKLOADS, Scene, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics ----------------------------------------------------------------

def test_percentile_interpolates_between_closest_ranks():
    xs = list(range(1, 21))  # 1..20
    assert percentile(xs, 50) == pytest.approx(10.5)
    assert percentile(xs, 95) == pytest.approx(19.05)
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_beyond_p95_leaves_thirty_of_six_hundred_samples():
    xs = [float(i) for i in range(600)]
    assert beyond(xs, percentile(xs, 95)) == 30
    assert beyond([1.0, 1.0, 1.0], percentile([1.0, 1.0, 1.0], 95)) == 0


# -- spans ---------------------------------------------------------------------

def test_self_time_subtracts_only_the_covered_part_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 2.5, 4.0, 0, None],  # overlaps a: [1, 4] covered once
        ["leaf", 1.5, 2.0, 1, None],
        ["late", 9.0, 12.0, 0, None],  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 1.5, 1.5, 0.5, 3.0])


def test_tracer_records_nesting_and_observed_attributes():
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, lambda a, k, r: {"r": r})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.spans[1][4] == {"r": 2}
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_absent_target_is_reported_and_its_metrics_omitted(tmp_path):
    tracer = Tracer("t")
    absent = tracer.install([
        Target("riccati.riccati_map", "ltvmpc_no_such_module", "riccati_map"),
        Target("json.gone", "json", "no_such_function"),
        Target("qp.QpSolver.solve", "json", "JSONDecoder.no_such_method"),
    ])
    tracer.uninstall()
    assert absent == ["riccati.riccati_map", "json.gone", "qp.QpSolver.solve"]
    metrics = layer_metrics([PassSpans([])], set(absent))
    assert "riccati.riccati_map_calls" not in metrics
    assert "qp.solve_calls" not in metrics and "qp.useful_solve_ratio" not in metrics
    assert metrics["riccati.solve_dare_calls"] == (0, "count")


def test_install_patches_and_uninstall_restores():
    import json as target_module
    original = target_module.dumps
    tracer = Tracer("t")
    assert tracer.install([Target("json.dumps", "json", "dumps")]) == []
    assert target_module.dumps("x") == '"x"'
    tracer.uninstall()
    assert target_module.dumps is original
    assert [s[0] for s in tracer.spans] == ["json.dumps"]


# -- failure counting ------------------------------------------------------------

_LOG_HEADER = ("k,t,x,y,theta,x_ref,y_ref,theta_ref,e1,e2,e3,v,omega,v_ref,omega_ref,"
               "stage_cost,terminal_cost,qp_status,slack,min_dist\n")


def _log_row(k, status, v=0.5):
    return f"{k},0,{k},0,0,0,0,0,0,0,0,{v},0,0.5,0,0,0,{status},0,inf\n"


def test_halt_counts_every_unrun_step_as_failed(tmp_path):
    cfg = {"name": "scn", "duration": 5, "mpc": {"N": 10}}
    (tmp_path / "scn_log.csv").write_text(
        _LOG_HEADER + _log_row(0, "optimal") + _log_row(1, "max_iter")
        + _log_row(2, "infeasible"))
    (tmp_path / "scn_metrics.json").write_text('{"converged": false, "halted": true}')
    scene = Scene("scn", "run", "")
    failures, attempted, failed = check_run(scene, cfg, tmp_path, 1)
    assert (attempted, failed) == (5, 2 + 2)  # two non-optimal, two never run
    assert fail_frac(attempted, failed) == pytest.approx(0.8)
    assert any("halted after 3 of 5" in f for f in failures)
    assert any("exit code 1" in f for f in failures)


def test_input_bound_and_missing_log_fail(tmp_path):
    cfg = {"name": "scn", "duration": 2, "mpc": {"u_max": [1.0, 1.0]}}
    scene = Scene("scn", "run", "")
    assert check_run(scene, cfg, tmp_path, None)[1:] == (2, 2)
    (tmp_path / "scn_log.csv").write_text(
        _LOG_HEADER + _log_row(0, "optimal") + _log_row(1, "optimal", v=1.0 + 1e-6))
    (tmp_path / "scn_metrics.json").write_text('{"converged": true, "halted": false}')
    failures, attempted, failed = check_run(scene, cfg, tmp_path, 0)
    assert (attempted, failed) == (2, 0)
    assert failures == ["scn: input bound violated at step 1"]


def test_terminal_levels_fail_per_vertex_check(tmp_path):
    cfg = {"name": "lv", "duration": 2, "mpc": {"N": 1}}
    (tmp_path / "lv_terminal_set.csv").write_text("i,c\n0,1.0\n1,2.0\n2,3.0\n3,0.5\n")
    assert check_terminal_set(cfg, tmp_path, 1, [True, False, True, True]) == (
        ["lv: exit code 1"], 4, 1)
    assert check_terminal_set(cfg, tmp_path, 0, [True, True]) == ([], 4, 2)
    assert check_terminal_set(cfg, tmp_path, 0, None) == ([], 4, 0)


# -- workloads ---------------------------------------------------------------------

def test_default_seed_reproduces_the_shipped_configs_byte_for_byte():
    for workload in WORKLOADS:
        for scene in generate(workload, DEFAULT_SEED):
            shipped = (ROOT / "configs" / f"{scene.stem}.yaml").read_text()
            if workload == "track_n50":
                shipped = shipped.replace("\n  N: 10\n", "\n  N: 50\n")
            assert scene.text == shipped, scene.stem


def test_seeds_are_reproducible_and_perturb():
    assert generate("avoid_scenes", 7) == generate("avoid_scenes", 7)
    assert generate("avoid_scenes", 7) != generate("avoid_scenes", 8)
    assert generate("track_n50", 7) != generate("track_n50", DEFAULT_SEED)
    assert generate("terminal_levels", 7) == generate("terminal_levels", DEFAULT_SEED)
    with pytest.raises(ValueError):
        generate("no_such_workload", 1)


def test_benchmark_json_names_every_reported_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    expected = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    expected["trace.overhead_frac"] = "ratio"
    assert per_layer == expected


# -- smoke runs --------------------------------------------------------------------

def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


@pytest.fixture(scope="module")
def smoke():
    """Untraced and traced one-second runs of every workload on the default seed."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(["--workload", workload, "--seed", str(DEFAULT_SEED),
                         "--seconds", "1", "--trace", str(trace)])
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(smoke, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        names = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for m in smoke[workload, 0]["metrics"].values():
        assert m["value"] > 0


def test_traced_baseline_confirms_the_workload_design(smoke):
    def layer(workload, name):
        return smoke[workload, 1]["metrics"][name]["value"]

    # Per scene: 654 Riccati maps per avoidance scene against ~122k on
    # track_n50. Summed over the five scenes the share is about 2.7%.
    n_scenes = len(generate("avoid_scenes", DEFAULT_SEED))
    assert layer("avoid_scenes", "riccati.riccati_map_calls") / n_scenes < 0.01 * layer(
        "track_n50", "riccati.riccati_map_calls")
    assert layer("terminal_levels", "qp.solve_calls") == 0
    assert layer("avoid_scenes", "qp.useful_solve_ratio") < 1
    assert layer("track_n50", "qp.useful_solve_ratio") == 1
    assert layer("track_n50", "avoidance.rows_emitted") == 0
    assert layer("terminal_levels", "terminal_set.levels") == 611


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "avoid_scenes", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
