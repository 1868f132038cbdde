"""Closed-loop benchmark of the ltvmpc CLI.

    python3 perfbench/run.py --workload track_n50 --seed 1 --seconds 30 --trace 0

Generates the workload's YAML configs from the seed, then runs passes until
`--seconds` have gone by. A pass is one fresh worker process that runs every
scene of the workload through `ltvmpc.cli.main`, one after another, with
BLAS pinned to one thread. With `--trace 0` every pass times only the
request boundaries and the run reports the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and the run reports the
per-layer metrics. Every pass's outputs go through the correctness gate.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it record
the environment and each metric with its unit and sample count. Run from a
checkout that holds `src/ltvmpc`; outputs go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from gate import check_run, check_terminal_set, compare_reference
from layers import PassSpans, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench_out"
RUN_BUDGET_S = 165.0  # a run must end within 180 s; no pass starts past this
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The operation whose latency step_ms_* report: a control step, or one
# terminal level on the workload that runs no control loop.
OP_SPAN = {"run": "mpc.control_step", "terminal-set": "terminal_set.shrink_level"}
SETUP_SPANS = ("sim.build_controller", "cli.build_controller")


def percentile(values, q: float) -> float:
    """q-th percentile, linear between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, threshold: float) -> int:
    """Number of samples strictly above a percentile's value."""
    return sum(v > threshold for v in values)


def fail_frac(attempted: int, failed: int) -> float:
    return failed / attempted


def write_scenes(workload: str, seed: int, work: Path) -> list:
    """Generated (scene, parsed config, config path) triples of a workload."""
    out = []
    for scene in generate(workload, seed):
        path = work / f"{scene.stem}.yaml"
        path.write_text(scene.text)
        out.append((scene, yaml.safe_load(scene.text), path))
    return out


def run_pass(scenes, work: Path, index: int, traced: bool, timeout: float) -> dict:
    """One worker process over every scene; returns its dumped spans document."""
    pass_dir = work / f"pass{index}"
    pass_dir.mkdir()
    plan = {"root": str(ROOT), "run_id": f"{work.name}-{index}", "traced": traced,
            "spans_out": str(pass_dir / "spans.json"),
            "commands": [[scene.command, "--config", str(path),
                          "--out", str(pass_dir / scene.stem), "--quiet"]
                         for scene, _, path in scenes]}
    plan_path = pass_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                   env={**os.environ, **PINNED}, stdout=sys.stderr, timeout=timeout,
                   check=True)
    doc = json.loads((pass_dir / "spans.json").read_text())
    doc["dir"], doc["traced"] = pass_dir, traced
    doc["by_name"] = PassSpans(doc.pop("spans"))
    return doc


def gate_pass(scenes, p: dict, against_reference: bool) -> tuple:
    """(failures, attempted, failed) over the scenes of one pass."""
    vertex_ok = (None if "cli.vertices_feasible" in p["absent"]
                 else [a["ok"] for a in p["by_name"].attrs("cli.vertices_feasible")])
    failures, attempted, failed = [], 0, 0
    for (scene, cfg, _), rc in zip(scenes, p["exit_codes"]):
        out = p["dir"] / scene.stem
        if scene.command == "run":
            f, a, n = check_run(scene, cfg, out, rc)
        else:
            f, a, n = check_terminal_set(cfg, out, rc, vertex_ok)
        if against_reference:
            f += compare_reference(scene, cfg, out, REFERENCE_DIR / f"{scene.stem}.csv")
        failures += f
        attempted += a
        failed += n
    return failures, attempted, failed


def end_to_end(scenes, plain: list, absent: set, notes: list) -> dict:
    """The user-facing metrics of the untraced passes: name -> (value, unit)."""
    out = {}
    if not all(s in absent for s in SETUP_SPANS):
        out["setup_s"] = (statistics.median(p["by_name"].total(*SETUP_SPANS)
                                            for p in plain), "s")
    out["run_s"] = (statistics.median(sum(p["command_s"]) for p in plain), "s")
    op = OP_SPAN[scenes[0][0].command]
    if op not in absent:
        # p50 over the samples of all passes. p95 per pass, then the median
        # over passes: the tail is where host preemption bursts land, and
        # one pass caught by a burst must not set it.
        per_pass = [[d * 1e3 for d in p["by_name"].durations(op)] for p in plain]
        p95s = [percentile(ms, 95) for ms in per_pass]
        out["step_ms_p50"] = (percentile([x for ms in per_pass for x in ms], 50), "ms")
        out["step_ms_p95"] = (statistics.median(p95s), "ms")
        notes.append(f"step_ms: {op}, {len(per_pass)} passes of "
                     f"{min(map(len, per_pass))} samples, at least "
                     f"{min(beyond(ms, p) for ms, p in zip(per_pass, p95s))} beyond p95 in each")
    out["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in plain), "MB")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenes = write_scenes(workload, seed, work)

    t0 = time.perf_counter()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        remaining = RUN_BUDGET_S - (time.perf_counter() - t0)
        passes.append(run_pass(scenes, work, len(passes), traced, remaining))
        elapsed = time.perf_counter() - t0
        longest = elapsed / len(passes) * 2  # a traced pass may take longer
        if len(passes) >= (2 if trace else 1) and (
                elapsed >= seconds or elapsed + longest > RUN_BUDGET_S):
            break

    failures, attempted, failed = [], 0, 0
    for p in passes:
        f, a, n = gate_pass(scenes, p, seed == DEFAULT_SEED)
        failures += f
        attempted += a
        failed += n

    absent = set().union(*(p["absent"] for p in passes))
    plain = [p for p in passes if not p["traced"]]
    notes = [f"passes: {len(plain)} untraced, {len(passes) - len(plain)} traced"]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = layer_metrics([p["by_name"] for p in traced], absent)
        overhead = (statistics.median(sum(p["command_s"]) for p in traced)
                    / statistics.median(sum(p["command_s"]) for p in plain) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        metrics = end_to_end(scenes, plain, absent, notes)
    notes.append(f"fail_frac: {failed}/{attempted} = {fail_frac(attempted, failed):.6g}")
    if absent:
        notes.append(f"absent targets: {', '.join(sorted(absent))}")
    return {"workload": workload, "seed": seed, "env": passes[0]["env"], "notes": notes,
            "failures": failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ltvmpc" / "cli.py").is_file():
        print(f"no ltvmpc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (WORK_DIR / args.workload / "result.json").write_text(json.dumps(result, indent=2))
    print("env: " + json.dumps(result["env"], sort_keys=True))
    for note in result["notes"]:
        print(note)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"gate: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not result["failures"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
