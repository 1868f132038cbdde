"""Record the default-seed reference outputs the correctness gate compares to.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload on the default seed, checks it with
the gate (without the reference), and writes one CSV per scene under
`perfbench/reference/`: the logged states, inputs, QP status and slack of a
run, or the levels of a terminal set, at 12 significant digits. Re-record
only when a change of behaviour is intended, and say so.
"""

from __future__ import annotations

import csv
import shutil
import sys

from gate import reference_rows
from run import REFERENCE_DIR, RUN_BUDGET_S, WORK_DIR, gate_pass, run_pass, write_scenes
from workloads import DEFAULT_SEED, WORKLOADS


def _fmt(col: str, value: str) -> str:
    if col in ("k", "i", "qp_status"):
        return value
    return format(float(value), ".12g")


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        work = WORK_DIR / "reference" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        scenes = write_scenes(workload, DEFAULT_SEED, work)
        p = run_pass(scenes, work, 0, False, RUN_BUDGET_S)
        failures = gate_pass(scenes, p, against_reference=False)[0]
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        for scene, cfg, _ in scenes:
            out = p["dir"] / scene.stem
            rows = reference_rows(scene, cfg, out)
            with open(REFERENCE_DIR / f"{scene.stem}.csv", "w", newline="") as f:
                w = csv.writer(f, lineterminator="\n")
                w.writerow(rows[0])
                w.writerows([_fmt(c, v) for c, v in zip(rows[0], r)] for r in rows[1:])
            print(f"{workload}: {scene.stem} recorded ({len(rows) - 1} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
