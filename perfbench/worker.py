"""One pass of a workload in a fresh process: `python3 worker.py PLAN.json`.

The plan names the checkout root, the CLI argument lists to run in order,
whether to install the layer targets or only the request boundaries, and
where to write the spans. Each command goes through `ltvmpc.cli.main` and is
timed from argv to return, which includes writing every output file and
excludes interpreter start-up and imports.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and has no dict mode
        blas = {}
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "cores": os.cpu_count(), "cpu": cpu or platform.processor(),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["root"]) / "src"
    sys.path.insert(0, str(src))
    import ltvmpc.cli

    if not Path(ltvmpc.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"ltvmpc was imported from {ltvmpc.cli.__file__}, not {src}")
    from layers import BOUNDARY, LAYER
    from tracing import Tracer

    tracer = Tracer(plan["run_id"])
    absent = tracer.install(LAYER if plan["traced"] else BOUNDARY)
    command_s, exit_codes = [], []
    try:
        for argv in plan["commands"]:
            t0 = time.perf_counter()
            try:
                rc = ltvmpc.cli.main(argv)
            except Exception:  # a crash fails the scene; the pass still reports
                traceback.print_exc()
                rc = None
            command_s.append(time.perf_counter() - t0)
            exit_codes.append(rc)
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.dump(plan["spans_out"], command_s=command_s, exit_codes=exit_codes,
                peak_rss_mb=peak_rss_mb, absent=absent, env=environment())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
