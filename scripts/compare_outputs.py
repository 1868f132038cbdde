"""Byte-compare the shipped outputs of two checkouts of this repository.

    python scripts/compare_outputs.py OLD NEW

Runs the shipped command set (`run` on tracking and the five avoidance
scenes, then `dump-figures` in the same directory for the three
velocity-space scenes, `compare-lqr`, `terminal-set` and the three sweeps)
once in each checkout, from that checkout's own `src/` and `configs/`, and
byte-compares every file written, manifests excepted (they hold a timestamp
and the output path). Prints each difference and exits 1 if there is any,
else 0. BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set. Standard
library only.
"""

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VELOCITY_SCENES = ("avoid_face_to_face", "avoid_intersection", "avoid_static_velocity")
# (commands run in order into one output directory, config)
COMMANDS = [(("run", "dump-figures") if c in VELOCITY_SCENES else ("run",), c)
            for c in ("tracking", "avoid_face_to_face", "avoid_intersection",
                      "avoid_static_hyperplane", "avoid_static_hyperplane_90",
                      "avoid_static_velocity")] + [
    (("compare-lqr",), "lqr_comparison"), (("terminal-set",), "terminal_set"),
    (("sweep",), "beta_sweep"), (("sweep",), "horizon_sweep"),
    (("sweep",), "horizon_sweep_no_terminal")]


def start(checkout: Path, command: str, config: str, out: Path):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return subprocess.Popen(
        [sys.executable, "-m", "ltvmpc.cli", command, "--quiet",
         "--config", str(checkout / "configs" / f"{config}.yaml"), "--out", str(out)],
        env=env, cwd=checkout, stderr=subprocess.DEVNULL)


def main(old: str, new: str) -> int:
    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        for commands, config in COMMANDS:
            outs = [Path(tmp) / side / config for side in ("old", "new")]
            for command in commands:  # compared after each, as a later one may rewrite files
                procs = [start(Path(c).resolve(), command, config, o)
                         for c, o in zip((old, new), outs)]
                codes = [p.wait() for p in procs]
                if codes[0] != codes[1]:
                    diffs.append(f"{command} {config}: exit codes {codes[0]} != {codes[1]}")
                names = sorted({f.relative_to(o) for o in outs for f in o.rglob("*")
                                if f.is_file()} - {Path("manifest.json")})
                for name in names:
                    a, b = (o / name for o in outs)
                    if not (a.exists() and b.exists() and filecmp.cmp(a, b, shallow=False)):
                        diffs.append(f"{command} {config}: {name} differs")
                print(f"{command} {config}: {len(names)} files compared", flush=True)
    print("\n".join(diffs) if diffs else "all outputs byte-identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
