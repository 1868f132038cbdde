#!/usr/bin/env python3
"""All shipped avoidance scenes in one table: clearance, slack, convergence.
Also dumps the velocity-space constraint picture at the closest approach for
the cone-based scenes."""

import argparse
from pathlib import Path

from ltvmpc import compute_metrics, figures, run_scenario, write_log_csv
from ltvmpc.avoidance import velocity_debug_csv
from ltvmpc.cli import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SCENES = (
    "avoid_static_velocity.yaml",
    "avoid_static_hyperplane.yaml",
    "avoid_static_hyperplane_90.yaml",
    "avoid_face_to_face.yaml",
    "avoid_intersection.yaml",
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/avoidance")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"{'scene':<22} {'min_dist':>9} {'slack':>9} {'converged':>10} {'halted':>7}")
    for fname in SCENES:
        scn = load_config(CONFIGS / fname).scenario
        log = run_scenario(scn)
        m = compute_metrics(log)
        write_log_csv(log, out / f"{scn.name}_log.csv")
        figures.write_run_bundle(log, out, scn.name)
        if log.closest_debug is not None:  # velocity-space rows at the closest approach
            (out / f"{scn.name}_velocity_space.csv").write_text(
                velocity_debug_csv(*log.closest_debug))
        print(f"{scn.name:<22} {m.min_clearance:>9.4f} {m.slack_total:>9.3f} "
              f"{str(m.converged):>10} {str(m.halted):>7}")


if __name__ == "__main__":
    main()
