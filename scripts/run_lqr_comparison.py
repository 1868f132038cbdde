#!/usr/bin/env python3
"""MPC vs unconstrained LQR from an aggressive heading offset: the LQR
demands more turn rate than the bound allows, the MPC saturates at it, and
the two coincide once the transient dies out."""

import argparse
from pathlib import Path

from ltvmpc import lqr_comparison, write_log_csv
from ltvmpc.cli import load_config
from ltvmpc.figures import lqr_compare_csv

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "lqr_comparison.yaml"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/lqr")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    scn = load_config(CONFIG).scenario
    log_mpc, log_lqr = lqr_comparison(scn)
    write_log_csv(log_mpc, out / "lqr_cmp_mpc_log.csv")
    write_log_csv(log_lqr, out / "lqr_cmp_lqr_log.csv")
    (out / "lqr_cmp_controls.csv").write_text(lqr_compare_csv(log_mpc, log_lqr))

    w_cap = float(scn.mpc.u_max[1])
    w_mpc = max(abs(r.omega) for r in log_mpc.rows)
    w_lqr = max(abs(r.omega) for r in log_lqr.rows)
    k1s = round(1.0 / scn.trajectory.T)
    tail_diff = max(
        max(abs(a.v - b.v), abs(a.omega - b.omega))
        for a, b in zip(log_mpc.rows[k1s:], log_lqr.rows[k1s:]))
    print(f"omega bound {w_cap}: mpc peak {w_mpc:.4f}, lqr peak {w_lqr:.4f}")
    print(f"max per-step control gap after 1 s: {tail_diff:.4f}")


if __name__ == "__main__":
    main()
