#!/usr/bin/env python3
"""Horizon study: xy error across N with and without the terminal cost.
The with-terminal max/min ratio should be near 1; the beta=0 column should
blow up at short horizons."""

import argparse
from pathlib import Path

from ltvmpc import sweep
from ltvmpc.cli import load_config
from ltvmpc.figures import sweep_summary_csv

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_one(name):
    config = load_config(CONFIGS / name)
    return sweep(config.scenario, config.sweep.param, config.sweep.values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/horizon")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with_term = run_one("horizon_sweep.yaml")
    no_term = run_one("horizon_sweep_no_terminal.yaml")
    (out / "horizon_with_terminal.csv").write_text(sweep_summary_csv("N", with_term))
    (out / "horizon_no_terminal.csv").write_text(sweep_summary_csv("N", no_term))

    print(f"{'N':>4}  {'xy_err (beta=1)':>16}  {'xy_err (beta=0)':>16}")
    for (n, _, mw), (_, _, mn) in zip(with_term, no_term):
        print(f"{n:>4}  {mw.xy_error_sum:>16.4f}  {mn.xy_error_sum:>16.4f}")
    errs_w = [m.xy_error_sum for _, _, m in with_term]
    errs_n = {n: m.xy_error_sum for n, _, m in no_term}
    print(f"\nwith terminal: max/min = {max(errs_w) / min(errs_w):.4f}")
    print(f"no terminal  : N=5 / N=50 = {errs_n[5] / errs_n[50]:.4f}")


if __name__ == "__main__":
    main()
