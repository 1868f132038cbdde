#!/usr/bin/env python3
"""Terminal-cost scaling study: xy error across beta at N=30, with the
pairwise spread among the moderate-to-large values."""

import argparse
import itertools
from pathlib import Path

from ltvmpc import sweep
from ltvmpc.cli import load_config
from ltvmpc.figures import sweep_summary_csv

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "beta_sweep.yaml"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/beta")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    config = load_config(CONFIG)
    param, values = config.sweep.param, config.sweep.values
    results = sweep(config.scenario, param, values)
    (out / "beta_summary.csv").write_text(sweep_summary_csv(param, results))

    errs = {v: m.xy_error_sum for v, _, m in results}
    for v in values:
        print(f"beta={v:<4}: xy_error_sum={errs[v]:.4f}")
    big = [v for v in values if v >= 1]
    spread = max(abs(errs[a] - errs[b]) / min(errs[a], errs[b])
                 for a, b in itertools.combinations(big, 2))
    lo, hi = min(values), max(values)
    print(f"\npairwise spread over beta>=1: {100 * spread:.1f}%")
    print(f"beta={lo} vs beta={hi}: {100 * abs(errs[lo] - errs[hi]) / errs[hi]:.1f}%")


if __name__ == "__main__":
    main()
