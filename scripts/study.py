#!/usr/bin/env python3
"""The paper's simulation studies from the shipped configs, one table each.

    python scripts/study.py [--out DIR]

Runs the shipped command set (COMMANDS) through `ltvmpc.cli.main` into
DIR/<config>/ (default out, the golden store), and tracking.yaml without
`initial_state` into DIR/tracking_on_ref/ (`write`), then prints the
tracking, horizon, terminal-weight, LQR and avoidance tables from the files
written (`tables`). Exits 1 if a run halted.
"""

import argparse
import csv
import itertools
import json
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
AVOIDANCE = ("avoid_static_velocity", "avoid_static_hyperplane", "avoid_static_hyperplane_90",
             "avoid_face_to_face", "avoid_intersection")
# the shipped command set: (subcommand, config), each into its own output directory
COMMANDS = [("run", c) for c in ("tracking", *AVOIDANCE)] + [
    ("compare-lqr", "lqr_comparison"), ("terminal-set", "terminal_set"),
    ("sweep", "beta_sweep"), ("sweep", "horizon_sweep"), ("sweep", "horizon_sweep_no_terminal")]
ON_REF = "tracking_on_ref"  # tracking.yaml started on the reference, written after COMMANDS


def _json(path: Path):
    return json.loads(path.read_text())


def _rows(path: Path) -> list:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def sweep_errors(out: Path) -> dict:
    """xy_error_sum by sweep value, the values as the manifest echoes them."""
    values = _json(out / "manifest.json")["config"]["sweep"]["values"]
    return dict(zip(values, (float(r["xy_error_sum"]) for r in _rows(out / "sweep_summary.csv"))))


def tables(out: Path):
    m, m0 = (_json(out / d / f"{d}_metrics.json") for d in ("tracking", ON_REF))
    log = _rows(out / ON_REF / f"{ON_REF}_log.csv")
    e_max = max(abs(float(r[e])) for r in log for e in ("e1", "e2", "e3"))
    print(f"offset start : xy_error_sum={m['xy_error_sum']:.4f} converged={m['converged']} "
          f"lyapunov_violations={m['lyapunov_violations']}")
    print(f"on-reference : max|e|={e_max:.2e} xy_error_sum={m0['xy_error_sum']:.2e}")

    with_term = sweep_errors(out / "horizon_sweep")
    no_term = sweep_errors(out / "horizon_sweep_no_terminal")
    print(f"\n{'N':>4}  {'xy_err (beta=1)':>16}  {'xy_err (beta=0)':>16}")
    for (n, ew), en in zip(with_term.items(), no_term.values()):
        print(f"{n:>4}  {ew:>16.4f}  {en:>16.4f}")
    print(f"\nwith terminal: max/min = {max(with_term.values()) / min(with_term.values()):.4f}")
    print(f"no terminal  : N=5 / N=50 = {no_term[5] / no_term[50]:.4f}")

    errs = sweep_errors(out / "beta_sweep")
    print("\n" + "\n".join(f"beta={v:<4}: xy_error_sum={e:.4f}" for v, e in errs.items()))
    spread = max(abs(errs[a] - errs[b]) / min(errs[a], errs[b])
                 for a, b in itertools.combinations([v for v in errs if v >= 1], 2))
    lo, hi = min(errs), max(errs)
    print(f"\npairwise spread over beta>=1: {100 * spread:.1f}%")
    print(f"beta={lo} vs beta={hi}: {100 * abs(errs[lo] - errs[hi]) / errs[hi]:.1f}%")

    config = _json(out / "lqr_comparison" / "manifest.json")["config"]
    rows = _rows(out / "lqr_comparison" / f"{config['name']}_lqr_compare.csv")
    peak = {c: max(abs(float(r[f"omega_{c}"])) for r in rows) for c in ("mpc", "lqr")}
    tail = rows[round(1.0 / config["trajectory"]["T"]):]
    gap = max(max(float(r["dv"]), float(r["domega"])) for r in tail)
    print(f"\nomega bound {config['mpc']['u_max'][1]}: mpc peak {peak['mpc']:.4f}, "
          f"lqr peak {peak['lqr']:.4f}")
    print(f"max per-step control gap after 1 s: {gap:.4f}")

    print(f"\n{'scene':<22} {'min_dist':>9} {'slack':>9} {'converged':>10} {'halted':>7}")
    for d in AVOIDANCE:
        name = _json(out / d / "manifest.json")["config"]["name"]
        m = _json(out / d / f"{name}_metrics.json")
        print(f"{name:<22} {m['min_clearance']:>9.4f} {m['slack_total']:>9.3f} "
              f"{str(m['converged']):>10} {str(m['halted']):>7}")


def write(out: Path) -> int:
    """Runs COMMANDS, then tracking_on_ref, each into out/<config>/; returns
    the largest exit code (1 if a run halted). A config or usage error exits."""
    # imported here: compare_outputs.py reads COMMANDS without ltvmpc on its path
    from ltvmpc.cli import main as ltvmpc

    def run(command, config, to):
        code = ltvmpc([command, "--quiet", "--config", str(config), "--out", str(to)])
        if code > 1:  # a config or usage error leaves no table to print
            raise SystemExit(code)
        return code

    codes = [run(command, CONFIGS / f"{c}.yaml", out / c) for command, c in COMMANDS]
    on_ref = out / ON_REF
    doc = _json(out / "tracking" / "manifest.json")  # a manifest is a config
    del doc["config"]["initial_state"]
    doc["config"]["name"] = on_ref.name
    on_ref.mkdir(parents=True, exist_ok=True)
    (on_ref / "config.json").write_text(json.dumps(doc))
    return max(codes + [run("run", on_ref / "config.json", on_ref)])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default="out", help="output directory")
    out = Path(ap.parse_args().out)
    code = write(out)
    tables(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
