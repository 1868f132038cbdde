"""Tolerance goldens: fresh runs of shipped configs against the committed
logs under out/. States and inputs must agree within GOLDEN_ATOL and every
QP status exactly, so a refactor that only moves trailing bits still passes
while a change of closed-loop behaviour does not."""

from pathlib import Path

import numpy as np

from ltvmpc.cli import main
from ltvmpc.sim import read_log_csv

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_ATOL = 1e-6
STATE_INPUT_COLUMNS = ("x", "y", "theta", "e1", "e2", "e3", "v", "omega")


def test_tracking_run_matches_committed_log(tmp_path):
    assert main(["run", "--config", str(ROOT / "configs" / "tracking.yaml"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    fresh = read_log_csv(tmp_path / "tracking_log.csv")
    golden = read_log_csv(ROOT / "out" / "tracking" / "tracking_log.csv")
    assert len(fresh) == len(golden)
    assert [r.qp_status for r in fresh] == [r.qp_status for r in golden]
    for col in STATE_INPUT_COLUMNS:
        got = np.array([getattr(r, col) for r in fresh])
        want = np.array([getattr(r, col) for r in golden])
        assert np.max(np.abs(got - want)) <= GOLDEN_ATOL, col
