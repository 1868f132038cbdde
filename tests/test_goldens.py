"""Tolerance goldens: fresh runs of shipped configs against the committed
CSVs under out/. States and inputs must agree within GOLDEN_ATOL and every
QP status exactly, and every column of the MPC/LQR comparison table within
GOLDEN_ATOL, so a refactor that only moves trailing bits still passes while
a change of closed-loop behaviour does not."""

from pathlib import Path

import numpy as np

from ltvmpc.cli import main
from ltvmpc.sim import read_log_csv

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_ATOL = 1e-6
STATE_INPUT_COLUMNS = ("x", "y", "theta", "e1", "e2", "e3", "v", "omega")


def assert_log_matches_golden(fresh_path, golden_path):
    fresh = read_log_csv(fresh_path)
    golden = read_log_csv(golden_path)
    assert len(fresh) == len(golden)
    assert [r.qp_status for r in fresh] == [r.qp_status for r in golden]
    for col in STATE_INPUT_COLUMNS:
        got = np.array([getattr(r, col) for r in fresh])
        want = np.array([getattr(r, col) for r in golden])
        assert np.max(np.abs(got - want)) <= GOLDEN_ATOL, col


def assert_table_matches_golden(fresh_path, golden_path):
    """A numeric CSV table: the same header and shape, each column within
    GOLDEN_ATOL."""
    with fresh_path.open() as fresh, golden_path.open() as golden:
        header = fresh.readline()
        assert header == golden.readline()
    got, want = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
                 for p in (fresh_path, golden_path))
    assert got.shape == want.shape
    for col, gap in zip(header.strip().split(","), np.max(np.abs(got - want), axis=0)):
        assert gap <= GOLDEN_ATOL, col


def test_tracking_run_matches_committed_log(tmp_path):
    assert main(["run", "--config", str(ROOT / "configs" / "tracking.yaml"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert_log_matches_golden(tmp_path / "tracking_log.csv",
                              ROOT / "out" / "tracking" / "tracking_log.csv")


def test_lqr_comparison_matches_committed_logs(tmp_path):
    assert main(["compare-lqr", "--config", str(ROOT / "configs" / "lqr_comparison.yaml"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    goldens = sorted((ROOT / "out" / "lqr").glob("*.csv"))
    assert [p.name for p in goldens] == ["lqr_cmp_lqr_compare.csv", "lqr_cmp_lqr_log.csv",
                                         "lqr_cmp_mpc_log.csv"]
    assert_table_matches_golden(tmp_path / goldens[0].name, goldens[0])
    for golden in goldens[1:]:
        assert_log_matches_golden(tmp_path / golden.name, golden)
