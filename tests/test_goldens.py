"""Tolerance goldens: every output of the shipped commands, fresh from the
session's `shipped` run, against its golden in out/<config>/ by
`compare_outputs.gaps`, so a refactor that only moves trailing bits passes
while a change of closed-loop behaviour does not. Manifests, config.json and
a sweep's per-value logs are not goldens: its sweep_summary.csv holds every
run's metrics."""

from pathlib import Path

import pytest

from compare_outputs import GOLDEN_ATOL, gaps
from study import COMMANDS, ON_REF

GOLDENS = Path(__file__).resolve().parents[1] / "out"
SWEEPS = {config for command, config in COMMANDS if command == "sweep"}


def is_golden(config, name):
    return (name not in ("manifest.json", "config.json")
            and not (config in SWEEPS and name.endswith("_log.csv")))


@pytest.mark.parametrize("config", [c for _, c in COMMANDS] + [ON_REF])
def test_fresh_outputs_match_goldens(shipped, config):
    fresh, golden = shipped.out / config, GOLDENS / config
    names = sorted({p.name for d in (fresh, golden) for p in d.glob("*")
                    if is_golden(config, p.name)})
    assert names
    for name in names:
        over = {key: gap for key, gap in gaps(fresh / name, golden / name).items()
                if not gap <= GOLDEN_ATOL}
        assert not over, (name, over)
