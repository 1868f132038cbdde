"""The scripts under scripts/: the shipped command set that study.py runs and
compare_outputs.py compares, and compare_outputs.py's verdict."""

import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import compare_outputs
    import study
    return study, compare_outputs


def test_command_set_names_every_shipped_config_once(scripts):
    study, compare_outputs = scripts
    names = [config for _, config in study.COMMANDS]
    assert sorted(names) == sorted(p.stem for p in (ROOT / "configs").glob("*.yaml"))
    assert {command for command, _ in study.COMMANDS} == {"run", "sweep", "compare-lqr",
                                                         "terminal-set"}
    assert compare_outputs.COMMANDS is study.COMMANDS


def test_compare_outputs_counts_a_failed_command_as_a_difference(scripts, tmp_path,
                                                                  monkeypatch, capsys):
    # both checkouts fail alike (a config error, exit 2) and write nothing to compare
    _, compare_outputs = scripts
    for side in ("old", "new"):
        (tmp_path / side / "configs").mkdir(parents=True)
        (tmp_path / side / "configs" / "tracking.yaml").write_text("unknown_key: 1\n")
        os.symlink(ROOT / "src", tmp_path / side / "src")
    monkeypatch.setattr(compare_outputs, "COMMANDS", [("run", "tracking")])
    assert compare_outputs.main(str(tmp_path / "old"), str(tmp_path / "new")) == 1
    assert "run tracking: exit codes old 2, new 2" in capsys.readouterr().out
