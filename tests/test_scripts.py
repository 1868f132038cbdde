"""The scripts under scripts/: the shipped command set that study.py runs and
compare_outputs.py compares, and compare_outputs.py's verdict."""

import math
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


def test_csv_differences_size_numeric_columns_and_name_other_cells(scripts, tmp_path):
    _, compare_outputs = scripts
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("k,x,y,status\n0,1.0,2.0,optimal\n1,3.0,,optimal\n")
    new.write_text("k,x,y,status\n0,1.5,2.0,optimal\n1,2.75,,max_iter\n")
    assert compare_outputs.csv_differences(old, new) == [
        "status: first differs in data row 1: 'optimal' != 'max_iter'",
        "max abs difference: x 0.5, 0 in the 2 other numeric columns",
    ]
    assert compare_outputs.csv_differences(old, old) == [
        "max abs difference: 0 in the 3 other numeric columns"]


def test_json_differences_name_scalars_by_key_path_without_masked_keys(scripts, tmp_path):
    _, compare_outputs = scripts
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text('{"created": "monday", "out_dir": "a", "config_path": "a.yaml",'
                   ' "config": {"mpc": {"N": 10, "u_max": [1.0, 2.0]}}, "name": "x"}')
    new.write_text('{"created": "tuesday", "out_dir": "b", "config_path": "b.yaml",'
                   ' "config": {"mpc": {"N": 10, "u_max": [1.0, 2.5]}}, "name": "y"}')
    assert compare_outputs.json_differences(old, new, masked=compare_outputs.MASKED) == [
        "config.mpc.u_max[1]: 2.0 != 2.5 (abs difference 0.5)",
        'name: "x" != "y"',
    ]
    assert len(compare_outputs.json_differences(old, new)) == 5
    # the masked keys alone never make a difference
    new.write_text(old.read_text().replace("monday", "sunday").replace('"a"', '"c"'))
    assert compare_outputs.json_differences(old, new, masked=compare_outputs.MASKED) == []
    assert compare_outputs._same(old, new, compare_outputs.MASKED)
    assert not compare_outputs._same(old, new, ())


def test_gaps_hold_numbers_to_the_tolerance_and_every_other_cell_exactly(scripts, tmp_path):
    _, compare_outputs = scripts
    golden, fresh = tmp_path / "golden.csv", tmp_path / "fresh.csv"
    golden.write_text("k,x,qp_status,sense\n0,0.0,optimal,le\n1,0.5,optimal,le\n")

    def agrees(text, path=fresh):
        path.write_text(text)
        return max(compare_outputs.gaps(path, golden).values()) <= compare_outputs.GOLDEN_ATOL

    assert agrees("k,x,qp_status,sense\n0,1e-6,optimal,le\n1,0.5,optimal,le\n")
    assert not agrees("k,x,qp_status,sense\n0,2e-6,optimal,le\n1,0.5,optimal,le\n")
    assert not agrees("k,x,qp_status,sense\n0,0.0,optimal,le\n1,0.5,max_iter,le\n")
    assert not agrees("k,x,qp_status,sense\n0,0.0,optimal,le\n1,0.5,optimal,ge\n")
    assert not agrees("k,y,qp_status,sense\n0,0.0,optimal,le\n1,0.5,optimal,le\n")
    assert not agrees("k,x,qp_status,sense\n0,0.0,optimal,le\n")
    assert compare_outputs.gaps(fresh, tmp_path / "missing.csv") == {"(file)": math.inf}

    golden, fresh = tmp_path / "golden.json", tmp_path / "fresh.json"
    golden.write_text('{"converged": true, "min_clearance": null, "xy_error_sum": 0.0}')
    assert agrees('{"converged": true, "min_clearance": null, "xy_error_sum": 1e-6}', fresh)
    assert not agrees('{"converged": true, "min_clearance": null, "xy_error_sum": 2e-6}', fresh)
    assert not agrees('{"converged": false, "min_clearance": null, "xy_error_sum": 0.0}', fresh)
    assert not agrees('{"converged": 1, "min_clearance": null, "xy_error_sum": 0.0}', fresh)
    assert not agrees('{"converged": true, "min_clearance": 0.0, "xy_error_sum": 0.0}', fresh)
    assert not agrees('{"converged": true, "xy_error_sum": 0.0}', fresh)
    assert not agrees('{"converged": true, "min_clearance": null, "xy_error_sum": 0.0,'
                      ' "halted": false}', fresh)
