"""Front end: YAML parsing with strict keys, manifest reproducibility, output
files, and process exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import ltvmpc.cli as cli
import ltvmpc.sim as sim
from ltvmpc.cli import ConfigError, config_from_dict, load_config, main, parse_config
from ltvmpc.figures import obstacle_paths_csv
from ltvmpc.sim import LOG_DTYPE, SimLog, SweepSpec
from ltvmpc.terminal_set import C_MIN

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
name: tiny
trajectory: {kind: sinusoid}
"""

SHORT_RUN = """
name: tiny
duration: 30
trajectory: {kind: sinusoid}
mpc: {N: 8}
"""


def test_minimal_config_materializes_defaults():
    scn = parse_config(MINIMAL).scenario
    assert scn.name == "tiny"
    assert scn.duration == 600
    assert scn.mpc.N == 10
    assert scn.mpc.beta == 2.0
    assert scn.mpc.avoidance == "off"
    assert scn.Q_diag == (1.0, 1.0, 0.5)


def test_invalid_horizon_is_a_config_error():
    with pytest.raises(ConfigError, match="horizon"):
        parse_config("name: x\ntrajectory: {kind: line}\nmpc: {N: 0}\n")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key 'trajectory.speeed'"):
        parse_config("name: x\ntrajectory: {kind: line, speeed: 1.0}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("name: x\ntrajectory: {kind: line}\nextra: 1\n")
    with pytest.raises(ConfigError, match="unknown key 'mpc.terminal_mode'"):
        parse_config("name: x\ntrajectory: {kind: line}\nmpc: {terminal_mode: none}\n")


def test_sweep_section_parsed():
    config = parse_config(SHORT_RUN + "sweep: {param: beta, values: [0.1, 1, 2, 5]}\n")
    assert config.sweep == SweepSpec("beta", (0.1, 1, 2, 5))
    assert [type(v) for v in config.sweep.values] == [float, int, int, int]  # as written
    with pytest.raises(ConfigError, match="sweep.param"):
        parse_config(SHORT_RUN + "sweep: {param: Q, values: [1]}\n")
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config(SHORT_RUN + "sweep: {param: N, values: []}\n")


def write_config(tmp_path, text, name="scn.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_run_writes_expected_files(tmp_path, capsys):
    cfg = write_config(tmp_path, SHORT_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "tiny_log.csv").exists()
    assert (out / "tiny_metrics.json").exists()
    assert (out / "manifest.json").exists()
    for part in ("trajectory", "errors", "controls", "costs"):
        assert (out / f"tiny_{part}.csv").exists()
    metrics = json.loads((out / "tiny_metrics.json").read_text())
    assert metrics["converged"] is True
    assert "tiny: 30 steps" in capsys.readouterr().out


PAIR = """
name: pair
duration: 20
trajectory: {kind: line, speed: 0.5}
mpc: {N: 8, avoidance: velocity_space}
obstacles:
  - kind: unicycle
    radius: 0.2
    trajectory: {kind: line, start: [4.0, 0.0], heading: 3.141592653589793, speed: 0.5}
"""


def test_run_rolls_each_reference_once(tmp_path, monkeypatch):
    # the robot's reference and the unicycle obstacle's, each rolled once: the
    # obstacle CSV reads the tracks the run already built
    cfg = write_config(tmp_path, PAIR)
    out = tmp_path / "out"
    rolled = []
    real = sim.build_reference

    def counted(spec, n):
        rolled.append(spec)
        return real(spec, n)

    monkeypatch.setattr(sim, "build_reference", counted)
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert len(rolled) == 2
    scn = load_config(cfg).scenario
    assert (out / "pair_obstacles.csv").read_text() == obstacle_paths_csv(scn, 20)


def test_dump_figures_rolls_each_reference_once(tmp_path, monkeypatch):
    # a log read back from CSV has no tracks: dump-figures builds them once for
    # the obstacle CSV and the velocity-space replay
    cfg = write_config(tmp_path, PAIR)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    written = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    rolled = []
    real = sim.build_reference

    def counted(spec, n):
        rolled.append(spec)
        return real(spec, n)

    monkeypatch.setattr(sim, "build_reference", counted)
    assert main(["dump-figures", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert len(rolled) == 2
    assert all((out / name).read_bytes() == text for name, text in written.items())


def test_manifest_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SHORT_RUN)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    manifest = out1 / "manifest.json"
    assert main(["run", "--config", str(manifest), "--out", str(out2),
                 "--quiet"]) == 0
    assert (out1 / "tiny_log.csv").read_bytes() == (out2 / "tiny_log.csv").read_bytes()


def test_manifest_round_trips_scenario(tmp_path):
    text = SHORT_RUN + ("obstacles:\n"
                        "  - {kind: static, position: [3.0, 0.5], radius: 0.4}\n")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert load_config(out / "manifest.json") == parse_config(text)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_manifest_config_block_is_the_config(tmp_path, path):
    config = load_config(path)
    cli.write_manifest(tmp_path, "run", path, config)
    block = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config_from_dict(block) == config
    assert parse_config(yaml.safe_dump(block)) == config
    other_bounds = {**block, "mpc": {**block["mpc"], "u_max": [1.0, 1.0]}}
    assert config_from_dict(other_bounds) != config  # u_max compared by value


def test_manifest_config_block_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(CONFIGS / "avoid_static_hyperplane.yaml"),
                 "--out", str(out1), "--quiet"]) == 0
    block = json.loads((out1 / "manifest.json").read_text())["config"]
    cfg = write_config(tmp_path, yaml.safe_dump(block))
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    log = f"{block['name']}_log.csv"
    assert (out1 / log).read_bytes() == (out2 / log).read_bytes()


def test_old_format_manifest_is_a_config_error(tmp_path, capsys):
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps({"tool": "ltvmpc", "scenario": {"name": "x"}}))
    assert main(["run", "--config", str(old), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_writes_per_value_logs(tmp_path):
    cfg = write_config(tmp_path, SHORT_RUN +
                       "sweep: {param: N, values: [5, 8]}\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "tiny_N5_log.csv").exists()
    assert (out / "tiny_N8_log.csv").exists()
    summary = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("N,")
    assert len(summary) == 3


def test_sweep_without_section_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, SHORT_RUN)
    assert main(["sweep", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_codes_for_bad_invocations(tmp_path, capsys):
    assert main(["explode", "--config", "x.yaml"]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 2
    bad = write_config(tmp_path, "name: x\ntrajectory: {kind: line}\nmpc: {N: 0}\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("bad", [
    "trajectory: {kind: sinusoid}\nreference_mode: foo\n",
    "trajectory: {kind: sinusoid}\nQ_diag: [-1, 1, 0.5]\n",
    "trajectory: {kind: sinusoid}\nR_diag: [0, 0.05]\n",
    "trajectory: {kind: line, speed: 0.0}\n",
    "trajectory: {kind: circle, angular_rate: 0.0}\n",
    "trajectory: {kind: sinusoid}\nsweep: {param: N, values: [0]}\n",
    "trajectory: {kind: sinusoid}\nsweep: {param: beta, values: [-1]}\n",
    "trajectory: {kind: sinusoid}\nsweep: {param: N, values: [abc]}\n",
    "trajectory: {kind: sinusoid}\nterminal_set: {shrink: 1.0}\n",
    "trajectory: {kind: sinusoid}\nterminal_set: {c0: -1.0}\n",
    "trajectory: {kind: sinusoid}\nterminal_set: {c0: 1.0e-13}\n",
    "trajectory: {kind: sinusoid}\nterminal_set: {e_max: [1, 1]}\n",
    "trajectory: {kind: sinusoid}\ninitial_state: [0.0, 1.0]\n",
    "name: sub/x\ntrajectory: {kind: sinusoid}\n",
    "name: null\ntrajectory: {kind: sinusoid}\n",
    "trajectory: {kind: sinusoid}\nmpc: {tau: 0}\n",
    "trajectory: {kind: sinusoid}\nmpc: {tau: 0.5}\n",
    "trajectory: {kind: sinusoid}\nreference_mode: rolled\n",
    "trajectory: {kind: sinusoid}\nobstacles: [{kind: unicycle, control: mpc,"
    " trajectory: {kind: line, start: [3, 1]}}]\n",
    "trajectory: {kind: sinusoid}\nmpc: {robot_radius: -0.2}\n",
    "trajectory: {kind: sinusoid}\nmpc: {r_safe: -0.5}\n",
    "trajectory: {kind: sinusoid}\nmpc: {d_activate: -1}\n",
    "trajectory: {kind: sinusoid}\nobstacles: [{kind: static, position: [3, 0], radius: -0.3}]\n",
    "trajectory: {kind: sinusoid}\nobstacles: [{kind: static, position: [3], radius: 0.3}]\n",
    "trajectory: {kind: sinusoid}\nobstacles: [{kind: linear, position: [3, 0, 0]}]\n",
    "trajectory: {kind: sinusoid}\nobstacles: [{kind: linear, velocity: [0.1]}]\n",
    "trajectory: {kind: sinusoid}\nobstacles: [{kind: linear, velocity: [0.1, 0, 0]}]\n",
    "trajectory: {kind: line, start: [0.0]}\n",
    "trajectory: {kind: circle, center: [0.0]}\n",
    "trajectory: {kind: sinusoid}\nmpc: {avoidance: state_space, theta_s_deg: .nan}\n",
    "trajectory: {kind: sinusoid}\nmpc: {beta: .inf}\n",
    "trajectory: {kind: sinusoid}\nmpc: {u_max: [-.inf, 10]}\n",
    "trajectory: {kind: sinusoid, amplitude: .nan}\n",
    "trajectory: {kind: sinusoid}\nsweep: {param: N, values: [.inf]}\n",
    "trajectory: {kind: sinusoid}\nterminal_set: {e_max: [1, 1, .nan]}\n",
    "trajectory: {kind: sinusoid}\nmpc: {avoidance: velocity_space, robot_radius: 0}\n"
    "obstacles: [{kind: static, position: [3, 0], radius: 0}]\n",
])
def test_bad_scenario_values_exit_two(tmp_path, capsys, bad):
    head = "" if bad.startswith("name:") else "name: x\n"
    cfg = write_config(tmp_path, head + "duration: 30\n" + bad)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_terminal_set_c0_may_sit_on_the_search_floor(tmp_path):
    # the parse-time floor is the level search's own: c0 = C_MIN passes both
    cfg = write_config(tmp_path, SHORT_RUN + "terminal_set: {c0: 1.0e-12}\n")
    assert load_config(cfg).terminal_set.c0 == C_MIN
    assert main(["terminal-set", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0


def test_exponent_float_without_a_dot_is_a_float(tmp_path):
    # YAML 1.1 reads 1e4 as the string '1e4'; a float field takes its value
    cfg = write_config(tmp_path, SHORT_RUN.replace("{N: 8}", "{N: 8, slack_weight: 1e4}"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    block = json.loads((out / "manifest.json").read_text())["config"]
    assert type(block["mpc"]["slack_weight"]) is float
    assert block["mpc"]["slack_weight"] == 10000.0
    assert load_config(out / "manifest.json") == load_config(cfg)


@pytest.mark.parametrize("bad, message", [
    ("terminal_set: {c0: 1e-13}\n", f"c0 must be at least {C_MIN:g}"),
    ("mpc: {slack_weight: nan}\n", "'mpc.slack_weight' must be finite"),
    ("mpc: {slack_weight: abc}\n", "'mpc.slack_weight' must be a number"),
])
def test_string_in_a_float_field_is_read_as_a_number(tmp_path, capsys, bad, message):
    cfg = write_config(tmp_path, "name: x\nduration: 30\ntrajectory: {kind: sinusoid}\n" + bad)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_terminal_set_e_max_may_be_unbounded():
    assert parse_config(MINIMAL + "terminal_set: {e_max: [1, 1, .inf]}\n") \
        .terminal_set.e_max == (1.0, 1.0, float("inf"))


def test_dump_figures_requires_existing_log(tmp_path, capsys):
    cfg = write_config(tmp_path, SHORT_RUN)
    out = tmp_path / "out"
    assert main(["dump-figures", "--config", str(cfg), "--out", str(out)]) == 2
    assert "run the scenario first" in capsys.readouterr().err
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["dump-figures", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0


def test_dump_figures_skips_velocity_dump_without_active_rows(tmp_path, capsys):
    # the obstacle never comes within d_activate, so no velocity rows exist
    cfg = write_config(tmp_path, """
name: far
duration: 5
trajectory: {kind: line}
mpc: {avoidance: velocity_space}
obstacles: [{kind: static, position: [3.0, 10.0], radius: 0.3}]
""")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["dump-figures", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert "no velocity-space dump written" in capsys.readouterr().err
    assert not (out / "far_velocity_space.csv").exists()
    assert (out / "far_trajectory.csv").exists()


def test_halted_run_exits_one(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, SHORT_RUN)

    def fake_run(scn):
        return SimLog(scn, np.recarray(0, dtype=LOG_DTYPE), halted=True,
                      halt_reason="forced for the test")

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 1
    assert "halted" in capsys.readouterr().err


def test_compare_lqr_outputs(tmp_path):
    cfg = write_config(tmp_path, SHORT_RUN)
    out = tmp_path / "out"
    assert main(["compare-lqr", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    assert (out / "tiny_mpc_log.csv").exists()
    assert (out / "tiny_lqr_log.csv").exists()
    assert (out / "tiny_lqr_compare.csv").exists()


def test_terminal_set_command(tmp_path, capsys):
    cfg = write_config(tmp_path, SHORT_RUN +
                       "terminal_set: {e_max: [1.0, 1.0, 3.14159], c0: 10.0}\n")
    out = tmp_path / "out"
    assert main(["terminal-set", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "tiny_terminal_set.csv").exists()
    assert "all pass" in capsys.readouterr().out
