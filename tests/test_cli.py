import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (overtaking_scenario_dict, reference_scenario_dict,
                      uniform_scenario_dict)
from ringcover import sim
from ringcover.cli import (cmd_export, cmd_run, cmd_search, cmd_verify, main,
                           trajectory_csv_lines)
from ringcover.sim import TrajectoryLog, run_scenario, scenario_from_dict


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def quick_config(tmp_path):
    data = uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5},
        output={"snapshot_times": [0.0, 2.0]})
    return write_config(tmp_path, data)


def test_run_writes_artifacts(quick_config, tmp_path):
    out = tmp_path / "out"
    assert cmd_run(quick_config, str(out)) == 0
    csv_path = out / "trajectory.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    n = 2
    assert header == (["t"] + [f"phi_{i+1}" for i in range(n)]
                      + [f"px_{i+1}" for i in range(n)]
                      + [f"py_{i+1}" for i in range(n)]
                      + [f"m_{i+1}" for i in range(n)] + ["V", "J", "H"])
    steps = int(round(2.0 / 0.05))
    assert len(lines) - 1 == math.ceil(steps / 5) + 1
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)
    assert (out / "log.json").exists()
    assert (out / "config_echo.json").exists()
    assert (out / "snapshot_t0.svg").exists()
    assert (out / "snapshot_t2.svg").exists()
    svg = (out / "snapshot_t0.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "circle" in svg


def test_run_rejects_equal_phases(tmp_path, caplog):
    data = uniform_scenario_dict(
        agents={"count": 2, "initial_phases": [1.0, 1.0],
                "initial_positions": [[1.5, 0.0], [-1.5, 0.0]]})
    path = write_config(tmp_path, data)
    assert cmd_run(path, str(tmp_path / "out")) == 2
    assert "initial phases not strictly separated" in caplog.text


def test_run_rejects_missing_density_kind(tmp_path):
    data = uniform_scenario_dict()
    data["density"] = {"parameters": [1.0]}
    path = write_config(tmp_path, data)
    assert cmd_run(path, str(tmp_path / "out")) == 2


def test_run_rejects_unreadable_config(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cmd_run(str(bad), str(tmp_path / "out")) == 2
    assert cmd_run(str(tmp_path / "missing.json"), str(tmp_path / "out")) == 2


def test_run_determinism_bytes(quick_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(quick_config, str(out_a)) == 0
    assert cmd_run(quick_config, str(out_b)) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


def test_config_echo_replays_identically(quick_config, tmp_path):
    out_a = tmp_path / "a"
    assert cmd_run(quick_config, str(out_a)) == 0
    echo_path = out_a / "config_echo.json"
    out_b = tmp_path / "b"
    assert cmd_run(str(echo_path), str(out_b)) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


def test_export_csv_byte_identical(quick_config, tmp_path):
    out = tmp_path / "out"
    assert cmd_run(quick_config, str(out)) == 0
    export_dir = tmp_path / "export"
    assert cmd_export(str(out / "log.json"), "csv", str(export_dir)) == 0
    assert (out / "trajectory.csv").read_bytes() == (export_dir / "trajectory.csv").read_bytes()


def test_export_svg_time_out_of_range(quick_config, tmp_path):
    out = tmp_path / "out"
    assert cmd_run(quick_config, str(out)) == 0
    export_dir = tmp_path / "svg"
    assert cmd_export(str(out / "log.json"), "svg-snapshots", str(export_dir),
                      times=[99.0]) == 2
    # empty time list succeeds and writes nothing
    empty_dir = tmp_path / "svg_empty"
    assert cmd_export(str(out / "log.json"), "svg-snapshots", str(empty_dir),
                      times=[]) == 0
    assert list(empty_dir.glob("*.svg")) == []


@pytest.mark.parametrize("t", [2.2, -0.2])
def test_snapshot_time_outside_the_log_exits_2(tmp_path, t):
    # the run ends at t = 2.0 with records every 0.25
    data = uniform_scenario_dict(integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5},
                                 output={"snapshot_times": [t]})
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path, data), str(out)) == 2
    assert cmd_export(str(out / "log.json"), "svg-snapshots", str(tmp_path / "svg"),
                      times=[t]) == 2
    assert list(out.glob("*.svg")) == []
    assert list((tmp_path / "svg").glob("*.svg")) == []


def test_export_rejects_malformed_log(tmp_path):
    bad = tmp_path / "log.json"
    bad.write_text(json.dumps({"records": {"times": [0.0]}}), encoding="utf-8")
    assert cmd_export(str(bad), "csv", str(tmp_path / "out")) == 2


def test_search_epochs_from_epsilon(tmp_path):
    data = uniform_scenario_dict(
        search={"epsilon_p": math.pi, "T_epsilon": 5.0},
        integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5})
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cmd_search(path, str(out)) == 0
    lines = (out / "epochs.csv").read_text().strip().split("\n")
    assert lines[0] == "k,anchor_agent,J_k,gossip_rounds"
    assert len(lines) - 1 == 2  # epsilon = pi resolves to two epochs
    final = json.loads((out / "final_configuration.json").read_text())
    assert final["best_epoch"] in (1, 2)
    rel = abs(final["recomputed_total_cost"] - final["best_total_cost"])
    assert rel <= 1e-6 * abs(final["best_total_cost"])


def test_search_direct_count_overrides_epsilon(tmp_path):
    data = uniform_scenario_dict(
        search={"K_star": 3, "epsilon_p": math.pi, "T_epsilon": 4.0},
        integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5})
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cmd_search(path, str(out)) == 0
    lines = (out / "epochs.csv").read_text().strip().split("\n")
    assert len(lines) - 1 == 3


def test_search_rerun_identical(tmp_path):
    data = uniform_scenario_dict(
        search={"K_star": 2, "T_epsilon": 4.0},
        integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5})
    path = write_config(tmp_path, data)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_search(path, str(out_a)) == 0
    assert cmd_search(path, str(out_b)) == 0
    assert (out_a / "epochs.csv").read_bytes() == (out_b / "epochs.csv").read_bytes()


def test_search_requires_section(tmp_path):
    data = uniform_scenario_dict()
    data.pop("search")
    path = write_config(tmp_path, data)
    assert cmd_search(path, str(tmp_path / "out")) == 2


def test_verify_log_with_forged_positivity(tmp_path):
    data = uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5})
    config = scenario_from_dict(data)
    log = run_scenario(config)
    log.workloads[2, 0] = -1.0
    log_path = tmp_path / "log.json"
    log_path.write_text(json.dumps(log.to_dict()), encoding="utf-8")
    out = tmp_path / "out"
    assert cmd_verify(str(log_path), str(out)) == 1
    report = (out / "report.txt").read_text()
    assert "workload_positivity" in report and "FAIL" in report


def test_verify_truncated_log_inconclusive(tmp_path):
    data = uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5})
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cmd_verify(path, str(out)) == 1
    assert "INCONCLUSIVE" in (out / "report.txt").read_text()


def test_verify_unreadable_input(tmp_path):
    assert cmd_verify(str(tmp_path / "missing.json"), str(tmp_path / "out")) == 2


def test_main_dispatch(quick_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", quick_config, "--out", str(out)]) == 0
    assert main(["export", "--log", str(out / "log.json"), "--format", "csv",
                 "--out", str(tmp_path / "exp")]) == 0


def test_csv_precision_full_double(quick_config, tmp_path):
    out = tmp_path / "out"
    assert cmd_run(quick_config, str(out)) == 0
    log = TrajectoryLog.from_dict(json.loads((out / "log.json").read_text()))
    lines = trajectory_csv_lines(log)
    value = float(lines[1].split(",")[1])
    assert value == log.phases_wrapped[0, 0]  # round-trips exactly


def test_seed_override_redraws_random_init(tmp_path):
    data = reference_scenario_dict(
        integrator={"dt": 0.01, "t_end": 0.5, "log_stride": 10},
        output={"snapshot_times": []})
    path = write_config(tmp_path, data)
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    assert cmd_run(path, str(out_a), seed=1) == 0
    assert cmd_run(path, str(out_b), seed=2) == 0
    assert cmd_run(path, str(out_c), seed=1) == 0
    csv_a = (out_a / "trajectory.csv").read_bytes()
    assert csv_a != (out_b / "trajectory.csv").read_bytes()
    assert csv_a == (out_c / "trajectory.csv").read_bytes()


def test_bundled_configs_parse():
    from importlib import resources
    for name in ("reference_n8.json", "uniform_n2_search.json"):
        path = resources.files("ringcover") / "configs" / name
        config = scenario_from_dict(json.loads(path.read_text()))
        assert config.n_agents in (2, 8)


def test_verify_reference_scenario_passes(reference_run, tmp_path):
    log, _ = reference_run
    log_path = tmp_path / "log.json"
    log_path.write_text(json.dumps(log.to_dict()), encoding="utf-8")
    out = tmp_path / "out"
    assert cmd_verify(str(log_path), str(out)) == 0
    report = (out / "report.txt").read_text()
    assert "FAIL" not in report and "INCONCLUSIVE" not in report


def test_run_rejects_negative_generic_beta(tmp_path, caplog):
    data = uniform_scenario_dict(cost={"kind": "generic_builtin", "parameters": [-1.0]})
    assert cmd_run(write_config(tmp_path, data), str(tmp_path / "out")) == 2
    assert "cost.parameters" in caplog.text


def test_python_dash_m_runs_the_cli(quick_config, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "ringcover", "run", "--config",
                           quick_config, "--out", str(out)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize("path, value, field", [
    ("agents.count", "x", "agents.count"),
    ("region", 5, "region"),
    ("gains", [1], "gains"),
    ("integrator.dt", math.nan, "integrator.dt"),
    ("integrator.t_end", math.inf, "integrator.t_end"),
    ("seed", "abc", "seed"),
    ("region.validation_grid_size", "x", "region.validation_grid_size"),
    ("output.snapshot_times", ["a"], "output.snapshot_times"),
    ("density.parameters", ["x"], "density.parameters"),
    ("gains.kappa_phi", math.nan, "gains.kappa_phi"),
    ("density", {"kind": "radial_polynomial_times_angular", "parameters": []},
     "density.parameters"),
])
def test_run_rejects_malformed_number(tmp_path, caplog, path, value, field):
    data = uniform_scenario_dict()
    *parents, key = path.split(".")
    node = data
    for name in parents:
        node = node[name]
    node[key] = value
    assert cmd_run(write_config(tmp_path, data), str(tmp_path / "out")) == 2
    assert f"invalid config: {field}: " in caplog.text


def test_run_integration_failure_exits_3_with_partial_log(tmp_path, monkeypatch):
    monkeypatch.setattr(sim, "MAX_STEP_HALVINGS", 0)
    data = overtaking_scenario_dict()
    data["output"] = {"snapshot_times": [0, 5]}
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path, data), str(out)) == 3
    assert len((out / "trajectory.csv").read_text().strip().split("\n")) >= 2
    # only the snapshot inside the partial log's span
    assert (out / "snapshot_t0.svg").exists()
    assert not (out / "snapshot_t5.svg").exists()


@pytest.mark.parametrize("command, overrides, extra, field", [
    ("run", {"integrator": {"dt": 0.4, "t_end": 1.0, "log_stride": 1}}, [],
     "integrator.t_end"),
    ("run", {"integrator": {"dt": 0.05, "t_end": 1.0, "log_stride": 1}}, ["--dt", "0.3"],
     "integrator.t_end"),
    ("search", {"search": {"K_star": 2, "T_epsilon": 1.01}}, [], "search.T_epsilon"),
    ("run", {"integrator": {"dt": 1e-320, "t_end": 1.0, "log_stride": 1}}, [],
     "integrator.t_end"),
], ids=["dt_0.4", "dt_override_0.3", "T_epsilon_1.01", "dt_1e-320"])
def test_duration_not_a_whole_number_of_steps_exits_2(tmp_path, caplog, command,
                                                       overrides, extra, field):
    path = write_config(tmp_path, uniform_scenario_dict(**overrides))
    assert main([command, "--config", path, "--out", str(tmp_path / "out"), *extra]) == 2
    assert f"invalid config: {field}: " in caplog.text


def test_duration_of_whole_steps_up_to_rounding_runs(tmp_path):
    t_end = 0.05 * 7  # 0.35000000000000003
    data = uniform_scenario_dict(integrator={"dt": 0.05, "t_end": t_end, "log_stride": 1},
                                 output={"snapshot_times": [t_end]})
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path, data), str(out)) == 0
    log = TrajectoryLog.from_dict(json.loads((out / "log.json").read_text()))
    assert log.times.size == 8 and log.times[-1] == t_end
