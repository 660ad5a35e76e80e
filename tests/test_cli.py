import io
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (CONFIGS, overtaking_scenario_dict, reference_scenario_dict,
                      uniform_scenario_dict)
from ringcover import agents, cli, geometry, sim
from ringcover.cli import (_setup_logging, cmd_export, cmd_run, cmd_search, cmd_verify,
                           main, trajectory_csv_lines)
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


def test_generic_cost_without_beta_echoes_the_default_and_replays(tmp_path):
    data = uniform_scenario_dict(cost={"kind": "generic_builtin"},
                                 integrator={"dt": 0.05, "t_end": 1.0, "log_stride": 5})
    out_a = tmp_path / "a"
    assert cmd_run(write_config(tmp_path, data), str(out_a)) == 0
    echo_path = out_a / "config_echo.json"
    assert json.loads(echo_path.read_text())["cost"] == {"kind": "generic_builtin",
                                                         "parameters": [0.25]}
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


def test_export_checks_every_time_before_writing(quick_config, tmp_path):
    out = tmp_path / "out"
    assert cmd_run(quick_config, str(out)) == 0
    export_dir = tmp_path / "svg"
    assert main(["export", "--log", str(out / "log.json"), "--format", "svg-snapshots",
                 "--times", "0", "99", "--out", str(export_dir)]) == 2
    assert not export_dir.exists()


@pytest.mark.parametrize("times, outlines", [([0.0, 1.0, 2.0], 2), ([], 0)])
def test_run_draws_the_outline_once(tmp_path, monkeypatch, times, outlines):
    radius = geometry.PolarCurve.radius
    calls = []

    def counted(self, theta):
        calls.append(np.shape(theta))
        return radius(self, theta)

    data = uniform_scenario_dict(integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5},
                                 output={"snapshot_times": times})
    path = write_config(tmp_path, data)
    monkeypatch.setattr(geometry.PolarCurve, "radius", counted)
    out = tmp_path / "out"
    assert cmd_run(path, str(out)) == 0
    assert len(list(out.glob("*.svg"))) == len(times)
    assert calls.count((512,)) == outlines


def test_exported_snapshot_matches_the_run(quick_config, tmp_path):
    out = tmp_path / "out"
    assert cmd_run(quick_config, str(out)) == 0
    export_dir = tmp_path / "svg"
    assert cmd_export(str(out / "log.json"), "svg-snapshots", str(export_dir),
                      times=[2.0]) == 0
    assert [path.name for path in export_dir.iterdir()] == ["snapshot_t2.svg"]
    assert ((export_dir / "snapshot_t2.svg").read_bytes()
            == (out / "snapshot_t2.svg").read_bytes())


@pytest.mark.parametrize("t", [2.2, -0.2])
def test_snapshot_time_outside_the_log_exits_2(quick_config, tmp_path, caplog, t):
    # the run ends at t = 2.0 with records every 0.25; the parser rejects t
    # before any step is taken
    data = uniform_scenario_dict(integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5},
                                 output={"snapshot_times": [t]})
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path, data, "outside.json"), str(out)) == 2
    assert "invalid config: output.snapshot_times: " in caplog.text
    assert not (out / "trajectory.csv").exists()
    assert list(out.glob("*.svg")) == []
    # export of a valid run's log rejects the same time
    valid = tmp_path / "valid"
    assert cmd_run(quick_config, str(valid)) == 0
    assert cmd_export(str(valid / "log.json"), "svg-snapshots", str(tmp_path / "svg"),
                      times=[t]) == 2
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


def test_search_echo_replays_identically(tmp_path):
    data = uniform_scenario_dict(
        search={"epsilon_p": math.pi, "T_epsilon": 4.0},
        integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_search(write_config(tmp_path, data), str(out_a)) == 0
    assert cmd_search(str(out_a / "config_echo.json"), str(out_b)) == 0
    assert (out_a / "epochs.csv").read_bytes() == (out_b / "epochs.csv").read_bytes()


def test_search_fails_when_the_totals_disagree(tmp_path, monkeypatch, caplog):
    data = uniform_scenario_dict(
        search={"K_star": 2, "T_epsilon": 4.0},
        integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5})
    path = write_config(tmp_path, data)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_search(path, str(out_a)) == 0
    recompute = cli.recompute_total
    monkeypatch.setattr(cli, "recompute_total",
                        lambda *args: recompute(*args) * (1.0 + 1e-7))
    assert cmd_search(path, str(out_b)) == 1
    assert "disagrees with the table total" in caplog.text
    # both outputs are written first, and the table's own outputs do not move
    assert (out_a / "epochs.csv").read_bytes() == (out_b / "epochs.csv").read_bytes()
    final_a, final_b = (json.loads((out / "final_configuration.json").read_text())
                        for out in (out_a, out_b))
    assert final_b["recomputed_total_cost"] != final_a["recomputed_total_cost"]
    final_a.pop("recomputed_total_cost")
    final_b.pop("recomputed_total_cost")
    assert final_a == final_b


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
    with open(log_path, "w", encoding="utf-8") as handle:
        cli.write_log(log, handle)
    out = tmp_path / "out"
    assert cmd_verify(str(log_path), str(out)) == 1
    report = (out / "report.txt").read_text()
    assert "workload_positivity" in report and "FAIL" in report


TRENDS = ("trend_phi_rate", "trend_max_speed", "trend_target_rate")
EXCURSIONS = ("excursion_fraction", "excursion_depth", "targets_outside")


def assert_trends_reported_as_info(report: str):
    lines = {line.split(":")[0]: line for line in report.splitlines()}
    for name in TRENDS + EXCURSIONS:
        assert lines[name].endswith(" INFO"), lines[name]


def test_verify_short_run_passes_with_trends_as_info(tmp_path):
    # a 2-unit run has not settled; its trends are reported, not gated
    data = uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 2.0, "log_stride": 5})
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cmd_verify(path, str(out)) == 0
    report = (out / "report.txt").read_text()
    assert "FAIL" not in report
    assert_trends_reported_as_info(report)


@pytest.mark.parametrize("column, forge", [
    ("positions", lambda records: records["positions"].pop()),
    ("workloads", lambda records: records.update(
        workloads=[row[:1] for row in records["workloads"]])),
], ids=["positions_one_row_short", "workloads_one_entry_per_row"])
def test_malformed_log_exits_2(quick_config, tmp_path, caplog, column, forge):
    run_out = tmp_path / "run"
    assert cmd_run(quick_config, str(run_out)) == 0
    data = json.loads((run_out / "log.json").read_text())
    forge(data["records"])
    path = write_config(tmp_path, data, "forged_log.json")
    assert cmd_verify(path, str(tmp_path / "verify")) == 2
    assert cmd_export(path, "csv", str(tmp_path / "export")) == 2
    assert caplog.text.count(f"malformed trajectory log: {column} has shape") == 2
    assert not (tmp_path / "export" / "trajectory.csv").exists()


@pytest.mark.parametrize("forge, message", [
    (lambda data: data.update(meta=[]), "meta is []"),
    (lambda data: data["meta"].update(guard_failures="x"), "meta.guard_failures is 'x'"),
    (lambda data: data["meta"].update(guard_failures=0.5), "meta.guard_failures is 0.5"),
], ids=["meta_not_an_object", "guard_failures_a_string", "guard_failures_a_fraction"])
def test_malformed_meta_exits_2(quick_config, tmp_path, caplog, forge, message):
    run_out = tmp_path / "run"
    assert cmd_run(quick_config, str(run_out)) == 0
    data = json.loads((run_out / "log.json").read_text())
    forge(data)
    path = write_config(tmp_path, data, "forged_log.json")
    assert cmd_verify(path, str(tmp_path / "verify")) == 2
    assert cmd_export(path, "csv", str(tmp_path / "export")) == 2
    assert caplog.text.count(f"malformed trajectory log: {message}") == 2


BOUND_CONSTANTS = ("m_bar", "c1", "c2", "lambda_min")


@pytest.mark.parametrize("forge", [
    lambda meta: [meta.pop(name) for name in BOUND_CONSTANTS],
    lambda meta: meta.update(dict.fromkeys(BOUND_CONSTANTS, "x")),
], ids=["deleted", "not_numbers"])
def test_verify_bound_constants_ignore_meta(quick_config, tmp_path, forge):
    # verify works the bound constants out from the config echo and the
    # first record; the meta entries only echo them
    run_out = tmp_path / "run"
    assert cmd_run(quick_config, str(run_out)) == 0
    assert cmd_verify(str(run_out / "log.json"), str(tmp_path / "intact")) == 0
    data = json.loads((run_out / "log.json").read_text())
    forge(data["meta"])
    path = write_config(tmp_path, data, "forged_log.json")
    assert cmd_verify(path, str(tmp_path / "forged")) == 0
    assert ((tmp_path / "forged" / "report.txt").read_bytes()
            == (tmp_path / "intact" / "report.txt").read_bytes())


def test_log_with_a_wrapped_phase_column_still_loads(quick_config, tmp_path):
    # logs written before the wrapped phases left the log carry them as an
    # extra column, which verify and export ignore
    run_out = tmp_path / "run"
    assert cmd_run(quick_config, str(run_out)) == 0
    data = json.loads((run_out / "log.json").read_text())
    assert "phases_wrapped" not in data["records"]
    data["records"]["phases_wrapped"] = data["records"]["phases_unwrapped"]
    path = write_config(tmp_path, data, "older_log.json")
    assert cmd_verify(path, str(tmp_path / "verify")) == 0
    assert cmd_export(path, "csv", str(tmp_path / "export")) == 0
    assert ((tmp_path / "export" / "trajectory.csv").read_bytes()
            == (run_out / "trajectory.csv").read_bytes())


def test_verify_rejects_overrides_on_stored_log(quick_config, tmp_path, caplog):
    run_out = tmp_path / "run"
    assert cmd_run(quick_config, str(run_out)) == 0
    log_path = str(run_out / "log.json")
    for flag, value in (("--dt", "0.005"), ("--seed", "3")):
        assert main(["verify", "--config", log_path, "--out", str(tmp_path / "out"),
                     flag, value]) == 2
    assert caplog.text.count("--seed/--dt apply to a scenario config, "
                             "not to a stored log") == 2
    assert not (tmp_path / "out" / "report.txt").exists()


def test_log_level_warning(monkeypatch):
    levels = []
    monkeypatch.setattr(logging, "basicConfig",
                        lambda **kwargs: levels.append(kwargs["level"]))
    for name in ("warning", "WARNING", "error", "nonsense"):
        monkeypatch.setenv("COVERAGE_LOG_LEVEL", name)
        _setup_logging()
    assert levels == [logging.WARNING, logging.WARNING, logging.ERROR, logging.INFO]


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
    lines = list(trajectory_csv_lines(log))
    value = float(lines[1].split(",")[1])
    assert value == log.phases_unwrapped[0, 0]  # round-trips exactly; t = 0 is in [0, 2*pi)


def one_shot_log_json(log) -> str:
    """log.json as one `json.dumps` of the log's list form."""
    data = log.to_dict()
    data["records"] = {name: column.tolist() for name, column in data["records"].items()}
    return json.dumps(data)


def one_shot_csv(log) -> str:
    """trajectory.csv formatted from one table of every record."""
    table = np.column_stack([log.times, np.mod(log.phases_unwrapped, 2.0 * math.pi),
                             log.positions[:, :, 0], log.positions[:, :, 1], log.workloads,
                             log.lyapunov, log.cost, log.tracking])
    header = next(trajectory_csv_lines(log)).rstrip("\n")
    return "\n".join([header] + [",".join(format(v, ".17g") for v in row)
                                  for row in table.tolist()]) + "\n"


@pytest.mark.parametrize("rows", [1, 127, 128, 129, 1001])
def test_block_writers_match_the_one_shot_bytes(reference_run, rows):
    # the first `rows` records of the reference run, which has excursions,
    # with halvings set on some of them so that both int columns vary
    log, _ = reference_run
    assert log.times.size == 1001 and log.excursion.any()
    data = log.to_dict()
    data["records"] = {name: column[:rows] for name, column in data["records"].items()}
    head = TrajectoryLog.from_dict(data)
    head.halvings[::3] = 2
    handle = io.StringIO()
    cli.write_log(head, handle)
    assert handle.getvalue() == one_shot_log_json(head)
    assert "".join(trajectory_csv_lines(head)) == one_shot_csv(head)


def test_from_dict_of_to_dict_copies_every_column(reference_run):
    log, _ = reference_run
    saved = {name: getattr(log, name).copy() for name in sim._RECORDS}
    copy = TrajectoryLog.from_dict(log.to_dict())
    for name in sim._RECORDS:
        getattr(copy, name)[...] = 7
        np.testing.assert_array_equal(getattr(log, name), saved[name], err_msg=name)


class Sink:
    """A text handle that discards what it is given."""

    def write(self, text):
        pass

    def writelines(self, lines):
        for _ in lines:
            pass


def test_block_writers_trace_under_one_megabyte():
    # 20 000 records of N = 8 hold 8.5 MB of arrays. The block writers trace
    # 0.51 and 0.18 MiB here; formatted from lists of every record at once,
    # the log traced 98 MiB and the CSV 43 MiB
    rng = np.random.default_rng(0)
    rows, n = 20_000, 8
    log = TrajectoryLog(
        times=np.arange(rows) * 0.01, phases_unwrapped=rng.uniform(0, 7, (rows, n)),
        positions=rng.normal(size=(rows, n, 2)), workloads=rng.uniform(1, 2, (rows, n)),
        lyapunov=rng.uniform(size=rows), cost=rng.uniform(size=rows),
        targets=rng.normal(size=(rows, n, 2)), tracking=rng.uniform(size=rows),
        excursion=rng.uniform(size=rows) < 0.1, halvings=rng.integers(0, 3, rows),
        config_echo={"seed": 0}, meta={"guard_failures": 0})
    writers = {"write_log": lambda sink: cli.write_log(log, sink),
               "trajectory_csv_lines": lambda sink: sink.writelines(trajectory_csv_lines(log))}
    peaks = {}
    tracemalloc.start()
    try:
        for name, write in writers.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            write(Sink())
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(peak < 2 ** 20 for peak in peaks.values()), peaks


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
    with open(log_path, "w", encoding="utf-8") as handle:
        cli.write_log(log, handle)
    out = tmp_path / "out"
    assert cmd_verify(str(log_path), str(out)) == 0
    report = (out / "report.txt").read_text()
    assert "FAIL" not in report
    assert_trends_reported_as_info(report)


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
    ("region.outer.mean", "x", "region.outer.mean"),
    ("output.snapshot_times", ["a"], "output.snapshot_times"),
    ("density.parameters", ["x"], "density.parameters"),
    ("gains.kappa_phi", math.nan, "gains.kappa_phi"),
    ("density", {"kind": "radial_polynomial_times_angular", "parameters": []},
     "density.parameters"),
    # integer fields reject non-integral values and booleans instead of truncating
    ("agents.count", 2.7, "agents.count"),
    ("integrator.log_stride", 1.5, "integrator.log_stride"),
    ("integrator.log_stride", True, "integrator.log_stride"),
    ("search.K_star", 8.9, "search.K_star"),
    ("seed", 3.9, "seed"),
    ("seed", -1, "seed"),
    # float fields reject booleans and numeric strings instead of converting
    ("gains.kappa_phi", True, "gains.kappa_phi"),
    ("gains.kappa_p", "0.5", "gains.kappa_p"),
    ("integrator.dt", "0.05", "integrator.dt"),
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


# Regions whose curves the region grid samples valid but which are not: an
# inner curve 1 + 0.4 cos(256 theta + pi / 8) that crosses the outer circle by
# 0.02 between grid angles, and inner curves 1 - 0.9 cos(h theta) that read 0.1
# at every grid angle but reach 1.9 between them, outside the circle of 1.5.
ALIASED_REGIONS = {
    "crossing_256": {"inner": {"mean": 1.0,
                               "cos": [0.0] * 255 + [0.4 * math.cos(math.pi / 8)],
                               "sin": [0.0] * 255 + [-0.4 * math.sin(math.pi / 8)]},
                     "outer": {"mean": 1.38}},
    **{f"dip_{h}": {"inner": {"mean": 1.0, "cos": [0.0] * (h - 1) + [-0.9]},
                    "outer": {"mean": 1.5}} for h in (2048, 4096, 8192)},
}


@pytest.mark.parametrize("command", ["run", "search", "verify"])
@pytest.mark.parametrize("region", ALIASED_REGIONS)
def test_region_invalid_between_grid_angles_exits_2_and_writes_nothing(tmp_path, caplog,
                                                                      command, region):
    # checked on the grid alone, the crossing region passed `run`, `search`
    # and `verify` (exit 0), the dip at h = 8192 passed `run`, and the dips at
    # h = 2048 and 4096 failed the moment table's check (exit 3)
    data = uniform_scenario_dict(region=ALIASED_REGIONS[region], seed=3,
                                 agents={"count": 2, "initial_phases": [0.4, 1.9],
                                         "initial_positions": "random"},
                                 integrator={"dt": 0.05, "t_end": 0.5, "log_stride": 1},
                                 search={"K_star": 2, "T_epsilon": 0.5})
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
    assert ": region: " in caplog.text
    assert not out.exists()


def test_a_log_carrying_the_removed_grid_option_verifies_and_exports_the_same(quick_config,
                                                                            tmp_path):
    # logs written while `region.validation_grid_size` was an option carry it
    # in their config echo; the parser ignores it as any unknown key
    assert cmd_run(quick_config, str(tmp_path / "run")) == 0
    fresh = tmp_path / "run" / "log.json"
    data = json.loads(fresh.read_text(encoding="utf-8"))
    data["config"]["region"]["validation_grid_size"] = 2048
    for name, path in (("fresh", str(fresh)), ("old", write_config(tmp_path, data, "old.json"))):
        assert cmd_verify(path, str(tmp_path / name)) == 0
        assert cmd_export(path, "svg-snapshots", str(tmp_path / name)) == 0
    written = {name: {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
               for name in ("fresh", "old")}
    assert sorted(written["fresh"]) == ["report.txt", "snapshot_t0.svg", "snapshot_t2.svg"]
    assert written["old"] == written["fresh"]


@pytest.mark.parametrize("path, value, message", [
    # numpy's shape limit in the phase draw raised ValueError (exit 1)
    ("agents.count", 1e308, "agents.count: need 2 to 1000 agents, got 1e+308"),
    ("agents.count", 10 ** 30, f"agents.count: need 2 to 1000 agents, got {10 ** 30}"),
    ("agents.count", sim.MAX_AGENTS + 1, "agents.count: need 2 to 1000 agents, got 1001"),
    # the position draw overflowed (exit 1), and the table's rows overflowed
    # with warnings to an infinite workload floor (exit 3)
    ("region.outer.mean", 1e308, "region.outer: radius may reach 1.000e+308; at most 1e+06"),
    ("region.outer.mean", 1e200, "region.outer: radius may reach 1.000e+200; at most 1e+06"),
    # a huge density overflowed the table with warnings (an infinite total),
    # and a subnormal one failed the table's build-time check (exit 3)
    ("density.parameters", [1e305],
     "density: ranges over [4.985e+304, 3.502e+305] on the region; need [1e-100, 1e+100]"),
    ("density", {"kind": "uniform", "parameters": [1e-320]},
     "density: ranges over [1.000e-320, 1.000e-320] on the region; need [1e-100, 1e+100]"),
], ids=["count_1e308", "count_10**30", "count_above_bound", "outer_1e308", "outer_1e200",
        "density_1e305", "density_1e-320"])
def test_oversized_config_values_exit_2_without_warnings(tmp_path, caplog, path, value,
                                                         message):
    data = reference_scenario_dict(integrator={"dt": 0.01, "t_end": 0.02, "log_stride": 1})
    *parents, key = path.split(".")
    node = data
    for name in parents:
        node = node[name]
    node[key] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cmd_run(write_config(tmp_path, data), str(tmp_path / "out")) == 2
    assert caught == []
    assert f"invalid config: {message}" in caplog.text


def test_the_size_bounds_parse():
    # N = MAX_AGENTS bars, evenly spaced, on a region of outer radius
    # MAX_RADIUS: the floor is finite, and the guard still refuses a bar
    # that overtakes its neighbour by one ulp-sized step
    n = sim.MAX_AGENTS
    data = reference_scenario_dict(agents={"count": n, "initial_positions": "random",
                                           "initial_phases": [k * geometry.TWO_PI / n
                                                              for k in range(n)]})
    data["region"]["outer"] = {"mean": sim.MAX_RADIUS - 0.5, "cos": [0.0, 0.5]}
    config = scenario_from_dict(data)
    system = sim._System(config.region, config.density, config.beta, n,
                         config.kappa_phi, config.kappa_p)
    assert config.n_agents == n and 0.0 < system.workload_floor < math.inf
    phases = config.initial_phases
    assert system.guard(phases) is not None
    for i in (0, n // 2, n - 2):
        crossed = phases.copy()
        crossed[i + 1] = np.nextafter(phases[i], -math.inf)
        assert system.guard(crossed) is None and system.refusal == "crossing"


@pytest.mark.parametrize("path", ["gains.kappa_phi", "gains.kappa_p", "integrator.t_end",
                                  "search.T_epsilon"])
def test_run_reports_a_missing_required_field(tmp_path, caplog, path):
    data = uniform_scenario_dict()
    section, key = path.split(".")
    del data[section][key]
    assert cmd_run(write_config(tmp_path, data), str(tmp_path / "out")) == 2
    assert f"invalid config: {path}: missing" in caplog.text


@pytest.mark.parametrize("command", ["run", "search", "verify"])
def test_negative_seed_override_exits_2(tmp_path, caplog, command):
    path = write_config(tmp_path, uniform_scenario_dict())
    assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                 "--seed", "-1"]) == 2
    assert "seed: must be non-negative" in caplog.text


@pytest.mark.parametrize("command", ["run", "search", "verify"])
def test_negative_radial_moment_exits_2_and_writes_nothing(tmp_path, caplog, command):
    # the inner curve's k = 256 harmonic takes r from 1.6 down to 0.4, where
    # rho = r - 1.59 < 0 and the radial moment reaches -0.41; the range over
    # r in [0.4 - margin, 2] refuses it at parse
    region = {"inner": {"mean": 1.0, "cos": [0.0] * 255 + [0.6]}, "outer": {"mean": 2.0}}
    density = {"kind": "radial_polynomial_times_angular", "parameters": [-1.59, 1.0]}
    path = write_config(tmp_path, uniform_scenario_dict(region=region, density=density))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert ("density: ranges over [-1.426e+00, 4.100e-01] on the region; "
            "need [1e-100, 1e+100]") in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "search", "verify"])
@pytest.mark.parametrize("region, parameters, message", [
    # (r - 1.01)^2 - 1e-6 reads -1e-6 at r = 1.01, inside the annulus 1-2
    ({"inner": {"mean": 1.0}, "outer": {"mean": 2.0}}, [1.020099, -2.02, 1.0],
     "density: ranges over [-1.000e-06, 9.801e-01] on the region"),
    # degree 2099 exceeds MAX_RADIAL_DEGREE: its table pass needs 1053 radial
    # nodes an angle, past the budget of 1024
    ({"inner": {"mean": 0.5}, "outer": {"mean": 0.9}}, [1.0] + [0.0] * 2098 + [1.0],
     "density.parameters: radial degree above 2042"),
], ids=["negative_between_samples", "degree_2099"])
def test_a_density_out_of_range_or_degree_exits_2_and_writes_nothing(
        tmp_path, caplog, command, region, parameters, message):
    density = {"kind": "radial_polynomial_times_angular", "parameters": parameters}
    path = write_config(tmp_path, uniform_scenario_dict(region=region, density=density))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert f": {message}" in caplog.text
    assert not out.exists()


def test_parsing_builds_no_moment_table(reference_run, tmp_path):
    # the parser bounds the density in closed form: neither a parse of a
    # bundled config nor `export --format csv` of a stored log builds a table
    for name in ("reference_n8", "uniform_n2_search"):
        geometry.moment_table.cache_clear()
        scenario_from_dict(json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8")))
        assert geometry.moment_table.cache_info().currsize == 0, name
    path = tmp_path / "log.json"
    with path.open("w", encoding="utf-8") as handle:
        cli.write_log(reference_run[0], handle)
    geometry.moment_table.cache_clear()
    assert cmd_export(str(path), "csv", str(tmp_path / "export")) == 0
    assert geometry.moment_table.cache_info().currsize == 0

@pytest.mark.parametrize("command", ["run", "search", "verify"])
@pytest.mark.parametrize("h, least", [(256, "-1.000e-02"), (2048, "2.010e+00"),
                                      (4096, "2.010e+00"), (8192, "2.010e+00")])
def test_angular_factor_of_two_signs_exits_2_and_writes_nothing(tmp_path, caplog, command,
                                                               h, least):
    # 1 + 1.01 cos(h theta) dips to -0.01. Checked on samples alone, at h = 256
    # it failed the radial moment check; at h >= 2048 it reads 2.01 at every
    # grid angle, failed the moment table's check at h = 2048 and 4096 (exit
    # 3) and ran at h = 8192
    density = {"kind": "radial_polynomial_times_angular", "parameters": [1.0],
               "angular": {"mean": 1.0, "cos": [0.0] * (h - 1) + [1.01]}}
    path = write_config(tmp_path, uniform_scenario_dict(density=density))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert (f": density.angular: sampled over [{least}, 2.010e+00], not of one sign beyond "
            f"the margin {math.pi / 2048 * h * 1.01:.3e}") in caplog.text
    assert not out.exists()


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


def test_partial_log_keeps_a_snapshot_at_its_last_record(tmp_path, monkeypatch):
    # record 3 of dt = 0.15 lies at 0.44999999999999996, and the fourth step
    # fails: the snapshot at 0.45 is in the partial log's span up to rounding,
    # as it is in a complete log's
    steps = iter(range(3))
    advance = sim._System.advance

    def advance_three_steps(self, start, dt, block):
        if next(steps, None) is None:
            raise sim.IntegrationError("step refused")
        return advance(self, start, dt, block)

    monkeypatch.setattr(sim._System, "advance", advance_three_steps)
    data = uniform_scenario_dict(integrator={"dt": 0.15, "t_end": 0.6, "log_stride": 1},
                                 output={"snapshot_times": [0.0, 0.45, 0.6]})
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path, data), str(out)) == 3
    log = TrajectoryLog.from_dict(json.loads((out / "log.json").read_text()))
    assert log.times[-1] == 3 * 0.15 != 0.45
    assert sorted(path.name for path in out.glob("*.svg")) == ["snapshot_t0.45.svg",
                                                               "snapshot_t0.svg"]


@pytest.mark.parametrize("command", ["run", "search", "verify"])
def test_table_failure_exits_3(tmp_path, monkeypatch, caplog, command):
    # 16 samples alias the reference profiles, so the table's build-time check
    # raises QuadratureError: a runtime failure, not a failed verification
    data = reference_scenario_dict(integrator={"dt": 0.01, "t_end": 0.02, "log_stride": 1},
                                   search={"K_star": 2, "T_epsilon": 0.01})
    path = write_config(tmp_path, data)
    if command == "verify":
        assert main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
        path = str(tmp_path / "run" / "log.json")
    geometry.moment_table.cache_clear()
    monkeypatch.setattr(geometry, "_TABLE_GRID", 16)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "runtime failure: moment table misses the radial quadrature" in caplog.text


@pytest.mark.parametrize("command", ["search", "verify"])
def test_integration_failure_exits_3(tmp_path, monkeypatch, caplog, command):
    # the stiff bars cross on a whole step, and no halving is allowed
    monkeypatch.setattr(sim, "MAX_STEP_HALVINGS", 0)
    data = {**overtaking_scenario_dict(), "search": {"K_star": 2, "T_epsilon": 1.0}}
    path = write_config(tmp_path, data)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "runtime failure: step still crosses bars" in caplog.text


@pytest.mark.parametrize("command", ["run", "search"])
def test_overflowing_trial_exits_3_as_non_finite_without_warnings(tmp_path, caplog, command):
    # at a density of 1e100 the bar law is so stiff that every trial, halved
    # or not, overflows to non-finite phases: the guard names the cause, and
    # the stepping loop holds numpy's overflow and invalid-value warnings
    data = reference_scenario_dict(density={"kind": "uniform", "parameters": [1e100]},
                                   integrator={"dt": 0.01, "t_end": 1.0, "log_stride": 10},
                                   search={"K_star": 2, "T_epsilon": 1.0})
    path = write_config(tmp_path, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert [str(w.message) for w in caught] == []
    assert ("step still gives non-finite slice masses at t = 0 after 8 step halvings "
            "(non-finite)") in caplog.text


def test_target_search_failure_exits_3(tmp_path, monkeypatch, caplog):
    # one Newton step from the centroid does not reach the quartic cost's optimum
    monkeypatch.setattr(agents, "MAX_NEWTON_STEPS", 1)
    data = uniform_scenario_dict(cost={"kind": "generic_builtin", "parameters": [0.25]},
                                 integrator={"dt": 0.05, "t_end": 0.1, "log_stride": 1})
    path = write_config(tmp_path, data)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "runtime failure: Newton steps still" in caplog.text


@pytest.mark.parametrize("command, overrides, extra, field", [
    ("run", {"integrator": {"dt": 0.4, "t_end": 1.0, "log_stride": 1}}, [],
     "integrator.t_end"),
    ("run", {"integrator": {"dt": 0.05, "t_end": 1.0, "log_stride": 1}}, ["--dt", "0.3"],
     "integrator.t_end"),
    ("search", {"search": {"K_star": 2, "T_epsilon": 1.01}}, [], "search.T_epsilon"),
    ("run", {"integrator": {"dt": 1e-320, "t_end": 1.0, "log_stride": 1}}, [],
     "integrator.t_end"),
    # the same rule for the anchor count 2 pi / epsilon_p, whose overflow
    # escaped as OverflowError (exit 1)
    ("search", {"search": {"epsilon_p": 1e-320, "T_epsilon": 1.0}}, [], "search.epsilon_p"),
], ids=["dt_0.4", "dt_override_0.3", "T_epsilon_1.01", "dt_1e-320", "epsilon_p_1e-320"])
def test_duration_not_a_whole_number_of_steps_exits_2(tmp_path, caplog, command,
                                                       overrides, extra, field):
    path = write_config(tmp_path, uniform_scenario_dict(**overrides))
    assert main([command, "--config", path, "--out", str(tmp_path / "out"), *extra]) == 2
    assert f"invalid config: {field}: " in caplog.text


@pytest.mark.parametrize("command, data, extra, field", [
    ("run", [1, 2], ["--seed", "1"], "config"),
    ("verify", [1, 2], ["--seed", "1"], "config"),
    ("run", {**uniform_scenario_dict(), "integrator": 5}, ["--dt", "0.1"], "integrator"),
    ("search", {**uniform_scenario_dict(), "integrator": 5, "search": {"K_star": 2}},
     ["--dt", "0.1"], "integrator"),
    ("run", uniform_scenario_dict(cost={"kind": ["x"]}), [], "cost.kind"),
], ids=["seed_on_array", "verify_seed_on_array", "dt_on_integrator_number",
        "search_dt_on_integrator_number", "cost_kind_list"])
def test_malformed_config_exits_2_naming_the_field(tmp_path, caplog, command, data, extra,
                                                  field):
    # the overrides are written only into sections of the right shape, so
    # the parser reports the bad field instead of a TypeError escaping
    path = write_config(tmp_path, data)
    assert main([command, "--config", path, "--out", str(tmp_path / "out"), *extra]) == 2
    assert f": {field}: " in caplog.text


def test_node_budget_failure_exits_3(tmp_path, monkeypatch, caplog):
    # a radial pass past the node budget fails before it allocates its nodes
    path = write_config(tmp_path, uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 0.1, "log_stride": 1}))
    geometry.moment_table.cache_clear()
    monkeypatch.setattr(geometry, "_NODE_BUDGET", 8)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "runtime failure: radial pass of 4096 angles x 3 nodes exceeds" in caplog.text


def test_duration_of_whole_steps_up_to_rounding_runs(tmp_path):
    t_end = 0.05 * 7  # 0.35000000000000003
    data = uniform_scenario_dict(integrator={"dt": 0.05, "t_end": t_end, "log_stride": 1},
                                 output={"snapshot_times": [t_end]})
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path, data), str(out)) == 0
    log = TrajectoryLog.from_dict(json.loads((out / "log.json").read_text()))
    assert log.times.size == 8 and log.times[-1] == t_end
