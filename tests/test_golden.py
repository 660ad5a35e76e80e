"""Golden outputs: the bytes the CLI writes for the bundled scenarios.

`golden.json` holds sha256 digests of every file a `run` writes (the
trajectory CSV, the log, the config echo, the snapshot SVGs), of the
`verify` report and of the reprs of its checks' worst values, and the records
whose step halved with their halvings, for the session `reference_run`, for
the beta = 0.25 `reference_n8` run to t = 5 and for the stiff overtaking
scenario, whose steps halve; and k*,
the best total and a digest of the epoch totals of the uniform search at
K* = 8 and K* = 64. Each CSV also keeps about ten sample rows, so a mismatch
reports how far each column moved.

It also pins what the config parser makes of malformed input. Every entry
of three scenarios (the two bundled configs and a variant with the generic
cost, an angular density and a tolerance-set search), sections and list items
included, is replaced in turn by each value of `MUTATIONS` and then deleted.
Each input's outcome is the field its ConfigError names, the type of any
other exception, or a digest of the config echo ("accepted" for an unseeded
random draw), plus the types of any warnings; one digest per entry holds its
outcomes.

The digests hold for the environment named in the file (numpy and Python
versions, machine). Anywhere else they may differ in the last bits; the test
then fails, printing both environments, and never skips.

After a change that moves digits on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

which prints what moved against the old file first (the run and search
mismatch report and the moved parser entries), and list the moved digits in
CHANGES.md.
"""

import copy
import hashlib
import json
import math
import platform
import warnings
import tempfile
from pathlib import Path

import numpy as np

from conftest import (entry_paths, overtaking_scenario_dict, parser_scenarios,
                      reference_scenario_dict, scenario_run, sweep_search)
from ringcover import cli
from ringcover.sim import ConfigError, scenario_from_dict, verify_invariants

GOLDEN = Path(__file__).with_name("golden.json")
SAMPLE_ROWS = 10
SEARCH_K_STARS = (8, 64)
MUTATIONS = (None, [], {}, "x", "random", True, math.inf, -math.inf, math.nan, 1e308,
             10 ** 30, 1e-320, 0, -1, 0.5, 1.5, 2, [1.0, 0.5])
DELETED = object()


def generic_run():
    """The beta = 0.25 `reference_n8` run to t = 5, snapshots at t = 0 and 5."""
    return scenario_run(reference_scenario_dict(
        cost={"kind": "generic_builtin", "parameters": [0.25]},
        integrator={"dt": 0.01, "t_end": 5.0, "log_stride": 10},
        output={"snapshot_times": [0.0, 5.0]}))


def environment() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(log, config, out_dir: Path) -> dict:
    """Digests of the files `run` writes and of `verify`'s report, sample
    rows of the trajectory CSV, and the halvings of every record that halved."""
    cli._write_run_artifacts(log, config, out_dir, config.snapshot_times)
    checks = verify_invariants(log, config)
    # the report prints 7 digits; the worst values' reprs catch the last bits
    worst = "\n".join(f"{check.name} {check.worst!r}" for check in checks.checks)
    digests = {path.name: _sha256(path.read_bytes()) for path in sorted(out_dir.iterdir())}
    digests["report.txt"] = _sha256(("\n".join(checks.lines()) + "\n").encode("utf-8"))
    digests["report_worst_repr"] = _sha256(worst.encode("utf-8"))
    lines = (out_dir / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    stride = max(1, (len(lines) - 2) // SAMPLE_ROWS)
    rows = {str(k): lines[k + 1] for k in range(0, len(lines) - 1, stride)}
    halvings = {str(k): int(h) for k, h in enumerate(log.halvings) if h}
    return {"sha256": digests, "header": lines[0], "rows": rows, "halvings": halvings}


def search_entry(result) -> dict:
    totals = "\n".join(repr(float(record.total_cost)) for record in result.epochs)
    return {"k_star": result.best.epoch + 1,
            "best_total": repr(float(result.best.total_cost)),
            "epoch_totals_sha256": _sha256(totals.encode("utf-8"))}


def parse_outcome(data) -> str:
    """What `scenario_from_dict` makes of `data`, as a short string."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            config = scenario_from_dict(data)
        except ConfigError as exc:
            outcome = f"ConfigError {exc.field}"
        except Exception as exc:  # an escape is an outcome to pin too
            outcome = f"escaped {type(exc).__name__}"
        else:
            agents = data["agents"]
            unseeded = config.seed is None and "random" in (
                agents.get("initial_phases", "random"), agents.get("initial_positions", "random"))
            outcome = ("accepted" if unseeded else
                       _sha256(json.dumps(config.to_dict(), indent=2).encode("utf-8")))
    return outcome + "".join(sorted({f" warned {w.category.__name__}" for w in caught}))


def entry_outcomes(base: dict, path: tuple) -> list:
    """The outcomes of `base` with the entry at `path` set to each mutation, then deleted."""
    def mutated(value):
        data = copy.deepcopy(base)
        node = data
        for key in path[:-1]:
            node = node[key]
        if value is DELETED:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
        return data

    return [parse_outcome(mutated(value)) for value in (*MUTATIONS, DELETED)]


def parser_paths() -> dict:
    """Per scenario, its base config and its entry paths keyed by their dotted names."""
    return {name: (base, {".".join(map(str, path)): path for path in entry_paths(base)})
            for name, base in parser_scenarios().items()}


def parser_entries() -> dict:
    """Per scenario and entry path, a digest of that entry's outcomes."""
    return {name: {dotted: _sha256("\n".join(entry_outcomes(base, path)).encode("utf-8"))[:16]
                   for dotted, path in paths.items()}
            for name, (base, paths) in parser_paths().items()}


def golden_entries(reference, generic, sweep, out_dir: Path) -> dict:
    runs = {}
    for name, (log, config) in (("reference_n8", reference),
                                ("reference_n8_beta0.25_t5", generic),
                                ("overtaking", scenario_run(overtaking_scenario_dict()))):
        (out_dir / name).mkdir()
        runs[name] = run_entry(log, config, out_dir / name)
    return {"environment": environment(), "runs": runs,
            "search": {f"K{k}": search_entry(sweep[k]) for k in SEARCH_K_STARS}}


def column_deviations(expected: dict, actual: dict) -> list:
    """Per CSV column, the largest |actual - expected| over the sample rows."""
    names = expected["header"].split(",")
    if actual["header"] != expected["header"]:
        return [f"header changed: {actual['header']}"]
    if actual["rows"].keys() != expected["rows"].keys():
        return [f"sample rows changed: {sorted(actual['rows'], key=int)}"]
    worst = np.zeros(len(names))
    for k, line in expected["rows"].items():
        want = np.array(line.split(","), dtype=float)
        got = np.array(actual["rows"][k].split(","), dtype=float)
        worst = np.maximum(worst, np.abs(got - want))
    return [f"{name}: {dev:.3e}" for name, dev in zip(names, worst)]


def mismatch_report(expected: dict, actual: dict) -> str:
    lines = [f"golden environment:  {expected['environment']}",
             f"current environment: {actual['environment']}"]
    for name, want in expected["runs"].items():
        got = actual["runs"][name]
        moved = [f for f, digest in want["sha256"].items()
                 if got["sha256"].get(f) != digest]
        moved += sorted(set(got["sha256"]) - set(want["sha256"]))
        if got["halvings"] != want["halvings"]:
            moved.append("halvings")
        if moved:
            lines.append(f"{name}: changed {', '.join(moved)}")
            lines.append("  largest CSV deviation per column: "
                         + "; ".join(column_deviations(want, got)))
    for name, want in expected["search"].items():
        if actual["search"][name] != want:
            lines.append(f"search {name}: golden {want}, now {actual['search'][name]}")
    return "\n".join(lines)


def test_outputs_match_golden(reference_run, search_sweep, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = golden_entries(reference_run, generic_run(), search_sweep, tmp_path)
    outputs = ("runs", "search")
    assert ({key: actual[key] for key in outputs}
            == {key: expected[key] for key in outputs}), mismatch_report(expected, actual)


def moved_parser_entries(expected: dict, actual: dict) -> list:
    """(scenario, entry) of every parser entry whose digest moved, came or went."""
    return [(name, path) for name in sorted(expected.keys() | actual.keys())
            for path in sorted(expected.get(name, {}).keys() | actual.get(name, {}).keys())
            if expected.get(name, {}).get(path) != actual.get(name, {}).get(path)]


def test_parser_outcomes_match_golden():
    # on a mismatch, list each moved entry with its outcomes now
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["parser"]
    scenarios = parser_paths()
    moved = []
    for name, path in moved_parser_entries(expected, parser_entries()):
        base, paths = scenarios.get(name, ({}, {}))
        now = entry_outcomes(base, paths[path]) if path in paths else "gone"
        moved.append(f"{name} {path}: now {now}")
    assert moved == [], "parser outcomes moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        entries = golden_entries(scenario_run(reference_scenario_dict()), generic_run(),
                                 {k: sweep_search(k) for k in SEARCH_K_STARS},
                                 Path(scratch))
    entries["parser"] = parser_entries()
    if GOLDEN.exists():  # what moved against the file it replaces
        old = json.loads(GOLDEN.read_text(encoding="utf-8"))
        print(mismatch_report(old, entries))
        for name, path in moved_parser_entries(old["parser"], entries["parser"]):
            state = ("gone" if path not in entries["parser"].get(name, {}) else
                     "new" if path not in old["parser"].get(name, {}) else "moved")
            print(f"parser {name} {path}: {state}")
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
