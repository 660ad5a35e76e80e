"""The benchmark workloads: scenario generation, CLI commands and fingerprints.

A workload builds one scenario dict from the benchmark seed and drives
`ringcover.cli.main` in-process with it, one command after the previous one
finishes (a closed loop with a single caller). Every command starts with cold
moment-table caches, as a fresh `ringcover` process would. After each command
the benchmark reads the command's output files and reduces them to a
fingerprint; a command fails on a non-zero exit, an exception, or a missed
fingerprint check.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ringcover import cli, geometry, sim

CONFIG_DIR = Path(geometry.__file__).parent / "configs"

# Captured before any tracing wrapper replaces the module attributes.
_CACHED = (geometry.moment_table, geometry.radial_moment_extrema)
_SCENARIO_FROM_DICT = sim.scenario_from_dict

BALANCE_TOLERANCE = 1e-3
SEARCH_TOTAL_RTOL = 1e-9


def clear_caches():
    for cached in _CACHED:
        cached.cache_clear()


def setup_once(scenario: dict):
    """(seconds, table modes) of parse, table build and moment extrema, cold."""
    data = copy.deepcopy(scenario)
    clear_caches()
    start = time.perf_counter()
    config = _SCENARIO_FROM_DICT(data)
    table = _CACHED[0](config.region, config.density)
    _CACHED[1](config.region, config.density)
    return time.perf_counter() - start, table.mode_count


@dataclass
class CommandResult:
    name: str
    seconds: float
    solver_seconds: float
    code: int | None
    error: str = ""
    fingerprint: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.error) or bool(self.problems)


class SolverClock:
    """Times `run_scenario`/`run_search` as the CLI calls them (untraced runs)."""

    NAMES = ("run_scenario", "run_search")

    def __init__(self):
        self.seconds = 0.0
        self._originals = {}

    def install(self):
        for name in self.NAMES:
            self._originals[name] = getattr(cli, name)
            setattr(cli, name, self._timed(self._originals[name]))

    def _timed(self, solver):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return solver(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
        return timed

    def remove(self):
        for name, original in self._originals.items():
            setattr(cli, name, original)
        self._originals.clear()


def run_command(name: str, argv: list, out: Path, clock: SolverClock | None,
                tracer=None) -> CommandResult:
    """Run one CLI command with its stdout captured and discarded."""
    shutil.rmtree(out, ignore_errors=True)
    clear_caches()
    if tracer is not None:
        tracer.request += 1
    solver_before = clock.seconds if clock else 0.0
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # the harness reports the failure and goes on
        code = None
        error = f"{type(exc).__name__}: {exc}"
        print(f"command {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
    seconds = time.perf_counter() - start
    solver = (clock.seconds - solver_before) if clock else 0.0
    return CommandResult(name, seconds, solver, code, error)


# --- fingerprints -------------------------------------------------------------

def _last_csv_row(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return dict(zip(rows[0], rows[-1]))


def _radius(curve: dict, theta: float) -> float:
    r = float(curve["mean"])
    for k, c in enumerate(curve.get("cos", ()), start=1):
        r += c * math.cos(k * theta)
    for k, s in enumerate(curve.get("sin", ()), start=1):
        r += s * math.sin(k * theta)
    return r


def _inside(region: dict, x: float, y: float) -> bool:
    r = math.hypot(x, y)
    theta = math.atan2(y, x)
    return _radius(region["inner"], theta) <= r <= _radius(region["outer"], theta)


def run_fingerprint(result: CommandResult, out: Path, scenario: dict,
                    require_balance: bool):
    """Final V, J, workload balance and positions of a `run` command."""
    csv_path = out / "trajectory.csv"
    if result.code != 0 or not csv_path.exists():
        return
    last = _last_csv_row(csv_path)
    n = scenario["agents"]["count"]
    m = np.array([float(last[f"m_{i + 1}"]) for i in range(n)])
    balance = float(np.max(np.abs(m - m.mean())) / m.mean())
    outside = [i + 1 for i in range(n)
               if not _inside(scenario["region"], float(last[f"px_{i + 1}"]),
                              float(last[f"py_{i + 1}"]))]
    result.fingerprint.update({
        "t_end": last["t"], "V": last["V"], "J": last["J"],
        "balance": balance,
        "trajectory_csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        "trajectory_csv_bytes": csv_path.stat().st_size,
        "log_json_bytes": (out / "log.json").stat().st_size,
    })
    if require_balance and not balance < BALANCE_TOLERANCE:
        result.problems.append(f"final max|m-mbar|/mbar = {balance:.3e} "
                               f">= {BALANCE_TOLERANCE:g}")
    if outside:
        result.problems.append(f"agents {outside} end outside the region")


def verify_fingerprint(result: CommandResult, out: Path):
    """Status of every verify check, from report.txt."""
    report = out / "report.txt"
    if not report.exists():
        return
    statuses = {}
    for line in report.read_text(encoding="utf-8").splitlines():
        name, _, rest = line.partition(":")
        statuses[name] = rest.rsplit(" ", 1)[-1]
    result.fingerprint["checks"] = statuses
    failed = sorted(name for name, status in statuses.items() if status == "FAIL")
    if failed:
        result.problems.append(f"verify FAIL: {', '.join(failed)}")


def search_fingerprint(result: CommandResult, out: Path):
    """k*, best J and its from-scratch recomputation."""
    path = out / "final_configuration.json"
    if result.code != 0 or not path.exists():
        return
    final = json.loads(path.read_text(encoding="utf-8"))
    best = final["best_total_cost"]
    recomputed = final["recomputed_total_cost"]
    rounds = 0
    with open(out / "epochs.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            rounds += int(row["gossip_rounds"])
    result.fingerprint.update({"k_star": final["best_epoch"], "J": repr(best),
                               "recomputed_J": repr(recomputed), "gossip_rounds": rounds})
    if not abs(recomputed - best) <= SEARCH_TOTAL_RTOL * abs(best):
        result.problems.append(f"recomputed total {recomputed!r} != best {best!r} "
                               f"to {SEARCH_TOTAL_RTOL:g} relative")


# --- workloads ------------------------------------------------------------------

def _bundled(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))


def _separated_phases(rng, n: int) -> list:
    while True:
        phases = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        gaps = np.diff(np.append(phases, phases[0] + 2.0 * math.pi))
        if np.all(gaps > 1e-3):
            return phases.tolist()


class Workload:
    name = ""
    why = ""

    def scenario(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def nominal_steps(self, scenario: dict) -> int:
        integ = scenario["integrator"]
        return int(round(integ["t_end"] / integ["dt"]))

    def commands(self, config_path: Path, work: Path, scenario: dict, clock,
                 tracer=None) -> list:
        raise NotImplementedError


class ReferenceRun(Workload):
    name = "reference_run"
    why = ("the bundled N=8 headline scenario: run (10 000 RK4 steps, logger, "
           "exports) then verify on its log")

    def scenario(self, seed, smoke):
        # The bundled scenario as shipped, seed 42 included, so its
        # trajectory.csv sha256 is one value on every run and every commit.
        data = _bundled("reference_n8.json")
        if smoke:
            data["integrator"]["dt"] = 0.1
        return data

    def commands(self, config_path, work, scenario, clock, tracer=None):
        run_out, verify_out = work / "run", work / "verify"
        run = run_command("run", ["run", "--config", str(config_path),
                                  "--out", str(run_out)], run_out, clock, tracer)
        run_fingerprint(run, run_out, scenario, require_balance=True)
        verify = run_command("verify", ["verify", "--config", str(run_out / "log.json"),
                                        "--out", str(verify_out)], verify_out, clock, tracer)
        verify.fingerprint["exit"] = verify.code
        verify_fingerprint(verify, verify_out)
        return [run, verify]


class RingSearch(Workload):
    name = "ring_search"
    why = ("anchored search at K*=64 on N=2, 1-mode table: per-call overhead "
           "of the same integrator dominates, not arithmetic")

    def scenario(self, seed, smoke):
        data = _bundled("uniform_n2_search.json")
        data["search"]["K_star"] = 4 if smoke else 64
        rng = np.random.default_rng(seed)
        n = data["agents"]["count"]
        r_in, r_out = data["region"]["inner"]["mean"], data["region"]["outer"]["mean"]
        radii = np.sqrt(rng.uniform(r_in ** 2, r_out ** 2, n))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        data["agents"]["initial_phases"] = _separated_phases(rng, n)
        data["agents"]["initial_positions"] = np.stack(
            [radii * np.cos(angles), radii * np.sin(angles)], axis=1).tolist()
        return data

    def nominal_steps(self, scenario):
        search = scenario["search"]
        per_epoch = max(1, int(round(search["T_epsilon"] / scenario["integrator"]["dt"])))
        return search["K_star"] * per_epoch

    def commands(self, config_path, work, scenario, clock, tracer=None):
        out = work / "search"
        search = run_command("search", ["search", "--config", str(config_path),
                                         "--out", str(out)], out, clock, tracer)
        search_fingerprint(search, out)
        return [search]


class GenericCost(Workload):
    name = "generic_cost"
    why = ("one RK4 step of the N=8 run with the generic quartic cost: the only "
           "workload on the BFGS optimal_target path")

    def scenario(self, seed, smoke):
        # The shipped scenario seed (42), as in reference_run: on some drawn
        # initial conditions optimal_target raises TargetSearchError (see
        # README.md), and every input of a workload must be one it completes.
        data = _bundled("reference_n8.json")
        data["cost"] = {"kind": "generic_builtin", "parameters": [0.25]}
        data["integrator"] = {"dt": 0.01, "t_end": 0.01, "log_stride": 1}
        # One step is already tiny, so smoke runs the same scenario.
        data["output"]["snapshot_times"] = [0.0, 0.01]
        return data

    def commands(self, config_path, work, scenario, clock, tracer=None):
        out = work / "run"
        run = run_command("run", ["run", "--config", str(config_path),
                                  "--out", str(out)], out, clock, tracer)
        run_fingerprint(run, out, scenario, require_balance=False)
        return [run]


WORKLOADS = {w.name: w for w in (ReferenceRun(), RingSearch(), GenericCost())}
