"""Untraced and traced measurement of one workload, and the smoke check.

An untraced run sets the scenario up several times with cold caches, then
repeats the workload's CLI commands until the time budget would be exceeded
by one more repetition, and reports medians over the repetitions. A traced
run alternates untraced and traced repetitions; the traced ones record spans
of every public function and give the per-layer metrics, the untraced ones
give the tracing overhead and the fingerprint the traced ones must match.
"""

from __future__ import annotations

import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer, Tracing, layers, parent_names, percentiles, spans_payload
from workloads import WORKLOADS, SolverClock, setup_once

# Before each repetition, set-up is timed at least SETUP_BATCH times and for at
# least SETUP_BATCH_SECONDS, so its samples spread over the whole run.
SETUP_BATCH = 5
SETUP_BATCH_SECONDS = 0.5

ALL = frozenset(WORKLOADS)
RUNS = frozenset({"reference_run", "generic_cost"})
SEARCH = frozenset({"ring_search"})

# Span name -> workloads that must call it; every other workload must not.
EXPECTED_CALLERS = {
    "geometry.moment_table.build": ALL,
    "geometry.slice_moments": ALL,
    "geometry.region_integral": ALL,
    "partition.advance_by_mean_workload": {"reference_run"},
    "partition.decay_constants": RUNS,
    "agents.optimal_target": {"generic_cost"},
    # verify's gradient_consistency check calls it on reference_run too.
    "agents.gradient_at": {"generic_cost", "reference_run"},
    "agents.subregion_cost": ALL,
    "agents.total_cost": ALL,
    "agents.squared_distance_cost": {"reference_run"},
    "sim.rk4_step": ALL,
    "sim.run_scenario": RUNS,
    "sim.integrate_system": SEARCH,
    "search.run_epoch": SEARCH,
    "search.gossip_until_stable": SEARCH,
    "search.recompute_total": SEARCH,
    "sim.verify_invariants": {"reference_run"},
    "sim.TrajectoryLog.from_dict": {"reference_run"},
    "cli.trajectory_csv_lines": RUNS,
    "cli.render_snapshot": RUNS,
    "sim.TrajectoryLog.to_dict": RUNS,
}

# Per-layer metrics printed as the traced run's result. Times appear only for
# layers that every workload calls, so that no time reads 0 on every run;
# the report lines carry the times of the other layers.
PER_LAYER = {
    "geometry.moment_table.build_s": "s",
    "geometry.moment_table.modes": "count",
    "geometry.slice_moments.calls": "count",
    "geometry.slice_moments.self_s": "s",
    "geometry.slice_moments.self_us_p50": "us",
    "geometry.slice_moments.self_us_phigh": "us",
    "geometry.region_integral.calls": "count",
    "geometry.region_integral.self_s": "s",
    "partition.advance_by_mean_workload.calls": "count",
    "partition.decay_constants.calls": "count",
    "agents.optimal_target.calls": "count",
    "agents.gradient_at.calls": "count",
    "agents.subregion_cost.calls": "count",
    "agents.subregion_cost.self_s": "s",
    "agents.total_cost.calls": "count",
    "agents.total_cost.s": "s",
    "agents.squared_distance_cost.calls": "count",
    "sim.rk4_step.calls": "count",
    "sim.rk4_step.self_s": "s",
    "sim.rk4_step.us_p50": "us",
    "sim.rk4_step.us_phigh": "us",
    "sim.guard_halvings": "count",
    "sim.run_scenario.calls": "count",
    "sim.integrate_system.calls": "count",
    "search.run_epoch.calls": "count",
    "search.gossip_until_stable.calls": "count",
    "search.gossip_rounds": "count",
    "search.recompute_total.calls": "count",
    "sim.verify_invariants.calls": "count",
    "sim.TrajectoryLog.from_dict.calls": "count",
    "sim.TrajectoryLog.to_dict.calls": "count",
    "cli.trajectory_csv_lines.calls": "count",
    "cli.render_snapshot.calls": "count",
    "cli.log_json_bytes": "B",
    "cli.trajectory_csv_bytes": "B",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.prediction_misses": "count",
}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _wall(commands) -> float:
    return sum(c.seconds for c in commands)


def _check_repeat(first, commands):
    """Flag every command whose fingerprint differs from the first repetition's."""
    for reference, command in zip(first, commands):
        if command.fingerprint != reference.fingerprint:
            changed = sorted(k for k in set(reference.fingerprint) | set(command.fingerprint)
                             if reference.fingerprint.get(k) != command.fingerprint.get(k))
            command.problems.append(f"fingerprint differs from the first repetition "
                                    f"in {changed}")


def _repeat(step, seconds: float, min_repetitions: int = 1) -> list:
    """Call step() until one more repetition would end past `seconds`."""
    repetitions = []
    start = time.perf_counter()
    while True:
        repetitions.append(step(len(repetitions)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(_wall(r) for r in repetitions)
        if len(repetitions) >= min_repetitions and elapsed + typical > seconds:
            return repetitions


class Run:
    """One measurement of one workload; `result` is the contract's JSON object."""

    def __init__(self, workload_name: str, seed: int, seconds: float, smoke: bool,
                 work: Path):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.work = work
        self.scenario = self.workload.scenario(seed, smoke)
        self.config_path = work / "scenario.json"
        work.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.scenario), encoding="utf-8")
        self.lines = []
        self.spans = None
        self.details = {"workload": workload_name, "seed": seed, "smoke": smoke,
                        "seconds": seconds, "environment": environment()}

    def _commands(self, clock=None, tracer=None):
        return self.workload.commands(self.config_path, self.work, self.scenario,
                                      clock, tracer)

    def _result(self, repetitions, metrics: dict) -> dict:
        commands = [c for rep in repetitions for c in rep]
        failed = sum(c.failed for c in commands)
        for c in commands:
            if c.failed:
                self.lines.append(f"FAILED {c.name}: exit={c.code} {c.error} "
                                  f"{'; '.join(c.problems)}")
        self.lines.append(f"fail_rate {failed / len(commands):.6g} "
                          f"({failed} of {len(commands)} commands)")
        self.details["fingerprint"] = {c.name: c.fingerprint for c in repetitions[0]}
        for name, value in self.details["fingerprint"].items():
            self.lines.append(f"fingerprint {name} {json.dumps(value, sort_keys=True)}")
        return {"correct": failed == 0, "attempted": len(commands),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}

    def untraced(self) -> dict:
        batch_seconds = 0.0 if self.smoke else SETUP_BATCH_SECONDS
        setups = []
        clock = SolverClock()

        def step(i):
            start = time.perf_counter()
            while (len(setups) < (i + 1) * SETUP_BATCH
                   or time.perf_counter() - start < batch_seconds):
                setups.append(setup_once(self.scenario)[0])
            return self._commands(clock)

        clock.install()
        try:
            repetitions = _repeat(step, self.seconds)
        finally:
            clock.remove()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for rep in repetitions[1:]:
            _check_repeat(repetitions[0], rep)

        steps = self.workload.nominal_steps(self.scenario)
        solver = [sum(c.solver_seconds for c in rep) for rep in repetitions]
        walls = [_wall(rep) for rep in repetitions]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        rates = [steps / s if s > 0 else 0.0 for s in solver]
        self.lines.append(f"steps_per_s {statistics.median(rates):.6g} 1/s "
                          f"(nominal RK4 steps {steps} / solver wall time)")
        for name in dict.fromkeys(c.name for c in repetitions[0]):
            times = [c.seconds for rep in repetitions for c in rep if c.name == name]
            self.lines.append(f"command {name} median {statistics.median(times):.6g} s "
                              f"over {len(times)}")
        self.lines.append(f"repetitions {len(repetitions)}, walls "
                          f"{' '.join(f'{w:.4g}' for w in walls)} s; "
                          f"setup repeats {len(setups)}")
        self.details["walls_s"] = walls
        self.details["steps_per_s"] = rates
        self.details["setups_s"] = setups
        return self._result(repetitions, metrics)

    def traced(self) -> dict:
        tracer = Tracer()
        bounds = []
        kinds = []

        def step(i):
            if i % 2 == 0:
                kinds.append("untraced")
                return self._commands()
            kinds.append("traced")
            first = len(tracer)
            with Tracing(tracer):
                commands = self._commands(tracer=tracer)
            bounds.append((first, len(tracer)))
            return commands

        modes = setup_once(self.scenario)[1]
        repetitions = _repeat(step, self.seconds, min_repetitions=2)
        for rep in repetitions[1:]:
            _check_repeat(repetitions[0], rep)
        untraced = [_wall(r) for r, k in zip(repetitions, kinds) if k == "untraced"]
        traced = [(r, _wall(r)) for r, k in zip(repetitions, kinds) if k == "traced"]
        overhead = statistics.median(w for _, w in traced) - statistics.median(untraced)

        per_layer, misses = self._layer_metrics(tracer, traced, modes, overhead)
        self.details["layers"] = {name: value for name, (value, _) in per_layer.items()}
        self.details["prediction_misses"] = misses
        self.lines.append(f"repetitions {len(untraced)} untraced, {len(traced)} traced; "
                          f"{len(tracer)} spans")
        self.spans = spans_payload(tracer, *bounds[0])
        return self._result(repetitions, {k: per_layer[k] for k in PER_LAYER})

    def _layer_metrics(self, tracer, traced, modes, overhead):
        n = len(traced)
        found = layers(tracer)
        empty = np.zeros(0)
        metrics = {}

        def layer(name):
            return found.get(name, (empty, empty))

        def calls(name):
            metrics[f"{name}.calls"] = (layer(name)[0].size / n, "count")

        def total(name, key):
            metrics[key] = (float(np.sum(layer(name)[0])) / n, "s")

        def self_total(name):
            metrics[f"{name}.self_s"] = (float(np.sum(layer(name)[1])) / n, "s")

        def tail(name, key, samples, scale, unit):
            p50, high, label = percentiles(samples * scale)
            metrics[f"{name}.{key}_p50"] = (p50, unit)
            metrics[f"{name}.{key}_phigh"] = (high, unit)
            self.lines.append(f"percentile {name}.{key}: p50 {p50:.6g} {unit}, "
                              f"{label} {high:.6g} {unit} over {samples.size} calls")

        total("geometry.moment_table.build", "geometry.moment_table.build_s")
        metrics["geometry.moment_table.modes"] = (modes, "count")
        for name in ("geometry.slice_moments", "geometry.region_integral",
                     "agents.optimal_target", "agents.subregion_cost", "sim.rk4_step",
                     "sim.run_scenario", "sim.integrate_system", "search.run_epoch",
                     "sim.verify_invariants"):
            calls(name)
            self_total(name)
        for name in ("partition.advance_by_mean_workload", "partition.decay_constants",
                     "agents.total_cost", "agents.squared_distance_cost",
                     "search.gossip_until_stable", "search.recompute_total",
                     "sim.TrajectoryLog.from_dict", "sim.TrajectoryLog.to_dict",
                     "cli.trajectory_csv_lines", "cli.render_snapshot"):
            calls(name)
            total(name, f"{name}.s")
        calls("agents.gradient_at")
        tail("geometry.slice_moments", "self_us", layer("geometry.slice_moments")[1],
             1e6, "us")
        tail("agents.optimal_target", "ms", layer("agents.optimal_target")[0], 1e3, "ms")
        tail("sim.rk4_step", "us", layer("sim.rk4_step")[0], 1e6, "us")
        tail("search.run_epoch", "s", layer("search.run_epoch")[0], 1.0, "s")

        # Each halving turns one rejected trial into two half steps, so the
        # solver's RK4 calls exceed the nominal step count by two per halving.
        in_solver = sum(p in ("sim.run_scenario", "sim.integrate_system")
                        for p in parent_names(tracer, "sim.rk4_step"))
        steps = self.workload.nominal_steps(self.scenario)
        metrics["sim.guard_halvings"] = ((in_solver / n - steps) / 2 if in_solver else 0.0,
                                         "count")
        fingerprints = [{k: v for c in rep for k, v in c.fingerprint.items()}
                        for rep, _ in traced]
        for key, name in (("gossip_rounds", "search.gossip_rounds"),
                          ("log_json_bytes", "cli.log_json_bytes"),
                          ("trajectory_csv_bytes", "cli.trajectory_csv_bytes")):
            metrics[name] = (sum(f.get(key, 0) for f in fingerprints) / n,
                             "count" if key == "gossip_rounds" else "B")

        misses = []
        for name, callers in EXPECTED_CALLERS.items():
            expected = self.workload.name in callers
            got = layer(name)[0].size
            if expected != (got > 0):
                misses.append(f"{name}: {got} calls, expected "
                              f"{'>=1' if expected else '0'} on {self.workload.name}")
        for miss in misses:
            self.lines.append(f"PREDICTION MISS {miss}")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.spans"] = (len(tracer) / n, "count")
        metrics["trace.prediction_misses"] = (len(misses), "count")
        for name, (value, unit) in sorted(metrics.items()):
            self.lines.append(f"layer {name} {value:.9g} {unit}")
        return metrics, misses

    def write(self, results: Path, trace: int, result: dict):
        """Keep the run's details, and the spans of one traced repetition."""
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload.name}-seed{self.seed}-trace{trace}"
        self.details["result"] = result
        (results / f"{stem}.json").write_text(json.dumps(self.details, indent=1),
                                              encoding="utf-8")
        if self.spans is not None:
            with gzip.open(results / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as f:
                json.dump(self.spans, f)


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
            results: Path) -> tuple:
    """(result object, report lines) of one run; scratch files are removed."""
    work = results / f"work-{os.getpid()}"
    try:
        run = Run(workload, seed, seconds, smoke, work)
        result = run.traced() if trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = run.details["environment"]
    run.lines.insert(0, f"workload {workload} seed {seed} trace {trace} "
                        f"nproc {env['nproc']} python {env['python']} "
                        f"numpy {env['numpy']} scipy {env['scipy']}")
    run.write(results, trace, result)
    return result, run.lines


def smoke(benchmark: dict, results: Path) -> int:
    """Every workload at a tiny size, untraced and traced; checks every metric."""
    wanted = {0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
              1: {m["name"]: m["unit"] for m in benchmark["per_layer"]}}
    problems = []
    for entry in benchmark["workloads"]:
        for trace in (0, 1):
            result, lines = measure(entry["name"], 0, 0.0, trace, True, results)
            for line in lines:
                print(line)
            got = result["metrics"]
            tag = f"{entry['name']} trace {trace}"
            for name, unit in wanted[trace].items():
                if name not in got:
                    problems.append(f"{tag}: metric {name} missing")
                elif got[name]["unit"] != unit:
                    problems.append(f"{tag}: {name} has unit {got[name]['unit']}, "
                                    f"expected {unit}")
            for name in set(got) - set(wanted[trace]):
                problems.append(f"{tag}: metric {name} not in BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if trace and got["trace.prediction_misses"]["value"]:
                problems.append(f"{tag}: call-count predictions missed")
    for problem in problems:
        print(f"SMOKE PROBLEM {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def emit(result: dict, lines: list):
    for line in lines:
        print(line)
    sys.stdout.flush()
    print(json.dumps(result))
