"""The benchmark harness still runs against the package.

`perfbench/run.py --smoke` runs every workload at a tiny size, untraced and
traced. A rename or a new call that breaks the benchmark fails here, in the
change that makes it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The call-count predictions that already miss (ROADMAP item 1): names the
# package no longer calls on that workload, or no longer has.
KNOWN_MISSES = {
    "partition.advance_by_mean_workload: 0 calls, expected >=1 on reference_run",
    "agents.gradient_at: 0 calls, expected >=1 on reference_run",
    "agents.total_cost: 0 calls, expected >=1 on reference_run",
    "agents.squared_distance_cost: 0 calls, expected >=1 on reference_run",
    "geometry.region_integral: 0 calls, expected >=1 on generic_cost",
    "agents.optimal_target: 0 calls, expected >=1 on generic_cost",
    "agents.gradient_at: 0 calls, expected >=1 on generic_cost",
    "agents.subregion_cost: 0 calls, expected >=1 on generic_cost",
    "agents.total_cost: 0 calls, expected >=1 on generic_cost",
}


def test_benchmark_smoke_run_fails_no_command_and_misses_no_new_prediction():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    report = done.stdout + done.stderr
    # three workloads, each untraced and traced
    fail_rates = [line.split()[1] for line in lines if line.startswith("fail_rate ")]
    assert fail_rates == ["0"] * 6, report
    misses = {line.removeprefix("PREDICTION MISS ") for line in lines
              if line.startswith("PREDICTION MISS ")}
    assert misses <= KNOWN_MISSES, report
