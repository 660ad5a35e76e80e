"""Benchmark of the ringcover CLI on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload reference_run --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The lines above it are a
readable report. `--smoke` runs every workload at a tiny size, untraced and
traced, and checks that every metric named in BENCHMARK.json is emitted with
its unit. See perfbench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
RESULTS = ROOT / ".perfbench"
WORKLOAD_NAMES = ("reference_run", "ring_search", "generic_cost")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload that checks every metric")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "ringcover" / "__init__.py").is_file():
        print(f"error: ringcover sources not found in {SOURCES}", file=sys.stderr)
        return 2
    # Single-threaded BLAS/OpenMP, fixed before numpy is first imported.
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    os.environ["COVERAGE_LOG_LEVEL"] = "error"
    sys.path.insert(0, str(SOURCES))
    import harness

    if args.smoke:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return harness.smoke(benchmark, RESULTS)
    result, lines = harness.measure(args.workload, args.seed, args.seconds, args.trace,
                                    False, RESULTS)
    harness.emit(result, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
