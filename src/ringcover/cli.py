"""Command-line front end: run, search, verify, export.

Run as `ringcover <command> ...` or `python -m ringcover <command> ...`.

Scenarios are single JSON files (see `configs/` for the bundled ones). Every
command writes its artifacts into --out: trajectory CSV with full double
precision, a JSON log that replays or re-export bit-for-bit, SVG snapshots,
and verification reports; `run` and `search` also write the config echo that
replays them. The log and the CSV are written in blocks of `RECORD_BLOCK`
records, so writing either costs one block of Python objects beyond the
log's arrays, never a list form of the whole log. Exit codes: 0 success,
1 verification failure (for `search`: the quadrature total of the best
configuration misses the table total), 2 input error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .agents import TargetSearchError
from .geometry import TWO_PI, QuadratureError
from .search import run_search, recompute_total
from .sim import (ConfigError, IntegrationError, ScenarioConfig, TrajectoryLog,
                  run_scenario, scenario_from_dict, verify_invariants, within_span)

logger = logging.getLogger("ringcover")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3

# Records per block of `write_log` and `trajectory_csv_lines`.
RECORD_BLOCK = 128

# `search` fails when the quadrature total of its best configuration and the
# table total differ by more than this, relative to the quadrature total.
TOTALS_REL_TOL = 1e-8


def _setup_logging():
    level_name = os.environ.get("COVERAGE_LOG_LEVEL", "info").lower()
    levels = {"error": logging.ERROR, "warning": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level_name, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _scenario(data: dict, seed=None, dt=None) -> ScenarioConfig:
    """Parse a scenario dict after applying the --seed/--dt overrides; they go
    only into sections of the right shape, and the parser names the others."""
    if isinstance(data, dict):
        if seed is not None:
            data["seed"] = seed
        if dt is not None and isinstance(data.setdefault("integrator", {}), dict):
            data["integrator"]["dt"] = dt
    return scenario_from_dict(data)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_log(log: TrajectoryLog, handle):
    """Write log.json to the text `handle`: exactly the bytes of `json.dumps`
    of `log.to_dict()` with every record column as a list, written one
    `RECORD_BLOCK` of records at a time."""
    data = log.to_dict()
    records = data.pop("records")
    handle.write(json.dumps(data)[:-1] + ', "records": {')
    for i, (name, column) in enumerate(records.items()):
        handle.write(f'{", " if i else ""}{json.dumps(name)}: [')
        for start in range(0, len(column), RECORD_BLOCK):
            if start:
                handle.write(", ")
            handle.write(json.dumps(column[start:start + RECORD_BLOCK].tolist())[1:-1])
        handle.write("]")
    handle.write("}}")


def trajectory_csv_lines(log: TrajectoryLog):
    """Yield the header and then one row per record, each ending in a
    newline, formatting one `RECORD_BLOCK` of records at a time; 17
    significant digits throughout, and each phi_i wrapped into [0, 2*pi)."""
    n = log.n_agents
    header = (["t"]
              + [f"phi_{i + 1}" for i in range(n)]
              + [f"px_{i + 1}" for i in range(n)]
              + [f"py_{i + 1}" for i in range(n)]
              + [f"m_{i + 1}" for i in range(n)]
              + ["V", "J", "H"])
    yield ",".join(header) + "\n"
    row = ",".join(["%.17g"] * len(header)) + "\n"  # the digits of format(v, ".17g")
    for start in range(0, log.times.size, RECORD_BLOCK):
        block = slice(start, start + RECORD_BLOCK)
        positions = log.positions[block]
        table = np.column_stack([log.times[block], np.mod(log.phases_unwrapped[block], TWO_PI),
                                 positions[:, :, 0], positions[:, :, 1], log.workloads[block],
                                 log.lyapunov[block], log.cost[block], log.tracking[block]])
        for values in table.tolist():
            yield row % tuple(values)


# A target star's ten vertices relative to its centre, in pixels (y up).
_STAR = [(r * math.cos(a), r * math.sin(a)) for r, a in
         ((7.0 if i % 2 == 0 else 0.4 * 7.0, math.pi / 2 + i * math.pi / 5) for i in range(10))]


class _Scene:
    """What every snapshot of a region shares: the pixel scale, and the SVG
    header with the two boundary polylines, drawn from one cos/sin pass over
    512 angles."""

    SIZE = 640

    def __init__(self, region):
        self.region = region
        size = self.SIZE
        self.scale = size / (2.0 * (region.bounding_radius() * 1.08))
        self.lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
                      f'height="{size}" viewBox="0 0 {size} {size}">',
                      f'<rect width="{size}" height="{size}" fill="white"/>']
        thetas = np.linspace(0.0, TWO_PI, 512)
        cos, sin = np.cos(thetas), np.sin(thetas)
        for curve in (region.inner, region.outer):
            r = curve.radius(thetas)
            points = np.column_stack(self.to_px(r * cos, r * sin)).ravel().tolist()
            pts = " ".join(["%.2f,%.2f"] * thetas.size) % tuple(points)
            self.lines.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                              f'stroke-width="1.5"/>')

    def to_px(self, x, y):
        return (self.SIZE / 2 + x * self.scale, self.SIZE / 2 - y * self.scale)


def render_snapshot(log: TrajectoryLog, record_index: int, scene: _Scene) -> str:
    """One record's SVG: the `scene`'s header and boundary curves (drawn once
    per command by `_write_snapshots`), then the record's bars, target stars,
    agent dots and time label."""
    k = record_index
    region, to_px = scene.region, scene.to_px
    parts = list(scene.lines)
    phis = np.mod(log.phases_unwrapped[k], TWO_PI)
    cos, sin = np.cos(phis), np.sin(phis)
    (x0, y0), (x1, y1) = (to_px(r * cos, r * sin) for r in (region.inner.radius(phis),
                                                           region.outer.radius(phis)))
    for bar in zip(x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist()):
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="#5577aa" stroke-width="1.2"/>' % bar)
    xs, ys = to_px(log.targets[k, :, 0], log.targets[k, :, 1])
    for x, y in zip(xs.tolist(), ys.tolist()):
        star = " ".join([f"{x + dx:.4f},{y - dy:.4f}" for dx, dy in _STAR])
        parts.append(f'<polygon points="{star}" fill="#2a9d2a" stroke="none"/>')
    xs, ys = to_px(log.positions[k, :, 0], log.positions[k, :, 1])
    parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4.5" fill="#1f4fd1"/>'
              for x, y in zip(xs.tolist(), ys.tolist())]
    parts.append(f'<text x="10" y="20" font-family="monospace" font-size="14">'
                 f't = {log.times[k]:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _snapshot_index(log: TrajectoryLog, t: float) -> int:
    """Nearest record to t; a t outside the logged span (beyond rounding,
    1e-9 of the span) is an error."""
    if not within_span(t, float(log.times[0]), float(log.times[-1])):
        raise ValueError(f"snapshot time out of range: {t}")
    return int(np.argmin(np.abs(log.times - t)))


def _write_snapshots(log: TrajectoryLog, region, times, out_dir: Path):
    """One SVG per time, of the nearest record. Every time is resolved before
    `out_dir` is made, so a time outside the log (ValueError) writes nothing;
    the region's scene is then drawn once for all of them."""
    indices = [_snapshot_index(log, t) for t in times]
    out_dir.mkdir(parents=True, exist_ok=True)
    scene = _Scene(region) if indices else None
    for t, idx in zip(times, indices):
        path = out_dir / f"snapshot_t{t:g}.svg"
        path.write_text(render_snapshot(log, idx, scene), encoding="utf-8")


def _write_run_artifacts(log: TrajectoryLog, config: ScenarioConfig, out_dir: Path,
                         snapshot_times):
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(log, out_dir)
    with open(out_dir / "log.json", "w", encoding="utf-8") as handle:
        write_log(log, handle)
    _write_config_echo(config, out_dir)
    _write_snapshots(log, config.region, snapshot_times, out_dir)


def _write_csv(log: TrajectoryLog, out_dir: Path):
    with open(out_dir / "trajectory.csv", "w", encoding="utf-8") as handle:
        handle.writelines(trajectory_csv_lines(log))


def _write_config_echo(config: ScenarioConfig, out_dir: Path):
    with open(out_dir / "config_echo.json", "w", encoding="utf-8") as handle:
        json.dump(config.to_dict(), handle, indent=2)


def cmd_run(config_path: str, out_dir: str, seed=None, dt=None) -> int:
    try:
        config = _scenario(_load_json(config_path), seed, dt)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        logger.error("invalid config: %s", exc)
        return EXIT_INPUT
    out = Path(out_dir)
    try:
        log = run_scenario(config)
    except IntegrationError as exc:
        logger.error("integration failed: %s", exc)
        if exc.log is not None:
            first, last = exc.log.times[0], exc.log.times[-1]
            _write_run_artifacts(exc.log, config, out, [t for t in config.snapshot_times
                                                        if within_span(t, first, last)])
        return EXIT_RUNTIME
    _write_run_artifacts(log, config, out, config.snapshot_times)
    logger.info("run complete: %d records -> %s", log.times.size, out)
    return EXIT_OK


def cmd_search(config_path: str, out_dir: str, seed=None, dt=None) -> int:
    try:
        config = _scenario(_load_json(config_path), seed, dt)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        logger.error("invalid config: %s", exc)
        return EXIT_INPUT
    if config.search is None:
        logger.error("invalid config: search: missing section")
        return EXIT_INPUT
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_config_echo(config, out)
    result = run_search(config)
    lines = ["k,anchor_agent,J_k,gossip_rounds"]
    for record in result.epochs:
        lines.append(f"{record.epoch + 1},{record.anchor_agent},"
                     f"{_fmt(record.total_cost)},{record.gossip_rounds}")
    (out / "epochs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    best = result.best
    recomputed = recompute_total(config, best.phases, best.positions)
    final = {
        "best_epoch": best.epoch + 1,
        "best_total_cost": best.total_cost,
        "phases": [float(v) for v in best.phases],
        "positions": [[float(x), float(y)] for x, y in best.positions],
        "recomputed_total_cost": recomputed,
    }
    with open(out / "final_configuration.json", "w", encoding="utf-8") as handle:
        json.dump(final, handle, indent=2)
    print(f"k* = {best.epoch + 1}, J = {_fmt(best.total_cost)}")
    if abs(recomputed - best.total_cost) > TOTALS_REL_TOL * abs(recomputed):
        logger.error("quadrature total %s disagrees with the table total %s",
                     _fmt(recomputed), _fmt(best.total_cost))
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _looks_like_log(data: dict) -> bool:
    return isinstance(data, dict) and "records" in data


def cmd_verify(path: str, out_dir: str, seed=None, dt=None) -> int:
    try:
        data = _load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        logger.error("unreadable input: %s", exc)
        return EXIT_INPUT
    if _looks_like_log(data) and (seed is not None or dt is not None):
        logger.error("invalid input: --seed/--dt apply to a scenario config, "
                     "not to a stored log")
        return EXIT_INPUT
    try:
        if _looks_like_log(data):
            log = TrajectoryLog.from_dict(data)
            del data  # the log's arrays hold the records; free the parsed lists
            config = scenario_from_dict(log.config_echo)
        else:
            config = _scenario(data, seed, dt)
            log = run_scenario(config)
    except (ConfigError, ValueError) as exc:
        logger.error("invalid input: %s", exc)
        return EXIT_INPUT
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = verify_invariants(log, config)
    (out / "report.txt").write_text("\n".join(report.lines()) + "\n", encoding="utf-8")
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_export(log_path: str, fmt: str, out_dir: str, times=None) -> int:
    try:
        log = TrajectoryLog.from_dict(_load_json(log_path))
        config = scenario_from_dict(log.config_echo)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        logger.error("malformed log: %s", exc)
        return EXIT_INPUT
    out = Path(out_dir)
    if fmt == "csv":
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(log, out)
        return EXIT_OK
    if fmt == "svg-snapshots":
        snapshot_times = times if times is not None else config.snapshot_times
        try:
            _write_snapshots(log, config.region, snapshot_times, out)
        except ValueError as exc:
            logger.error("%s", exc)
            return EXIT_INPUT
        return EXIT_OK
    logger.error("unknown export format: %s", fmt)
    return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringcover",
        description="Coverage control with workload balancing on annular regions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--dt", type=float, default=None, help="override integrator step")

    p_run = sub.add_parser("run", help="integrate a scenario and export artifacts")
    p_run.add_argument("--config", required=True)
    common(p_run)

    p_search = sub.add_parser("search", help="run the anchored circular search")
    p_search.add_argument("--config", required=True)
    common(p_search)

    p_verify = sub.add_parser("verify", help="check invariants of a run or log")
    p_verify.add_argument("--config", required=True,
                          help="scenario config or stored log.json")
    common(p_verify)

    p_export = sub.add_parser("export", help="re-render artifacts from a stored log")
    p_export.add_argument("--log", required=True)
    p_export.add_argument("--format", required=True, choices=("csv", "svg-snapshots"))
    p_export.add_argument("--times", type=float, nargs="*", default=None,
                          help="snapshot times (defaults to the logged config)")
    p_export.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code = cmd_run(args.config, args.out, args.seed, args.dt)
        elif args.command == "search":
            code = cmd_search(args.config, args.out, args.seed, args.dt)
        elif args.command == "verify":
            code = cmd_verify(args.config, args.out, args.seed, args.dt)
        elif args.command == "export":
            code = cmd_export(args.log, args.format, args.out, args.times)
        else:  # pragma: no cover - argparse enforces the choices
            code = EXIT_INPUT
    except (IntegrationError, QuadratureError, TargetSearchError) as exc:
        # a run the guard refuses, or a table or target that does not
        # converge, is a runtime failure, not a failed verification
        logger.error("runtime failure: %s", exc)
        code = EXIT_RUNTIME
    if argv is None:
        sys.exit(code)
    return code
