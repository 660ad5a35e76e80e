"""Command-line front end: run, search, verify, export.

Run as `ringcover <command> ...` or `python -m ringcover <command> ...`.

Scenarios are single JSON files (see `configs/` for the bundled ones). Every
command writes its artifacts into --out: trajectory CSV with full double
precision, a JSON log that replays or re-export bit-for-bit, SVG snapshots,
and verification reports; `run` and `search` also write the config echo that
replays them. Exit codes: 0 success, 1 verification failure (for `search`:
the quadrature total of the best configuration misses the table total),
2 input error, 3 runtime failure.
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


def trajectory_csv_lines(log: TrajectoryLog):
    """Header plus one row per record; 17 significant digits throughout, and
    each phi_i wrapped into [0, 2*pi)."""
    n = log.n_agents
    wrapped = np.mod(log.phases_unwrapped, TWO_PI)
    header = (["t"]
              + [f"phi_{i + 1}" for i in range(n)]
              + [f"px_{i + 1}" for i in range(n)]
              + [f"py_{i + 1}" for i in range(n)]
              + [f"m_{i + 1}" for i in range(n)]
              + ["V", "J", "H"])
    lines = [",".join(header)]
    for k in range(log.times.size):
        row = [_fmt(log.times[k])]
        row += [_fmt(v) for v in wrapped[k]]
        row += [_fmt(v) for v in log.positions[k, :, 0]]
        row += [_fmt(v) for v in log.positions[k, :, 1]]
        row += [_fmt(v) for v in log.workloads[k]]
        row += [_fmt(log.lyapunov[k]), _fmt(log.cost[k]), _fmt(log.tracking[k])]
        lines.append(",".join(row))
    return lines


def _svg_star(cx: float, cy: float, size: float) -> str:
    points = []
    for i in range(10):
        radius = size if i % 2 == 0 else 0.4 * size
        angle = math.pi / 2 + i * math.pi / 5
        points.append(f"{cx + radius * math.cos(angle):.4f},"
                      f"{cy - radius * math.sin(angle):.4f}")
    return f'<polygon points="{" ".join(points)}" fill="#2a9d2a" stroke="none"/>'


def render_snapshot(log: TrajectoryLog, record_index: int, region) -> str:
    """Static vector scene: boundary curves, bars, agent dots, target stars."""
    k = record_index
    bound = region.bounding_radius() * 1.08
    size = 640
    scale = size / (2.0 * bound)

    def to_px(x, y):
        return (size / 2 + x * scale, size / 2 - y * scale)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    thetas = np.linspace(0.0, TWO_PI, 512)
    for curve in (region.inner, region.outer):
        r = curve.radius(thetas)
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in
                       (to_px(rr * math.cos(th), rr * math.sin(th))
                        for rr, th in zip(r, thetas)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                     f'stroke-width="1.5"/>')
    for phi in np.mod(log.phases_unwrapped[k], TWO_PI):
        r0 = region.inner.radius(phi)
        r1 = region.outer.radius(phi)
        x0, y0 = to_px(r0 * math.cos(phi), r0 * math.sin(phi))
        x1, y1 = to_px(r1 * math.cos(phi), r1 * math.sin(phi))
        parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
                     f'stroke="#5577aa" stroke-width="1.2"/>')
    for cx, cy in log.targets[k]:
        px, py = to_px(cx, cy)
        parts.append(_svg_star(px, py, 7.0))
    for x, y in log.positions[k]:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4.5" fill="#1f4fd1"/>')
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
    for t in times:
        idx = _snapshot_index(log, t)
        path = out_dir / f"snapshot_t{t:g}.svg"
        path.write_text(render_snapshot(log, idx, region), encoding="utf-8")


def _write_run_artifacts(log: TrajectoryLog, config: ScenarioConfig, out_dir: Path,
                         snapshot_times):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trajectory.csv").write_text(
        "\n".join(trajectory_csv_lines(log)) + "\n", encoding="utf-8")
    with open(out_dir / "log.json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(log.to_dict()))  # one-shot: the C encoder
    _write_config_echo(config, out_dir)
    _write_snapshots(log, config.region, snapshot_times, out_dir)


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
        data = _load_json(log_path)
        log = TrajectoryLog.from_dict(data)
        config = scenario_from_dict(log.config_echo)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        logger.error("malformed log: %s", exc)
        return EXIT_INPUT
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        (out / "trajectory.csv").write_text(
            "\n".join(trajectory_csv_lines(log)) + "\n", encoding="utf-8")
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
