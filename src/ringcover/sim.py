"""Scenario configuration, the coupled integrator, and invariant verification.

A scenario couples the bar-balancing dynamics with the agent tracking law:
bars rotate toward the heavier neighbouring slice while each agent chases
the optimal serving position of its slice (the centroid, for the
squared-distance cost). Integration is fixed-step classical Runge-Kutta for
reproducibility; every accepted step must keep the bars in cyclic order and
every slice above a workload floor, and the step is halved when needed. Runs
produce a `TrajectoryLog` that `verify_invariants` checks against the
convergence guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import agents as agents_mod
from .agents import AgentState, CostModel
from .geometry import (TWO_PI, AnnularRegion, DensityField, PolarCurve,
                       moment_table, radial_moment_extrema, region_integral)
from .partition import (PartitionState, cyclic_difference_form, decay_constants,
                        advance_by_mean_workload, validate_initial_phases)
from .search import SearchConfig, epoch_count_for_tolerance

WORKLOAD_FLOOR_FRACTION = 1e-9
MAX_STEP_HALVINGS = 8


class ConfigError(ValueError):
    """Invalid scenario configuration; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class IntegrationError(RuntimeError):
    """Integration aborted; `log` holds the last-good trajectory if any."""

    def __init__(self, message: str, log: "TrajectoryLog | None" = None):
        super().__init__(message)
        self.log = log


@dataclass
class ScenarioConfig:
    region: AnnularRegion
    density: DensityField
    n_agents: int
    initial_phases: np.ndarray
    initial_positions: np.ndarray
    kappa_phi: float
    kappa_p: float
    dt: float
    t_end: float
    log_stride: int
    cost: CostModel = field(default_factory=CostModel)
    search: SearchConfig | None = None
    snapshot_times: tuple = ()
    seed: int | None = None

    def to_dict(self) -> dict:
        """Echo with materialized initial conditions; replaying it reproduces the run."""
        out = {
            "region": {
                "inner": _curve_to_dict(self.region.inner),
                "outer": _curve_to_dict(self.region.outer),
                "validation_grid_size": self.region.validation_grid_size,
            },
            "density": {
                "kind": self.density.kind,
                "parameters": list(self.density.parameters),
            },
            "agents": {
                "count": self.n_agents,
                "initial_phases": [float(v) for v in self.initial_phases],
                "initial_positions": [[float(x), float(y)]
                                      for x, y in self.initial_positions],
            },
            "gains": {"kappa_phi": self.kappa_phi, "kappa_p": self.kappa_p},
            "integrator": {"dt": self.dt, "t_end": self.t_end,
                           "log_stride": self.log_stride},
            "cost": {"kind": self.cost.kind, "parameters": list(self.cost.parameters)},
            "output": {"snapshot_times": list(self.snapshot_times)},
        }
        if self.density.angular is not None:
            out["density"]["angular"] = _curve_to_dict(self.density.angular)
        if self.search is not None:
            out["search"] = {
                "K_star": self.search.epoch_count,
                "epsilon_p": self.search.epsilon_p,
                "T_epsilon": self.search.epoch_duration,
                "rng_seed": self.search.rng_seed,
            }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _curve_to_dict(curve: PolarCurve) -> dict:
    return {"mean": curve.mean, "cos": list(curve.cosine_coeffs),
            "sin": list(curve.sine_coeffs)}


def _parse_curve(data, field_name: str) -> PolarCurve:
    if not isinstance(data, dict):
        raise ConfigError(field_name, "expected an object with a 'mean' entry")
    if "mean" not in data:
        raise ConfigError(f"{field_name}.mean", "missing")
    try:
        return PolarCurve(float(data["mean"]),
                          tuple(float(c) for c in data.get("cos", ())),
                          tuple(float(c) for c in data.get("sin", ())))
    except (TypeError, ValueError) as exc:
        raise ConfigError(field_name, f"bad curve coefficients ({exc})") from None


_DENSITY_KINDS = ("uniform", "reference", "radial_polynomial_times_angular")
_COST_KINDS = ("squared_distance", "generic_builtin")


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Parse and validate a scenario; raises ConfigError naming the bad field."""
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be an object")

    region_data = data.get("region")
    if region_data is None:
        raise ConfigError("region", "missing")
    inner = _parse_curve(region_data.get("inner"), "region.inner")
    outer = _parse_curve(region_data.get("outer"), "region.outer")
    grid = int(region_data.get("validation_grid_size", 2048))
    try:
        region = AnnularRegion(inner, outer, validation_grid_size=grid)
    except ValueError as exc:
        raise ConfigError("region", str(exc)) from None

    density_data = data.get("density")
    if density_data is None or "kind" not in density_data:
        raise ConfigError("density.kind", "missing")
    kind = density_data["kind"]
    if kind not in _DENSITY_KINDS:
        raise ConfigError("density.kind",
                          f"unknown kind {kind!r}; expected one of {_DENSITY_KINDS}")
    angular = None
    if "angular" in density_data:
        angular = _parse_curve(density_data["angular"], "density.angular")
    density = DensityField(kind,
                           tuple(float(v) for v in density_data.get("parameters", ())),
                           angular)
    lo, _ = density.bounds(region)
    if lo <= 0.0:
        raise ConfigError("density", f"not strictly positive on the region (min {lo:.3e})")

    agents_data = data.get("agents")
    if agents_data is None or "count" not in agents_data:
        raise ConfigError("agents.count", "missing")
    n = int(agents_data["count"])
    if n < 2:
        raise ConfigError("agents.count", "need at least two agents")

    seed = data.get("seed")
    if seed is not None:
        seed = int(seed)
    rng = np.random.default_rng(seed)

    phases_spec = agents_data.get("initial_phases", "random")
    if isinstance(phases_spec, str):
        if phases_spec != "random":
            raise ConfigError("agents.initial_phases",
                              f"expected a list or 'random', got {phases_spec!r}")
        phases = _draw_phases(rng, n)
    else:
        if len(phases_spec) != n:
            raise ConfigError("agents.initial_phases", f"expected {n} phases")
        try:
            phases = validate_initial_phases(phases_spec)
        except ValueError as exc:
            raise ConfigError("agents.initial_phases", str(exc)) from None

    positions_spec = agents_data.get("initial_positions", "random")
    if isinstance(positions_spec, str):
        if positions_spec != "random":
            raise ConfigError("agents.initial_positions",
                              f"expected a list or 'random', got {positions_spec!r}")
        positions = _draw_positions(rng, region, n)
    else:
        positions = np.asarray(positions_spec, dtype=float)
        if positions.shape != (n, 2):
            raise ConfigError("agents.initial_positions", f"expected {n} [x, y] pairs")
        for i, point in enumerate(positions):
            if not region.contains(point):
                raise ConfigError("agents.initial_positions",
                                  f"agent {i} starts outside the region")

    gains = data.get("gains", {})
    kappa_phi = float(gains.get("kappa_phi", 0.0))
    kappa_p = float(gains.get("kappa_p", 0.0))
    if kappa_phi <= 0.0:
        raise ConfigError("gains.kappa_phi", "must be positive")
    if kappa_p <= 0.0:
        raise ConfigError("gains.kappa_p", "must be positive")

    integrator = data.get("integrator", {})
    dt = float(integrator.get("dt", 0.01))
    t_end = float(integrator.get("t_end", 0.0))
    log_stride = int(integrator.get("log_stride", 1))
    if dt <= 0.0:
        raise ConfigError("integrator.dt", "must be positive")
    if t_end < dt:
        raise ConfigError("integrator.t_end", "must cover at least one step")
    if log_stride < 1:
        raise ConfigError("integrator.log_stride", "must be at least 1")

    cost_data = data.get("cost", {"kind": "squared_distance"})
    cost_kind = cost_data.get("kind", "squared_distance")
    if cost_kind not in _COST_KINDS:
        raise ConfigError("cost.kind",
                          f"unknown kind {cost_kind!r}; expected one of {_COST_KINDS}")
    cost = CostModel(cost_kind, _parse_cost_parameters(cost_kind, cost_data))

    search = None
    if "search" in data and data["search"] is not None:
        sdata = data["search"]
        k_star = sdata.get("K_star")
        epsilon_p = sdata.get("epsilon_p")
        if k_star is None and epsilon_p is None:
            raise ConfigError("search", "needs K_star or epsilon_p")
        duration = sdata.get("T_epsilon")
        if duration is None or float(duration) <= 0.0:
            raise ConfigError("search.T_epsilon", "must be positive")
        search = SearchConfig(
            epoch_count=None if k_star is None else int(k_star),
            epsilon_p=None if epsilon_p is None else float(epsilon_p),
            epoch_duration=float(duration),
            rng_seed=int(sdata.get("rng_seed", 0)),
        )
        if search.epoch_count is None:
            # materialize so the echo pins the resolved count
            search = SearchConfig(epoch_count_for_tolerance(search.epsilon_p),
                                  search.epsilon_p, search.epoch_duration,
                                  search.rng_seed)

    output = data.get("output", {})
    snapshot_times = tuple(float(t) for t in output.get("snapshot_times", ()))

    return ScenarioConfig(region=region, density=density, n_agents=n,
                          initial_phases=phases, initial_positions=positions,
                          kappa_phi=kappa_phi, kappa_p=kappa_p, dt=dt, t_end=t_end,
                          log_stride=log_stride, cost=cost, search=search,
                          snapshot_times=snapshot_times, seed=seed)


def _parse_cost_parameters(kind: str, cost_data: dict) -> tuple:
    """Squared distance takes no parameter; generic_builtin at most one finite beta >= 0.

    beta >= 0 keeps every slice cost strictly convex (see CostModel).
    """
    try:
        values = tuple(float(v) for v in cost_data.get("parameters", ()))
    except (TypeError, ValueError) as exc:
        raise ConfigError("cost.parameters", f"expected numbers ({exc})") from None
    allowed = 0 if kind == "squared_distance" else 1
    if len(values) > allowed:
        raise ConfigError("cost.parameters", f"{kind} takes at most {allowed} parameter(s), "
                                             f"got {len(values)}")
    if values and not (math.isfinite(values[0]) and values[0] >= 0.0):
        raise ConfigError("cost.parameters", f"beta must be finite and >= 0, "
                                             f"got {values[0]}")
    return values


def _draw_phases(rng, n: int) -> np.ndarray:
    for _ in range(100):
        candidate = np.sort(rng.uniform(0.0, TWO_PI, n))
        try:
            return validate_initial_phases(candidate)
        except ValueError:
            continue
    raise ConfigError("agents.initial_phases", "could not draw separated phases")


def _draw_positions(rng, region: AnnularRegion, n: int) -> np.ndarray:
    bound = region.bounding_radius()
    positions = np.empty((n, 2))
    for i in range(n):
        for _ in range(10000):
            candidate = rng.uniform(-bound, bound, 2)
            if region.contains(candidate):
                positions[i] = candidate
                break
        else:
            raise ConfigError("agents.initial_positions", "rejection sampling failed")
    return positions


@dataclass
class TrajectoryLog:
    """Arrays of logged quantities, one row per record, plus run metadata."""

    times: np.ndarray
    phases_wrapped: np.ndarray
    phases_unwrapped: np.ndarray
    positions: np.ndarray
    workloads: np.ndarray
    lyapunov: np.ndarray
    cost: np.ndarray
    centroids: np.ndarray
    phi_rate_norm: np.ndarray
    max_speed: np.ndarray
    tracking: np.ndarray
    excursion: np.ndarray
    halvings: np.ndarray
    config_echo: dict
    meta: dict

    @property
    def n_agents(self) -> int:
        return self.phases_wrapped.shape[1]

    def to_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "meta": self.meta,
            "records": {
                "times": self.times.tolist(),
                "phases_wrapped": self.phases_wrapped.tolist(),
                "phases_unwrapped": self.phases_unwrapped.tolist(),
                "positions": self.positions.tolist(),
                "workloads": self.workloads.tolist(),
                "lyapunov": self.lyapunov.tolist(),
                "cost": self.cost.tolist(),
                "centroids": self.centroids.tolist(),
                "phi_rate_norm": self.phi_rate_norm.tolist(),
                "max_speed": self.max_speed.tolist(),
                "tracking": self.tracking.tolist(),
                "excursion": self.excursion.astype(int).tolist(),
                "halvings": self.halvings.tolist(),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrajectoryLog":
        try:
            rec = data["records"]
            return cls(
                times=np.asarray(rec["times"], dtype=float),
                phases_wrapped=np.asarray(rec["phases_wrapped"], dtype=float),
                phases_unwrapped=np.asarray(rec["phases_unwrapped"], dtype=float),
                positions=np.asarray(rec["positions"], dtype=float),
                workloads=np.asarray(rec["workloads"], dtype=float),
                lyapunov=np.asarray(rec["lyapunov"], dtype=float),
                cost=np.asarray(rec["cost"], dtype=float),
                centroids=np.asarray(rec["centroids"], dtype=float),
                phi_rate_norm=np.asarray(rec["phi_rate_norm"], dtype=float),
                max_speed=np.asarray(rec["max_speed"], dtype=float),
                tracking=np.asarray(rec["tracking"], dtype=float),
                excursion=np.asarray(rec["excursion"], dtype=bool),
                halvings=np.asarray(rec["halvings"], dtype=int),
                config_echo=data["config"],
                meta=data.get("meta", {}),
            )
        except KeyError as exc:
            raise ValueError(f"malformed trajectory log: missing {exc}") from None


def rk4_step(state: np.ndarray, derivative, dt: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step of an autonomous system."""
    k1 = derivative(state)
    k2 = derivative(state + 0.5 * dt * k1)
    k3 = derivative(state + 0.5 * dt * k2)
    k4 = derivative(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _System:
    """Stacked (unwrapped phases, positions) dynamics with the workload guard."""

    def __init__(self, region, density, cost: CostModel, n: int,
                 kappa_phi: float, kappa_p: float, pinned: int | None = None):
        self.cost = cost
        self.n = n
        self.kappa_phi = kappa_phi
        self.kappa_p = kappa_p
        self.pinned = pinned
        self.table = agents_mod.cost_table(region, density, cost)
        self.workload_floor = WORKLOAD_FLOOR_FRACTION * float(self.table.totals[0]) / n
        self.halvings_last_step = 0

    def split(self, y: np.ndarray):
        return y[:self.n], y[self.n:].reshape(self.n, 2)

    def rhs(self, y: np.ndarray) -> np.ndarray:
        phases, positions = self.split(y)
        moments = self.table.slice_moments(np.mod(phases, TWO_PI))
        m = moments[0]
        rates = self.kappa_phi * (m - np.roll(m, 1))
        if self.pinned is not None:
            rates[self.pinned] = 0.0
        targets = agents_mod.optimal_targets(moments, self.cost)
        velocity = -self.kappa_p * (positions - targets)
        return np.concatenate([rates, velocity.ravel()])

    def acceptable(self, y: np.ndarray) -> bool:
        """Bars keep their cyclic order and every slice keeps its workload floor."""
        phases = y[:self.n]
        if phases[0] + TWO_PI <= phases[-1] or (phases[1:] <= phases[:-1]).any():
            return False
        wrapped = np.mod(phases, TWO_PI)
        return float(np.min(self.table.slice_moments(wrapped)[0])) > self.workload_floor

    def advance(self, y: np.ndarray, dt: float, depth: int = 0) -> np.ndarray:
        """Guarded step: halve (up to the cap) if bars would cross or a slice collapse."""
        trial = rk4_step(y, self.rhs, dt)
        if self.acceptable(trial):
            return trial
        if depth >= MAX_STEP_HALVINGS:
            raise IntegrationError(
                f"step still crosses bars or breaks the workload floor "
                f"{self.workload_floor:.3e} after {MAX_STEP_HALVINGS} step halvings")
        self.halvings_last_step = max(self.halvings_last_step, depth + 1)
        mid = self.advance(y, 0.5 * dt, depth + 1)
        return self.advance(mid, 0.5 * dt, depth + 1)


def integrate_system(region, density, cost: CostModel, phases_unwrapped,
                     positions, kappa_phi: float, kappa_p: float, dt: float,
                     duration: float, pinned: int | None = None):
    """Integrate for `duration`, returning (phases_unwrapped, positions).

    Used directly by the anchored-epoch search; `pinned` freezes one bar.
    """
    phases = np.asarray(phases_unwrapped, dtype=float)
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    system = _System(region, density, cost, phases.size, kappa_phi, kappa_p, pinned)
    y = np.concatenate([phases, pos.ravel()])
    steps = max(1, int(round(duration / dt)))
    for _ in range(steps):
        y = system.advance(y, dt)
    out_phases, out_pos = system.split(y)
    return out_phases.copy(), out_pos.copy()


def run_scenario(config: ScenarioConfig) -> TrajectoryLog:
    """Integrate the scenario to t_end, logging every `log_stride` steps.

    Deterministic for a fixed config (random initial conditions are
    materialized at parse time). On a guard failure the partial log is
    attached to the raised IntegrationError.
    """
    n = config.n_agents
    system = _System(config.region, config.density, config.cost, n,
                     config.kappa_phi, config.kappa_p)
    table = system.table
    m_bar = float(table.totals[0]) / n

    state0 = PartitionState(config.initial_phases, config.kappa_phi)
    c1, c2 = decay_constants(state0, config.region, config.density)
    _, lambda_min = cyclic_difference_form(n)
    omega_min, omega_max = radial_moment_extrema(config.region, config.density)
    meta = {
        "m_bar": m_bar,
        "total_workload": float(table.totals[0]),
        "c1": c1,
        "c2": c2,
        "lambda_min": lambda_min,
        "omega_min": omega_min,
        "omega_max": omega_max,
        "guard_failures": 0,
        "workload_floor": system.workload_floor,
    }

    rows = []

    def record(t: float, y: np.ndarray, halvings: int):
        phases, positions = system.split(y)
        wrapped = np.mod(phases, TWO_PI)
        moments = table.slice_moments(wrapped)
        m = moments[0]
        rates = config.kappa_phi * (m - np.roll(m, 1))
        centroids = np.stack([moments[1] / m, moments[2] / m], axis=1)
        targets = agents_mod.optimal_targets(moments, config.cost)
        velocity = -config.kappa_p * (positions - targets)
        costs, _, _ = agents_mod.slice_cost_terms(moments, positions, config.cost)
        offsets = positions - centroids
        rows.append({
            "t": t,
            "wrapped": wrapped,
            "unwrapped": phases.copy(),
            "positions": positions.copy(),
            "m": m.copy(),
            "V": 0.5 * float(np.sum((m - m_bar) ** 2)),
            "J": float(np.sum(costs)),
            "centroids": centroids,
            "phi_rate": float(np.linalg.norm(rates)),
            "speed": float(np.max(np.linalg.norm(velocity, axis=1))),
            "H": float(np.sum(m * np.sum(offsets * offsets, axis=1))),
            "excursion": bool(any(not config.region.contains(p) for p in positions)),
            "halvings": halvings,
        })

    y = np.concatenate([config.initial_phases,
                        np.asarray(config.initial_positions, float).ravel()])
    steps = int(round(config.t_end / config.dt))
    record(0.0, y, 0)
    try:
        for k in range(1, steps + 1):
            system.halvings_last_step = 0
            y = system.advance(y, config.dt)
            if k % config.log_stride == 0 or k == steps:
                record(k * config.dt, y, system.halvings_last_step)
    except IntegrationError as exc:
        meta["guard_failures"] = 1
        partial = _assemble_log(rows, config, meta)
        raise IntegrationError(str(exc), log=partial) from None
    return _assemble_log(rows, config, meta)


def _assemble_log(rows, config: ScenarioConfig, meta: dict) -> TrajectoryLog:
    return TrajectoryLog(
        times=np.array([r["t"] for r in rows]),
        phases_wrapped=np.array([r["wrapped"] for r in rows]),
        phases_unwrapped=np.array([r["unwrapped"] for r in rows]),
        positions=np.array([r["positions"] for r in rows]),
        workloads=np.array([r["m"] for r in rows]),
        lyapunov=np.array([r["V"] for r in rows]),
        cost=np.array([r["J"] for r in rows]),
        centroids=np.array([r["centroids"] for r in rows]),
        phi_rate_norm=np.array([r["phi_rate"] for r in rows]),
        max_speed=np.array([r["speed"] for r in rows]),
        tracking=np.array([r["H"] for r in rows]),
        excursion=np.array([r["excursion"] for r in rows], dtype=bool),
        halvings=np.array([r["halvings"] for r in rows], dtype=int),
        config_echo=config.to_dict(),
        meta=meta,
    )


@dataclass
class CheckResult:
    name: str
    bound: str
    worst: float
    status: str  # "pass" | "fail" | "inconclusive" | "info"

    def line(self) -> str:
        return f"{self.name}: bound={self.bound} worst={self.worst:.6e} {self.status.upper()}"


@dataclass
class VerificationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.status in ("pass", "info") for c in self.checks)

    def lines(self):
        return [c.line() for c in self.checks]


# Horizon below which the end-of-run convergence trends say nothing yet.
TREND_MIN_HORIZON = 50.0


def verify_invariants(log: TrajectoryLog, config: ScenarioConfig | None = None,
                      rng_seed: int = 0) -> VerificationReport:
    """Check every logged-trajectory invariant and report margins.

    Works from the log's embedded config echo unless an explicit config is
    passed. Random spot checks (gradient consistency, centroid optimality,
    equal-share closure) use a fixed seed for reproducible reports.
    """
    if config is None:
        config = scenario_from_dict(log.config_echo)
    region, density = config.region, config.density
    n = log.n_agents
    t = log.times
    span = float(t[-1] - t[0]) if t.size > 1 else 0.0
    m_bar = log.meta.get("m_bar", float(np.mean(log.workloads[0])))
    c1 = log.meta.get("c1")
    c2 = log.meta.get("c2")
    lambda_min = log.meta.get("lambda_min")
    if c1 is None or c2 is None or lambda_min is None:
        state0 = PartitionState(log.phases_wrapped[0], config.kappa_phi)
        c1, c2 = decay_constants(state0, region, density)
        _, lambda_min = cyclic_difference_form(n)

    checks = []

    # Conserved mean of the unwrapped phases.
    means = np.mean(log.phases_unwrapped, axis=1)
    drift = float(np.max(np.abs(means - means[0])))
    allowed = 1e-6 * max(1.0, span / 100.0)
    checks.append(CheckResult("mean_phase_conservation", f"<{allowed:.1e}", drift,
                              "pass" if drift < allowed else "fail"))

    # Imbalance never increases along the discrete trajectory.
    v = log.lyapunov
    eps_step = 1e-9 * max(v[0], 1e-30)
    rise = float(np.max(np.diff(v))) if v.size > 1 else 0.0
    checks.append(CheckResult("lyapunov_nonincreasing", f"rise<{eps_step:.1e}", rise,
                              "pass" if rise <= eps_step else "fail"))

    # Guaranteed exponential decay with 5% discretization slack.
    v_floor = (1e-10 * m_bar) ** 2
    envelope = np.maximum(v[0] * np.exp(-2.0 * c2 * (t - t[0])), v_floor)
    ratio = float(np.max(v / envelope))
    checks.append(CheckResult("lyapunov_exponential_bound", "ratio<=1.05", ratio,
                              "pass" if ratio <= 1.05 else "fail"))

    # Workload errors e_i = m_i - m_bar obey |e_i| <= sqrt(2 V) <= c1 e^{-c2 t},
    # and neighbour gaps |e_i - e_{i-1}| <= sqrt(2 (e_i^2 + e_{i-1}^2))
    # <= 2 sqrt(V) <= sqrt(2) c1 e^{-c2 t}; same 5% discretization slack.
    decay = np.exp(-c2 * (t - t[0]))
    deviation_envelope = np.maximum(c1 * decay, 1e-10 * m_bar)
    deviation_ratio = float(np.max(np.abs(log.workloads - m_bar)
                                   / deviation_envelope[:, None]))
    checks.append(CheckResult("workload_deviation_bound", "ratio<=1.05", deviation_ratio,
                              "pass" if deviation_ratio <= 1.05 else "fail"))
    diffs = np.abs(log.workloads - np.roll(log.workloads, 1, axis=1))
    gap_envelope = np.maximum(math.sqrt(2.0) * c1 * decay, 1e-10 * m_bar)
    gap_ratio = float(np.max(diffs / gap_envelope[:, None]))
    checks.append(CheckResult("pairwise_difference_bound", "ratio<=1.05", gap_ratio,
                              "pass" if gap_ratio <= 1.05 else "fail"))

    # No slice ever loses all workload; the step guard never gave up.
    min_workload = float(np.min(log.workloads))
    failures = int(log.meta.get("guard_failures", 0))
    ok = min_workload > 0.0 and failures == 0
    checks.append(CheckResult("workload_positivity", ">0, no guard failures",
                              min_workload, "pass" if ok else "fail"))

    # Bars never overtake each other (checked, not enforced).
    gaps = np.diff(log.phases_unwrapped, axis=1)
    wrap = (log.phases_unwrapped[:, 0] + TWO_PI - log.phases_unwrapped[:, -1])
    min_gap = float(min(np.min(gaps), np.min(wrap)))
    checks.append(CheckResult("cyclic_order_preserved", "gaps>0", min_gap,
                              "pass" if min_gap > 0.0 else "fail"))

    # Quadratic-form lower bound on the neighbour-gap energy.
    lhs = np.sum(diffs ** 2, axis=1)
    rhs = 2.0 * lambda_min * v / n
    margin = float(np.min(lhs - rhs))
    slack = -1e-9 * max(float(np.max(rhs)), 1e-30)
    checks.append(CheckResult("cyclic_form_bound", "lhs>=rhs", margin,
                              "pass" if margin >= slack else "fail"))

    # Equal-share advance closes after N compositions.
    rng = np.random.default_rng(rng_seed)
    worst_closure = 0.0
    for phi in rng.uniform(0.0, TWO_PI, 16):
        current = float(phi)
        for _ in range(n):
            current = advance_by_mean_workload(region, density, current, n)
        worst_closure = max(worst_closure, abs(current - phi - TWO_PI))
    checks.append(CheckResult("equal_share_closure", "<1e-8", worst_closure,
                              "pass" if worst_closure < 1e-8 else "fail"))

    # Analytic cost gradient against central differences at random states.
    worst_grad = _gradient_consistency(region, density, config, rng, samples=20)
    checks.append(CheckResult("gradient_consistency", "rel<1e-4", worst_grad,
                              "pass" if worst_grad < 1e-4 else "fail"))

    # Centroids are optimal for the squared-distance cost at a frozen partition.
    worst_opt = _centroid_optimality(log, region, density, config, rng)
    checks.append(CheckResult("centroid_optimality", "J(p*+d)>=J(p*)", worst_opt,
                              "pass" if worst_opt >= -1e-9 else "fail"))

    # Second-moment decomposition of the cost on sampled records.
    worst_axis = _parallel_axis(log, region, density, config)
    checks.append(CheckResult("parallel_axis_identity", "rel<1e-6", worst_axis,
                              "pass" if worst_axis < 1e-6 else "fail"))

    # Pure tracking (frozen bars) follows the exact exponential.
    worst_track = _tracking_exponential(log, region, density, config)
    checks.append(CheckResult("tracking_exponential", "<1e-6", worst_track,
                              "pass" if worst_track < 1e-6 else "fail"))

    # Bounded-input bound on the tracking energy (sample-based estimate).
    iss_margin = _iss_bound(log, region, density, config)
    checks.append(CheckResult("iss_tracking_bound", "H<=envelope (sampled)",
                              iss_margin, "info"))

    # End-of-run convergence trends; meaningless on short horizons.
    conclusive = span >= TREND_MIN_HORIZON
    dt_rec = float(t[-1] - t[-2]) if t.size > 1 else 1.0
    centroid_rate = (float(np.max(np.linalg.norm(
        log.centroids[-1] - log.centroids[-2], axis=1))) / dt_rec
        if t.size > 1 else math.inf)
    for name, value in (("trend_phi_rate", float(log.phi_rate_norm[-1])),
                        ("trend_max_speed", float(log.max_speed[-1])),
                        ("trend_centroid_rate", centroid_rate)):
        if not conclusive:
            checks.append(CheckResult(name, "<1e-4 at t_end", value, "inconclusive"))
        else:
            checks.append(CheckResult(name, "<1e-4 at t_end", value,
                                      "pass" if value < 1e-4 else "fail"))

    return VerificationReport(checks)


def _gradient_consistency(region, density, config, rng, samples=20, step=1e-5):
    worst = 0.0
    for _ in range(samples):
        phases = _draw_phases(rng, config.n_agents)
        state = PartitionState(phases, config.kappa_phi)
        i = int(rng.integers(config.n_agents))
        position = _draw_positions(rng, region, 1)[0]
        grad = agents_mod.gradient_at(state, region, density, config.cost, i, position)
        fd = np.empty(2)
        for axis in range(2):
            offset = np.zeros(2)
            offset[axis] = step
            f_plus = agents_mod.subregion_cost(state, region, density, config.cost,
                                               i, position + offset)
            f_minus = agents_mod.subregion_cost(state, region, density, config.cost,
                                                i, position - offset)
            fd[axis] = (f_plus - f_minus) / (2.0 * step)
        scale = max(float(np.linalg.norm(grad)), 1e-9)
        worst = max(worst, float(np.linalg.norm(grad - fd)) / scale)
    return worst


def _centroid_optimality(log, region, density, config, rng, trials=50):
    state = PartitionState(log.phases_wrapped[-1], config.kappa_phi)
    squared = CostModel("squared_distance")
    targets = agents_mod.all_centroids(state, region, density)
    base = agents_mod.total_cost(state, AgentState(targets, config.kappa_p),
                                 region, density, squared)
    worst = math.inf
    for _ in range(trials):
        delta = rng.normal(size=targets.shape)
        delta *= rng.uniform(0.0, 0.1) / max(float(np.linalg.norm(delta)), 1e-12)
        perturbed = agents_mod.total_cost(state, AgentState(targets + delta,
                                                            config.kappa_p),
                                          region, density, squared)
        worst = min(worst, (perturbed - base) / max(abs(base), 1e-12))
    return worst


def _parallel_axis(log, region, density, config, max_samples=8):
    idx = np.unique(np.linspace(0, log.times.size - 1, max_samples).astype(int))
    squared = CostModel("squared_distance")
    worst = 0.0
    for k in idx:
        state = PartitionState(log.phases_wrapped[k], config.kappa_phi)
        positions = log.positions[k]
        total = agents_mod.total_cost(state, AgentState(positions, config.kappa_p),
                                      region, density, squared)
        spread = sum(
            agents_mod.subregion_cost(state, region, density, squared, i,
                                      log.centroids[k, i])
            for i in range(log.n_agents)
        )
        offsets = positions - log.centroids[k]
        carried = float(np.sum(log.workloads[k] * np.sum(offsets * offsets, axis=1)))
        worst = max(worst, abs(total - spread - carried) / max(abs(total), 1e-12))
    return worst


def _tracking_exponential(log, region, density, config, horizon=5.0):
    """Frozen-bar tracking follows the closed-form exponential."""
    state = PartitionState(log.phases_wrapped[0], config.kappa_phi)
    centroids = agents_mod.all_centroids(state, region, density)
    start = log.positions[0]
    steps = max(1, int(round(horizon / config.dt)))
    elapsed = steps * config.dt
    y = start.copy()
    for _ in range(steps):
        y = rk4_step(y, lambda p: -config.kappa_p * (p - centroids), config.dt)
    exact = centroids + (start - centroids) * math.exp(-config.kappa_p * elapsed)
    return float(np.max(np.linalg.norm(y - exact, axis=1)))


def _iss_bound(log, region, density, config):
    """Worst margin of H(t) against its bounded-input envelope (info only)."""
    table = moment_table(region, density)
    kappa_p = config.kappa_p
    sup_rate = float(np.max(log.phi_rate_norm))
    e_eta_max = 0.0
    for k in range(log.times.size):
        phi = log.phases_wrapped[k]
        values = table.value(phi)  # rows: plain, x, y, r2 at each bar angle
        p = log.positions[k]
        c = log.centroids[k]
        p_prev = np.roll(p, 1, axis=0)
        c_prev = np.roll(c, 1, axis=0)

        def eta_pair(a, b):
            # eta(phi_i, a_i) - eta(phi_i, b_i) without the shared r^3 term
            na = np.sum(a * a, axis=1)
            nb = np.sum(b * b, axis=1)
            lin = -2.0 * ((a[:, 0] - b[:, 0]) * values[1] + (a[:, 1] - b[:, 1]) * values[2])
            return (na - nb) * values[0] + lin

        e_eta = eta_pair(p_prev, p) - eta_pair(c_prev, c)
        e_eta_max = max(e_eta_max, float(np.linalg.norm(e_eta)))
    envelope = (log.tracking[0] * np.exp(-2.0 * kappa_p * (log.times - log.times[0]))
                + e_eta_max * sup_rate / (2.0 * kappa_p))
    return float(np.min(envelope - log.tracking))
