"""Scenario configuration, the cascade integrator, and invariant verification.

A scenario couples the bar-balancing dynamics with the agent tracking law:
bars rotate toward the heavier neighbouring slice while each agent chases
the optimal serving position of its slice (the centroid, for the
squared-distance cost). The bar rates read the slice moments alone and
nothing feeds back from the agents, so the coupled system is a cascade, and
`_System` integrates it in two passes. The bar pass (`_System.advance`)
takes fixed classical Runge-Kutta steps of the unwrapped phases in one
accept/reject loop that halves a trial until every slice mass exceeds a
workload floor, a test that also refuses bars out of cyclic order. Each RK4
stage is one table product of slice moments, then `bar_rates`, and every
accepted sub-step keeps its four stage moments. The agent pass
(`_System.track`) then moves the positions over a block of accepted
sub-steps: one `optimal_targets` call on their stage moments, and RK4's
closed-form map for the linear law p' = -kappa_p (p - T), which gives the
stacked RK4 step's positions up to rounding. `_System.run` is the one
stepping loop and runs the agent pass at every record and at least every
`BLOCK_STEPS` sub-steps: `run_scenario` logs its records into a
`TrajectoryLog`, computing the derived columns in one batch, and
`integrate_system` runs a search epoch with one bar pinned.
`verify_invariants` checks a log's records against the convergence
guarantees and reports the end-of-run trends and the excursions out of the
region for information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import agents as agents_mod
from .geometry import (TWO_PI, AnnularRegion, DensityField, InvalidDensityError,
                       PolarCurve, moment_table, radial_moment_extrema, region_integral)
from .partition import (bar_rates, cyclic_gaps, decay_constants, imbalance,
                        validate_initial_phases)

WORKLOAD_FLOOR_FRACTION = 1e-9
MAX_STEP_HALVINGS = 8
# The region's checks allocate a few arrays of this many angles.
MAX_VALIDATION_GRID = 2 ** 20
# The step guard's floor, 1e-9 W / N, must stay far above the rounding of a
# computed slice mass, of order eps W: at N <= 1000 it is over 4000 times that.
MAX_AGENTS = 1000
# The quartic table rows grow as radius**6 times the density; below this
# radius they stay far from overflow.
MAX_RADIUS = 1e6
# Every table row, workload and cost scales with the density. Within these
# values the quartic rows stay below 1e136 and V, the square of a workload,
# finite; and the rows stay far above the subnormal range, where the table's
# build-time check loses its relative precision.
MIN_DENSITY, MAX_DENSITY = 1e-100, 1e100
# The RK4 steps one command may ask for: t_end / dt for `run`, the epoch
# count times T_epsilon / dt for `search`. It refuses requests no run can
# finish (t_end 1e30 at dt 0.05 is 2e31 steps) while leaving 10^4 times the
# bundled reference run's 10^4 steps. It is not a time budget: one step takes
# ~50 us at N = 2 to 8 and ~7 ms at N = 1000 on one Xeon core, so a run at
# the bound takes from about 1.5 hours to days, and logs up to 10^8 records.
MAX_STEPS = 10 ** 8


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


@dataclass(frozen=True)
class SearchConfig:
    """Anchor grid size and epoch length.

    The parser sets `epoch_count` from K_star, or from the angular tolerance
    `epsilon_p` (kept for the echo) through `epoch_count_for_tolerance`.
    """

    epoch_count: int
    epsilon_p: float | None = None
    epoch_duration: float = 10.0


def epoch_count_for_tolerance(epsilon_p: float) -> int:
    """Smallest k whose anchor spacing 2*pi/k does not exceed the tolerance."""
    if epsilon_p <= 0.0:
        raise ValueError("angular tolerance must be positive")
    k = max(1, int(math.floor(TWO_PI / epsilon_p)))
    if TWO_PI / k <= epsilon_p:
        return k
    return k + 1


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
    beta: float = 0.0  # weight of the quartic cost term (see `agents`)
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
            "cost": ({"kind": "generic_builtin", "parameters": [self.beta]} if self.beta
                     else {"kind": "squared_distance", "parameters": []}),
            "output": {"snapshot_times": list(self.snapshot_times)},
        }
        if self.density.angular is not None:
            out["density"]["angular"] = _curve_to_dict(self.density.angular)
        if self.search is not None:
            out["search"] = {
                "K_star": self.search.epoch_count,
                "epsilon_p": self.search.epsilon_p,
                "T_epsilon": self.search.epoch_duration,
            }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _curve_to_dict(curve: PolarCurve) -> dict:
    return {"mean": curve.mean, "cos": list(curve.cosine_coeffs),
            "sin": list(curve.sine_coeffs)}


def within_span(t: float, first: float, last: float) -> bool:
    """Whether t lies in [first, last] up to rounding (1e-9 of the span)."""
    slack = 1e-9 * max(last - first, 1.0)
    return first - slack <= t <= last + slack


_REQUIRED = object()


def _get(data: dict, path: str, default=_REQUIRED, kind=None, test=None, message=""):
    """The config entry at the dotted `path`, read and checked in one call.

    Each section on the way must be an object; an absent one reads as empty.
    An absent entry, or a null one whose default is None, gives `default`
    ("missing" without one). `kind` dict wants an object, float and int a
    finite number (int a whole one), list a list of finite numbers, returned
    as a tuple; booleans and strings are not numbers. A value failing `test`
    raises `message` formatted with the raw value. Each ConfigError names
    `path`, or the section that is null ("missing") or not an object.
    """
    *sections, key = path.split(".")
    node = data
    for depth, name in enumerate(sections, 1):
        node = node.get(name, {})
        if not isinstance(node, dict):
            raise ConfigError(".".join(sections[:depth]), "missing" if node is None
                              else f"expected an object, got {node!r}")
    raw = value = node.get(key, _REQUIRED)
    if raw is _REQUIRED or raw is None and default is None:
        if default is _REQUIRED:
            raise ConfigError(path, "missing")
        return default
    if kind is dict:
        if not isinstance(raw, dict):
            raise ConfigError(path, "missing" if raw is None
                              else f"expected an object, got {raw!r}")
    elif kind is list:
        value = _numbers(raw, path)
    elif kind is not None:
        try:
            if isinstance(raw, (bool, str)):
                raise TypeError
            value = float(raw)  # a whole number too large for a float fails here
            if kind is int:
                value = int(raw)  # and so do inf and nan
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(path, f"expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(path, f"must be finite, got {raw!r}")
        if kind is int and value != raw:
            raise ConfigError(path, f"expected a whole number, got {raw!r}")
    if test is not None and not test(value):
        raise ConfigError(path, message.format(raw))
    return value


def _numbers(raw, path: str) -> tuple:
    """`raw` as a tuple of floats: a list of finite numbers, none a boolean or
    a string; ConfigError naming `path` otherwise."""
    try:
        if not isinstance(raw, (list, tuple)) or any(isinstance(v, (bool, str)) for v in raw):
            raise TypeError
        value = tuple(map(float, raw))  # whole numbers too large for a float fail here
        if not all(map(math.isfinite, value)):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"expected a list of finite numbers, got {raw!r}") from None
    return value


def _duration(data: dict, path: str, dt: float) -> float:
    """The duration at `path`, which must be one or more whole steps dt (to 1e-9),
    and at most `MAX_STEPS` of them."""
    duration = _get(data, path, kind=float)
    if not duration / dt <= MAX_STEPS:
        raise ConfigError(path, f"more than {MAX_STEPS} steps of dt {dt}")
    steps = round(duration / dt)
    if steps < 1:
        raise ConfigError(path, "must cover at least one step")
    if abs(steps * dt - duration) > 1e-9 * duration:
        raise ConfigError(path, f"{duration} is not a whole number of steps of dt {dt}")
    return duration


def _parse_curve(data: dict, path: str, bound: float = math.inf) -> PolarCurve:
    """The polar curve at `path`, whose radius is at most `bound` at every angle."""
    _get(data, path, kind=dict)
    curve = PolarCurve(_get(data, f"{path}.mean", kind=float),
                       _get(data, f"{path}.cos", (), list), _get(data, f"{path}.sin", (), list))
    radius = abs(curve.mean) + sum(map(abs, curve.cosine_coeffs + curve.sine_coeffs))
    if not radius <= bound:
        raise ConfigError(path, f"radius may reach {radius:.3e}; at most {bound:g}")
    return curve


_DENSITY_KINDS = ("uniform", "reference", "radial_polynomial_times_angular")
# The cost kinds and their beta without a parameter; only generic_builtin takes one.
_COST_KINDS = {"squared_distance": 0.0, "generic_builtin": 0.25}


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Parse and validate a scenario; raises ConfigError naming the bad field."""
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be an object")

    _get(data, "region", kind=dict)  # the one section without a default
    inner = _parse_curve(data, "region.inner", MAX_RADIUS)
    outer = _parse_curve(data, "region.outer", MAX_RADIUS)
    grid = _get(data, "region.validation_grid_size", 2048, int,
                lambda size: size <= MAX_VALIDATION_GRID,
                f"at most {MAX_VALIDATION_GRID}, got {{!r}}")
    try:
        region = AnnularRegion(inner, outer, validation_grid_size=grid)
    except ValueError as exc:
        raise ConfigError("region", str(exc)) from None

    kind = _get(data, "density.kind", test=lambda kind: kind in _DENSITY_KINDS,
                message=f"unknown kind {{!r}}; expected one of {_DENSITY_KINDS}")
    # only the radial polynomial reads more than one parameter or an angular factor
    polynomial = kind == "radial_polynomial_times_angular"
    angular = _get(data, "density.angular", None)
    if angular is not None:
        if not polynomial:
            raise ConfigError("density.angular", f"{kind} takes no angular factor")
        angular = _parse_curve(data, "density.angular")
    density = DensityField(kind, _get(data, "density.parameters", (), list,
                                      lambda values: polynomial or len(values) <= 1,
                                      f"{kind} takes at most 1 parameter(s), got {{!r}}"),
                           angular)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            lo, hi = density.bounds(region)
    except ValueError as exc:
        raise ConfigError("density.parameters", str(exc)) from None
    if not MIN_DENSITY <= lo <= hi <= MAX_DENSITY:
        raise ConfigError("density", f"ranges over [{lo:.3e}, {hi:.3e}] on the region; "
                                     f"need [{MIN_DENSITY:g}, {MAX_DENSITY:g}]")
    try:  # the grid above can miss where the table's radial moment dips
        radial_moment_extrema(region, density)
    except InvalidDensityError as exc:
        raise ConfigError("density", str(exc)) from None

    n = _get(data, "agents.count", kind=int, test=lambda count: 2 <= count <= MAX_AGENTS,
             message=f"need 2 to {MAX_AGENTS} agents, got {{!r}}")
    seed = _get(data, "seed", None, int, lambda seed: seed >= 0,
                "must be non-negative, got {!r}")
    list_or_random = "expected a list or 'random', got {!r}"
    phases = _get(data, "agents.initial_phases", "random",
                  test=lambda spec: spec == "random" or not isinstance(spec, str),
                  message=list_or_random)
    positions = _get(data, "agents.initial_positions", "random",
                     test=lambda spec: spec == "random" or not isinstance(spec, str),
                     message=list_or_random)
    rng = np.random.default_rng(seed) if "random" in (phases, positions) else None
    if phases == "random":
        phases = _draw_phases(rng, n)
    else:
        phases = _get(data, "agents.initial_phases", kind=list,
                      test=lambda spec: len(spec) == n, message=f"expected {n} phases")
        try:
            phases = validate_initial_phases(phases)
        except ValueError as exc:
            raise ConfigError("agents.initial_phases", str(exc)) from None

    if positions == "random":
        positions = _draw_positions(rng, region, n)
    else:
        pairs = ([_numbers(pair, "agents.initial_positions") for pair in positions]
                 if isinstance(positions, (list, tuple)) else [])
        if len(pairs) != n or any(len(pair) != 2 for pair in pairs):
            raise ConfigError("agents.initial_positions", f"expected {n} [x, y] pairs")
        positions = np.array(pairs)
        outside = ~region.contains(positions)
        if outside.any():
            raise ConfigError("agents.initial_positions",
                              f"agent {int(np.argmax(outside))} starts outside the region")

    kappa_phi = _get(data, "gains.kappa_phi", kind=float, test=lambda gain: gain > 0.0,
                     message="must be positive")
    kappa_p = _get(data, "gains.kappa_p", kind=float, test=lambda gain: gain > 0.0,
                   message="must be positive")

    dt = _get(data, "integrator.dt", 0.01, float, lambda step: step > 0.0, "must be positive")
    t_end = _duration(data, "integrator.t_end", dt)
    log_stride = _get(data, "integrator.log_stride", 1, int, lambda stride: stride >= 1,
                      "must be at least 1")

    # squared_distance, the default kind, is beta = 0; generic_builtin takes at
    # most one beta >= 0, which keeps every slice cost strictly convex (see
    # `agents`)
    cost = _get(data, "cost.kind", "squared_distance",
                test=lambda kind: isinstance(kind, str) and kind in _COST_KINDS,
                message=f"unknown kind {{!r}}; expected one of {tuple(_COST_KINDS)}")
    allowed = 0 if cost == "squared_distance" else 1
    values = _get(data, "cost.parameters", (), list, lambda values: len(values) <= allowed,
                  f"{cost} takes at most {allowed} parameter(s), got {{!r}}")
    if values and values[0] < 0.0:
        raise ConfigError("cost.parameters", f"beta must be >= 0, got {values[0]}")
    beta = values[0] if values else _COST_KINDS[cost]

    search = None
    if _get(data, "search", None, dict) is not None:
        epsilon_p = _get(data, "search.epsilon_p", None, float, lambda tol: tol > 0.0,
                         "must be positive")
        if epsilon_p is not None and not math.isfinite(TWO_PI / epsilon_p):
            raise ConfigError("search.epsilon_p", f"too many anchors of spacing {epsilon_p}")
        k_star = _get(data, "search.K_star", None, int, lambda count: count >= 1,
                      "must be at least 1")
        if k_star is None and epsilon_p is None:
            raise ConfigError("search", "needs K_star or epsilon_p")
        duration = _duration(data, "search.T_epsilon", dt)
        # materialize the count so the echo pins it
        epochs = epoch_count_for_tolerance(epsilon_p) if k_star is None else k_star
        if epochs * round(duration / dt) > MAX_STEPS:
            raise ConfigError("search.epsilon_p" if k_star is None else "search.K_star",
                              f"{float(epochs):.6g} epochs of {round(duration / dt)} steps "
                              f"exceed {MAX_STEPS} steps")
        search = SearchConfig(epochs, epsilon_p, duration)

    snapshot_times = _get(data, "output.snapshot_times", (), list)
    last = round(t_end / dt) * dt  # the time of the run's last record
    for t in snapshot_times:
        if not within_span(t, 0.0, last):
            raise ConfigError("output.snapshot_times", f"{t} is outside [0, {t_end}]")

    return ScenarioConfig(region=region, density=density, n_agents=n,
                          initial_phases=phases, initial_positions=positions,
                          kappa_phi=kappa_phi, kappa_p=kappa_p, dt=dt, t_end=t_end,
                          log_stride=log_stride, beta=beta, search=search,
                          snapshot_times=snapshot_times, seed=seed)


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
    phases_unwrapped: np.ndarray
    positions: np.ndarray
    workloads: np.ndarray
    lyapunov: np.ndarray
    cost: np.ndarray
    targets: np.ndarray
    tracking: np.ndarray
    excursion: np.ndarray
    halvings: np.ndarray
    config_echo: dict
    meta: dict

    @property
    def n_agents(self) -> int:
        return self.phases_unwrapped.shape[1]

    def to_dict(self) -> dict:
        records = {name: getattr(self, name).tolist() for name in _RECORDS}
        records["excursion"] = self.excursion.astype(int).tolist()
        return {"config": self.config_echo, "meta": self.meta, "records": records}

    @classmethod
    def from_dict(cls, data: dict) -> "TrajectoryLog":
        """Load a `to_dict` dict; ValueError naming the first record column that
        is missing or not shaped for len(times) records of N agents (N from
        phases_unwrapped), or a meta that is not an object or whose
        guard_failures is not a whole number. Unknown record columns are
        ignored."""
        try:
            rec = data["records"]
            columns = {name: np.asarray(rec[name], dtype=_RECORD_DTYPES.get(name, float))
                       for name in _RECORDS}
            config = data["config"]
        except KeyError as exc:
            raise ValueError(f"malformed trajectory log: missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed trajectory log: {exc}") from None
        meta = data.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"malformed trajectory log: meta is {meta!r}, "
                             f"expected an object")
        failures = meta.get("guard_failures", 0)
        if (isinstance(failures, bool) or not isinstance(failures, (int, float))
                or not float(failures).is_integer()):
            raise ValueError(f"malformed trajectory log: meta.guard_failures is "
                             f"{failures!r}, expected a whole number")
        phases = columns["phases_unwrapped"].shape
        if len(phases) != 2 or phases[0] < 1 or phases[1] < 2:
            raise ValueError(f"malformed trajectory log: phases_unwrapped has shape "
                             f"{phases}, expected (records >= 1, agents >= 2)")
        rows, n = columns["times"].size, phases[1]
        for name, column in columns.items():
            expected = (rows, n) + _AGENT_AXES[name] if name in _AGENT_AXES else (rows,)
            if column.shape != expected:
                raise ValueError(f"malformed trajectory log: {name} has shape "
                                 f"{column.shape}, expected {expected}")
        return cls(**columns, config_echo=config, meta=meta)


# The per-record columns of a log, in log.json order, and their non-float types.
_RECORDS = tuple(f.name for f in fields(TrajectoryLog)
                 if f.name not in ("config_echo", "meta"))
_RECORD_DTYPES = {"excursion": bool, "halvings": int}
# Per-agent columns and their axes after (records, agents); the rest are scalars.
_AGENT_AXES = {"phases_unwrapped": (), "workloads": (), "positions": (2,),
               "targets": (2,)}


def rk4_step(state: np.ndarray, derivative, dt: float, k1: np.ndarray) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step of an autonomous system, from
    the first stage k1 = derivative(state) that the caller has evaluated; the
    sum k1 + 2 k2 + 2 k3 + k4 is accumulated in place, in that order."""
    half = 0.5 * dt
    k2 = derivative(state + half * k1)
    k3 = derivative(state + half * k2)
    k4 = derivative(state + dt * k3)
    step = k1 + 2.0 * k2
    step += 2.0 * k3
    step += k4
    step *= dt / 6.0
    return np.add(step, state, out=step)


# The agent pass runs at least once per this many accepted sub-steps, which
# bounds the stage moments a run keeps between two records.
BLOCK_STEPS = 256


class _Bars(NamedTuple):
    """The bar system at one accepted state."""

    phases: np.ndarray   # unwrapped, in cyclic order
    moments: np.ndarray  # slice moments, shape (rows, N)
    t: float = 0.0       # time since the run's (or the epoch's) start


class _SubStep(NamedTuple):
    """An accepted RK4 sub-step of the bar pass: its length, and the slice
    moments at its stages 2 to 4 and at its end (stage 1 is the start)."""

    dt: float
    moments: list


class _Record(NamedTuple):
    """A logged state: step index, phases, positions, slice moments, the
    targets at those moments, and the deepest halving of the step."""

    step: int
    phases: np.ndarray
    positions: np.ndarray
    moments: np.ndarray
    targets: np.ndarray
    halvings: int


class _System:
    """The cascade of the guarded bar system into the agents' tracking law:
    the bar pass `advance` keeps every accepted sub-step's stage moments, and
    the agent pass `track` moves the positions over a block of them."""

    def __init__(self, region, density, beta: float, n: int,
                 kappa_phi: float, kappa_p: float, pinned: int | None = None):
        self.beta = beta
        self.n = n
        self.kappa_phi = kappa_phi
        self.kappa_p = kappa_p
        self.pinned = pinned
        self.table = agents_mod.cost_table(region, density, beta)
        self.workload_floor = WORKLOAD_FLOOR_FRACTION * float(self.table.totals[0]) / n
        self._trial = []  # the stage moments of the RK4 trial in progress
        self.refusal = None  # the guard's last refusal: "non-finite", "crossing" or "floor"

    def _stage(self, phases: np.ndarray) -> np.ndarray:
        """The bar rates at an RK4 stage; its slice moments join the trial's."""
        moments = self.table.slice_moments(phases)
        self._trial.append(moments)
        return bar_rates(moments[0], self.kappa_phi, self.pinned)

    def guard(self, phases: np.ndarray) -> np.ndarray | None:
        """Slice moments at `phases` if every slice mass exceeds the workload
        floor (NaN does not), else None with `refusal` "non-finite" if a mass
        is not finite (a trial that overflowed), "crossing" if the bars are
        out of cyclic order (by `cyclic_gaps`), else "floor". The masses
        alone refuse a crossing: the parser's radial moment check makes the
        density positive, so a crossing, tie or lap gives a slice a true mass
        <= 0, and a computed mass rounds by O(eps W), W the total, far below
        the floor 1e-9 W / N for N <= `MAX_AGENTS`."""
        moments = self.table.slice_moments(phases)
        if all(mass > self.workload_floor for mass in moments[0].tolist()):
            return moments
        self.refusal = ("non-finite" if not np.isfinite(moments[0]).all() else
                        "floor" if cyclic_gaps(phases).min() > 0.0 else "crossing")
        return None

    def advance(self, start: _Bars, dt: float, block: list) -> tuple[_Bars, int]:
        """Guarded bar step: a loop over a stack of pending (step, halvings)
        halves a refused trial up to `MAX_STEP_HALVINGS` deep and appends the
        accepted sub-steps to `block`; returns the end state and deepest halving."""
        pending, deepest = [(dt, 0)], 0
        while pending:
            dt, halvings = pending.pop()
            self._trial = []
            k1 = bar_rates(start.moments[0], self.kappa_phi, self.pinned)
            phases = rk4_step(start.phases, self._stage, dt, k1)
            moments = self.guard(phases)
            if moments is not None:
                block.append(_SubStep(dt, self._trial + [moments]))
                start = _Bars(phases, moments, start.t + dt)
                deepest = max(deepest, halvings)
            elif halvings < MAX_STEP_HALVINGS:
                pending += [(0.5 * dt, halvings + 1)] * 2
            else:
                cause = {"non-finite": "gives non-finite slice masses",
                         "crossing": "crosses bars",
                         "floor": f"breaks the workload floor {self.workload_floor:.3e}"}
                raise IntegrationError(f"step still {cause[self.refusal]} at t = "
                                       f"{start.t:.6g} after {MAX_STEP_HALVINGS} step "
                                       f"halvings ({self.refusal})")
        return start, deepest

    def track(self, positions: np.ndarray, targets: np.ndarray, block: list):
        """The agent pass: move `positions` over a block of bar sub-steps.

        `targets` are the optimal points at the block's start. One
        `optimal_targets` call on every stage's moments gives T_1..T_4 of each
        sub-step (T_1 is the previous end's), and RK4 applied to the linear
        law p' = -kappa_p (p - T) is, with z = -kappa_p dt, the map
        p+ = R(z) p - (c_1 T_1 + c_2 T_2 + c_3 T_3 + c_4 T_4). Returns the
        positions and the targets at the block's end.
        """
        n = self.n
        stacked = agents_mod.optimal_targets(
            np.concatenate([m for step in block for m in step.moments], axis=1), self.beta)
        stages = stacked.reshape(len(block), 4, n, 2)
        first = np.concatenate([targets[None], stages[:-1, 3]])
        z = -self.kappa_p * np.array([step.dt for step in block])[:, None, None]
        z2, z3, z4 = z * z, z * z * z, z * z * z * z
        growth = 1.0 + z + z2 / 2.0 + z3 / 6.0 + z4 / 24.0
        pulls = ((z + z2 + z3 / 2.0 + z4 / 4.0) / 6.0 * first
                 + (2.0 * z + z2 + z3 / 2.0) / 6.0 * stages[:, 0]
                 + (2.0 * z + z2) / 6.0 * stages[:, 1] + z / 6.0 * stages[:, 2])
        for r, pull in zip(growth, pulls):
            positions = r * positions - pull
        return positions, stages[-1, 3].copy()

    def run(self, phases, positions, dt: float, steps: int, stride: int):
        """Take `steps` guarded steps of dt from (phases, positions), yielding a
        `_Record` at the start, at every `stride`-th step and at the last.

        The agent pass runs at every record and at least every `BLOCK_STEPS`
        sub-steps; a guard failure raises IntegrationError after the records
        yielded so far.
        """
        moments = self.table.slice_moments(phases)
        bars = _Bars(phases, moments)
        targets = agents_mod.optimal_targets(moments, self.beta)
        positions = np.array(positions, dtype=float)
        yield _Record(0, phases, positions, moments, targets, 0)
        block = []
        for k in range(1, steps + 1):
            bars, halvings = self.advance(bars, dt, block)
            logged = k % stride == 0 or k == steps
            if logged or len(block) >= BLOCK_STEPS:
                positions, targets = self.track(positions, targets, block)
                block = []
            if logged:
                yield _Record(k, bars.phases, positions, bars.moments, targets, halvings)


def integrate_system(config: ScenarioConfig, phases, positions, duration: float,
                     pinned: int | None):
    """Integrate the config's dynamics for `duration` with bar `pinned` frozen,
    as a search epoch does; returns (phases, positions, slice moments) at the
    end, the moments from the table the config's cost needs."""
    system = _System(config.region, config.density, config.beta, config.n_agents,
                     config.kappa_phi, config.kappa_p, pinned)
    steps = round(duration / config.dt)
    with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite
        *_, end = system.run(phases, positions, config.dt, steps, steps)
    return end.phases, end.positions, end.moments


def run_scenario(config: ScenarioConfig) -> TrajectoryLog:
    """Integrate the scenario to t_end, logging every `log_stride` steps.

    Deterministic for a fixed config (random initial conditions are
    materialized at parse time). On a guard failure the partial log is
    attached to the raised IntegrationError.
    """
    system = _System(config.region, config.density, config.beta, config.n_agents,
                     config.kappa_phi, config.kappa_p)
    total = float(system.table.totals[0])
    meta = {
        "m_bar": total / config.n_agents,
        "total_workload": total,
        **decay_constants(config.initial_phases, config.kappa_phi, config.region,
                          config.density),
        "guard_failures": 0,
        "workload_floor": system.workload_floor,
    }
    records = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite
            records.extend(system.run(config.initial_phases, config.initial_positions,
                                      config.dt, round(config.t_end / config.dt),
                                      config.log_stride))
    except IntegrationError as exc:
        meta["guard_failures"] = 1
        partial = _assemble_log(records, config, meta)
        raise IntegrationError(str(exc), log=partial) from None
    return _assemble_log(records, config, meta)


def _assemble_log(records: list, config: ScenarioConfig, meta: dict) -> TrajectoryLog:
    """The log's columns from its records, every derived column in one batch."""
    phases, positions, targets = (np.array([getattr(r, name) for r in records])
                                  for name in ("phases", "positions", "targets"))
    moments = np.concatenate([r.moments for r in records], axis=1)
    rows, n = phases.shape
    workloads = moments[0].reshape(rows, n)
    costs = agents_mod.slice_cost_terms(moments, positions.reshape(-1, 2), config.beta)[0]
    offsets = positions - targets
    columns = {
        "times": np.array([r.step * config.dt for r in records]),
        "phases_unwrapped": phases,
        "positions": positions,
        "workloads": workloads,
        "lyapunov": imbalance(workloads, meta["m_bar"]),
        "cost": np.sum(costs.reshape(rows, n), axis=1),
        "targets": targets,
        "tracking": np.sum(workloads * np.sum(offsets * offsets, axis=2), axis=1),
        "excursion": ~config.region.contains(positions).all(axis=1),
        "halvings": np.array([r.halvings for r in records], dtype=int),
    }
    return TrajectoryLog(**columns, config_echo=config.to_dict(), meta=meta)


@dataclass
class CheckResult:
    name: str
    bound: str
    worst: float
    status: str  # "pass" | "fail", or "info" for a reported value with no bound

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


def verify_invariants(log: TrajectoryLog, config: ScenarioConfig) -> VerificationReport:
    """Check the logged trajectory against the guarantees and report margins.

    Every gating check reads the log's records; the quadrature check of the
    logged targets and workloads (target stationarity) samples 8 evenly
    spaced records. The end-of-run trends (bar rate, agent speed, target
    rate at the last record) have no bound at a finite horizon and are
    reported as "info", and so are the excursions out of the region: the
    fraction of records with one, the deepest agent's distance to the nearest
    boundary curve, and the count of logged targets outside. `config` is the
    run's scenario, as parsed from the log's config echo.
    """
    region, density = config.region, config.density
    n = log.n_agents
    t = log.times
    span = float(t[-1] - t[0]) if t.size > 1 else 0.0
    # The bound constants come from the config and the first record, never
    # from the log's meta, which only echoes them.
    m_bar = float(moment_table(region, density).totals[0]) / n
    constants = decay_constants(log.phases_unwrapped[0], config.kappa_phi, region, density)
    c1, c2, lambda_min = constants["c1"], constants["c2"], constants["lambda_min"]

    checks = []

    def gate(name: str, bound: str, worst: float, ok: bool):
        checks.append(CheckResult(name, bound, worst, "pass" if ok else "fail"))

    # Conserved mean of the unwrapped phases.
    means = np.mean(log.phases_unwrapped, axis=1)
    drift = float(np.max(np.abs(means - means[0])))
    allowed = 1e-6 * max(1.0, span / 100.0)
    gate("mean_phase_conservation", f"<{allowed:.1e}", drift, drift < allowed)

    # Imbalance never increases along the discrete trajectory.
    v = log.lyapunov
    eps_step = 1e-9 * max(v[0], 1e-30)
    rise = float(np.max(np.diff(v))) if v.size > 1 else 0.0
    gate("lyapunov_nonincreasing", f"rise<{eps_step:.1e}", rise, rise <= eps_step)

    # Guaranteed exponential decay with 5% discretization slack.
    v_floor = (1e-10 * m_bar) ** 2
    envelope = np.maximum(v[0] * np.exp(-2.0 * c2 * (t - t[0])), v_floor)
    # The first record's ratio is at most 1 by construction; the margin is
    # the worst ratio after it.
    ratios = v / envelope
    ratio = float(np.max(ratios[1:] if ratios.size > 1 else ratios))
    gate("lyapunov_exponential_bound", "ratio<=1.05", ratio, ratio <= 1.05)

    # Workload errors e_i = m_i - m_bar obey |e_i| <= sqrt(2 V) <= c1 e^{-c2 t},
    # and neighbour gaps |e_i - e_{i-1}| <= sqrt(2 (e_i^2 + e_{i-1}^2))
    # <= 2 sqrt(V) <= sqrt(2) c1 e^{-c2 t}; same 5% discretization slack.
    decay = np.exp(-c2 * (t - t[0]))
    deviation_envelope = np.maximum(c1 * decay, 1e-10 * m_bar)
    deviation_ratio = float(np.max(np.abs(log.workloads - m_bar)
                                   / deviation_envelope[:, None]))
    gate("workload_deviation_bound", "ratio<=1.05", deviation_ratio, deviation_ratio <= 1.05)
    # The bar law at unit gain gives the neighbour differences; C order keeps
    # each record's row contiguous, so the row sums below add pairwise.
    diffs = np.abs(bar_rates(log.workloads.T, 1.0).T, order="C")
    gap_envelope = np.maximum(math.sqrt(2.0) * c1 * decay, 1e-10 * m_bar)
    gap_ratio = float(np.max(diffs / gap_envelope[:, None]))
    gate("pairwise_difference_bound", "ratio<=1.05", gap_ratio, gap_ratio <= 1.05)

    # No slice ever loses all workload; the step guard never gave up.
    min_workload = float(np.min(log.workloads))
    gate("workload_positivity", ">0, no guard failures", min_workload,
         min_workload > 0.0 and int(log.meta.get("guard_failures", 0)) == 0)

    # Bars never overtake each other (checked, not enforced).
    min_gap = float(np.min(cyclic_gaps(log.phases_unwrapped)))
    gate("cyclic_order_preserved", "gaps>0", min_gap, min_gap > 0.0)

    # Quadratic-form lower bound on the neighbour-gap energy.
    lhs = np.sum(diffs ** 2, axis=1)
    rhs = 2.0 * lambda_min * v / n
    margin = float(np.min(lhs - rhs))
    slack = -1e-9 * max(float(np.max(rhs)), 1e-30)
    gate("cyclic_form_bound", "lhs>=rhs", margin, margin >= slack)

    # Logged workloads are the slice masses and logged targets the slice
    # optima of the run's cost, both by quadrature on sampled records.
    worst_target = _target_stationarity(log, region, density, config.beta)
    gate("target_stationarity", "rel<1e-6", worst_target, worst_target < 1e-6)

    # End-of-run trends at the last record, for information: the bar rates
    # are gated at every record through pairwise_difference_bound.
    speeds = np.linalg.norm(config.kappa_p * (log.positions[-1] - log.targets[-1]), axis=1)
    target_rate = (float(np.max(np.linalg.norm(log.targets[-1] - log.targets[-2], axis=1)))
                   / float(t[-1] - t[-2]) if t.size > 1 else math.inf)
    for name, value in (
            ("trend_phi_rate", float(np.linalg.norm(bar_rates(log.workloads[-1],
                                                              config.kappa_phi)))),
            ("trend_max_speed", float(np.max(speeds))),
            ("trend_target_rate", target_rate)):
        checks.append(CheckResult(name, "at t_end", value, "info"))

    # Agents and targets outside the non-convex region, for information: the
    # serving point is the unconstrained optimum and the tracking law moves
    # in a straight line, so neither is kept inside.
    depth = region.boundary_distance(log.positions[~region.contains(log.positions)])
    for name, bound, value in (
            ("excursion_fraction", "of records", float(np.mean(log.excursion))),
            ("excursion_depth", "to nearest boundary curve",
             float(np.max(depth, initial=0.0))),
            ("targets_outside", "of logged targets",
             float(np.sum(~region.contains(log.targets))))):
        checks.append(CheckResult(name, bound, value, "info"))

    return VerificationReport(checks)


def _target_stationarity(log, region, density, beta: float):
    """Worst slice defect on 8 evenly spaced records, relative: the logged
    workload against the quadrature mass m_i, and the certified distance
    |grad F_i(target_i)| / (2 m_i) of the logged target from the optimum
    (F_i's Hessian is at least 2 m_i I) against the region's bounding radius.
    """
    idx = np.unique(np.linspace(0, log.times.size - 1, 8).astype(int))
    radius = region.bounding_radius()
    n = log.n_agents
    step = 1e-5  # central differences of the quadrature cost
    worst = 0.0
    for k in idx:
        phases = log.phases_unwrapped[k]
        for i in range(n):
            mass = region_integral(region, density, float(phases[i]),
                                   float(phases[(i + 1) % n]))

            def cost(p):
                return agents_mod.subregion_cost(phases, region, density, beta, i, p)

            target = log.targets[k, i]
            grad = np.array([cost(target + step * e) - cost(target - step * e)
                             for e in np.eye(2)]) / (2.0 * step)
            distance = float(np.linalg.norm(grad)) / (2.0 * mass)
            worst = max(worst, abs(log.workloads[k, i] - mass) / mass,
                        distance / radius)
    return worst
