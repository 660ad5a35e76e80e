import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import (all_centroids, cumulative_difference_moments, cyclic_layouts,
                      overtaking_scenario_dict, reference_scenario_dict,
                      region_and_density, star_regions, uniform_scenario_dict)
from ringcover import agents, geometry, sim
from ringcover.agents import slice_centroids, total_cost
from ringcover.geometry import (TWO_PI, AnnularRegion, DensityField, MomentTable,
                                PolarCurve, radial_moment_extrema)
from ringcover.partition import bar_rates, cyclic_gaps
from ringcover.sim import (ConfigError, IntegrationError, ScenarioConfig, TrajectoryLog,
                           integrate_system, rk4_step, run_scenario,
                           scenario_from_dict, verify_invariants)


def equilibrium_scenario_dict(t_end=60.0, **overrides):
    """Uniform annulus, equally spaced bars, agents at the slice centroids."""
    phases = [0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0]
    region = AnnularRegion(PolarCurve(1.0), PolarCurve(2.0))
    density = DensityField("uniform", (1.0,))
    centroids = all_centroids(phases, region, density)
    data = {
        "region": {"inner": {"mean": 1.0}, "outer": {"mean": 2.0}},
        "density": {"kind": "uniform", "parameters": [1.0]},
        "agents": {"count": 4, "initial_phases": phases,
                   "initial_positions": [[float(x), float(y)] for x, y in centroids]},
        "gains": {"kappa_phi": 0.1, "kappa_p": 0.5},
        "integrator": {"dt": 0.05, "t_end": t_end, "log_stride": 20},
        "cost": {"kind": "squared_distance"},
    }
    data.update(overrides)
    return data


def test_rk4_zero_derivative():
    y = np.array([1.0, -2.0])
    assert np.array_equal(rk4_step(y, lambda s: np.zeros_like(s), 0.1, np.zeros_like(y)), y)


def test_rk4_scalar_decay():
    y = np.array([1.0])
    new = rk4_step(y, lambda s: -s, 0.1, -y)
    # fourth-order Taylor value of exp(-0.1)
    assert_allclose(new[0], 0.9048375, rtol=1e-12)


def test_rk4_reuses_a_given_first_stage():
    calls = []

    def derivative(s):
        calls.append(s.copy())
        return -s

    y = np.array([1.0, -0.5])
    fresh = rk4_step(y, derivative, 0.1, derivative(y))
    assert len(calls) == 4
    reused = rk4_step(y, derivative, 0.1, k1=-y)
    assert len(calls) == 7  # three more stages, none at y itself
    assert np.array_equal(fresh, reused)


def test_rk4_tracking_matches_exponential(uniform_region, uniform_density):
    # frozen partition: tracking toward a fixed target is exactly exponential
    target = np.array([1.5, 0.0])
    kappa = 0.1
    y = np.array([1.9, 0.4])
    dt, horizon = 0.01, 10.0
    for _ in range(int(round(horizon / dt))):
        y = rk4_step(y, lambda p: -kappa * (p - target), dt, -kappa * (y - target))
    exact = target + (np.array([1.9, 0.4]) - target) * math.exp(-kappa * horizon)
    assert np.max(np.abs(y - exact)) < 1e-8


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="initial phases not strictly separated"):
        scenario_from_dict(uniform_scenario_dict(
            agents={"count": 2, "initial_phases": [1.0, 1.0],
                    "initial_positions": [[1.5, 0.0], [-1.5, 0.0]]}))
    with pytest.raises(ConfigError, match="density.kind"):
        scenario_from_dict({**uniform_scenario_dict(), "density": {}})
    with pytest.raises(ConfigError, match="agents.count"):
        scenario_from_dict(uniform_scenario_dict(
            agents={"count": 1, "initial_phases": [0.0],
                    "initial_positions": [[1.5, 0.0]]}))
    with pytest.raises(ConfigError, match="outside the region"):
        scenario_from_dict(uniform_scenario_dict(
            agents={"count": 2, "initial_phases": [0.0, 2.0],
                    "initial_positions": [[0.1, 0.0], [-1.5, 0.0]]}))
    with pytest.raises(ConfigError, match="agent 1 starts outside the region"):
        scenario_from_dict(uniform_scenario_dict(
            agents={"count": 3, "initial_phases": [0.0, 2.0, 4.0],
                    "initial_positions": [[1.5, 0.0], [-2.5, 0.0], [0.0, 0.0]]}))
    with pytest.raises(ConfigError, match="t_end"):
        scenario_from_dict(uniform_scenario_dict(
            integrator={"dt": 0.1, "t_end": 0.05, "log_stride": 1}))
    with pytest.raises(ConfigError, match="kappa_phi"):
        scenario_from_dict(uniform_scenario_dict(gains={"kappa_p": 0.1}))


def test_config_echo_round_trip():
    config = scenario_from_dict(reference_scenario_dict())
    echoed = scenario_from_dict(config.to_dict())
    assert np.array_equal(config.initial_phases, echoed.initial_phases)
    assert np.array_equal(config.initial_positions, echoed.initial_positions)
    assert config.to_dict() == echoed.to_dict()


def test_decoupled_dynamics(uniform_region, uniform_density):
    # kappa_phi = 0: bars static, agents converge to the fixed centroids
    phases = np.array([0.4, 1.9])
    positions = np.array([[1.5, 0.3], [-1.4, 0.2]])
    config = dataclasses.replace(scenario_from_dict(uniform_scenario_dict()), kappa_phi=0.0)
    out_phases, out_positions, _ = integrate_system(config, phases, positions,
                                                    duration=40.0, pinned=None)
    assert np.array_equal(out_phases, phases)
    centroids = all_centroids(phases, uniform_region, uniform_density)
    assert np.max(np.linalg.norm(out_positions - centroids, axis=1)) < 1e-8


def test_equilibrium_run_is_stationary():
    config = scenario_from_dict(equilibrium_scenario_dict(t_end=5.0))
    log = run_scenario(config)
    assert np.max(np.abs(log.phases_unwrapped - log.phases_unwrapped[0])) < 1e-12
    assert np.max(np.linalg.norm(log.positions - log.positions[0], axis=2)) < 1e-12
    assert np.max(log.lyapunov) < 1e-25


def test_run_determinism():
    config_a = scenario_from_dict(reference_scenario_dict(
        integrator={"dt": 0.01, "t_end": 2.0, "log_stride": 10}))
    config_b = scenario_from_dict(reference_scenario_dict(
        integrator={"dt": 0.01, "t_end": 2.0, "log_stride": 10}))
    log_a = run_scenario(config_a)
    log_b = run_scenario(config_b)
    assert np.array_equal(log_a.phases_unwrapped, log_b.phases_unwrapped)
    assert np.array_equal(log_a.positions, log_b.positions)
    assert np.array_equal(log_a.cost, log_b.cost)


def test_log_row_count():
    config = scenario_from_dict(uniform_scenario_dict(
        integrator={"dt": 0.01, "t_end": 1.0, "log_stride": 7}))
    log = run_scenario(config)
    steps = int(round(1.0 / 0.01))
    assert log.times.size == math.ceil(steps / 7) + 1
    assert log.times[0] == 0.0
    assert log.times[-1] == pytest.approx(1.0)
    assert np.all(np.diff(log.times) > 0)


def test_log_round_trip_serialization():
    config = scenario_from_dict(uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 1.0, "log_stride": 5}))
    log = run_scenario(config)
    restored = TrajectoryLog.from_dict(log.to_dict())
    assert np.array_equal(log.times, restored.times)
    assert np.array_equal(log.positions, restored.positions)
    assert np.array_equal(log.workloads, restored.workloads)
    with pytest.raises(ValueError, match="malformed"):
        TrajectoryLog.from_dict({"records": {}})


def hole_scenario():
    """A nearly-degenerate split puts the big slice's centroid inside the hole;
    with slow bars and a fast tracking gain the agent follows it there."""
    data = uniform_scenario_dict(
        agents={"count": 2, "initial_phases": [0.0, 0.3],
                "initial_positions": [[1.2, 0.1], [1.4, 0.2]]},
        gains={"kappa_phi": 0.001, "kappa_p": 5.0},
        integrator={"dt": 0.01, "t_end": 3.0, "log_stride": 10})
    data.pop("search")
    return scenario_from_dict(data)


def test_excursion_flag_set_when_target_in_hole():
    log = run_scenario(hole_scenario())
    assert bool(log.excursion.any())


def test_verify_reports_excursions_as_info():
    # on the annulus 1 <= r <= 2 the distance to the nearer circle is radial
    config = hole_scenario()
    log = run_scenario(config)
    lines = {c.name: c for c in verify_invariants(log, config).checks}
    radius = np.linalg.norm(log.positions, axis=2)
    depth = np.maximum(1.0 - radius, radius - 2.0)
    target_radius = np.linalg.norm(log.targets, axis=2)
    expected = {
        "excursion_fraction": np.mean(np.any(depth > 0.0, axis=1)),
        "excursion_depth": np.max(depth),
        "targets_outside": np.sum((target_radius < 1.0) | (target_radius > 2.0)),
    }
    assert 0.0 < expected["excursion_fraction"] < 1.0 and expected["targets_outside"] > 0
    for name, value in expected.items():
        assert lines[name].status == "info"
        assert_allclose(lines[name].worst, value, rtol=0.0, atol=1e-5)


def test_boundary_distance_on_circles():
    region = AnnularRegion(PolarCurve(1.0), PolarCurve(2.0))
    points = np.array([[[0.0, 0.0], [0.5, 0.0]], [[1.2, 0.0], [0.0, -3.5]]])
    # polygons through 2048 points sit within r * (pi / 2048)**2 / 2 of the circles
    assert_allclose(region.boundary_distance(points), [[1.0, 0.5], [0.2, 1.5]], atol=1e-5)


def test_verify_passes_on_equilibrium():
    config = scenario_from_dict(equilibrium_scenario_dict(t_end=60.0))
    log = run_scenario(config)
    report = verify_invariants(log, config)
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert failed == []
    assert report.passed


@pytest.fixture(scope="module")
def short_reference_run():
    """The reference scenario to t = 2, with the status of each verify check."""
    config = scenario_from_dict(reference_scenario_dict(
        integrator={"dt": 0.01, "t_end": 2.0, "log_stride": 10}))
    log = run_scenario(config)
    return log, config, {c.name: c.status for c in verify_invariants(log, config).checks}


def test_verify_short_horizon_reports_trends_as_info(short_reference_run):
    # no bound holds on the end-of-run trends at a finite horizon
    statuses = dict(short_reference_run[2])
    info = ("trend_phi_rate", "trend_max_speed", "trend_target_rate",
            "excursion_fraction", "excursion_depth", "targets_outside")
    assert [statuses.pop(name) for name in info] == ["info"] * 6
    assert set(statuses.values()) == {"pass"}


def test_exponential_bound_reports_its_margin_after_the_first_record(short_reference_run):
    # the ratio at the first record is 1 by construction and shows no margin
    log, config, _ = short_reference_run
    worst = {c.name: c.worst for c in verify_invariants(log, config).checks}
    envelope = log.lyapunov[0] * np.exp(-2.0 * log.meta["c2"] * (log.times - log.times[0]))
    assert log.lyapunov[0] / envelope[0] == 1.0
    margin = np.max(log.lyapunov[1:] / envelope[1:])
    assert_allclose(worst["lyapunov_exponential_bound"], margin, rtol=1e-12)
    assert worst["lyapunov_exponential_bound"] < 0.97


# For each gating check: the log column it reads, the entries to forge, and
# their forged value.
FORGERIES = {
    "mean_phase_conservation": ("phases_unwrapped", -1,
                                lambda log: log.phases_unwrapped[-1] + 0.01),
    "lyapunov_nonincreasing": ("lyapunov", -1, lambda log: 2.0 * log.lyapunov[-2]),
    "lyapunov_exponential_bound": ("lyapunov", -1, lambda log: 1.1 * log.lyapunov[0]),
    "workload_deviation_bound": ("workloads", (-1, 0),
                                 lambda log: log.workloads[-1, 0] + 4.0 * log.meta["c1"]),
    "pairwise_difference_bound": ("workloads", (-1, 0),
                                  lambda log: log.workloads[-1, 0] + 4.0 * log.meta["c1"]),
    "workload_positivity": ("workloads", (3, 1), lambda log: -0.5),
    "cyclic_order_preserved": ("phases_unwrapped", (5, [0, 1]),
                               lambda log: log.phases_unwrapped[5, [1, 0]]),
    "cyclic_form_bound": ("workloads", 0, lambda log: np.mean(log.workloads[0])),
    "target_stationarity": ("targets", 0, lambda log: log.targets[0] + 0.1),
}


@pytest.mark.parametrize("check", FORGERIES)
def test_verify_flags_forged_column(short_reference_run, check):
    log, config, statuses = short_reference_run
    gating = {name for name, status in statuses.items() if status != "info"}
    assert gating == set(FORGERIES)
    assert statuses[check] == "pass"
    column, index, value = FORGERIES[check]
    forged = TrajectoryLog.from_dict(log.to_dict())
    getattr(forged, column)[index] = value(forged)
    report = verify_invariants(forged, config)
    by_name = {c.name: c for c in report.checks}
    assert by_name[check].status == "fail", by_name[check].line()
    assert not report.passed


def test_scenario_config_drawn_inits_are_valid():
    config = scenario_from_dict(reference_scenario_dict(seed=7))
    assert config.initial_phases.size == 8
    assert np.all(np.diff(config.initial_phases) > 0)
    for point in config.initial_positions:
        assert config.region.contains(point)
    # same seed draws the same state
    again = scenario_from_dict(reference_scenario_dict(seed=7))
    assert np.array_equal(config.initial_phases, again.initial_phases)
    assert np.array_equal(config.initial_positions, again.initial_positions)


def one_generic_step(seed, beta=0.25):
    return reference_scenario_dict(
        seed=seed, cost={"kind": "generic_builtin", "parameters": [beta]},
        integrator={"dt": 0.01, "t_end": 0.01, "log_stride": 1})


def test_generic_cost_step_completes_and_logs_quadrature_cost():
    config = scenario_from_dict(one_generic_step(25))
    log = run_scenario(config)
    assert log.times.size == 2
    for k in range(2):
        oracle = total_cost(log.phases_unwrapped[k], log.positions[k], config.region,
                            config.density, config.beta)
        assert abs(log.cost[k] - oracle) <= 1e-8 * oracle


def test_generic_cost_at_beta_zero_is_squared_distance_bit_for_bit():
    squared = one_generic_step(42)
    squared["cost"] = {"kind": "squared_distance"}
    squared["integrator"]["t_end"] = 0.5
    generic = one_generic_step(42, beta=0.0)
    generic["integrator"]["t_end"] = 0.5
    log_a = run_scenario(scenario_from_dict(squared))
    log_b = run_scenario(scenario_from_dict(generic))
    for name in sim._RECORDS:
        assert np.array_equal(getattr(log_a, name), getattr(log_b, name)), name
    # beta = 0 is the squared-distance cost, and its echo says so
    assert log_b.config_echo == log_a.config_echo


@pytest.mark.parametrize("cost, message", [
    ({"kind": "generic_builtin", "parameters": [-0.1]}, ">= 0"),
    ({"kind": "generic_builtin", "parameters": [float("nan")]}, "finite"),
    ({"kind": "generic_builtin", "parameters": [float("inf")]}, "finite"),
    ({"kind": "generic_builtin", "parameters": [0.2, 0.3]}, "at most 1 parameter"),
    ({"kind": "generic_builtin", "parameters": ["x"]}, "numbers"),
    ({"kind": "squared_distance", "parameters": [0.0]}, "at most 0 parameter"),
])
def test_config_rejects_malformed_cost_parameters(cost, message):
    with pytest.raises(ConfigError, match=message) as info:
        scenario_from_dict(uniform_scenario_dict(cost=cost))
    assert info.value.field == "cost.parameters"


def test_run_computes_moment_extrema_once():
    radial_moment_extrema.cache_clear()
    run_scenario(scenario_from_dict(uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 0.1, "log_stride": 1})))
    assert radial_moment_extrema.cache_info().currsize == 1


@pytest.mark.parametrize("beta, samplings", [(0.0, 4), (0.25, 10)])
def test_one_sampling_pass_per_table_row(monkeypatch, beta, samplings):
    # four degree-2 rows, plus six quartic rows for a generic cost, counted
    # over the weight tuples of the radial passes on the table grid; the
    # extrema and the degree-4 table reuse the degree-2 samples
    rows = []
    sample = geometry._radial_batch

    def counted(region, density, thetas, weights, extra=0):
        if np.size(thetas) == geometry._TABLE_GRID:
            rows.extend(weights)
        return sample(region, density, thetas, weights, extra)

    monkeypatch.setattr(geometry, "_radial_batch", counted)
    geometry.moment_table.cache_clear()
    radial_moment_extrema.cache_clear()
    run_scenario(scenario_from_dict(reference_scenario_dict(
        integrator={"dt": 0.01, "t_end": 0.01, "log_stride": 1},
        cost={"kind": "generic_builtin", "parameters": [beta]})))
    assert len(rows) == samplings
    assert len(set(rows)) == samplings


@pytest.mark.parametrize("seed", [2, 3, 8])
def test_workload_bounds_hold_at_start(seed):
    # the t=0 neighbour gap exceeds sqrt(2 V0) on these seeds, though never 2 sqrt(V0)
    config = scenario_from_dict(reference_scenario_dict(
        seed=seed, integrator={"dt": 0.01, "t_end": 1.0, "log_stride": 10}))
    statuses = {c.name: c.status for c in verify_invariants(run_scenario(config),
                                                            config).checks}
    assert statuses["pairwise_difference_bound"] == "pass"
    assert statuses["workload_deviation_bound"] == "pass"


def test_step_guard_keeps_cyclic_order():
    for cost in ({"kind": "squared_distance"},
                 {"kind": "generic_builtin", "parameters": [0.25]}):
        log = run_scenario(scenario_from_dict({**overtaking_scenario_dict(),
                                               "cost": cost}))
        phases = log.phases_unwrapped
        gaps = np.diff(np.concatenate([phases, phases[:, :1] + TWO_PI], axis=1), axis=1)
        assert np.min(gaps) > 0.0
        assert int(np.sum(log.halvings)) >= 1


def test_step_guard_raises_when_halving_cannot_keep_order(monkeypatch):
    monkeypatch.setattr(sim, "MAX_STEP_HALVINGS", 0)
    with pytest.raises(IntegrationError, match="crosses bars") as info:
        run_scenario(scenario_from_dict(overtaking_scenario_dict()))
    assert info.value.log.meta["guard_failures"] == 1


def count_calls(monkeypatch):
    """Count slice_moments and optimal_targets calls made through the integrator."""
    counts = {"slice_moments": 0, "optimal_targets": 0}
    real_moments = MomentTable.slice_moments
    real_targets = agents.optimal_targets

    def slice_moments(self, phases):
        counts["slice_moments"] += 1
        return real_moments(self, phases)

    def optimal_targets(moments, beta):
        counts["optimal_targets"] += 1
        return real_targets(moments, beta)

    monkeypatch.setattr(MomentTable, "slice_moments", slice_moments)
    monkeypatch.setattr(agents, "optimal_targets", optimal_targets)
    return counts


def test_one_evaluation_per_state(monkeypatch):
    # per step: three RK4 stages plus the guard's evaluation of the accepted
    # trial, which is also the next step's first stage and the logged record
    counts = count_calls(monkeypatch)
    steps = 20
    log = run_scenario(scenario_from_dict(uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 0.05 * steps, "log_stride": 3})))
    assert int(np.sum(log.halvings)) == 0
    # plus the initial evaluation, and V(0) for the decay constants
    assert counts["slice_moments"] == 4 * steps + 2
    assert counts["optimal_targets"] == 4 * steps + 1


def test_trajectory_with_the_cumulative_difference_oracle(monkeypatch):
    # the one-product slice moments differ from the cumulative differences
    # only by rounding, and so does a run on either
    config = scenario_from_dict(reference_scenario_dict(
        integrator={"dt": 0.01, "t_end": 1.0, "log_stride": 10}))
    log = run_scenario(config)
    monkeypatch.setattr(MomentTable, "slice_moments", cumulative_difference_moments)
    oracle = run_scenario(config)
    assert np.array_equal(log.halvings, oracle.halvings)
    for column in ("phases_unwrapped", "positions"):
        assert np.max(np.abs(getattr(log, column) - getattr(oracle, column))) <= 1e-12


def test_run_advances_once_per_step_and_reports_every_step(monkeypatch):
    # the stiff scenario halves steps; only the top-level advances count
    config = scenario_from_dict(overtaking_scenario_dict())
    advances, seen = [], []
    real_advance = sim._System.advance

    def advance(self, start, dt, depth=0):
        if depth == 0:
            advances.append(dt)
        return real_advance(self, start, dt, depth)

    monkeypatch.setattr(sim._System, "advance", advance)
    system = sim._System(config.region, config.density, config.beta, config.n_agents,
                         config.kappa_phi, config.kappa_p)
    steps = 4
    end = system.run(config.initial_phases, config.initial_positions, config.dt, steps,
                     lambda k, evaluation, halvings: seen.append((k, evaluation, halvings)))
    assert advances == [config.dt] * steps
    assert [k for k, _, _ in seen] == list(range(steps + 1))
    assert seen[0][2] == 0 and max(h for _, _, h in seen) >= 1
    assert seen[-1][1] is end


def test_guard_rejects_before_targets(monkeypatch, uniform_region, uniform_density):
    counts = count_calls(monkeypatch)
    real_guard = sim._System.evaluate_guarded
    targets_in_rejections = []

    def guard(self, y):
        before = counts["optimal_targets"]
        evaluation = real_guard(self, y)
        if evaluation is None:
            targets_in_rejections.append(counts["optimal_targets"] - before)
        return evaluation

    monkeypatch.setattr(sim._System, "evaluate_guarded", guard)
    run_scenario(scenario_from_dict(overtaking_scenario_dict()))  # order rejections
    system = sim._System(uniform_region, uniform_density, 0.0, 2, 0.1, 0.5)
    system.workload_floor = 1e9  # a floor rejection
    assert system.evaluate_guarded(np.array([0.4, 1.9, 1.5, 0.3, -1.4, 0.2])) is None
    assert len(targets_in_rejections) >= 2
    assert not any(targets_in_rejections)


# The region and density of the bundled reference scenario.
REFERENCE_SECTIONS = {name: reference_scenario_dict()[name]
                      for name in ("region", "density")}


@settings(max_examples=25, deadline=None)
@given(sections=st.one_of(st.just(REFERENCE_SECTIONS), star_regions()),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
       steps=st.integers(1, 30), stride=st.integers(1, 5))
def test_logged_rates_are_fresh_evaluations(sections, seed, n, steps, stride):
    config = scenario_from_dict(reference_scenario_dict(
        **sections, seed=seed,
        agents={"count": n, "initial_phases": "random", "initial_positions": "random"},
        integrator={"dt": 0.01, "t_end": 0.01 * steps, "log_stride": stride}))
    log = run_scenario(config)
    system = sim._System(config.region, config.density, config.beta, n,
                         config.kappa_phi, config.kappa_p)
    for k in range(log.times.size):
        # the workloads fix the bar rates, the targets the agent velocities
        fresh = system.evaluate(np.concatenate([log.phases_unwrapped[k],
                                                log.positions[k].ravel()]))
        assert np.array_equal(log.workloads[k], fresh.moments[0])
        assert np.array_equal(log.targets[k], fresh.targets)
    means = np.mean(log.phases_unwrapped, axis=1)
    assert np.max(np.abs(means - means[0])) <= 1e-12
    # V never increases, up to rounding
    assert np.all(np.diff(log.lyapunov) <= 1e-12 * log.lyapunov[0])


@st.composite
def evaluation_states(draw):
    """Unwrapped phases in cyclic order, a copy with two neighbouring bars
    swapped or tied, agent positions, and a bar to pin."""
    phases = draw(cyclic_layouts())
    n = phases.size
    crossed = phases.copy()
    i = draw(st.integers(0, n - 2))
    if draw(st.booleans()):
        crossed[[i, i + 1]] = crossed[[i + 1, i]]
    else:
        crossed[i + 1] = crossed[i]
    coordinates = draw(st.lists(st.floats(-4.0, 4.0), min_size=2 * n, max_size=2 * n))
    return phases, crossed, np.array(coordinates).reshape(n, 2), draw(st.integers(0, n - 1))


def reference_gaps(phases):
    """Cyclic gaps written out with np.diff, along the last axis."""
    return np.concatenate([np.diff(phases), phases[..., :1] + TWO_PI - phases[..., -1:]],
                          axis=-1)


@settings(max_examples=25, deadline=None)
@given(sections=st.one_of(st.just(REFERENCE_SECTIONS), star_regions()),
       state=evaluation_states())
def test_evaluation_matches_the_written_out_formulas_bit_for_bit(sections, state):
    # Each hot-path function against its plain formula, compared with
    # np.array_equal: a rewrite that moves a digit fails here.
    phases, crossed, positions, pinned_bar = state
    n = phases.size
    region, density = region_and_density(sections)
    kappa_phi, kappa_p = 0.03, 0.1
    rows = np.stack([phases, crossed, phases + TWO_PI])
    assert np.array_equal(cyclic_gaps(rows), reference_gaps(rows))
    for p in (phases, crossed):
        assert np.array_equal(cyclic_gaps(p), reference_gaps(p))
    assert np.any(reference_gaps(crossed) <= 0.0)
    for beta in (0.0, 0.25):
        table = agents.cost_table(region, density, beta)
        for p in (phases, crossed):
            moments = table.slice_moments(p)
            mass = moments[0]
            assert np.array_equal(bar_rates(mass, kappa_phi),
                                  kappa_phi * (mass - np.roll(mass, 1)))
            with np.errstate(divide="ignore", invalid="ignore"):  # a tie's empty slice
                centroids = np.stack([moments[1] / mass, moments[2] / mass], axis=1)
                assert np.array_equal(slice_centroids(moments), centroids, equal_nan=True)

        moments = table.slice_moments(phases)
        mass = moments[0]
        targets = agents.optimal_targets(moments, beta)
        y = np.concatenate([phases, positions.ravel()])
        for pinned in (None, pinned_bar):
            system = sim._System(region, density, beta, n, kappa_phi, kappa_p, pinned)
            # the guard rejects crossed or tied bars, and a slice at the floor
            assert system.evaluate_guarded(np.concatenate([crossed, positions.ravel()])) is None
            system.workload_floor = float(np.min(mass))
            assert system.evaluate_guarded(y) is None
            system.workload_floor = float(np.nextafter(np.min(mass), -np.inf))
            accepted = system.evaluate_guarded(y)
            assert accepted is not None
            rates = kappa_phi * (mass - np.roll(mass, 1))
            if pinned is not None:
                rates[pinned] = 0.0
            derivative = np.concatenate([rates, (-kappa_p * (positions - targets)).ravel()])
            for evaluation in (accepted, system.evaluate(y)):
                assert np.array_equal(evaluation.moments, moments)
                assert np.array_equal(evaluation.rates, rates)
                assert np.array_equal(evaluation.targets, targets)
                assert np.array_equal(evaluation.derivative, derivative)


def test_search_rng_seed_is_ignored():
    # the search is deterministic; old configs that still carry rng_seed parse
    config = scenario_from_dict(uniform_scenario_dict(
        search={"K_star": 8, "T_epsilon": 30.0, "rng_seed": 3}))
    assert config.search == sim.SearchConfig(8, None, 30.0)
    assert config.to_dict()["search"] == {"K_star": 8, "epsilon_p": None,
                                          "T_epsilon": 30.0}


@pytest.fixture(scope="module")
def generic_run():
    """The reference scenario with the quartic cost (beta = 0.25) to t = 1."""
    config = scenario_from_dict(reference_scenario_dict(
        cost={"kind": "generic_builtin", "parameters": [0.25]},
        integrator={"dt": 0.01, "t_end": 1.0, "log_stride": 10}))
    return run_scenario(config), config


def stationarity(log, config):
    checks = {c.name: c for c in verify_invariants(log, config).checks}
    return checks["target_stationarity"]


def test_generic_run_logs_stationary_targets(generic_run):
    log, config = generic_run
    check = stationarity(log, config)
    assert check.status == "pass", check.line()


def test_centroids_are_not_the_generic_cost_targets(generic_run):
    log, config = generic_run
    forged = TrajectoryLog.from_dict(log.to_dict())
    forged.targets = np.array([all_centroids(phases, config.region, config.density)
                               for phases in forged.phases_unwrapped])
    check = stationarity(forged, config)
    assert check.status == "fail", check.line()


def test_squared_distance_targets_are_the_centroids(reference_run):
    log, config = reference_run
    for phases, targets in zip(log.phases_unwrapped, log.targets):
        assert np.array_equal(targets, all_centroids(phases, config.region, config.density))
