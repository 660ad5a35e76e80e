import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import (overtaking_scenario_dict, reference_scenario_dict,
                      uniform_scenario_dict)
from ringcover import agents, sim
from ringcover.agents import CostModel, all_centroids, total_cost
from ringcover.geometry import (TWO_PI, AnnularRegion, DensityField, MomentTable,
                                PolarCurve, radial_moment_extrema)
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
    assert np.array_equal(rk4_step(y, lambda s: np.zeros_like(s), 0.1), y)


def test_rk4_scalar_decay():
    y = np.array([1.0])
    new = rk4_step(y, lambda s: -s, 0.1)
    # fourth-order Taylor value of exp(-0.1)
    assert_allclose(new[0], 0.9048375, rtol=1e-12)


def test_rk4_reuses_a_given_first_stage():
    calls = []

    def derivative(s):
        calls.append(s.copy())
        return -s

    y = np.array([1.0, -0.5])
    fresh = rk4_step(y, derivative, 0.1)
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
        y = rk4_step(y, lambda p: -kappa * (p - target), dt)
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
    out_phases, out_positions = integrate_system(
        uniform_region, uniform_density, CostModel("squared_distance"),
        phases, positions, kappa_phi=0.0, kappa_p=0.5, dt=0.05, duration=40.0)
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


def test_excursion_flag_set_when_target_in_hole(uniform_region, uniform_density):
    # a nearly-degenerate split puts the big slice's centroid inside the hole;
    # with slow bars and a fast tracking gain the agent follows it there
    data = uniform_scenario_dict(
        agents={"count": 2, "initial_phases": [0.0, 0.3],
                "initial_positions": [[1.2, 0.1], [1.4, 0.2]]},
        gains={"kappa_phi": 0.001, "kappa_p": 5.0},
        integrator={"dt": 0.01, "t_end": 3.0, "log_stride": 10})
    data.pop("search")
    log = run_scenario(scenario_from_dict(data))
    assert bool(log.excursion.any())


def test_verify_passes_on_equilibrium():
    config = scenario_from_dict(equilibrium_scenario_dict(t_end=60.0))
    log = run_scenario(config)
    report = verify_invariants(log, config)
    failed = [c.name for c in report.checks if c.status == "fail"]
    inconclusive = [c.name for c in report.checks if c.status == "inconclusive"]
    assert failed == []
    assert inconclusive == []
    assert report.passed


def test_verify_flags_forged_workloads():
    config = scenario_from_dict(equilibrium_scenario_dict(t_end=5.0))
    log = run_scenario(config)
    log.workloads[3, 1] = -0.5
    report = verify_invariants(log, config)
    by_name = {c.name: c for c in report.checks}
    assert by_name["workload_positivity"].status == "fail"
    assert not report.passed


def test_verify_short_horizon_inconclusive():
    config = scenario_from_dict(equilibrium_scenario_dict(t_end=5.0))
    log = run_scenario(config)
    report = verify_invariants(log, config)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["trend_phi_rate"] == "inconclusive"
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
        oracle = total_cost(log.phases_wrapped[k], log.positions[k], config.region,
                            config.density, config.cost)
        assert abs(log.cost[k] - oracle) <= 1e-8 * oracle


def test_generic_cost_at_beta_zero_is_squared_distance_bit_for_bit():
    squared = one_generic_step(42)
    squared["cost"] = {"kind": "squared_distance"}
    squared["integrator"]["t_end"] = 0.5
    generic = one_generic_step(42, beta=0.0)
    generic["integrator"]["t_end"] = 0.5
    log_a = run_scenario(scenario_from_dict(squared))
    log_b = run_scenario(scenario_from_dict(generic))
    assert np.array_equal(log_a.positions, log_b.positions)
    assert np.array_equal(log_a.phases_unwrapped, log_b.phases_unwrapped)
    assert np.array_equal(log_a.cost, log_b.cost)


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
    log = run_scenario(scenario_from_dict(overtaking_scenario_dict()))
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

    def optimal_targets(moments, cost_model):
        counts["optimal_targets"] += 1
        return real_targets(moments, cost_model)

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
    system = sim._System(uniform_region, uniform_density, CostModel(), 2, 0.1, 0.5)
    system.workload_floor = 1e9  # a floor rejection
    assert system.evaluate_guarded(np.array([0.4, 1.9, 1.5, 0.3, -1.4, 0.2])) is None
    assert len(targets_in_rejections) >= 2
    assert not any(targets_in_rejections)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
       steps=st.integers(1, 30), stride=st.integers(1, 5))
def test_logged_rates_are_fresh_evaluations(seed, n, steps, stride):
    config = scenario_from_dict(reference_scenario_dict(
        seed=seed,
        agents={"count": n, "initial_phases": "random", "initial_positions": "random"},
        integrator={"dt": 0.01, "t_end": 0.01 * steps, "log_stride": stride}))
    log = run_scenario(config)
    system = sim._System(config.region, config.density, config.cost, n,
                         config.kappa_phi, config.kappa_p)
    for k in range(log.times.size):
        fresh = system.evaluate(np.concatenate([log.phases_unwrapped[k],
                                                log.positions[k].ravel()]))
        velocity = fresh.derivative[n:].reshape(n, 2)
        assert float(np.linalg.norm(fresh.rates)) == log.phi_rate_norm[k]
        assert float(np.max(np.linalg.norm(velocity, axis=1))) == log.max_speed[k]
    means = np.mean(log.phases_unwrapped, axis=1)
    assert np.max(np.abs(means - means[0])) <= 1e-12
    # V never increases, up to rounding
    assert np.all(np.diff(log.lyapunov) <= 1e-12 * log.lyapunov[0])


def test_search_rng_seed_is_ignored():
    # the search is deterministic; old configs that still carry rng_seed parse
    config = scenario_from_dict(uniform_scenario_dict(
        search={"K_star": 8, "T_epsilon": 30.0, "rng_seed": 3}))
    assert config.search == sim.SearchConfig(8, None, 30.0)
    assert config.to_dict()["search"] == {"K_star": 8, "epsilon_p": None,
                                          "T_epsilon": 30.0}
