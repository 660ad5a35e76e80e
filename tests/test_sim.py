import copy
import dataclasses
import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import (CONFIGS, all_centroids, cumulative_difference_moments, cyclic_layouts,
                      entry_paths, hand_built_cyclic_form, one_candidate_positions,
                      overtaking_scenario_dict, parser_scenarios, radial_polynomial_densities,
                      reference_scenario_dict, region_and_density, stacked_run,
                      star_regions, uniform_scenario_dict)
from ringcover import agents, geometry, sim
from ringcover.agents import slice_centroids, total_cost
from ringcover.geometry import (TWO_PI, AnnularRegion, DensityField, MomentTable,
                                PolarCurve, radial_moment_extrema)
from ringcover.partition import bar_rates, cyclic_gaps, imbalance
from ringcover.sim import (RK4_STABILITY, ConfigError, IntegrationError, ScenarioConfig,
                           TrajectoryLog, integrate_system, rk4_step, run_scenario,
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


def negated(state):
    """The derivative y' = -y on a list of floats."""
    return [-s for s in state]


def test_rk4_zero_derivative():
    y = [1.0, -2.0]
    assert rk4_step(y, lambda s: [0.0] * len(s), 0.1, [0.0, 0.0]) == y


def test_rk4_scalar_decay():
    new = rk4_step([1.0], negated, 0.1, [-1.0])
    # fourth-order Taylor value of exp(-0.1)
    assert_allclose(new[0], 0.9048375, rtol=1e-12)


def test_rk4_reuses_a_given_first_stage():
    calls = []

    def derivative(s):
        calls.append(list(s))
        return negated(s)

    y = [1.0, -0.5]
    fresh = rk4_step(y, derivative, 0.1, derivative(y))
    assert len(calls) == 4
    reused = rk4_step(y, derivative, 0.1, k1=negated(y))
    assert len(calls) == 7  # three more stages, none at y itself
    assert fresh == reused


def test_rk4_tracking_matches_exponential(uniform_region, uniform_density):
    # frozen partition: tracking toward a fixed target is exactly exponential
    target = [1.5, 0.0]
    kappa = 0.1

    def derivative(p):
        return [-kappa * (x - goal) for x, goal in zip(p, target)]

    y = [1.9, 0.4]
    dt, horizon = 0.01, 10.0
    for _ in range(int(round(horizon / dt))):
        y = rk4_step(y, derivative, dt, derivative(y))
    exact = np.array(target) + (np.array([1.9, 0.4]) - target) * math.exp(-kappa * horizon)
    assert np.max(np.abs(np.array(y) - exact)) < 1e-8


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


@st.composite
def valid_scenarios(draw):
    """A random valid scenario of 400 steps: N in [2, 12] on a `star_regions`
    region with any density kind, beta 0 or 0.25, kappa_phi in [0.01, 1] and
    kappa_p in [0.03, 3], and dt at half the linear bound of RK4 on both
    laws, RK4_STABILITY / max(4 kappa_phi omega_max, kappa_p): the bars' cycle
    difference form has eigenvalues up to 4, a bar's workload changes at
    omega per radian, and the tracking law's rate is kappa_p."""
    sections = draw(star_regions())
    if draw(st.integers(0, 2)) == 0:
        sections["density"] = draw(radial_polynomial_densities())
    kappa_phi, kappa_p = draw(st.floats(0.01, 1.0)), draw(st.floats(0.03, 3.0))
    omega_max = radial_moment_extrema(*region_and_density(sections))[1]
    dt = 0.5 * RK4_STABILITY / max(4.0 * kappa_phi * omega_max, kappa_p)
    return reference_scenario_dict(
        **sections,
        agents={"count": draw(st.integers(2, 12)), "initial_phases": "random",
                "initial_positions": "random"},
        gains={"kappa_phi": kappa_phi, "kappa_p": kappa_p},
        integrator={"dt": dt, "t_end": 400 * dt, "log_stride": draw(st.sampled_from([1, 10, 40]))},
        cost={"kind": "generic_builtin", "parameters": [draw(st.sampled_from([0.0, 0.25]))]},
        seed=draw(st.integers(0, 2 ** 16)))


def coarse_two_bar_scenario():
    """A `valid_scenarios` draw with two bars on the uniform annulus 1-2 at
    kappa_phi = kappa_p = 1, logged at every step: c2 is V's exact rate
    there, and RK4 at half its stability bound decays V more slowly."""
    dt = 0.5 * RK4_STABILITY / (4.0 * 1.5)  # omega = (2^2 - 1^2) / 2
    return reference_scenario_dict(
        region={"inner": {"mean": 1.0}, "outer": {"mean": 2.0}},
        density={"kind": "uniform", "parameters": [1.0]},
        agents={"count": 2, "initial_phases": "random", "initial_positions": "random"},
        gains={"kappa_phi": 1.0, "kappa_p": 1.0},
        integrator={"dt": dt, "t_end": 400 * dt, "log_stride": 1},
        cost={"kind": "generic_builtin", "parameters": [0.0]}, seed=0)


def failed_gates(data, exempt=()):
    """The failing `verify` gates, less `exempt`, on a run of `data` checked
    against its own config echo as `verify` does."""
    log = run_scenario(scenario_from_dict(data))
    report = verify_invariants(log, scenario_from_dict(log.config_echo))
    return [c.line() for c in report.checks if c.status == "fail" and c.name not in exempt]


@settings(max_examples=25, deadline=None)
@given(data=valid_scenarios())
def test_verify_passes_every_gate_on_a_valid_scenario(data):
    # soundness: on a run of a valid scenario at a stable step no gate fails;
    # at N = 2, where c2 is V's exact rate on a rotation-invariant scenario,
    # the exponential bound fails at a coarse step (the strict xfail below),
    # and only there is it left out
    two_bars = data["agents"]["count"] == 2
    assert failed_gates(data, {"lyapunov_exponential_bound"} if two_bars else ()) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "lyapunov_exponential_bound is unsound at a coarse step: at N = 2 on a "
    "rotation-invariant scenario c2 is V's exact rate, its 5% slack does not "
    "cover RK4's slower discrete decay, and the ratio reaches 70"))
def test_verify_passes_every_gate_on_a_coarse_two_bar_run():
    assert failed_gates(coarse_two_bar_scenario()) == []


def test_exponential_bound_floor_keeps_the_workload_errors_small():
    # at equilibrium the envelope is its floor (1e-10 m_bar)^2 / 4, where
    # |e_i| <= sqrt(2 V) stays below 0.73e-10 m_bar; a logged V of
    # (1e-10 m_bar)^2 / 2 is twice the floor and fails
    config = scenario_from_dict(equilibrium_scenario_dict(t_end=5.0))
    log = run_scenario(config)
    log.lyapunov[-1] = 0.5 * (1e-10 * log.meta["m_bar"]) ** 2
    check = {c.name: c for c in verify_invariants(log, config).checks}
    assert check["lyapunov_exponential_bound"].status == "fail"
    assert check["lyapunov_exponential_bound"].worst == pytest.approx(2.0, rel=1e-12)


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


# For each gating check, the logs it must fail, by id: the check, the log
# column forged, the entries to forge, and their forged value.
FORGERIES = {
    "mean_phase_conservation": ("mean_phase_conservation", "phases_unwrapped", -1,
                                lambda log: log.phases_unwrapped[-1] + 0.01),
    "lyapunov_nonincreasing": ("lyapunov_nonincreasing", "lyapunov", -1,
                               lambda log: 2.0 * log.lyapunov[-2]),
    "lyapunov_exponential_bound": ("lyapunov_exponential_bound", "lyapunov", -1,
                                   lambda log: 1.1 * log.lyapunov[0]),
    "log_consistency_lyapunov": ("log_consistency", "lyapunov", slice(None),
                                 lambda log: 0.5 * log.lyapunov),
    "log_consistency_tracking": ("log_consistency", "tracking", slice(None),
                                 lambda log: 2.0 * log.tracking),
    "log_consistency_cost": ("log_consistency", "cost", slice(None),
                             lambda log: 2.0 * log.cost),
    "workload_positivity": ("workload_positivity", "workloads", (3, 1), lambda log: -0.5),
    "cyclic_order_preserved": ("cyclic_order_preserved", "phases_unwrapped", (5, [0, 1]),
                               lambda log: log.phases_unwrapped[5, [1, 0]]),
    "target_stationarity": ("target_stationarity", "targets", 0,
                            lambda log: log.targets[0] + 0.1),
}

# The forged logs of the three gates that log_consistency replaced, by the
# gate's name: one workload raised by 4 c1 at the last record (for the
# deviation and the neighbour-difference bounds), and the first record's
# workloads set to their mean (for the cyclic-form bound). Each still fails.
REPLACED_GATE_FORGERIES = {
    "workload_deviation_bound": ("workloads", (-1, 0),
                                 lambda log: log.workloads[-1, 0] + 4.0 * log.meta["c1"]),
    "pairwise_difference_bound": ("workloads", (-1, 0),
                                  lambda log: log.workloads[-1, 0] + 4.0 * log.meta["c1"]),
    "cyclic_form_bound": ("workloads", 0, lambda log: np.mean(log.workloads[0])),
}


def forged_report(log, config, column, index, value):
    forged = TrajectoryLog.from_dict(log.to_dict())
    getattr(forged, column)[index] = value(forged)
    return verify_invariants(forged, config)


@pytest.mark.parametrize("forgery", FORGERIES)
def test_verify_flags_forged_column(short_reference_run, forgery):
    log, config, statuses = short_reference_run
    gating = {name for name, status in statuses.items() if status != "info"}
    assert gating == {check for check, *_ in FORGERIES.values()}
    check, *forge = FORGERIES[forgery]
    assert statuses[check] == "pass"
    report = forged_report(log, config, *forge)
    by_name = {c.name: c for c in report.checks}
    assert by_name[check].status == "fail", by_name[check].line()
    assert not report.passed


@pytest.mark.parametrize("gate", REPLACED_GATE_FORGERIES)
def test_forgeries_of_the_replaced_gates_still_fail(short_reference_run, gate):
    log, config, _ = short_reference_run
    report = forged_report(log, config, *REPLACED_GATE_FORGERIES[gate])
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert failed == {"log_consistency", "target_stationarity"}
    assert not report.passed


@pytest.fixture(scope="module")
def short_shipped_reference():
    """(log, config dict, config) of the shipped `reference_n8` to t = 10, a
    record every 10 steps."""
    data = json.loads((CONFIGS / "reference_n8.json").read_text(encoding="utf-8"))
    data["integrator"].update(t_end=10.0, log_stride=10)
    data["output"]["snapshot_times"] = [0.0, 10.0]
    config = scenario_from_dict(copy.deepcopy(data))
    return run_scenario(config), data, config


def with_records(log, **columns):
    """A copy of `log` with the named record columns replaced."""
    forged = TrajectoryLog.from_dict(log.to_dict())
    for name, value in columns.items():
        getattr(forged, name)[...] = value
    return forged


def with_costs_recomputed(log, config):
    """`log` with `tracking` and `cost` recomputed from its phases, positions,
    targets and workloads, so that the columns agree as a forger would make
    them."""
    table = agents.cost_table(config.region, config.density, config.beta)
    offsets = log.positions - log.targets
    log.tracking[...] = np.sum(log.workloads * np.sum(offsets * offsets, axis=2), axis=1)
    moments = np.concatenate([table.slice_moments(p) for p in log.phases_unwrapped], axis=1)
    log.cost[...] = np.sum(agents.slice_cost_terms(moments, log.positions, config.beta)[0]
                           .reshape(log.times.size, -1), axis=1)
    return log


def rerun_with_gain(data, gain, factor):
    """The log of the same scenario re-run with one gain scaled by `factor`."""
    data = copy.deepcopy(data)
    data["gains"][gain] *= factor
    return run_scenario(scenario_from_dict(data))


REVERSED = ("phases_unwrapped", "positions", "targets", "workloads", "lyapunov", "cost",
            "tracking", "excursion")

# The log-mutation corpus: each mutation of the short shipped reference log,
# verified against the shipped config, and the exact set of gates it fails
# today. An empty set is a mutation `verify` does not catch yet: a gate added
# later shows here what it newly catches, and that it loses nothing.
LOG_MUTATIONS = {
    "workloads_x1.001": (lambda log, data, config: with_records(
        log, workloads=1.001 * log.workloads), {"log_consistency", "target_stationarity"}),
    "records_reversed_in_time": (lambda log, data, config: with_records(
        log, **{name: getattr(log, name)[::-1] for name in REVERSED}),
        {"lyapunov_nonincreasing", "lyapunov_exponential_bound"}),
    "agents_frozen_costs_stale": (lambda log, data, config: with_records(
        log, positions=log.positions[0]), {"log_consistency"}),
    "agents_on_targets_costs_stale": (lambda log, data, config: with_records(
        log, positions=log.targets), {"log_consistency"}),
    "targets_replaced_by_positions": (lambda log, data, config: with_records(
        log, targets=log.positions), {"log_consistency", "target_stationarity"}),
    "bars_turned_by_0.1": (lambda log, data, config: with_records(
        log, phases_unwrapped=log.phases_unwrapped + 0.1),
        {"log_consistency", "target_stationarity"}),
    **{f"{gain}_x{factor:g}": (lambda log, data, config, gain=gain, factor=factor:
                               rerun_with_gain(data, gain, factor), set())
       for gain, factors in (("kappa_phi", (0.5, 0.2)), ("kappa_p", (0.5, 0.1, 10.0)))
       for factor in factors},
    **{f"times_x{factor:g}": (lambda log, data, config, factor=factor: with_records(
        log, times=factor * log.times), set()) for factor in (2.0, 0.5)},
    "agents_frozen_costs_recomputed": (lambda log, data, config: with_costs_recomputed(
        with_records(log, positions=log.positions[0]), config), set()),
    "agents_on_targets_costs_recomputed": (lambda log, data, config: with_costs_recomputed(
        with_records(log, positions=log.targets), config), set()),
}


def test_the_short_shipped_reference_log_passes_every_gate(short_shipped_reference):
    log, _, config = short_shipped_reference
    assert verify_invariants(log, config).passed


@pytest.mark.parametrize("mutation", LOG_MUTATIONS)
def test_verify_fails_the_pinned_gates_on_each_log_mutation(short_shipped_reference,
                                                            mutation):
    log, data, config = short_shipped_reference
    mutate, caught = LOG_MUTATIONS[mutation]
    report = verify_invariants(mutate(log, data, config), config)
    assert {c.name for c in report.checks if c.status == "fail"} == caught


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 50), scale=st.integers(-100, 100),
       m_bar_scale=st.integers(-100, 100))
def test_consistent_columns_under_the_envelope_bound_the_workloads(data, n, scale,
                                                                   m_bar_scale):
    # the implications log_consistency rests on, for errors e_i = m_i - m_bar
    # that sum to 0, over many decades of scale: |e_i| <= sqrt(2 V),
    # |e_i - e_{i-1}| <= 2 sqrt(V) and sum_i (e_i - e_{i-1})^2 >= 2 lambda_min V / N;
    # and V at 1.05 times the envelope's floor (1e-10 m_bar)^2 / 4, plus the
    # consistency tolerance, keeps both bounds under 1.05e-10 m_bar
    free = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 1,
                                       max_size=n - 1))) * 10.0 ** scale
    errors = np.append(free, -np.sum(free))
    v = imbalance(errors, 0.0)
    assume(v > 1e-290)  # the largest error's square stays a normal number
    diffs = np.array(bar_rates(errors.tolist(), 1.0))
    rounding = 1.0 + 1e-12
    assert np.max(np.abs(errors)) <= math.sqrt(2.0 * v) * rounding
    assert np.max(np.abs(diffs)) <= 2.0 * math.sqrt(v) * rounding
    lambda_min = float(np.linalg.eigvalsh(hand_built_cyclic_form(n))[0])
    assert np.sum(diffs ** 2) >= 2.0 * lambda_min * v / n * (1.0 - 1e-9)
    m_bar = 10.0 ** m_bar_scale
    at_floor = errors / math.sqrt(v) * math.sqrt(1.05 * (1.0 + 1e-9) * 0.25) * 1e-10 * m_bar
    assert np.max(np.abs(at_floor)) <= 1.05e-10 * m_bar
    assert np.max(np.abs(bar_rates(at_floor.tolist(), 1.0))) <= 1.05e-10 * m_bar


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


DRAW_REGIONS = {
    "reference": AnnularRegion(PolarCurve(1.0, sine_coeffs=(0.0, 0.5)),
                               PolarCurve(3.0, cosine_coeffs=(0.0, 0.5))),
    "star": AnnularRegion(PolarCurve(0.8, (0.0, 0.0, 0.0, 0.3)),
                          PolarCurve(2.0, (), (0.0, 0.0, 0.4))),
    # accepts pi (1.002^2 - 1) / (2 * 1.002)^2 ~ 0.0031 of the candidates, 0.2
    # a batch; 64 agents take ~20 000 candidates, so the cap of 10 000
    # rejections holds for one agent, not for the draw
    "thin": AnnularRegion(PolarCurve(1.0), PolarCurve(1.002)),
}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 64),
       name=st.sampled_from(sorted(DRAW_REGIONS)))
def test_batched_draws_accept_the_points_of_one_candidate_at_a_time(seed, n, name):
    region = DRAW_REGIONS[name]
    expected = one_candidate_positions(np.random.default_rng(seed), region, n)
    drawn = sim._draw_positions(np.random.default_rng(seed), region, n)
    assert drawn.shape == expected.shape and drawn.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draws_on_a_hairline_annulus_fail_as_one_candidate_at_a_time(seed):
    # 10 000 candidates find the annulus 1 to 1 + 1e-6 with chance ~0.016
    region = AnnularRegion(PolarCurve(1.0), PolarCurve(1.0 + 1e-6))
    for draw in (one_candidate_positions, sim._draw_positions):
        with pytest.raises(ConfigError, match="rejection sampling failed") as caught:
            draw(np.random.default_rng(seed), region, 2)
        assert caught.value.field == "agents.initial_positions"


def test_rk4_stability_is_the_nearest_double_to_the_real_root():
    # x^3 - 4x^2 + 12x - 24, whose real root is where RK4's R(-x) returns to
    # 1, changes sign just below the bound, and is nearer 0 at the bound
    def cubic(x):
        x = Fraction(x)
        return x ** 3 - 4 * x ** 2 + 12 * x - 24

    below = cubic(math.nextafter(RK4_STABILITY, 0.0))
    assert below < 0 < cubic(RK4_STABILITY) < -below


@pytest.mark.parametrize("dt, refused", [(math.nextafter(RK4_STABILITY, 0.0), False),
                                         (RK4_STABILITY, True), (4.0, True)])
def test_a_step_the_tracking_law_cannot_take_is_refused(dt, refused):
    data = overtaking_scenario_dict()
    data.update(gains={"kappa_phi": 0.01, "kappa_p": 1.0},
                integrator={"dt": dt, "t_end": dt, "log_stride": 1})
    if refused:
        with pytest.raises(ConfigError, match="tracking law's RK4") as caught:
            scenario_from_dict(data)
        assert caught.value.field == "integrator.dt"
    else:
        assert scenario_from_dict(data).dt == dt


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


@pytest.mark.parametrize("density, field, message", [
    ({"kind": "uniform", "parameters": [1.0, 2.0]}, "density.parameters",
     r"uniform takes at most 1 parameter\(s\), got \[1.0, 2.0\]"),
    ({"kind": "reference", "parameters": [0.01, 0.0]}, "density.parameters",
     "reference takes at most 1 parameter"),
    ({"kind": "uniform", "parameters": [1.0], "angular": {"mean": 1.0}}, "density.angular",
     "uniform takes no angular factor"),
    ({"kind": "reference", "angular": False}, "density.angular",
     "reference takes no angular factor"),
])
def test_config_rejects_density_entries_nothing_reads(density, field, message):
    # only the radial polynomial reads a second parameter or an angular
    # factor; elsewhere the echo would record them as if they took effect
    with pytest.raises(ConfigError, match=message) as info:
        scenario_from_dict(uniform_scenario_dict(density=density))
    assert info.value.field == field


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_angular_factor_keeps_one_sign_beyond_its_margin(sign):
    # rho = sign * (sign * (m + 0.2 cos(theta))): the factor may take either
    # sign, but its least |value| on the region grid must exceed its margin
    # pi / 2048 * 0.2, even where, as at m = 0.2 + margin / 2, it never reaches 0
    margin = math.pi / 2048 * 0.2
    for mean, accepted in ((0.2 + 2 * margin, True), (0.2 + 0.5 * margin, False)):
        density = {"kind": "radial_polynomial_times_angular", "parameters": [sign],
                   "angular": {"mean": sign * mean, "cos": [sign * 0.2]}}
        if accepted:
            scenario_from_dict(uniform_scenario_dict(density=density))
            continue
        with pytest.raises(ConfigError, match="not of one sign beyond the margin "
                                              "3.068e-04") as info:
            scenario_from_dict(uniform_scenario_dict(density=density))
        assert info.value.field == "density.angular"


@pytest.mark.parametrize("positions", [
    [[True, "0.3"], ["-1.4", 0.2]], [[1.5, 0.3], [-1.4, False]], [[1.5, "0.3"], [-1.4, 0.2]],
    [[1.5, math.nan], [-1.4, 0.2]], [[math.inf, 0.3], [-1.4, 0.2]], [[1.5, 0.3], [[-1.4], 0.2]],
], ids=["bool_and_strings", "bool", "string", "nan", "inf", "nested"])
def test_initial_positions_follow_the_number_rules(positions):
    # each [x, y] pair is a list of finite numbers, none a boolean or a string
    with pytest.raises(ConfigError, match="expected a list of finite numbers") as info:
        scenario_from_dict(uniform_scenario_dict(
            agents={"count": 2, "initial_phases": [0.4, 1.9], "initial_positions": positions}))
    assert info.value.field == "agents.initial_positions"


@pytest.mark.parametrize("section, entries, field", [
    ("integrator", {"dt": 0.05, "t_end": 1e30, "log_stride": 1}, "integrator.t_end"),
    ("integrator", {"dt": 0.05, "t_end": 5e6 + 0.05, "log_stride": 1}, "integrator.t_end"),
    ("search", {"K_star": 10 ** 12, "T_epsilon": 30.0}, "search.K_star"),
    ("search", {"K_star": 166667, "T_epsilon": 30.0}, "search.K_star"),
    ("search", {"K_star": 1, "T_epsilon": 1e30}, "search.T_epsilon"),
    ("search", {"epsilon_p": 1e-300, "T_epsilon": 30.0}, "search.epsilon_p"),
    ("search", {"epsilon_p": TWO_PI / 166667, "T_epsilon": 30.0}, "search.epsilon_p"),
], ids=["t_end_1e30", "t_end_one_step_over", "K_star_1e12", "K_star_one_epoch_over",
        "T_epsilon_1e30", "epsilon_p_1e-300", "epsilon_p_one_epoch_over"])
def test_config_bounds_the_steps_a_command_asks_for(section, entries, field):
    # at dt 0.05, run's t_end / dt and search's epoch count times
    # T_epsilon / dt are each at most MAX_STEPS, and the bound itself parses
    with pytest.raises(ConfigError, match=f"exceed {sim.MAX_STEPS} steps|more than "
                                          f"{sim.MAX_STEPS} steps") as info:
        scenario_from_dict(uniform_scenario_dict(**{section: entries}))
    assert info.value.field == field
    at_bound = scenario_from_dict(uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 5e6, "log_stride": 1},
        search={"K_star": 166666, "T_epsilon": 30.0}))
    assert at_bound.search.epoch_count * 600 <= sim.MAX_STEPS


SCENARIOS = parser_scenarios()
CONFIG_KEYS = st.sampled_from(sorted({path[-1] for base in SCENARIOS.values()
                                      for path in entry_paths(base) if isinstance(path[-1], str)}
                                     | {"angular", "seed", "K_star", "epsilon_p"}))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["random", 1e-320, 1e305, 10 ** 400]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(CONFIG_KEYS | st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=6)


def with_entry(name, path, value):
    """The scenario `name` of `parser_scenarios` with the entry at `path` set."""
    data = copy.deepcopy(SCENARIOS[name])
    *sections, key = path.split(".")
    node = data
    for section in sections:
        node = node[section]
    node[key] = value
    return data


@st.composite
def mutated_configs(draw):
    """A scenario of `parser_scenarios` after one to three edits, each of which
    replaces an entry by a JSON value, deletes it, or adds a key to an object."""
    data = copy.deepcopy(SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([(), *entry_paths(data)]))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else data
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(target, dict):
            target[draw(CONFIG_KEYS | st.text(max_size=6))] = draw(JSON_VALUES)
        elif path and action == "delete":
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = draw(JSON_VALUES)
    return data


@settings(max_examples=100, deadline=None)
@given(data=mutated_configs())
@example(data=with_entry("generic_angular_epsilon", "search.epsilon_p", 1e-320))
@example(data=with_entry("uniform_n2_search", "density.parameters", [1e305]))
@example(data=with_entry("uniform_n2_search", "density.parameters", [1e-320]))
@example(data=with_entry("generic_angular_epsilon",  # a leading term below rounding
                         "density.parameters", [1.0, 2.0, 3.0, 1e-320]))
@example(data=with_entry("uniform_n2_search", "search.K_star", 10 ** 400))
@example(data=with_entry("uniform_n2_search", "region",  # 0.1 on the grid, 1.9 between
                         {"inner": {"mean": 1.0, "cos": [0.0] * 2047 + [-0.9]},
                          "outer": {"mean": 1.5}}))
def test_any_config_parses_to_finite_tables_or_raises_config_error(data):
    # an input the parser accepts must give the run a table with finite
    # totals and a positive mass; anything else is a ConfigError, which the
    # commands report with exit code 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = scenario_from_dict(data)
        except ConfigError:
            return
        totals = agents.cost_table(config.region, config.density, config.beta).totals
    assert np.isfinite(totals).all() and totals[0] > 0.0


@st.composite
def polynomial_density_sections(draw):
    """The region of a `star_regions` draw (a circle, or one harmonic, inside
    a circle) with a radial polynomial density of degree <= 4, with or
    without an angular factor of one harmonic."""
    density = {"kind": "radial_polynomial_times_angular",
               "parameters": draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5))}
    if draw(st.booleans()):
        harmonic = draw(st.sampled_from(["cos", "sin"]))
        density["angular"] = {"mean": draw(st.floats(-2.0, 2.0)),
                              harmonic: [draw(st.floats(-1.0, 1.0))]}
    return {"region": draw(star_regions())["region"], "density": density}


@settings(max_examples=100, deadline=None)
@given(sections=polynomial_density_sections())
@example(sections={"region": {"inner": {"mean": 1.0}, "outer": {"mean": 2.0}},
                   "density": {"kind": "radial_polynomial_times_angular",
                               "parameters": [1.020099, -2.02, 1.0]}})
@example(sections={"region": {"inner": {"mean": 1.0}, "outer": {"mean": 1e6}},
                   "density": {"kind": "radial_polynomial_times_angular",
                               "parameters": [0.0, 1e20] + [0.0] * 58 + [1e-300]}})
@example(sections={"region": {"inner": {"mean": 0.5}, "outer": {"mean": 1.0}},
                   "density": {"kind": "radial_polynomial_times_angular",
                               "parameters": [0.05] + [0.0] * 999 + [-1.0] + [0.0] * 199
                               + [1.0]}})
def test_an_accepted_density_is_positive_everywhere(sections):
    # whenever the parser accepts a density, rho >= MIN_DENSITY on 512 x 1025
    # points of the region, up to the rounding of the bound and of each
    # value, 32 eps times the sum of the absolute terms; (r - 1.01)^2 - 1e-6
    # reads -1e-6 at r = 1.01, inside the annulus 1-2
    data = uniform_scenario_dict(**sections, seed=0, agents={
        "count": 2, "initial_phases": "random", "initial_positions": "random"})
    try:
        config = scenario_from_dict(data)
    except ConfigError:
        return
    thetas = np.arange(512)[:, None] * (TWO_PI / 512)
    r_in = config.region.inner.radius(thetas)
    r = r_in + (config.region.outer.radius(thetas) - r_in) * np.linspace(0.0, 1.0, 1025)
    density = config.density
    angular = np.abs((density.angular or PolarCurve(1.0)).radius(thetas))
    terms = np.polynomial.polynomial.polyval(r, np.abs(density.parameters)) * angular
    rho = density.evaluate(r, thetas)
    assert np.all(rho >= sim.MIN_DENSITY - 32 * np.finfo(float).eps * terms)


def test_run_computes_moment_extrema_once():
    # a cold run reads omega off its own table, the 10-row one at beta > 0,
    # and leaves the benchmark's extrema cache empty; either table's plain
    # samples give the default table's extrema bit for bit
    for beta in (0.0, 0.25):
        config = scenario_from_dict(reference_scenario_dict(
            integrator={"dt": 0.01, "t_end": 0.01, "log_stride": 1},
            cost={"kind": "generic_builtin", "parameters": [beta]}))
        geometry.moment_table.cache_clear()
        radial_moment_extrema.cache_clear()
        meta = run_scenario(config).meta
        assert radial_moment_extrema.cache_info().currsize == 0
        assert ((meta["omega_min"], meta["omega_max"])
                == radial_moment_extrema(config.region, config.density)), beta


@pytest.mark.parametrize("beta, samplings", [(0.0, 4), (0.25, 10)])
def test_one_sampling_pass_per_table_row(monkeypatch, beta, samplings):
    # four degree-2 rows, or all ten rows of the degree-4 table for a generic
    # cost, counted over the weight tuples of the radial passes on the table
    # grid; the extrema read the run's table samples
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
    # the t=0 neighbour gap exceeds sqrt(2 V0) on these seeds, though never
    # 2 sqrt(V0); every gate passes, the envelope and log_consistency that
    # bound the workload errors and neighbour differences among them
    config = scenario_from_dict(reference_scenario_dict(
        seed=seed, integrator={"dt": 0.01, "t_end": 1.0, "log_stride": 10}))
    report = verify_invariants(run_scenario(config), config)
    assert [c.line() for c in report.checks if c.status == "fail"] == []
    assert report.passed


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


@pytest.mark.parametrize("cause", ["crossing", "floor", "non-finite"])
def test_integration_error_names_the_refusal_and_the_step_time(monkeypatch, cause):
    # the stiff whole step crosses bars; with a floor above every slice mass,
    # even the smallest sub-step is refused for the floor; with an infinite
    # gain every trial's phases, and so its masses, are not finite
    config = scenario_from_dict(overtaking_scenario_dict())
    system = sim._System(config.region, config.density, config.beta, config.n_agents,
                         config.kappa_phi, config.kappa_p)
    if cause == "crossing":
        monkeypatch.setattr(sim, "MAX_STEP_HALVINGS", 0)
        expected = "step still crosses bars at t = 2.5 after 0 step halvings (crossing)"
    elif cause == "floor":
        system.workload_floor = 1e9
        expected = ("step still breaks the workload floor 1.000e+09 at t = 2.5 after "
                    "8 step halvings (floor)")
    else:
        system.kappa_phi = math.inf
        expected = ("step still gives non-finite slice masses at t = 2.5 after "
                    "8 step halvings (non-finite)")
    phases = config.initial_phases
    moments = system.table.slice_moments(phases)
    start = sim._Bars(phases.tolist(), moments, moments[0].tolist(), 2.5)
    block = []
    with pytest.raises(IntegrationError) as info, np.errstate(over="ignore", invalid="ignore"):
        system.advance(start, config.dt, block)
    assert str(info.value) == expected and block == []


def test_integration_error_time_counts_the_accepted_sub_steps(monkeypatch):
    # the whole step is refused, its first half accepted and its second
    # refused at the cap: the failure lies at the second half's start
    monkeypatch.setattr(sim, "MAX_STEP_HALVINGS", 1)
    config = scenario_from_dict(uniform_scenario_dict())
    system = sim._System(config.region, config.density, config.beta, config.n_agents,
                         config.kappa_phi, config.kappa_p)
    verdicts = iter([False, True])
    real_guard = sim._System.guard

    def guard(self, phases):
        moments = real_guard(self, phases)
        if next(verdicts, False):
            return moments
        self.refusal = "floor"
        return None

    monkeypatch.setattr(sim._System, "guard", guard)
    phases = config.initial_phases
    moments = system.table.slice_moments(phases)
    start = sim._Bars(phases.tolist(), moments, moments[0].tolist(), 2.5)
    block = []
    with pytest.raises(IntegrationError, match=r"at t = 2\.525 after 1 step halvings \(floor\)$"):
        system.advance(start, config.dt, block)
    assert [step.dt for step in block] == [0.5 * config.dt]


def count_calls(monkeypatch):
    """Count slice_moments and optimal_targets calls made through the
    integrator, and the slices (target rows) the targets are computed for."""
    counts = {"slice_moments": 0, "optimal_targets": 0, "target_rows": 0}
    real_moments = MomentTable.slice_moments
    real_targets = agents.optimal_targets

    def slice_moments(self, phases):
        counts["slice_moments"] += 1
        return real_moments(self, phases)

    def optimal_targets(moments, beta):
        counts["optimal_targets"] += 1
        counts["target_rows"] += moments.shape[1]
        return real_targets(moments, beta)

    monkeypatch.setattr(MomentTable, "slice_moments", slice_moments)
    monkeypatch.setattr(agents, "optimal_targets", optimal_targets)
    return counts


def test_one_evaluation_per_state(monkeypatch):
    # per step: slice moments at three RK4 stages plus the guard's at the
    # accepted trial, which is also the next step's first stage and the logged
    # record; targets once per slice of each of those four states
    counts = count_calls(monkeypatch)
    steps = 20
    config = scenario_from_dict(uniform_scenario_dict(
        integrator={"dt": 0.05, "t_end": 0.05 * steps, "log_stride": 3}))
    log = run_scenario(config)
    assert int(np.sum(log.halvings)) == 0
    # plus the initial state, and V(0) for the decay constants
    assert counts["slice_moments"] == 4 * steps + 2
    assert counts["target_rows"] == (4 * steps + 1) * config.n_agents
    # one targets call at the start and one per agent pass: at the records
    # after it, 3, 6, ..., 18 and 20
    assert counts["optimal_targets"] == log.times.size


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
    # the stiff scenario halves steps, inside one advance call per step
    config = scenario_from_dict(overtaking_scenario_dict())
    advances = []
    real_advance = sim._System.advance

    def advance(self, start, dt, block):
        advances.append(dt)
        return real_advance(self, start, dt, block)

    monkeypatch.setattr(sim._System, "advance", advance)
    system = sim._System(config.region, config.density, config.beta, config.n_agents,
                         config.kappa_phi, config.kappa_p)
    steps = 4
    records = list(system.run(config.initial_phases, config.initial_positions, config.dt,
                              steps, 1))
    assert advances == [config.dt] * steps
    assert [r.step for r in records] == list(range(steps + 1))
    assert records[0].halvings == 0 and max(r.halvings for r in records) >= 1
    # with one record at the end, the run reaches the same last state
    *_, end = system.run(config.initial_phases, config.initial_positions, config.dt,
                         steps, steps)
    assert end.step == steps
    for name in ("phases", "positions", "moments", "targets"):
        assert np.array_equal(getattr(end, name), getattr(records[-1], name)), name


def test_guard_rejects_before_targets(monkeypatch, uniform_region, uniform_density):
    # a rejected trial's stage moments are dropped: targets are computed for
    # the start and for the four stages of each accepted sub-step only
    counts = count_calls(monkeypatch)
    rejections, accepted = [], []
    real_guard, real_track = sim._System.guard, sim._System.track

    def guard(self, phases):
        moments = real_guard(self, phases)
        if moments is None:
            rejections.append(phases)
        return moments

    def track(self, positions, targets, block):
        accepted.extend(block)
        return real_track(self, positions, targets, block)

    monkeypatch.setattr(sim._System, "guard", guard)
    monkeypatch.setattr(sim._System, "track", track)
    config = scenario_from_dict(overtaking_scenario_dict())
    log = run_scenario(config)  # order rejections
    steps = round(config.t_end / config.dt)
    assert len(rejections) >= 1 and int(np.sum(log.halvings)) >= 1
    # each rejection turns one trial into two half steps
    assert len(accepted) == steps + len(rejections)
    assert counts["target_rows"] == config.n_agents * (1 + 4 * len(accepted))
    assert sum(step.dt for step in accepted) == pytest.approx(config.t_end)

    system = sim._System(uniform_region, uniform_density, 0.0, 2, 0.1, 0.5)
    assert system.guard(np.array([1.9, 0.4])) is None  # an order rejection
    assert system.refusal == "crossing"
    system.workload_floor = 1e9  # a floor rejection
    assert system.guard(np.array([0.4, 1.9])) is None
    assert system.refusal == "floor"


@st.composite
def density_sections(draw):
    """A `density` config section of each kind, positive on any region."""
    kind = draw(st.sampled_from(["uniform", "reference", "radial_polynomial_times_angular"]))
    if kind == "uniform":
        return {"kind": kind, "parameters": [draw(st.floats(0.5, 2.0))]}
    if kind == "reference":
        return {"kind": kind, "parameters": [draw(st.floats(0.0, 0.1))]}
    coefficients = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=5))
    return {"kind": kind, "parameters": coefficients,
            "angular": {"mean": 1.0, "cos": [draw(st.floats(-0.5, 0.5))]}}


@settings(max_examples=100, deadline=None)
@given(sections=star_regions(), density=density_sections(), phases=cyclic_layouts(),
       beta=st.sampled_from([0.0, 0.25]), bar=st.integers(0, 7),
       overshoot=st.one_of(st.just(0.0), st.floats(1e-15, 1.0)),
       turn=st.sampled_from([-TWO_PI, TWO_PI]))
def test_slice_masses_guard_the_cyclic_order(sections, density, phases, beta, bar,
                                             overshoot, turn):
    # With the system's own floor, the mass test alone refuses every state
    # out of cyclic order and names it a crossing, and returns the slice
    # moments of an ordered state bit for bit; a NaN mass is refused.
    config = scenario_from_dict(reference_scenario_dict(region=sections["region"],
                                                        density=density))
    n = phases.size
    system = sim._System(config.region, config.density, beta, n, 0.03, 0.1)
    moments, masses = system.guard(phases)
    assert np.array_equal(moments, system.table.slice_moments(phases))
    assert masses == moments[0].tolist()
    i = bar % n
    overtaken = phases.copy()  # bar i + 1 ties with bar i or passes it
    overtaken[(i + 1) % n] = phases[i] - overshoot + (TWO_PI if i == n - 1 else 0.0)
    lapped = phases.copy()  # one bar a full turn off
    lapped[i] += turn
    for crossed in (overtaken, lapped):
        assert np.any(cyclic_gaps(crossed) <= 0.0)
        assert system.guard(crossed) is None and system.refusal == "crossing"
    broken = phases.copy()
    broken[i] = np.nan
    with np.errstate(invalid="ignore"):
        assert system.guard(broken) is None


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
        moments = system.table.slice_moments(log.phases_unwrapped[k])
        assert np.array_equal(log.workloads[k], moments[0])
        assert np.array_equal(log.targets[k], agents.optimal_targets(moments, config.beta))
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
            assert np.array_equal(bar_rates(mass.tolist(), kappa_phi),
                                  kappa_phi * (mass - np.roll(mass, 1)))
            with np.errstate(divide="ignore", invalid="ignore"):  # a tie's empty slice
                centroids = np.stack([moments[1] / mass, moments[2] / mass], axis=1)
                assert np.array_equal(slice_centroids(moments), centroids, equal_nan=True)

        moments = table.slice_moments(phases)
        mass = moments[0]
        targets = agents.optimal_targets(moments, beta)
        if not beta:
            # targets batched over several states are each state's own
            stacked = agents.optimal_targets(np.concatenate([moments, moments], axis=1), beta)
            assert np.array_equal(stacked, np.concatenate([targets, targets]))
        for pinned in (None, pinned_bar):
            system = sim._System(region, density, beta, n, kappa_phi, kappa_p, pinned)
            # the guard rejects a slice at the floor, and accepts above it
            system.workload_floor = float(np.min(mass))
            assert system.guard(phases) is None
            system.workload_floor = float(np.nextafter(np.min(mass), -np.inf))
            accepted, masses = system.guard(phases)
            assert np.array_equal(accepted, moments) and masses == mass.tolist()
            rates = kappa_phi * (mass - np.roll(mass, 1))
            if pinned is not None:
                rates[pinned] = 0.0
            assert np.array_equal(bar_rates(mass.tolist(), kappa_phi, pinned), rates)
            # an RK4 stage of the bar pass: the rates, its moments kept
            system._trial = []
            assert np.array_equal(system._stage(phases), rates)
            assert len(system._trial) == 1 and np.array_equal(system._trial[0], moments)

        # the agent pass over one sub-step from the targets at `phases`: RK4's
        # closed-form map of the tracking law, as written in `_System.track`
        dt = 0.5
        stage_moments = [table.slice_moments(phases + shift)
                         for shift in (0.01, 0.02, 0.03, 0.04)]  # stages 2-4, end
        system = sim._System(region, density, beta, n, kappa_phi, kappa_p)
        moved, end_targets = system.track(positions, targets,
                                          [sim._SubStep(dt, stage_moments)])
        stages = agents.optimal_targets(np.concatenate(stage_moments, axis=1),
                                        beta).reshape(4, n, 2)
        assert np.array_equal(end_targets, stages[3])
        z = -kappa_p * dt
        z2, z3, z4 = z * z, z * z * z, z * z * z * z
        growth = 1.0 + z + z2 / 2.0 + z3 / 6.0 + z4 / 24.0
        pull = ((z + z2 + z3 / 2.0 + z4 / 4.0) / 6.0 * targets
                + (2.0 * z + z2 + z3 / 2.0) / 6.0 * stages[0]
                + (2.0 * z + z2) / 6.0 * stages[1] + z / 6.0 * stages[2])
        assert np.array_equal(moved, growth * positions - pull)


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


def cascade_columns(config, pinned):
    """The record columns of the package's stepper on `config` with bar
    `pinned` frozen: `run_scenario`'s log when nothing is pinned."""
    if pinned is None:
        log = run_scenario(config)
    else:
        system = sim._System(config.region, config.density, config.beta, config.n_agents,
                             config.kappa_phi, config.kappa_p, pinned)
        records = list(system.run(config.initial_phases, config.initial_positions,
                                  config.dt, round(config.t_end / config.dt),
                                  config.log_stride))
        log = sim._assemble_log(records, config,
                                {"m_bar": float(system.table.totals[0]) / config.n_agents})
    return {name: getattr(log, name) for name in sim._RECORDS}


def radial_margin(region, points):
    """Radial distance of each point of a (..., 2) array to the nearer boundary
    curve, the quantity `AnnularRegion.contains` compares."""
    r = np.hypot(points[..., 0], points[..., 1])
    theta = np.arctan2(points[..., 1], points[..., 0])
    return np.minimum(np.abs(r - region.inner.radius(theta)),
                      np.abs(r - region.outer.radius(theta)))


def assert_matches_the_stacked_oracle(config, pinned=None):
    got, oracle = cascade_columns(config, pinned), stacked_run(config, pinned)
    # the bar pass is the stacked integrator's phase block, bit for bit
    exact = ["times", "phases_unwrapped", "workloads", "lyapunov", "halvings"]
    if not config.beta:
        exact.append("targets")  # centroids, slice by slice
    for name in exact:
        assert np.array_equal(got[name], oracle[name]), name
    # the closed-form map reorders the agents' arithmetic
    for name in ("positions", "cost", "tracking", "targets"):
        scale = np.max(np.abs(oracle[name]))
        assert np.max(np.abs(got[name] - oracle[name])) <= 1e-12 * scale, name
    clear = np.all(radial_margin(config.region, oracle["positions"]) > 1e-9, axis=1)
    assert np.array_equal(got["excursion"][clear], oracle["excursion"][clear])


@st.composite
def oracle_scenarios(draw):
    """(config dict, pinned bar): a short run on the reference or a star
    region with N in [2, 8], or the stiff scenario that halves steps; any
    bar pinned or none, and the squared-distance or the quartic cost."""
    beta = draw(st.sampled_from([0.0, 0.25]))
    cost = {"kind": "generic_builtin", "parameters": [beta]}
    if draw(st.integers(0, 4)) == 0:
        data, n = {**overtaking_scenario_dict(), "cost": cost}, 3
    else:
        n = draw(st.integers(2, 8))
        steps = draw(st.integers(1, 30))
        data = reference_scenario_dict(
            **draw(st.one_of(st.just(REFERENCE_SECTIONS), star_regions())),
            seed=draw(st.integers(0, 2 ** 32 - 1)), cost=cost,
            agents={"count": n, "initial_phases": "random", "initial_positions": "random"},
            integrator={"dt": 0.01, "t_end": 0.01 * steps,
                        "log_stride": draw(st.integers(1, 5))})
    return data, draw(st.one_of(st.none(), st.integers(0, n - 1)))


@settings(max_examples=30, deadline=None)
@given(scenario=oracle_scenarios(), cap=st.sampled_from([1, 2, 3, sim.BLOCK_STEPS]))
def test_cascade_matches_the_stacked_oracle(scenario, cap):
    # any flush cap: the agent pass over any cut of the sub-steps
    data, pinned = scenario
    with mock.patch.object(sim, "BLOCK_STEPS", cap):
        assert_matches_the_stacked_oracle(scenario_from_dict(data), pinned)


def test_nested_halvings_match_the_stacked_oracle():
    # at dt = 2 the stiff bars halve twice per step, so a refused half's two
    # quarters must run before the pending second half, as the oracle's
    # recursion takes them
    data = overtaking_scenario_dict()
    data["integrator"] = {"dt": 2.0, "t_end": 10.0, "log_stride": 1}
    config = scenario_from_dict(data)
    assert max(run_scenario(config).halvings) == 2
    assert_matches_the_stacked_oracle(config)


def test_run_longer_than_the_flush_cap_with_one_record_matches_the_oracle():
    steps = 2 * sim.BLOCK_STEPS + 37
    config = scenario_from_dict(reference_scenario_dict(
        agents={"count": 3, "initial_phases": "random", "initial_positions": "random"},
        integrator={"dt": 0.01, "t_end": 0.01 * steps, "log_stride": steps}))
    assert round(config.t_end / config.dt) == steps
    assert run_scenario(config).times.size == 2
    assert_matches_the_stacked_oracle(config)


@pytest.mark.parametrize("scenario", [
    reference_scenario_dict(integrator={"dt": 0.01, "t_end": 0.6, "log_stride": 1}),
    overtaking_scenario_dict(),
])
def test_flushes_never_change_the_trajectory(scenario):
    # a record flushes the agent pass; with one record at the end, or with the
    # cap at one sub-step, the shared records hold the same bits
    every = run_scenario(scenario_from_dict(scenario))
    steps = every.times.size - 1
    last = scenario_from_dict({**scenario, "integrator": {**scenario["integrator"],
                                                          "log_stride": steps}})
    ends = run_scenario(last)
    with mock.patch.object(sim, "BLOCK_STEPS", 1):
        capped = run_scenario(last)
    for log in (ends, capped):
        assert log.times.size == 2
        for name in sim._RECORDS:
            assert np.array_equal(getattr(log, name), getattr(every, name)[[0, -1]]), name


def test_partial_log_is_the_complete_logs_first_records(monkeypatch):
    data = reference_scenario_dict(integrator={"dt": 0.01, "t_end": 0.3, "log_stride": 4})
    complete = run_scenario(scenario_from_dict(data))
    real_advance = sim._System.advance
    calls = iter(range(17))

    def advance(self, start, dt, block):
        if next(calls, None) is None:
            raise IntegrationError("step refused")
        return real_advance(self, start, dt, block)

    monkeypatch.setattr(sim._System, "advance", advance)
    with pytest.raises(IntegrationError) as info:
        run_scenario(scenario_from_dict(data))
    partial = info.value.log
    assert partial.times.size == 5  # steps 0, 4, 8, 12, 16 of the 17 taken
    for name in sim._RECORDS:
        assert np.array_equal(getattr(partial, name),
                              getattr(complete, name)[:partial.times.size]), name
