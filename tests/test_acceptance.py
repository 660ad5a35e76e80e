"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight trajectory fixtures are session-scoped and shared.
"""

import math

import numpy as np
import pytest

from conftest import all_centroids, hand_built_cyclic_form, reference_scenario_dict
from ringcover.agents import (cost_table, slice_cost_terms, subregion_cost,
                              total_cost)
from ringcover.geometry import TWO_PI, moment_table, region_integral
from ringcover.partition import decay_constants
from ringcover.search import gossip_until_stable
from ringcover.sim import run_scenario, scenario_from_dict

SEEDS = (101, 102, 103, 104, 105)


def report(number: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="session")
def half_step_run():
    config = scenario_from_dict(reference_scenario_dict(
        integrator={"dt": 0.005, "t_end": 100.0, "log_stride": 20}))
    return run_scenario(config), config


@pytest.fixture(scope="session")
def seeded_runs():
    runs = []
    for seed in SEEDS:
        config = scenario_from_dict(reference_scenario_dict(seed=seed))
        runs.append((run_scenario(config), config))
    return runs


def test_01_equitable_partition(reference_run):
    log, _ = reference_run
    m_bar = log.meta["m_bar"]
    worst = float(np.max(np.abs(log.workloads[-1] - m_bar)) / m_bar)
    report(1, "equitable_partition", worst < 1e-3,
           f"max |m - mean|/mean = {worst:.3e} at t=100")


def test_02_lyapunov_exponential_bound(seeded_runs):
    worst = 0.0
    for log, _ in seeded_runs:
        envelope = log.lyapunov[0] * np.exp(-2.0 * log.meta["c2"] * log.times)
        worst = max(worst, float(np.max(log.lyapunov / envelope)))
    report(2, "lyapunov_exponential_bound", worst <= 1.05,
           f"max V/envelope = {worst:.6f} over {len(seeded_runs)} seeds")


def test_03_mean_phase_conservation(seeded_runs):
    worst = 0.0
    for log, _ in seeded_runs:
        means = np.mean(log.phases_unwrapped, axis=1)
        worst = max(worst, float(np.max(np.abs(means - means[0]))))
    report(3, "mean_phase_conservation", worst < 1e-6,
           f"max drift = {worst:.3e} over 100 time units")


def test_04_collision_avoidance(reference_run, seeded_runs):
    logs = [reference_run[0]] + [log for log, _ in seeded_runs]
    min_workload = min(float(np.min(log.workloads)) for log in logs)
    failures = sum(int(log.meta["guard_failures"]) for log in logs)
    halvings = sum(int(np.sum(log.halvings)) for log in logs)
    ok = min_workload > 0.0 and failures == 0 and halvings == 0
    report(4, "collision_avoidance", ok,
           f"min workload = {min_workload:.3e}, guard exhaustions = {failures}, "
           f"step halvings = {halvings}")


def test_05_centroid_convergence(reference_run):
    log, _ = reference_run
    worst = float(np.max(np.linalg.norm(log.positions[-1] - log.targets[-1],
                                        axis=1)))
    report(5, "centroid_convergence", worst < 1e-3,
           f"max |p - target| = {worst:.3e} at t=100")


def _random_state(rng, region, n):
    while True:
        phases = np.sort(rng.uniform(0.0, TWO_PI, n))
        if np.min(np.diff(phases)) > 1e-3:
            break
    bound = region.bounding_radius()
    while True:
        position = rng.uniform(-bound, bound, 2)
        if region.contains(position):
            return phases, position


def test_06_gradient_hessian_oracles(uniform_region, uniform_density):
    rng = np.random.default_rng(60)
    squared = 0.0
    generic = 0.25
    generic_limit = 0.0
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        phases, position = _random_state(rng, uniform_region, 3)
        i = int(rng.integers(3))

        def slice_moments(model):
            return cost_table(uniform_region, uniform_density, model).slice_moments(
                phases)[:, [i]]

        def gradient(model, point):
            return slice_cost_terms(slice_moments(model), point, model)[1][0]

        for model in (squared, generic):
            grad = gradient(model, position)
            fd = np.empty(2)
            for axis in range(2):
                offset = np.zeros(2)
                offset[axis] = step
                fd[axis] = (subregion_cost(phases, uniform_region, uniform_density,
                                           model, i, position + offset)
                            - subregion_cost(phases, uniform_region, uniform_density,
                                             model, i, position - offset)) / (2 * step)
            worst = max(worst, float(np.linalg.norm(grad - fd))
                        / max(float(np.linalg.norm(grad)), 1e-9))

        def mass_and_hessian(model):
            moments = slice_moments(model)
            return moments[0, 0], slice_cost_terms(moments, position, model)[2][0]

        _, hess = mass_and_hessian(squared)
        fd_hess = np.empty((2, 2))
        for axis in range(2):
            offset = np.zeros(2)
            offset[axis] = step
            g_plus = gradient(squared, position + offset)
            g_minus = gradient(squared, position - offset)
            fd_hess[:, axis] = (g_plus - g_minus) / (2 * step)
        worst = max(worst, float(np.max(np.abs(hess - fd_hess)))
                    / float(np.max(np.abs(hess))))
        assert np.linalg.matrix_rank(hess, tol=1e-8 * np.linalg.norm(hess, 2)) == 2

        # generic path at beta = 0 must match the known analytic hessian
        mass, hess_gen = mass_and_hessian(generic_limit)
        worst = max(worst, float(np.max(np.abs(hess_gen - 2.0 * mass * np.eye(2))))
                    / (2.0 * mass))
    report(6, "gradient_hessian_oracles", worst < 1e-4,
           f"worst relative error = {worst:.3e} over 20 states, both cost kinds")


def test_07_parallel_axis_identity(reference_region, reference_density):
    rng = np.random.default_rng(70)
    squared = 0.0
    worst = 0.0
    for _ in range(20):
        phases, _ = _random_state(rng, reference_region, 4)
        centroids = all_centroids(phases, reference_region, reference_density)
        positions = centroids + rng.normal(scale=0.3, size=centroids.shape)
        total = total_cost(phases, positions, reference_region, reference_density,
                           squared)
        spread = sum(subregion_cost(phases, reference_region, reference_density,
                                    squared, i, centroids[i]) for i in range(4))
        w = moment_table(reference_region, reference_density).slice_moments(phases)[0]
        offsets = positions - centroids
        carried = float(np.sum(w * np.sum(offsets * offsets, axis=1)))
        worst = max(worst, abs(total - spread - carried) / abs(total))
    report(7, "parallel_axis_identity", worst < 1e-6,
           f"worst relative defect = {worst:.3e} over 20 states")


def test_08_cyclic_form_construction(uniform_region, uniform_density):
    # the hand-built form is the oracle for decay_constants' closed-form lambda_min
    def lambda_min(n):
        return decay_constants(np.arange(n) * TWO_PI / n, 0.03,
                               moment_table(uniform_region, uniform_density))["lambda_min"]

    exact = np.array_equal(hand_built_cyclic_form(2), np.array([[8.0]]))
    lam2 = lambda_min(2)
    rng = np.random.default_rng(80)
    worst = 0.0
    lambda_min_all_positive = True
    for n in range(2, 13):
        matrix = hand_built_cyclic_form(n)
        lam = lambda_min(n)
        lambda_min_all_positive &= lam > 0.0
        worst = max(worst, abs(lam - np.linalg.eigvalsh(matrix)[0]) / lam)
        for _ in range(8):
            e_free = rng.normal(size=n - 1)
            e_full = np.append(e_free, -np.sum(e_free))
            direct = float(np.sum((e_full - np.roll(e_full, 1)) ** 2))
            quad = float(e_free @ matrix @ e_free)
            worst = max(worst, abs(direct - quad) / max(1.0, abs(direct)))
    ok = exact and worst <= 1e-10 and lambda_min_all_positive and lam2 == 8.0
    report(8, "cyclic_form_construction", ok,
           f"S(2)=[[8]] exact, worst identity or lambda_min defect = {worst:.3e}, "
           f"all lambda_min > 0 for N=2..12")


def test_09_equal_share_map(uniform_region, uniform_density,
                            reference_region, reference_density):
    # the equal-share map phi -> M^-1(M(phi) + W / N) on 16 phases at once
    rng = np.random.default_rng(90)
    worst_residual = 0.0
    worst_closure = 0.0
    for region, density, n in ((uniform_region, uniform_density, 4),
                               (reference_region, reference_density, 8)):
        table = moment_table(region, density)
        share = region_integral(region, density, 0.0, TWO_PI, rel_tol=1e-13) / n
        phis = rng.uniform(0.0, TWO_PI, 16)

        def advance(phases):
            return table.inverse_cumulative(table.cumulative(phases)[0] + table.totals[0] / n)

        for phi, xi in zip(phis, advance(phis)):
            got = region_integral(region, density, phi % TWO_PI, xi % TWO_PI,
                                  rel_tol=1e-13)
            worst_residual = max(worst_residual, abs(got - share) / share)
        current = phis
        for _ in range(n):
            current = advance(current)
        worst_closure = max(worst_closure, float(np.max(np.abs(current - phis - TWO_PI))))
    ok = worst_residual < 1e-10 and worst_closure < 1e-8
    report(9, "equal_share_map", ok,
           f"worst residual = {worst_residual:.3e} * share, "
           f"worst closure = {worst_closure:.3e}")


def test_10_search_optimality_gap(search_sweep, uniform_region, uniform_density):
    # brute-force oracle: anchored equilibria on a 720-point anchor grid, each
    # second bar one equal share on from its anchor
    table = moment_table(uniform_region, uniform_density)
    anchors = np.arange(720) * (TWO_PI / 720.0)
    seconds = table.inverse_cumulative(table.cumulative(anchors)[0] + table.totals[0] / 2)
    oracle = math.inf
    for phases in np.stack([anchors, seconds], axis=1):
        moments = table.slice_moments(phases)
        costs, _, _ = slice_cost_terms(moments, all_centroids(phases, uniform_region,
                                                              uniform_density), 0.0)
        oracle = min(oracle, float(np.sum(costs)))
    gaps = {k: (search_sweep[k].best.total_cost - oracle) / oracle for k in (8, 16, 32, 64)}
    non_increasing = all(gaps[b] <= gaps[a] + 1e-6
                         for a, b in ((8, 16), (16, 32), (32, 64)))
    ok = gaps[64] < 0.02 and gaps[64] > -1e-6 and non_increasing
    report(10, "search_optimality_gap", ok,
           "relative gaps " + ", ".join(f"K*={k}: {gaps[k]:.2e}" for k in sorted(gaps)))


def test_11_gossip_protocol(uniform_region, uniform_density):
    rng = np.random.default_rng(110)
    squared = 0.0
    details = []
    ok = True
    for n in (2, 4, 8):
        phases = np.sort(rng.uniform(0.0, TWO_PI, n))
        positions = all_centroids(phases, uniform_region, uniform_density)
        costs = [subregion_cost(phases, uniform_region, uniform_density, squared, i,
                                positions[i]) for i in range(n)]
        rounds, total = gossip_until_stable(costs)
        direct = total_cost(phases, positions, uniform_region, uniform_density, squared)
        # N-1 rounds bring every agent's cost to every agent on the ring
        ok &= rounds == n - 1 and abs(total - direct) <= 1e-8 * direct
        details.append(f"N={n}: rounds={rounds}")
    report(11, "gossip_protocol", ok, "; ".join(details))


def test_12_integrator_order(reference_run, half_step_run):
    log_full, _ = reference_run
    log_half, _ = half_step_run
    phase_diff = float(np.max(np.abs(log_full.phases_unwrapped[-1]
                                     - log_half.phases_unwrapped[-1])))
    position_diff = float(np.max(np.abs(log_full.positions[-1]
                                        - log_half.positions[-1])))
    worst = max(phase_diff, position_diff)
    report(12, "integrator_order", worst < 1e-5,
           f"final-state change dt 0.01 -> 0.005 = {worst:.3e}")
