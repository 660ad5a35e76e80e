import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ringcover.agents import (AgentState, CostModel, DegenerateSubregionError,
                              all_centroids, centroid, control_input, cost_gradient,
                              cost_hessian, cost_table, gradient_at,
                              miranda_box_test, optimal_target,
                              radial_second_moment_about, slice_cost_terms,
                              subregion_cost, total_cost)
from ringcover.geometry import TWO_PI, moment_table, radial_moment
from ringcover.partition import PartitionState

SECTOR_CENTROID_X = 28.0 * math.sqrt(2.0) / (9.0 * math.pi)
SECTOR_MASS = 3.0 * math.pi / 4.0


@pytest.fixture
def sector_state():
    # slice 0 spans [-pi/4, pi/4] through zero (wrap branch exercised)
    return PartitionState(np.array([7.0 * math.pi / 4.0, math.pi / 4.0]), 0.03)


def test_centroid_sector_closed_form(sector_state, uniform_region, uniform_density):
    c = centroid(sector_state, uniform_region, uniform_density, 0)
    assert_allclose(c, [SECTOR_CENTROID_X, 0.0], atol=1e-10)


def test_centroid_near_full_circle(uniform_region, uniform_density):
    state = PartitionState(np.array([0.0, TWO_PI - 1e-9]), 0.03)
    c = centroid(state, uniform_region, uniform_density, 0)
    assert np.linalg.norm(c) <= 1e-6


def test_centroid_rotational_equivariance(uniform_region, uniform_density):
    alpha = 0.8
    base = PartitionState(np.array([7.0 * math.pi / 4.0, math.pi / 4.0]), 0.03)
    rotated = PartitionState(base.unwrapped + alpha, 0.03)
    c0 = centroid(base, uniform_region, uniform_density, 0)
    c1 = centroid(rotated, uniform_region, uniform_density, 0)
    rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                    [math.sin(alpha), math.cos(alpha)]])
    assert_allclose(c1, rot @ c0, atol=1e-10)


def test_centroid_degenerate_slice(uniform_region, uniform_density):
    state = PartitionState(np.array([1.0, 1.0]), 0.03)
    with pytest.raises(DegenerateSubregionError):
        centroid(state, uniform_region, uniform_density, 0)


def test_cost_model_zero_at_event():
    for model in (CostModel("squared_distance"), CostModel("generic_builtin", (0.3,))):
        assert model.value(np.array([0.4, -0.2]), 0.4, -0.2) == 0.0


def test_total_cost_full_circle_origin(uniform_region, uniform_density):
    # both agents at the origin: slice costs add up to the full-circle integral
    state = PartitionState(np.array([0.0, math.pi]), 0.03)
    agents = AgentState(np.zeros((2, 2)), 0.1)
    value = total_cost(state, agents, uniform_region, uniform_density,
                       CostModel("squared_distance"))
    assert_allclose(value, 15.0 * math.pi / 2.0, rtol=1e-8)


def test_squared_distance_cost_matches_quadrature(reference_region, reference_density):
    rng = np.random.default_rng(4)
    state = PartitionState(np.sort(rng.uniform(0.0, TWO_PI, 4)), 0.03)
    positions = rng.uniform(-1.0, 1.0, (4, 2)) + np.array([2.0, 0.0])
    moments = moment_table(reference_region, reference_density).slice_moments(state.wrapped)
    costs, _, _ = slice_cost_terms(moments, positions, CostModel("squared_distance"))
    fast = float(np.sum(costs))
    slow = total_cost(state, AgentState(positions, 0.1), reference_region,
                      reference_density, CostModel("squared_distance"))
    assert_allclose(fast, slow, rtol=1e-8)


def test_parallel_axis_identity(reference_region, reference_density):
    rng = np.random.default_rng(6)
    squared = CostModel("squared_distance")
    for _ in range(3):
        state = PartitionState(np.sort(rng.uniform(0.0, TWO_PI, 3)), 0.03)
        positions = np.stack([centroid(state, reference_region, reference_density, i)
                              + rng.normal(scale=0.2, size=2) for i in range(3)])
        agents = AgentState(positions, 0.1)
        total = total_cost(state, agents, reference_region, reference_density, squared)
        spread = sum(subregion_cost(state, reference_region, reference_density,
                                    squared, i,
                                    centroid(state, reference_region,
                                             reference_density, i))
                     for i in range(3))
        carried = 0.0
        from ringcover.partition import slice_workloads
        w = slice_workloads(state, reference_region, reference_density)
        for i in range(3):
            offset = positions[i] - centroid(state, reference_region,
                                             reference_density, i)
            carried += w.values[i] * float(offset @ offset)
        assert abs(total - spread - carried) <= 1e-6 * abs(total)


def test_gradient_zero_at_centroid(sector_state, uniform_region, uniform_density):
    c = centroid(sector_state, uniform_region, uniform_density, 0)
    agents = AgentState(np.stack([c, [-1.5, 0.0]]), 0.1)
    g = cost_gradient(sector_state, agents, uniform_region, uniform_density,
                      CostModel("squared_distance"), 0)
    assert_allclose(g, [0.0, 0.0], atol=1e-12)


def test_gradient_sector_closed_form(sector_state, uniform_region, uniform_density):
    g = gradient_at(sector_state, uniform_region, uniform_density,
                    CostModel("squared_distance"), 0, np.zeros(2))
    assert_allclose(g, [-2.0 * SECTOR_MASS * SECTOR_CENTROID_X, 0.0], atol=1e-9)
    assert_allclose(g[0], -6.5997, rtol=1e-4)


def test_gradient_finite_difference_generic(sector_state, uniform_region,
                                            uniform_density):
    model = CostModel("generic_builtin", (0.25,))
    position = np.array([1.1, 0.2])
    g = gradient_at(sector_state, uniform_region, uniform_density, model, 0, position)
    step = 1e-5
    fd = np.empty(2)
    for axis in range(2):
        offset = np.zeros(2)
        offset[axis] = step
        f_plus = subregion_cost(sector_state, uniform_region, uniform_density,
                                model, 0, position + offset)
        f_minus = subregion_cost(sector_state, uniform_region, uniform_density,
                                 model, 0, position - offset)
        fd[axis] = (f_plus - f_minus) / (2.0 * step)
    assert np.linalg.norm(g - fd) <= 1e-4 * np.linalg.norm(g)


def test_control_input():
    agents = AgentState(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.1,
                        targets=np.zeros((2, 2)))
    assert_allclose(control_input(agents, 0), [-0.1, 0.0], rtol=1e-15)
    agents.positions[0] = agents.targets[0]
    assert_allclose(control_input(agents, 0), [0.0, 0.0])
    # linear in the offset
    a = AgentState(np.array([[2.0, -1.0], [0.0, 1.0]]), 0.1, targets=np.zeros((2, 2)))
    b = AgentState(np.array([[4.0, -2.0], [0.0, 1.0]]), 0.1, targets=np.zeros((2, 2)))
    assert_allclose(control_input(b, 0), 2.0 * control_input(a, 0), rtol=1e-15)


def test_optimal_target_squared_is_centroid(sector_state, uniform_region,
                                            uniform_density):
    target = optimal_target(sector_state, uniform_region, uniform_density,
                            CostModel("squared_distance"), 0)
    c = centroid(sector_state, uniform_region, uniform_density, 0)
    assert np.array_equal(target, c)


def test_optimal_target_generic_path_matches_centroid(sector_state, uniform_region,
                                                      uniform_density):
    target = optimal_target(sector_state, uniform_region, uniform_density,
                            CostModel("generic_builtin", (0.0,)), 0)
    c = centroid(sector_state, uniform_region, uniform_density, 0)
    assert np.linalg.norm(target - c) <= 1e-6


def test_optimal_target_symmetric_slice_on_axis(sector_state, uniform_region,
                                                uniform_density):
    target = optimal_target(sector_state, uniform_region, uniform_density,
                            CostModel("generic_builtin", (0.25,)), 0)
    assert abs(target[1]) <= 1e-6
    assert uniform_region.contains(target)


def test_miranda_certificate(sector_state, uniform_region, uniform_density):
    squared = CostModel("squared_distance")
    c = centroid(sector_state, uniform_region, uniform_density, 0)
    box = ((c[0] - 0.1, c[0] + 0.1), (c[1] - 0.1, c[1] + 0.1))
    assert miranda_box_test(sector_state, uniform_region, uniform_density,
                            squared, 0, box, boundary_samples=64)
    # stable across sampling resolutions
    assert miranda_box_test(sector_state, uniform_region, uniform_density,
                            squared, 0, box, boundary_samples=4)
    assert miranda_box_test(sector_state, uniform_region, uniform_density,
                            squared, 0, box, boundary_samples=256)
    far = ((3.0, 3.2), (-0.1, 0.1))
    assert not miranda_box_test(sector_state, uniform_region, uniform_density,
                                squared, 0, far, boundary_samples=64)
    with pytest.raises(ValueError):
        miranda_box_test(sector_state, uniform_region, uniform_density,
                         squared, 0, ((1.0, 1.0), (0.0, 1.0)))


def test_radial_second_moment(uniform_region, uniform_density):
    assert_allclose(radial_second_moment_about(uniform_region, uniform_density,
                                               0.0, (0.0, 0.0)),
                    15.0 / 4.0, rtol=1e-10)
    # by hand: 15/4 + 3/2 - 2 * 7/3
    assert_allclose(radial_second_moment_about(uniform_region, uniform_density,
                                               0.0, (1.0, 0.0)),
                    7.0 / 12.0, rtol=1e-9)


def test_radial_second_moment_expansion_identity(reference_region, reference_density):
    rng = np.random.default_rng(8)
    squared = CostModel("squared_distance")
    for _ in range(4):
        theta = rng.uniform(0.0, TWO_PI)
        point = rng.normal(scale=1.5, size=2)
        via_moments = radial_second_moment_about(reference_region, reference_density,
                                                 theta, point)
        direct = radial_moment(reference_region, reference_density, theta, "cost",
                               cost_model=squared, position=point)
        assert_allclose(via_moments, direct, rtol=1e-8)


def test_hessian_squared(sector_state, uniform_region, uniform_density):
    agents = AgentState(np.array([[1.2, 0.1], [-1.4, 0.0]]), 0.1)
    hessian, rank = cost_hessian(sector_state, agents, uniform_region,
                                 uniform_density, CostModel("squared_distance"), 0)
    assert_allclose(hessian, 2.0 * SECTOR_MASS * np.eye(2), rtol=1e-10)
    assert rank == 2


def test_hessian_generic_matches_analytic(sector_state, uniform_region,
                                          uniform_density):
    agents = AgentState(np.array([[1.2, 0.1], [-1.4, 0.0]]), 0.1)
    hessian, rank = cost_hessian(sector_state, agents, uniform_region,
                                 uniform_density, CostModel("generic_builtin", (0.0,)), 0)
    assert rank == 2
    expected = 2.0 * SECTOR_MASS * np.eye(2)
    assert np.max(np.abs(hessian - expected)) <= 1e-4 * np.max(np.abs(expected))


def test_all_centroids_consistent(reference_region, reference_density):
    state = PartitionState(np.array([0.2, 1.4, 3.3, 5.0]), 0.03)
    stacked = all_centroids(state, reference_region, reference_density)
    for i in range(4):
        assert_allclose(stacked[i],
                        centroid(state, reference_region, reference_density, i),
                        rtol=1e-12)


@st.composite
def slice_probes(draw):
    """Partition with every slice >= 0.05 rad wide, a slice, a probe point, beta."""
    n = draw(st.integers(2, 6))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) + 1e-3
    widths = 0.05 + (TWO_PI - 0.05 * n) * weights / np.sum(weights)
    start = draw(st.floats(0.0, TWO_PI, exclude_max=True))
    phases = start + np.concatenate([[0.0], np.cumsum(widths[:-1])])
    i = draw(st.integers(0, n - 1))
    probe = np.array([draw(st.floats(-3.5, 3.5)), draw(st.floats(-3.5, 3.5))])
    beta = draw(st.floats(0.0, 1.0))
    return PartitionState(phases, 0.03), i, probe, CostModel("generic_builtin", (beta,))


@settings(max_examples=30, deadline=None)
@given(case=slice_probes())
def test_moment_table_cost_terms_match_quadrature(reference_region, reference_density,
                                                  case):
    state, i, probe, model = case

    def oracle(p):
        return subregion_cost(state, reference_region, reference_density, model, i, p)

    moments = cost_table(reference_region, reference_density, model).slice_moments(
        state.wrapped)[:, [i]]
    costs, grads, hessians = slice_cost_terms(moments, probe, model)
    value = oracle(probe)
    assert abs(costs[0] - value) <= 1e-8 * abs(value)

    axes = np.eye(2)
    h = 1e-5
    fd_grad = np.array([(oracle(probe + h * e) - oracle(probe - h * e)) / (2.0 * h)
                        for e in axes])
    assert np.linalg.norm(grads[0] - fd_grad) <= 1e-4 * max(np.linalg.norm(grads[0]), 1e-9)

    h = 1e-3
    fd_hess = np.array([[(oracle(probe + h * a + h * b) - oracle(probe + h * a - h * b)
                          - oracle(probe - h * a + h * b) + oracle(probe - h * a - h * b))
                         / (4.0 * h * h) for b in axes] for a in axes])
    assert np.max(np.abs(hessians[0] - fd_hess)) <= 1e-3 * np.max(np.abs(hessians[0]))

    target = optimal_target(state, reference_region, reference_density, model, i)
    best = oracle(target)
    for angle in np.arange(8) * (TWO_PI / 8.0):
        delta = 0.05 * np.array([math.cos(angle), math.sin(angle)])
        assert oracle(target + delta) >= best
