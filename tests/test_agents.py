import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ringcover.agents import (CostModel, DegenerateSubregionError, all_centroids,
                              cost_table, gradient_at, miranda_box_test,
                              optimal_targets, slice_centroids, slice_cost_terms,
                              subregion_cost, total_cost)
from ringcover.geometry import TWO_PI, moment_table, radial_moment
from ringcover.sim import _System

SECTOR_CENTROID_X = 28.0 * math.sqrt(2.0) / (9.0 * math.pi)
SECTOR_MASS = 3.0 * math.pi / 4.0


@pytest.fixture
def sector_phases():
    # slice 0 spans [-pi/4, pi/4] through zero (wrap branch exercised)
    return np.array([7.0 * math.pi / 4.0, math.pi / 4.0])


def slice_moments(phases, region, density, cost_model=CostModel()):
    """Table rows of every slice, shape (rows, N), for `cost_model`."""
    return cost_table(region, density, cost_model).slice_moments(np.mod(phases, TWO_PI))


def test_centroid_sector_closed_form(sector_phases, uniform_region, uniform_density):
    c = all_centroids(sector_phases, uniform_region, uniform_density)[0]
    assert_allclose(c, [SECTOR_CENTROID_X, 0.0], atol=1e-10)


def test_centroid_near_full_circle(uniform_region, uniform_density):
    c = all_centroids(np.array([0.0, TWO_PI - 1e-9]), uniform_region, uniform_density)[0]
    assert np.linalg.norm(c) <= 1e-6


def test_centroid_rotational_equivariance(uniform_region, uniform_density):
    alpha = 0.8
    base = np.array([7.0 * math.pi / 4.0, math.pi / 4.0])
    rotated = base + alpha
    c0 = all_centroids(base, uniform_region, uniform_density)[0]
    c1 = all_centroids(rotated, uniform_region, uniform_density)[0]
    rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                    [math.sin(alpha), math.cos(alpha)]])
    assert_allclose(c1, rot @ c0, atol=1e-10)


def test_centroid_degenerate_slice(uniform_region, uniform_density):
    with pytest.raises(DegenerateSubregionError):
        all_centroids(np.array([1.0, 1.0]), uniform_region, uniform_density)


def test_cost_model_zero_at_event():
    for model in (CostModel("squared_distance"), CostModel("generic_builtin", (0.3,))):
        assert model.value(np.array([0.4, -0.2]), 0.4, -0.2) == 0.0


def test_total_cost_full_circle_origin(uniform_region, uniform_density):
    # both agents at the origin: slice costs add up to the full-circle integral
    value = total_cost(np.array([0.0, math.pi]), np.zeros((2, 2)), uniform_region,
                       uniform_density, CostModel("squared_distance"))
    assert_allclose(value, 15.0 * math.pi / 2.0, rtol=1e-8)
    with pytest.raises(ValueError, match="3 positions for 2 bars"):
        total_cost(np.array([0.0, math.pi]), np.zeros((3, 2)), uniform_region,
                   uniform_density, CostModel("squared_distance"))


def test_squared_distance_cost_matches_quadrature(reference_region, reference_density):
    rng = np.random.default_rng(4)
    phases = np.sort(rng.uniform(0.0, TWO_PI, 4))
    positions = rng.uniform(-1.0, 1.0, (4, 2)) + np.array([2.0, 0.0])
    moments = slice_moments(phases, reference_region, reference_density)
    costs, _, _ = slice_cost_terms(moments, positions, CostModel("squared_distance"))
    fast = float(np.sum(costs))
    slow = total_cost(phases, positions, reference_region, reference_density,
                      CostModel("squared_distance"))
    assert_allclose(fast, slow, rtol=1e-8)


def test_parallel_axis_identity(reference_region, reference_density):
    rng = np.random.default_rng(6)
    squared = CostModel("squared_distance")
    for _ in range(3):
        phases = np.sort(rng.uniform(0.0, TWO_PI, 3))
        centroids = all_centroids(phases, reference_region, reference_density)
        positions = centroids + rng.normal(scale=0.2, size=(3, 2))
        total = total_cost(phases, positions, reference_region, reference_density,
                           squared)
        spread = sum(subregion_cost(phases, reference_region, reference_density,
                                    squared, i, centroids[i])
                     for i in range(3))
        carried = 0.0
        w = slice_moments(phases, reference_region, reference_density)[0]
        for i in range(3):
            offset = positions[i] - centroids[i]
            carried += w[i] * float(offset @ offset)
        assert abs(total - spread - carried) <= 1e-6 * abs(total)


def test_gradient_zero_at_centroid(sector_phases, uniform_region, uniform_density):
    c = all_centroids(sector_phases, uniform_region, uniform_density)[0]
    g = gradient_at(sector_phases, uniform_region, uniform_density,
                    CostModel("squared_distance"), 0, c)
    assert_allclose(g, [0.0, 0.0], atol=1e-12)


def test_gradient_sector_closed_form(sector_phases, uniform_region, uniform_density):
    g = gradient_at(sector_phases, uniform_region, uniform_density,
                    CostModel("squared_distance"), 0, np.zeros(2))
    assert_allclose(g, [-2.0 * SECTOR_MASS * SECTOR_CENTROID_X, 0.0], atol=1e-9)
    assert_allclose(g[0], -6.5997, rtol=1e-4)


def test_gradient_finite_difference_generic(sector_phases, uniform_region,
                                            uniform_density):
    model = CostModel("generic_builtin", (0.25,))
    position = np.array([1.1, 0.2])
    g = gradient_at(sector_phases, uniform_region, uniform_density, model, 0, position)
    step = 1e-5
    fd = np.empty(2)
    for axis in range(2):
        offset = np.zeros(2)
        offset[axis] = step
        f_plus = subregion_cost(sector_phases, uniform_region, uniform_density,
                                model, 0, position + offset)
        f_minus = subregion_cost(sector_phases, uniform_region, uniform_density,
                                 model, 0, position - offset)
        fd[axis] = (f_plus - f_minus) / (2.0 * step)
    assert np.linalg.norm(g - fd) <= 1e-4 * np.linalg.norm(g)


def test_control_input(sector_phases, uniform_region, uniform_density):
    # the integrator's agent velocity is -kappa_p * (p - target)
    system = _System(uniform_region, uniform_density, CostModel(), 2, 0.03, 0.1)

    def velocity(positions):
        ev = system.evaluate(np.concatenate([sector_phases, np.ravel(positions)]))
        return ev.targets, ev.derivative[2:].reshape(2, 2)

    targets, _ = velocity(np.zeros((2, 2)))
    positions = targets + [[1.0, 0.0], [0.0, 1.0]]
    _, v = velocity(positions)
    assert np.array_equal(v, -0.1 * (positions - targets))
    # p - target rounds the unit offsets
    assert_allclose(v, [[-0.1, 0.0], [0.0, -0.1]], rtol=1e-12, atol=1e-15)
    _, v = velocity(targets)
    assert np.array_equal(v, np.zeros((2, 2)))
    # linear in the offset
    _, va = velocity(targets + [[2.0, -1.0], [0.0, 1.0]])
    _, vb = velocity(targets + [[4.0, -2.0], [0.0, 1.0]])
    assert_allclose(vb[0], 2.0 * va[0], rtol=1e-12)


def optimal_target(phases, region, density, cost_model, i):
    """Slice i's optimal serving point from the batched Newton solve."""
    return optimal_targets(slice_moments(phases, region, density, cost_model),
                           cost_model)[i]


def test_optimal_target_squared_is_centroid(sector_phases, uniform_region,
                                            uniform_density):
    target = optimal_target(sector_phases, uniform_region, uniform_density,
                            CostModel("squared_distance"), 0)
    c = all_centroids(sector_phases, uniform_region, uniform_density)[0]
    assert np.array_equal(target, c)


def test_optimal_target_generic_path_matches_centroid(sector_phases, uniform_region,
                                                      uniform_density):
    target = optimal_target(sector_phases, uniform_region, uniform_density,
                            CostModel("generic_builtin", (0.0,)), 0)
    c = all_centroids(sector_phases, uniform_region, uniform_density)[0]
    assert np.linalg.norm(target - c) <= 1e-6


def test_optimal_target_symmetric_slice_on_axis(sector_phases, uniform_region,
                                                uniform_density):
    target = optimal_target(sector_phases, uniform_region, uniform_density,
                            CostModel("generic_builtin", (0.25,)), 0)
    assert abs(target[1]) <= 1e-6
    assert uniform_region.contains(target)


def test_miranda_certificate(sector_phases, uniform_region, uniform_density):
    squared = CostModel("squared_distance")
    c = all_centroids(sector_phases, uniform_region, uniform_density)[0]
    box = ((c[0] - 0.1, c[0] + 0.1), (c[1] - 0.1, c[1] + 0.1))
    assert miranda_box_test(sector_phases, uniform_region, uniform_density,
                            squared, 0, box, boundary_samples=64)
    # stable across sampling resolutions
    assert miranda_box_test(sector_phases, uniform_region, uniform_density,
                            squared, 0, box, boundary_samples=4)
    assert miranda_box_test(sector_phases, uniform_region, uniform_density,
                            squared, 0, box, boundary_samples=256)
    far = ((3.0, 3.2), (-0.1, 0.1))
    assert not miranda_box_test(sector_phases, uniform_region, uniform_density,
                                squared, 0, far, boundary_samples=64)
    with pytest.raises(ValueError):
        miranda_box_test(sector_phases, uniform_region, uniform_density,
                         squared, 0, ((1.0, 1.0), (0.0, 1.0)))


def radial_second_moment_about(region, density, theta, point):
    """int |s - q|^2 rho r dr along the ray at theta, from the table's point
    values expanded as in the simulator's stability diagnostic."""
    plain, x, y, r2 = moment_table(region, density).value([theta])[:, 0]
    s = np.asarray(point, dtype=float)
    return r2 + float(s @ s) * plain - 2.0 * (s[0] * x + s[1] * y)


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


def slice_hessians(phases, region, density, cost_model, positions):
    """Exact Hessian of every slice cost at its agent's position."""
    return slice_cost_terms(slice_moments(phases, region, density, cost_model),
                            positions, cost_model)[2]


def test_hessian_squared(sector_phases, uniform_region, uniform_density):
    positions = np.array([[1.2, 0.1], [-1.4, 0.0]])
    hessian = slice_hessians(sector_phases, uniform_region, uniform_density,
                             CostModel("squared_distance"), positions)[0]
    assert_allclose(hessian, 2.0 * SECTOR_MASS * np.eye(2), rtol=1e-10)
    # rank counts singular values above 1e-8 of the largest
    assert np.linalg.matrix_rank(hessian, tol=1e-8 * np.linalg.norm(hessian, 2)) == 2


def test_hessian_generic_matches_analytic(sector_phases, uniform_region,
                                          uniform_density):
    positions = np.array([[1.2, 0.1], [-1.4, 0.0]])
    hessian = slice_hessians(sector_phases, uniform_region, uniform_density,
                             CostModel("generic_builtin", (0.0,)), positions)[0]
    # rank counts singular values above 1e-8 of the largest
    assert np.linalg.matrix_rank(hessian, tol=1e-8 * np.linalg.norm(hessian, 2)) == 2
    expected = 2.0 * SECTOR_MASS * np.eye(2)
    assert np.max(np.abs(hessian - expected)) <= 1e-4 * np.max(np.abs(expected))


def test_all_centroids_consistent(reference_region, reference_density):
    phases = np.array([0.2, 1.4, 3.3, 5.0])
    stacked = all_centroids(phases, reference_region, reference_density)
    moments = slice_moments(phases, reference_region, reference_density)
    assert np.array_equal(stacked, slice_centroids(moments))
    assert np.array_equal(stacked, optimal_targets(moments, CostModel()))
    for i in range(4):
        # slice i alone: the formulas do not mix slices
        assert_allclose(stacked[i], slice_centroids(moments[:, [i]])[0], rtol=1e-12)
        assert_allclose(stacked[i], optimal_targets(moments[:, [i]], CostModel())[0],
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
    return phases, i, probe, CostModel("generic_builtin", (beta,))


@settings(max_examples=30, deadline=None)
@given(case=slice_probes())
def test_moment_table_cost_terms_match_quadrature(reference_region, reference_density,
                                                  case):
    phases, i, probe, model = case

    def oracle(p):
        return subregion_cost(phases, reference_region, reference_density, model, i, p)

    moments = slice_moments(phases, reference_region, reference_density, model)[:, [i]]
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

    target = optimal_targets(moments, model)[0]
    best = oracle(target)
    for angle in np.arange(8) * (TWO_PI / 8.0):
        delta = 0.05 * np.array([math.cos(angle), math.sin(angle)])
        assert oracle(target + delta) >= best
