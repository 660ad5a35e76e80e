import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import all_centroids, region_and_density, star_regions
from ringcover.agents import (cost_table, cost_weight, optimal_targets,
                              slice_centroids, slice_cost_terms, subregion_cost,
                              total_cost)
from ringcover.geometry import TWO_PI, _radial_batch, moment_table
from ringcover.sim import _Bars, _System

SECTOR_CENTROID_X = 28.0 * math.sqrt(2.0) / (9.0 * math.pi)
SECTOR_MASS = 3.0 * math.pi / 4.0


@pytest.fixture
def sector_phases():
    # slice 0 spans [-pi/4, pi/4] through zero
    return np.array([-math.pi / 4.0, math.pi / 4.0])


def slice_moments(phases, region, density, beta=0.0):
    """Table rows of every slice, shape (rows, N), for `beta`."""
    return cost_table(region, density, beta).slice_moments(phases)


def slice_gradient(phases, region, density, beta, i, position):
    """Gradient of the slice-i cost at an arbitrary probe position."""
    moments = slice_moments(phases, region, density, beta)[:, [i]]
    return slice_cost_terms(moments, position, beta)[1][0]


def test_centroid_sector_closed_form(sector_phases, uniform_region, uniform_density):
    c = all_centroids(sector_phases, uniform_region, uniform_density)[0]
    assert_allclose(c, [SECTOR_CENTROID_X, 0.0], atol=1e-10)


def test_centroid_near_full_circle(uniform_region, uniform_density):
    c = all_centroids(np.array([0.0, TWO_PI - 1e-9]), uniform_region, uniform_density)[0]
    assert np.linalg.norm(c) <= 1e-6


def test_centroid_rotational_equivariance(uniform_region, uniform_density):
    alpha = 0.8
    base = np.array([-math.pi / 4.0, math.pi / 4.0])
    rotated = base + alpha
    c0 = all_centroids(base, uniform_region, uniform_density)[0]
    c1 = all_centroids(rotated, uniform_region, uniform_density)[0]
    rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                    [math.sin(alpha), math.cos(alpha)]])
    assert_allclose(c1, rot @ c0, atol=1e-10)


def test_cost_model_zero_at_event():
    # the event (1.5, 0) at r = 1.5, theta = 0, where cos and sin are exact
    for beta in (0.0, 0.3):
        assert cost_weight(beta, np.array([1.5, 0.0]))(1.5, 0.0) == 0.0


def test_total_cost_full_circle_origin(uniform_region, uniform_density):
    # both agents at the origin: slice costs add up to the full-circle integral
    value = total_cost(np.array([0.0, math.pi]), np.zeros((2, 2)), uniform_region,
                       uniform_density, 0.0)
    assert_allclose(value, 15.0 * math.pi / 2.0, rtol=1e-8)
    with pytest.raises(ValueError, match="3 positions for 2 bars"):
        total_cost(np.array([0.0, math.pi]), np.zeros((3, 2)), uniform_region,
                   uniform_density, 0.0)


def test_squared_distance_cost_matches_quadrature(reference_region, reference_density):
    rng = np.random.default_rng(4)
    phases = np.sort(rng.uniform(0.0, TWO_PI, 4))
    positions = rng.uniform(-1.0, 1.0, (4, 2)) + np.array([2.0, 0.0])
    moments = slice_moments(phases, reference_region, reference_density)
    costs, _, _ = slice_cost_terms(moments, positions, 0.0)
    fast = float(np.sum(costs))
    slow = total_cost(phases, positions, reference_region, reference_density,
                      0.0)
    assert_allclose(fast, slow, rtol=1e-8)


def test_parallel_axis_identity(reference_region, reference_density):
    rng = np.random.default_rng(6)
    squared = 0.0
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
    g = slice_gradient(sector_phases, uniform_region, uniform_density,
                       0.0, 0, c)
    assert_allclose(g, [0.0, 0.0], atol=1e-12)


def test_gradient_sector_closed_form(sector_phases, uniform_region, uniform_density):
    g = slice_gradient(sector_phases, uniform_region, uniform_density,
                       0.0, 0, np.zeros(2))
    assert_allclose(g, [-2.0 * SECTOR_MASS * SECTOR_CENTROID_X, 0.0], atol=1e-9)
    assert_allclose(g[0], -6.5997, rtol=1e-4)


def test_gradient_finite_difference_generic(sector_phases, uniform_region,
                                            uniform_density):
    beta = 0.25
    position = np.array([1.1, 0.2])
    g = slice_gradient(sector_phases, uniform_region, uniform_density, beta, 0, position)
    step = 1e-5
    fd = np.empty(2)
    for axis in range(2):
        offset = np.zeros(2)
        offset[axis] = step
        f_plus = subregion_cost(sector_phases, uniform_region, uniform_density,
                                beta, 0, position + offset)
        f_minus = subregion_cost(sector_phases, uniform_region, uniform_density,
                                 beta, 0, position - offset)
        fd[axis] = (f_plus - f_minus) / (2.0 * step)
    assert np.linalg.norm(g - fd) <= 1e-4 * np.linalg.norm(g)


def test_control_input(sector_phases, uniform_region, uniform_density):
    # the agent pass is RK4 on p' = -kappa_p * (p - target): with the bars
    # still (kappa_phi = 0) the targets are fixed, and one step of dt scales
    # the offset from the target by the degree-4 Taylor polynomial of
    # exp(-kappa_p dt)
    system = _System(uniform_region, uniform_density, 0.0, 2, 0.0, 0.1)
    moments = system.table.slice_moments(sector_phases)
    targets = optimal_targets(moments, 0.0)
    block = []
    system.advance(_Bars(sector_phases, moments), 0.5, block)
    assert len(block) == 1

    def step(positions):
        moved, end_targets = system.track(positions, targets, block)
        assert np.array_equal(end_targets, targets)
        return moved

    z = -0.1 * 0.5
    growth = 1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    offsets = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert_allclose(step(targets + offsets) - targets, growth * offsets,
                    rtol=1e-14, atol=1e-15)
    # an agent at its target stays there, up to rounding
    assert_allclose(step(targets), targets, rtol=1e-15, atol=1e-15)
    # linear in the offset
    moved_a = step(targets + [[2.0, -1.0], [0.0, 1.0]]) - targets
    moved_b = step(targets + [[4.0, -2.0], [0.0, 1.0]]) - targets
    assert_allclose(moved_b[0], 2.0 * moved_a[0], rtol=1e-14)


def optimal_target(phases, region, density, beta, i):
    """Slice i's optimal serving point from the batched Newton solve."""
    return optimal_targets(slice_moments(phases, region, density, beta),
                           beta)[i]


def test_optimal_target_squared_is_centroid(sector_phases, uniform_region,
                                            uniform_density):
    target = optimal_target(sector_phases, uniform_region, uniform_density,
                            0.0, 0)
    c = all_centroids(sector_phases, uniform_region, uniform_density)[0]
    assert np.array_equal(target, c)


def test_optimal_target_generic_path_matches_centroid(sector_phases, uniform_region,
                                                      uniform_density):
    target = optimal_target(sector_phases, uniform_region, uniform_density,
                            0.0, 0)
    c = all_centroids(sector_phases, uniform_region, uniform_density)[0]
    assert np.linalg.norm(target - c) <= 1e-6


def test_optimal_target_symmetric_slice_on_axis(sector_phases, uniform_region,
                                                uniform_density):
    target = optimal_target(sector_phases, uniform_region, uniform_density,
                            0.25, 0)
    assert abs(target[1]) <= 1e-6
    assert uniform_region.contains(target)


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
    squared = 0.0
    for _ in range(4):
        theta = rng.uniform(0.0, TWO_PI)
        point = rng.normal(scale=1.5, size=2)
        via_moments = radial_second_moment_about(reference_region, reference_density,
                                                 theta, point)
        direct = _radial_batch(reference_region, reference_density, theta,
                               (cost_weight(squared, point),))[0]
        assert_allclose(via_moments, direct[0], rtol=1e-8)


def slice_hessians(phases, region, density, beta, positions):
    """Exact Hessian of every slice cost at its agent's position."""
    return slice_cost_terms(slice_moments(phases, region, density, beta),
                            positions, beta)[2]


def test_hessian_squared(sector_phases, uniform_region, uniform_density):
    positions = np.array([[1.2, 0.1], [-1.4, 0.0]])
    hessian = slice_hessians(sector_phases, uniform_region, uniform_density,
                             0.0, positions)[0]
    assert_allclose(hessian, 2.0 * SECTOR_MASS * np.eye(2), rtol=1e-10)
    # rank counts singular values above 1e-8 of the largest
    assert np.linalg.matrix_rank(hessian, tol=1e-8 * np.linalg.norm(hessian, 2)) == 2


def test_hessian_generic_matches_analytic(sector_phases, uniform_region,
                                          uniform_density):
    positions = np.array([[1.2, 0.1], [-1.4, 0.0]])
    hessian = slice_hessians(sector_phases, uniform_region, uniform_density,
                             0.0, positions)[0]
    # rank counts singular values above 1e-8 of the largest
    assert np.linalg.matrix_rank(hessian, tol=1e-8 * np.linalg.norm(hessian, 2)) == 2
    expected = 2.0 * SECTOR_MASS * np.eye(2)
    assert np.max(np.abs(hessian - expected)) <= 1e-4 * np.max(np.abs(expected))


def test_all_centroids_consistent(reference_region, reference_density):
    phases = np.array([0.2, 1.4, 3.3, 5.0])
    stacked = all_centroids(phases, reference_region, reference_density)
    moments = slice_moments(phases, reference_region, reference_density)
    assert np.array_equal(stacked, slice_centroids(moments))
    assert np.array_equal(stacked, optimal_targets(moments, 0.0))
    for i in range(4):
        # slice i alone: the formulas do not mix slices
        assert_allclose(stacked[i], slice_centroids(moments[:, [i]])[0], rtol=1e-12)
        assert_allclose(stacked[i], optimal_targets(moments[:, [i]], 0.0)[0],
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
    return phases, i, probe, beta


@settings(max_examples=30, deadline=None)
@given(sections=star_regions(), case=slice_probes())
def test_moment_table_cost_terms_match_quadrature(sections, case):
    region, density = region_and_density(sections)
    phases, i, probe, beta = case

    def oracle(p):
        return subregion_cost(phases, region, density, beta, i, p)

    moments = slice_moments(phases, region, density, beta)[:, [i]]
    costs, grads, hessians = slice_cost_terms(moments, probe, beta)
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

    target = optimal_targets(moments, beta)[0]
    best = oracle(target)
    for angle in np.arange(8) * (TWO_PI / 8.0):
        delta = 0.05 * np.array([math.cos(angle), math.sin(angle)])
        assert oracle(target + delta) >= best
