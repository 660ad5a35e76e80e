import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import all_centroids, region_and_density, star_regions
from ringcover.agents import subregion_cost
from ringcover.geometry import TWO_PI, moment_table, radial_moment_extrema
from ringcover.partition import (bar_rates, cyclic_difference_form, cyclic_gaps,
                                 decay_constants, imbalance, validate_initial_phases)
from ringcover import sim
from ringcover.sim import _System


@pytest.fixture
def two_bar_phases():
    return np.array([0.0, math.pi / 2.0])


def slice_workloads(phases, region, density):
    return moment_table(region, density).slice_moments(phases)[0]


def bar_pass(phases, region, density, pinned=None):
    """The integrator's bar pass at a partition, kappa_phi 0.03: the system,
    its slice moments and its bar rates there."""
    phases = np.asarray(phases, dtype=float)
    system = _System(region, density, 0.0, len(phases), 0.03, 0.1, pinned)
    moments = system.table.slice_moments(phases)
    return system, moments, bar_rates(moments[0], 0.03, pinned)


def test_workloads_two_bars(two_bar_phases, uniform_region, uniform_density):
    w = slice_workloads(two_bar_phases, uniform_region, uniform_density)
    assert_allclose(w[0], 3.0 * math.pi / 4.0, rtol=1e-10)
    # the second slice runs from pi/2 on to 2*pi
    assert_allclose(w[1], 9.0 * math.pi / 4.0, rtol=1e-10)


def test_workloads_symmetric_quarters(uniform_region, uniform_density):
    phases = np.arange(4) * math.pi / 2.0
    w = slice_workloads(phases, uniform_region, uniform_density)
    assert_allclose(w, 3.0 * math.pi / 4.0, rtol=1e-10)
    assert_allclose(np.mean(w), 3.0 * math.pi / 4.0, rtol=1e-10)


def test_workload_sum_is_total(reference_region, reference_density):
    rng = np.random.default_rng(2)
    phases = np.sort(rng.uniform(0.0, TWO_PI, 6))
    w = slice_workloads(phases, reference_region, reference_density)
    total = moment_table(reference_region, reference_density).totals[0]
    assert_allclose(np.sum(w), total, rtol=1e-12)


def test_rhs_equilibrium_is_zero(uniform_region, uniform_density):
    phases = np.arange(4) * math.pi / 2.0
    _, _, rates = bar_pass(phases, uniform_region, uniform_density)
    assert_allclose(rates, 0.0, atol=1e-14)


def test_rhs_two_bars(two_bar_phases, uniform_region, uniform_density):
    system, moments, rates = bar_pass(two_bar_phases, uniform_region, uniform_density)
    expected = 0.03 * (3.0 * math.pi / 4.0 - 9.0 * math.pi / 4.0)
    assert_allclose(rates, [expected, -expected], rtol=1e-10)
    assert_allclose(rates[0], -0.14137, rtol=1e-4)
    # an RK4 stage of the bar pass sees these rates
    assert np.array_equal(system._stage(two_bar_phases), rates)
    assert np.array_equal(bar_rates(moments[0], 0.03), rates)
    # a pinned bar holds still; the other keeps its rate
    pinned_system, _, pinned = bar_pass(two_bar_phases, uniform_region, uniform_density,
                                        pinned=0)
    assert pinned[0] == 0.0 and pinned_system._stage(two_bar_phases)[0] == 0.0
    assert pinned[1] == rates[1]


def test_rhs_rates_sum_to_zero(reference_region, reference_density):
    rng = np.random.default_rng(3)
    for _ in range(5):
        phases = np.sort(rng.uniform(0.0, TWO_PI, 8))
        rates = bar_rates(slice_workloads(phases, reference_region, reference_density), 0.03)
        assert abs(np.sum(rates)) <= 1e-12 * np.sum(np.abs(rates) + 1e-30)


def test_lyapunov_values(two_bar_phases, uniform_region, uniform_density):
    def lyapunov_value(phases):
        mean = moment_table(uniform_region, uniform_density).totals[0] / len(phases)
        return imbalance(slice_workloads(phases, uniform_region, uniform_density), mean)

    assert lyapunov_value(np.arange(4) * math.pi / 2.0) <= 1e-20
    v = lyapunov_value(two_bar_phases)
    assert_allclose(v, (3.0 * math.pi / 4.0) ** 2, rtol=1e-10)
    assert v >= 0.0
    assert imbalance(np.array([1.0, 2.0, 6.0]), 3.0) == 0.5 * (4.0 + 1.0 + 9.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 8), states=st.one_of(st.none(), st.integers(1, 4)),
       kappa=st.floats(1e-3, 10.0))
def test_bar_rates_is_the_written_out_law(data, n, states, kappa):
    # along the first axis, bit for bit: kappa (m_i - m_{i-1}) with the pinned
    # bar's rate zeroed; with no bar pinned the rates sum to zero
    shape = (n,) if states is None else (n, states)
    workloads = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=math.prod(shape),
                                            max_size=math.prod(shape)))).reshape(shape)
    pinned = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    expected = kappa * (workloads - np.roll(workloads, 1, axis=0))
    free = expected.copy()
    if pinned is not None:
        expected[pinned] = 0.0
    assert np.array_equal(bar_rates(workloads, kappa, pinned), expected)
    rates = bar_rates(workloads, kappa)
    assert np.array_equal(rates, free)
    scale = 8 * n * np.finfo(float).eps * kappa * np.sum(workloads, axis=0)
    assert np.all(np.abs(np.sum(rates, axis=0)) <= scale)


def hand_built_cyclic_form(n: int) -> np.ndarray:
    """S = A'A from the neighbour-difference rows written out one by one
    after eliminating e_N = -(e_1 + ... + e_{N-1})."""
    dim = n - 1
    rows = np.zeros((n, dim))
    rows[0] = 1.0
    rows[0, 0] = 2.0
    for i in range(2, n):
        rows[i - 1, i - 2] = -1.0
        rows[i - 1, i - 1] = 1.0
    rows[n - 1] = 1.0
    rows[n - 1, dim - 1] += 1.0
    return rows.T @ rows


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_form_is_the_hand_built_matrix(n):
    matrix, lam = cyclic_difference_form(n)
    oracle = hand_built_cyclic_form(n)
    assert np.array_equal(matrix, oracle)
    assert lam == float(np.linalg.eigvalsh(oracle)[0])


def test_cyclic_form_small_matrices():
    s2, lam2 = cyclic_difference_form(2)
    assert_allclose(s2, [[8.0]], atol=1e-12)
    assert_allclose(lam2, 8.0, rtol=1e-12)
    s3, lam3 = cyclic_difference_form(3)
    assert_allclose(s3, [[6.0, 3.0], [3.0, 6.0]], atol=1e-12)
    assert_allclose(lam3, 3.0, rtol=1e-12)
    with pytest.raises(ValueError):
        cyclic_difference_form(1)


def test_cyclic_form_matches_difference_sum():
    rng = np.random.default_rng(7)
    for n in range(2, 13):
        matrix, lam = cyclic_difference_form(n)
        assert lam > 0.0
        for _ in range(4):
            e_free = rng.normal(size=n - 1)
            e_full = np.append(e_free, -np.sum(e_free))
            diffs = e_full - np.roll(e_full, 1)
            direct = float(np.sum(diffs ** 2))
            quad = float(e_free @ matrix @ e_free)
            assert abs(direct - quad) <= 1e-10 * max(1.0, abs(direct))


def test_decay_constants_uniform_two_bars(two_bar_phases, uniform_region, uniform_density):
    constants = decay_constants(two_bar_phases, 0.03, uniform_region, uniform_density)
    assert_allclose(constants["c2"], 0.03 * 1.5 * 8.0 / 2.0, rtol=1e-10)
    assert_allclose(constants["c1"], math.sqrt(2.0 * (3.0 * math.pi / 4.0) ** 2),
                    rtol=1e-10)
    c1_eq = decay_constants(np.arange(2) * math.pi, 0.03, uniform_region,
                            uniform_density)["c1"]
    assert c1_eq <= 1e-10


def test_decay_constants_reference_composition(reference_region, reference_density):
    phases = np.sort(np.random.default_rng(0).uniform(0, TWO_PI, 8))
    constants = decay_constants(phases, 0.03, reference_region, reference_density)
    omega_min, omega_max = radial_moment_extrema(reference_region, reference_density)
    _, lam = cyclic_difference_form(8)
    assert_allclose(constants["c2"], 0.03 * omega_min * lam / 8.0, rtol=1e-12)
    assert (constants["lambda_min"], constants["omega_min"],
            constants["omega_max"]) == (lam, omega_min, omega_max)


def equal_share_advance(table, phi, n):
    """The equal-share map: the phase xi whose slice [phi, xi] holds W / N."""
    return table.inverse_cumulative(table.cumulative(phi)[0] + table.totals[0] / n)


def test_equal_share_uniform_quarter(uniform_region, uniform_density):
    xi = equal_share_advance(moment_table(uniform_region, uniform_density), 0.0, 4)
    assert_allclose(xi, math.pi / 2.0, rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(sections=star_regions(), n=st.integers(2, 8),
       phi=st.floats(0.0, TWO_PI, exclude_max=True))
def test_equal_share_closure(sections, n, phi):
    table = moment_table(*region_and_density(sections))
    current = phi
    for _ in range(n):
        current = equal_share_advance(table, current, n)
    assert abs(current - phi - TWO_PI) <= 1e-8


def test_equal_share_reference_dense_inversion(reference_region, reference_density):
    # independent oracle: tabulated cumulative integral on a 1e5-point grid
    n = 100000
    thetas = np.arange(n + 1) * (TWO_PI / n)
    table = moment_table(reference_region, reference_density)
    profile = table.value(thetas)[0]
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (profile[1:] + profile[:-1])
                                                  * (TWO_PI / n))])
    share = cumulative[-1] / 8.0
    xi_oracle = float(np.interp(share, cumulative, thetas))
    xi = equal_share_advance(table, 0.0, 8)
    assert abs(xi - xi_oracle) <= 1e-6


def test_equal_share_residual(reference_region, reference_density):
    table = moment_table(reference_region, reference_density)
    share = table.totals[0] / 8.0
    xi = equal_share_advance(table, 1.3, 8)
    got = table.cumulative(xi)[0, 0] - table.cumulative(np.array([1.3]))[0, 0]
    assert abs(got - share) <= 1e-10 * share


def test_mean_workload(two_bar_phases, uniform_region, uniform_density):
    # the guard's floor is a fixed fraction of the equal share total / N
    system, _, _ = bar_pass(two_bar_phases, uniform_region, uniform_density)
    assert_allclose(system.workload_floor / sim.WORKLOAD_FLOOR_FRACTION,
                    3.0 * math.pi / 2.0, rtol=1e-12)


def test_min_workload_guard(two_bar_phases, uniform_region, uniform_density):
    system, moments, _ = bar_pass(two_bar_phases, uniform_region, uniform_density)
    assert np.array_equal(system.guard(two_bar_phases), moments)
    system.workload_floor = 1.0  # min is 3*pi/4 ~ 2.36
    assert system.guard(two_bar_phases) is not None
    system.workload_floor = 5.0
    assert system.guard(two_bar_phases) is None
    # the floor is strict: a slice holding exactly the floor is rejected
    thin = np.array([1.0, 1.0 + 1e-8])
    system, moments, _ = bar_pass(thin, uniform_region, uniform_density)
    assert system.guard(thin) is not None
    system.workload_floor = float(np.min(moments[0]))
    assert system.guard(thin) is None


def test_validate_initial_phases():
    validate_initial_phases([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        validate_initial_phases([1.0, 0.5])
    with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
        validate_initial_phases([0.0, 7.0])
    with pytest.raises(ValueError, match="not strictly separated"):
        validate_initial_phases([1.0, 1.0 + 1e-9])
    with pytest.raises(ValueError, match="at least two"):
        validate_initial_phases([1.0])


def test_cyclic_gaps():
    assert_allclose(cyclic_gaps([-1.0, 0.5, 2.0]), [1.5, 1.5, TWO_PI - 3.0], rtol=1e-15)
    # rows of a log at once; a crossed pair or a lap too many shows a gap <= 0
    rows = cyclic_gaps([[0.0, 1.0], [1.0, 0.5], [0.0, 7.0]])
    assert_allclose(rows, [[1.0, TWO_PI - 1.0], [-0.5, 0.5 + TWO_PI], [7.0, TWO_PI - 7.0]],
                    rtol=1e-15)
    assert [bool(np.all(row > 0.0)) for row in rows] == [True, False, False]


def test_unwrapped_phases_pick_the_wrapped_slices(reference_region, reference_density):
    # unwrapped phases are the state; a full turn of every bar is the same partition
    phases = np.array([-1.0, 7.0 - TWO_PI])
    wrapped = phases + TWO_PI
    assert_allclose(wrapped, [TWO_PI - 1.0, 7.0], rtol=1e-12)
    args = (reference_region, reference_density)
    assert_allclose(list(decay_constants(phases, 0.03, *args).values()),
                    list(decay_constants(wrapped, 0.03, *args).values()), rtol=1e-12)
    assert_allclose(all_centroids(phases, *args), all_centroids(wrapped, *args), rtol=1e-12)
    squared = 0.0
    # inputs 2*pi apart: the quadrature cost agrees to rounding
    assert_allclose(subregion_cost(phases, *args, squared, 0, (1.5, 0.0)),
                    subregion_cost(wrapped, *args, squared, 0, (1.5, 0.0)), rtol=1e-14)
    # slice 0 runs from -1 through zero to 7 - 2*pi
    assert_allclose(slice_workloads(phases, *args)[0],
                    moment_table(*args).cumulative([7.0 - TWO_PI])[0, 0]
                    - moment_table(*args).cumulative([-1.0])[0, 0], rtol=1e-12)
