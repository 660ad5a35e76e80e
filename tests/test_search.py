import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import star_regions, uniform_scenario_dict
from ringcover import search
from ringcover.agents import (cost_table, slice_cost_terms, subregion_cost,
                              total_cost)
from ringcover.geometry import TWO_PI
from ringcover.search import (anchor_assignment, gossip_until_stable, recompute_total,
                              run_epoch, run_search)
from ringcover.sim import ConfigError, epoch_count_for_tolerance, scenario_from_dict


def test_epoch_count_for_tolerance():
    assert epoch_count_for_tolerance(TWO_PI) == 1
    assert epoch_count_for_tolerance(math.pi) == 2
    assert epoch_count_for_tolerance(0.1) == 63
    # exact division stays exact despite floating point
    assert epoch_count_for_tolerance(TWO_PI / 4.0) == 4
    with pytest.raises(ValueError):
        epoch_count_for_tolerance(0.0)


def test_search_config_resolution():
    def epochs(**search):
        config = scenario_from_dict(uniform_scenario_dict(search={**search,
                                                                  "T_epsilon": 1.0}))
        return config.search.epoch_count

    assert epochs(K_star=8) == 8
    assert epochs(epsilon_p=math.pi) == 2 == epoch_count_for_tolerance(math.pi)
    # a direct count wins over the tolerance
    assert epochs(K_star=5, epsilon_p=math.pi) == 5
    with pytest.raises(ConfigError, match="needs K_star or epsilon_p"):
        epochs()


def test_anchor_assignment():
    assert anchor_assignment([0.1, 2.0, 4.0], 0, 4) == 0
    # circular distance: 6.2 is ~0.083 from zero, closer than 0.1
    assert anchor_assignment([0.1, 6.2], 0, 4) == 1
    # equidistant tie goes to the lower index
    assert anchor_assignment([0.5, TWO_PI - 0.5], 0, 4) == 0
    with pytest.raises(ValueError):
        anchor_assignment([0.1], 4, 4)


def test_gossip_single_node():
    assert gossip_until_stable([0.5]) == (0, 0.5)


def test_gossip_four_ring():
    costs = [i + 0.5 for i in range(4)]
    # N-1 content-changing rounds (plus a confirming one)
    assert gossip_until_stable(costs) == (3, sum(costs))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_gossip_rounds_scale(n):
    costs = np.array([0.1 * (i + 1) for i in range(n)])
    rounds, total = gossip_until_stable(costs)
    assert rounds == n - 1
    # agent order, bit for bit; np.sum adds these eight in another order
    assert total == sum(float(c) for c in costs)


def scripted_search(monkeypatch, totals):
    """The two-agent uniform search over len(totals) epochs whose totals are
    scripted, its config and its result."""

    def scripted_epoch(config, phases, positions, k):
        # halves of each total, so the two-agent sum is exact
        return (0, np.array([0.1 * k, 0.1 * k + 1.0]),
                np.array([[float(k), 0.0], [float(k), 1.0]]), np.full(2, totals[k] / 2))

    monkeypatch.setattr(search, "run_epoch", scripted_epoch)
    config = scenario_from_dict(uniform_scenario_dict(
        search={"K_star": len(totals), "T_epsilon": 1.0}))
    return config, run_search(config)


def test_run_search_tie_breaks_low(monkeypatch):
    totals = [5.0, 4.2, 4.2, 6.0]
    config, result = scripted_search(monkeypatch, totals)
    assert [record.total_cost for record in result.epochs] == totals
    assert result.best.epoch == 1
    assert result.best.total_cost == 4.2
    assert_allclose(result.best.phases, [0.1, 1.1])
    assert_allclose(result.best.positions, [[1.0, 0.0], [1.0, 1.0]])
    single = dataclasses.replace(config, search=dataclasses.replace(config.search,
                                                                    epoch_count=1))
    assert run_search(single).best.epoch == 0


@settings(max_examples=40, deadline=None)
@given(shifts=st.lists(st.floats(-0.45e-14, 0.45e-14), min_size=3, max_size=3))
def test_run_search_best_epoch_is_stable_under_rounding(shifts):
    # totals that agree within a relative 1e-14 tie, and the first of them is
    # the best, however their last bits fall; a total further below wins
    with pytest.MonkeyPatch.context() as monkeypatch:
        totals = [5.0] + [4.2 * (1.0 + shift) for shift in shifts] + [6.0]
        _, result = scripted_search(monkeypatch, totals)
        assert result.best.epoch == 1
        lower = totals[:3] + [4.2 * (1.0 - 3e-14)] + totals[4:]
        assert scripted_search(monkeypatch, lower)[1].best.epoch == 3


def test_bundled_search_best_epoch(search_sweep):
    # on the flat uniform landscape epochs 3 on agree with the least total
    # within 1e-15, and epoch 2 lies ~1e-13 above it: k* = 3 at K* = 8 and 64
    for k_star in (8, 64):
        result = search_sweep[k_star]
        totals = np.array([record.total_cost for record in result.epochs])
        assert (totals[1] - totals.min()) / totals.min() > 1e-13
        assert result.best.epoch + 1 == 3


def epoch_config(kappa_phi: float, duration: float):
    """The uniform two-agent scenario with an anchor grid of 4 and the given
    bar gain (0 decouples the bars) and epoch length."""
    config = scenario_from_dict(uniform_scenario_dict(
        search={"K_star": 4, "T_epsilon": duration}))
    return dataclasses.replace(config, kappa_phi=kappa_phi)


def test_run_epoch_pinning_and_static_bars():
    # kappa_phi = 0 decouples: non-anchor bars must not move
    config = epoch_config(kappa_phi=0.0, duration=5.0)
    initial = np.array(config.initial_phases)
    anchor, phases, positions, costs = run_epoch(config, config.initial_phases,
                                                 config.initial_positions, 0)
    assert anchor == 0
    assert phases[0] == 0.0  # pinned at the anchor angle
    assert phases[1] == pytest.approx(1.9, abs=1e-12)
    assert np.array_equal(config.initial_phases, initial)  # the input is not moved
    assert positions.shape == (2, 2)
    assert np.isfinite(costs).all()


def test_run_epoch_two_bars_opposite():
    config = epoch_config(kappa_phi=0.1, duration=60.0)
    _, phases, _, _ = run_epoch(config, config.initial_phases,
                                config.initial_positions, 0)
    gap = (phases[1] - phases[0]) % TWO_PI
    assert abs(gap - math.pi) <= 1e-6


def test_search_determinism():
    config = scenario_from_dict(uniform_scenario_dict(
        search={"K_star": 3, "T_epsilon": 8.0}))
    first = run_search(config)
    second = run_search(config)
    for a, b in zip(first.epochs, second.epochs):
        assert a.total_cost == b.total_cost
        assert a.anchor_agent == b.anchor_agent
        assert np.array_equal(a.phases, b.phases)
        assert np.array_equal(a.positions, b.positions)
    assert first.best.epoch == second.best.epoch


def test_search_final_cost_recomputes(uniform_region, uniform_density):
    config = scenario_from_dict(uniform_scenario_dict(
        search={"K_star": 2, "T_epsilon": 30.0}))
    result = run_search(config)
    recomputed = total_cost(result.best.phases, result.best.positions, config.region,
                            config.density, config.beta)
    assert abs(recomputed - result.best.total_cost) <= 1e-6 * abs(recomputed)


def test_gossip_totals_match_direct_cost(uniform_region, uniform_density):
    phases = np.array([0.3, 1.1, 2.8, 4.9])
    positions = np.array([[1.5, 0.3], [0.2, 1.4], [-1.5, 0.1], [0.4, -1.5]])
    squared = 0.0
    costs = [subregion_cost(phases, uniform_region, uniform_density, squared, i,
                            positions[i]) for i in range(4)]
    _, total = gossip_until_stable(costs)
    direct = total_cost(phases, positions, uniform_region, uniform_density, squared)
    assert total == pytest.approx(direct, rel=1e-8)


def test_monotone_refinement_nested_anchors():
    # anchor sets nest when the epoch count doubles; longer relaxation makes
    # the per-anchor limits effectively exact, so the best cost cannot rise
    best = {}
    for k in (4, 8):
        config = scenario_from_dict(uniform_scenario_dict(
            search={"K_star": k, "T_epsilon": 20.0}))
        best[k] = run_search(config).best.total_cost
    assert best[8] <= best[4] + 1e-6


@st.composite
def search_scenarios(draw):
    """A `star_regions` region and density, N in [2, 4], K* in [1, 3] and an
    epoch of 1 to 20 steps."""
    dt = 0.05
    return {
        **draw(star_regions()),
        "agents": {"count": draw(st.integers(2, 4))},
        "gains": {"kappa_phi": 0.03, "kappa_p": 0.5},
        "integrator": {"dt": dt, "t_end": dt},
        "search": {"K_star": draw(st.integers(1, 3)),
                   "T_epsilon": dt * draw(st.integers(1, 20))},
        "seed": draw(st.integers(0, 2 ** 16)),
    }


@settings(max_examples=12, deadline=None)
@given(data=search_scenarios())
def test_recomputed_total_equals_reported_best(data):
    # epoch totals come from the moment table, the recomputed total from
    # adaptive quadrature: two independent evaluators of the same J
    config = scenario_from_dict(data)
    result = run_search(config)
    least = min(record.total_cost for record in result.epochs)
    ties = [record.epoch for record in result.epochs
            if record.total_cost - least <= search.TOTAL_TIE_RTOL * least]
    assert result.best.epoch == ties[0]
    recomputed = recompute_total(config, result.best.phases, result.best.positions)
    assert abs(recomputed - result.best.total_cost) <= 1e-8 * abs(recomputed)


@settings(max_examples=10, deadline=None)
@given(data=search_scenarios(), beta=st.sampled_from([0.0, 0.25]),
       epoch=st.integers(0, 2))
def test_epoch_costs_are_the_table_costs_at_the_epoch_end(data, beta, epoch):
    # the costs that the epoch's last step gives are the costs of a fresh
    # table lookup at the epoch's end state, bit for bit
    config = scenario_from_dict({**data, "cost": {"kind": "generic_builtin",
                                                  "parameters": [beta]}})
    _, phases, positions, costs = run_epoch(config, config.initial_phases,
                                            config.initial_positions,
                                            epoch % config.search.epoch_count)
    table = cost_table(config.region, config.density, config.beta)
    expected = slice_cost_terms(table.slice_moments(phases), positions, config.beta)[0]
    assert np.array_equal(costs, expected)
