import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import uniform_scenario_dict
from ringcover.agents import CostModel, subregion_cost, total_cost
from ringcover.geometry import TWO_PI
from ringcover.search import (AgentNode, RingMessage, SearchConfig,
                              anchor_assignment, epoch_count_for_tolerance,
                              gossip_until_stable, make_nodes, recompute_total,
                              run_epoch, run_search, select_and_finalize)
from ringcover.sim import ConfigError, scenario_from_dict


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


def test_ring_message_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        RingMessage(0, 0, frozenset({(1, 2.0), (1, 3.0)}))
    RingMessage(0, 0, frozenset({(1, 2.0), (2, 2.0)}))  # equal costs are fine


def _gossip_ring(n):
    nodes = [AgentNode(i, 0.0, np.zeros(2)) for i in range(n)]
    for node in nodes:
        node.cost_set = {(node.agent_id, float(node.agent_id) + 0.5)}
    return nodes


def test_gossip_single_node():
    nodes = _gossip_ring(1)
    assert gossip_until_stable(nodes, 0) == 0
    assert nodes[0].cost_totals[0] == 0.5


def test_gossip_four_ring():
    nodes = _gossip_ring(4)
    rounds = gossip_until_stable(nodes, 0)
    assert rounds == 3  # N-1 content-changing rounds (plus a confirming one)
    expected_total = sum(i + 0.5 for i in range(4))
    for node in nodes:
        assert len(node.cost_set) == 4
        assert node.cost_totals[0] == pytest.approx(expected_total, rel=1e-15)
    totals = {node.cost_totals[0] for node in nodes}
    assert len(totals) == 1


@pytest.mark.parametrize("n", [2, 4, 8])
def test_gossip_rounds_scale(n):
    nodes = _gossip_ring(n)
    rounds = gossip_until_stable(nodes, 0)
    assert rounds == max(0, n - 1)
    assert all(len(node.cost_set) == n for node in nodes)


def test_select_and_finalize_tie_breaks_low():
    nodes = [AgentNode(i, 0.0, np.zeros(2)) for i in range(2)]
    totals = [5.0, 4.2, 4.2, 6.0]
    for k, value in enumerate(totals):
        for i, node in enumerate(nodes):
            node.records[k] = (0.1 * k + i, np.array([float(k), float(i)]), value / 2)
            node.cost_totals[k] = value
    config = SearchConfig(epoch_count=4)
    phases, positions, best, best_epoch = select_and_finalize(nodes, config)
    assert best_epoch == 1
    assert best == 4.2
    assert_allclose(phases, [0.1, 1.1])
    assert_allclose(positions[0], [1.0, 0.0])
    single = SearchConfig(epoch_count=1)
    for node in nodes:
        node.cost_totals = {0: 9.0}
    assert select_and_finalize(nodes, single)[3] == 0


def test_run_epoch_pinning_and_static_bars(uniform_region, uniform_density):
    # kappa_phi = 0 decouples: non-anchor bars must not move
    nodes = make_nodes([0.4, 1.9], [[1.5, 0.3], [-1.4, 0.2]])
    config = SearchConfig(epoch_count=4, epoch_duration=5.0)
    anchor = run_epoch(nodes, uniform_region, uniform_density,
                       CostModel("squared_distance"), 0, config,
                       kappa_phi=0.0, kappa_p=0.5, dt=0.05)
    assert anchor == 0
    assert nodes[0].phase == 0.0  # pinned at the anchor angle
    assert nodes[1].phase == pytest.approx(1.9, abs=1e-12)
    for node in nodes:
        assert math.isfinite(node.records[0][2])


def test_run_epoch_two_bars_opposite(uniform_region, uniform_density):
    nodes = make_nodes([0.4, 1.9], [[1.5, 0.3], [-1.4, 0.2]])
    config = SearchConfig(epoch_count=4, epoch_duration=60.0)
    run_epoch(nodes, uniform_region, uniform_density, CostModel("squared_distance"),
              0, config, kappa_phi=0.1, kappa_p=0.5, dt=0.05)
    gap = (nodes[1].phase - nodes[0].phase) % TWO_PI
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
    assert first.best_epoch == second.best_epoch


def test_search_final_cost_recomputes(uniform_region, uniform_density):
    config = scenario_from_dict(uniform_scenario_dict(
        search={"K_star": 2, "T_epsilon": 30.0}))
    result = run_search(config)
    recomputed = total_cost(result.final_phases, result.final_positions, config.region,
                            config.density, config.cost)
    assert abs(recomputed - result.best_total) <= 1e-6 * abs(recomputed)


def test_gossip_totals_match_direct_cost(uniform_region, uniform_density):
    phases = np.array([0.3, 1.1, 2.8, 4.9])
    positions = np.array([[1.5, 0.3], [0.2, 1.4], [-1.5, 0.1], [0.4, -1.5]])
    squared = CostModel("squared_distance")
    nodes = make_nodes(phases, positions)
    for i, node in enumerate(nodes):
        slice_cost = subregion_cost(phases, uniform_region, uniform_density,
                                    squared, i, positions[i])
        node.records[0] = (node.phase, node.position.copy(), slice_cost)
        node.cost_set = {(node.agent_id, slice_cost)}
    gossip_until_stable(nodes, 0)
    direct = total_cost(phases, positions, uniform_region, uniform_density, squared)
    for node in nodes:
        assert node.cost_totals[0] == pytest.approx(direct, rel=1e-8)


def test_monotone_refinement_nested_anchors():
    # anchor sets nest when the epoch count doubles; longer relaxation makes
    # the per-anchor limits effectively exact, so the best cost cannot rise
    best = {}
    for k in (4, 8):
        config = scenario_from_dict(uniform_scenario_dict(
            search={"K_star": k, "T_epsilon": 20.0}))
        best[k] = run_search(config).best_total
    assert best[8] <= best[4] + 1e-6


@st.composite
def search_scenarios(draw):
    """Star-shaped region (inner mean plus one harmonic, circular outer curve
    strictly outside), uniform or reference density, N in [2, 4], K* in [1, 3]
    and an epoch of 1 to 20 steps."""
    inner = draw(st.floats(0.5, 1.5))
    harmonic = [0.0] * draw(st.integers(0, 2)) + [draw(st.floats(-0.4, 0.4)) * inner]
    curve = {"mean": inner, draw(st.sampled_from(["cos", "sin"])): harmonic}
    outer = inner + abs(harmonic[-1]) + draw(st.floats(0.2, 1.5))
    dt = 0.05
    return {
        "region": {"inner": curve, "outer": {"mean": outer}},
        "density": draw(st.sampled_from([{"kind": "uniform", "parameters": [1.0]},
                                         {"kind": "reference", "parameters": [0.01]}])),
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
    assert result.best_total == min(record.total_cost for record in result.epochs)
    recomputed = recompute_total(config, result.final_phases, result.final_positions)
    assert abs(recomputed - result.best_total) <= 1e-8 * abs(recomputed)
