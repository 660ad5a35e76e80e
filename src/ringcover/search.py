"""Circular anchored-epoch search over a synchronous ring of agent nodes.

The search sweeps K* evenly spaced anchor angles. In epoch k the agent whose
bar is closest to the anchor pins its bar there while the rest of the system
relaxes for a fixed duration; each node then records its slice cost and the
ring floods the per-slice costs with synchronous set-union rounds until
every node holds all N of them. After the last epoch every node selects the
epoch with the least total cost and restores that configuration.

State (bars and positions) carries over between epochs; only the epoch timer
resets. Cost sets hold (agent_id, cost) pairs so that equal costs from
different agents do not collapse during the union.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TWO_PI
from .agents import CostModel, cost_table, slice_cost_terms, total_cost
# SearchConfig and epoch_count_for_tolerance live in sim, whose parser builds
# them; they stay importable from here.
from .sim import SearchConfig, epoch_count_for_tolerance, integrate_system


class GossipProtocolError(RuntimeError):
    """Ring flooding ran longer than the synchronous bound allows."""


def anchor_assignment(wrapped_phases, epoch_index: int, epoch_count: int) -> int:
    """Index of the agent whose bar sits closest to this epoch's anchor angle.

    Distance is circular; ties go to the lowest agent index. Epochs are
    indexed from 0, so the anchor angle is 2*pi*epoch_index/epoch_count.
    """
    if not 0 <= epoch_index < epoch_count:
        raise ValueError("epoch index out of range")
    anchor = TWO_PI * epoch_index / epoch_count
    phases = np.asarray(wrapped_phases, dtype=float)
    offsets = np.abs(((phases - anchor + math.pi) % TWO_PI) - math.pi)
    return int(np.argmin(offsets))


@dataclass
class AgentNode:
    """One agent's local state plus its per-epoch records and cost set."""

    agent_id: int
    phase: float  # unwrapped
    position: np.ndarray
    records: dict = field(default_factory=dict)   # epoch -> (phase, position, slice_cost)
    cost_set: set = field(default_factory=set)    # {(agent_id, slice_cost)}
    cost_totals: dict = field(default_factory=dict)  # epoch -> summed cost


@dataclass(frozen=True)
class RingMessage:
    """Snapshot of a node's cost set sent to its ring successor."""

    sender_id: int
    epoch: int
    payload: frozenset

    def __post_init__(self):
        senders = [agent_id for agent_id, _ in self.payload]
        if len(senders) != len(set(senders)):
            raise ValueError("payload repeats an agent id")


def make_nodes(phases, positions) -> list:
    phases = np.asarray(phases, dtype=float)
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return [AgentNode(i, float(phases[i]), positions[i].copy())
            for i in range(phases.size)]


def run_epoch(nodes, region, density, cost_model: CostModel, epoch_index: int,
              search_config: SearchConfig, kappa_phi: float, kappa_p: float,
              dt: float) -> int:
    """One anchored relaxation epoch; returns the anchor agent's index.

    The anchor bar jumps to the anchor angle (the representative nearest its
    unwrapped phase) and stays pinned for the whole epoch while everything
    else follows the coupled dynamics. At the end each node saves its record
    and seeds its cost set with its own slice cost, from the moment table.
    """
    epoch_count = search_config.epoch_count
    phases = np.array([node.phase for node in nodes])
    positions = np.stack([node.position for node in nodes])
    wrapped = np.mod(phases, TWO_PI)
    anchor_agent = anchor_assignment(wrapped, epoch_index, epoch_count)
    # The anchor angle's representative nearest the bar: no other bar lies
    # between them, so the unwrapped phases stay in cyclic order.
    anchor = TWO_PI * epoch_index / epoch_count
    phases[anchor_agent] = anchor + TWO_PI * round((phases[anchor_agent] - anchor) / TWO_PI)

    phases, positions = integrate_system(
        region, density, cost_model, phases, positions, kappa_phi, kappa_p,
        dt, search_config.epoch_duration, pinned=anchor_agent)

    table = cost_table(region, density, cost_model)
    costs = slice_cost_terms(table.slice_moments(np.mod(phases, TWO_PI)), positions,
                             cost_model)[0]
    for i, node in enumerate(nodes):
        node.phase = float(phases[i])
        node.position = positions[i].copy()
        slice_cost = float(costs[i])
        node.records[epoch_index] = (node.phase, node.position.copy(), slice_cost)
        node.cost_set = {(node.agent_id, slice_cost)}
    return anchor_agent


def gossip_until_stable(nodes, epoch_index: int) -> int:
    """Synchronous ring flooding of the cost sets; returns changing rounds.

    Every round each node sends its set to its successor and unions the
    predecessor's snapshot. The loop stops on the first round in which no set
    changed (one confirming round beyond the N-1 needed on a ring), so the
    return value is N-1 for N > 1 and 0 for a single node. Each node then
    stores the epoch total as the id-ordered sum of its set.
    """
    n = len(nodes)
    rounds = 0
    while True:
        messages = [RingMessage(node.agent_id, epoch_index, frozenset(node.cost_set))
                    for node in nodes]
        changed = False
        for i, node in enumerate(nodes):
            incoming = messages[(i - 1) % n]
            merged = node.cost_set | set(incoming.payload)
            if merged != node.cost_set:
                node.cost_set = merged
                changed = True
        if not changed:
            break
        rounds += 1
        if rounds > n + 1:
            raise GossipProtocolError(
                f"ring flooding still changing after {rounds} rounds with {n} nodes")
    for node in nodes:
        ordered = sorted(node.cost_set)
        node.cost_totals[epoch_index] = float(sum(cost for _, cost in ordered))
    return rounds


def select_and_finalize(nodes, search_config: SearchConfig):
    """Restore the best epoch's configuration on every node.

    Every node holds the same total-cost sequence after gossip, so all select
    the same epoch; ties break toward the earliest epoch. Returns
    (phases, positions, best_total, best_epoch).
    """
    epoch_count = search_config.epoch_count
    reference = nodes[0].cost_totals
    missing = [k for k in range(epoch_count) if k not in reference]
    if missing:
        raise ValueError(f"epochs {missing} have no recorded totals")
    totals = np.array([reference[k] for k in range(epoch_count)])
    best_epoch = int(np.argmin(totals))
    phases = np.empty(len(nodes))
    positions = np.empty((len(nodes), 2))
    for i, node in enumerate(nodes):
        phase, position, _ = node.records[best_epoch]
        node.phase = phase
        node.position = position.copy()
        phases[i] = phase
        positions[i] = position
    return phases, positions, float(totals[best_epoch]), best_epoch


@dataclass
class EpochRecord:
    epoch: int
    anchor_agent: int
    total_cost: float
    gossip_rounds: int
    phases: np.ndarray
    positions: np.ndarray


@dataclass
class SearchResult:
    epochs: list
    final_phases: np.ndarray
    final_positions: np.ndarray
    best_total: float
    best_epoch: int


def run_search(config) -> SearchResult:
    """Full anchored search for a scenario config carrying a search section."""
    if config.search is None:
        raise ValueError("scenario has no search section")
    search_config = config.search
    nodes = make_nodes(config.initial_phases, config.initial_positions)
    records = []
    for k in range(search_config.epoch_count):
        anchor_agent = run_epoch(nodes, config.region, config.density, config.cost,
                                 k, search_config, config.kappa_phi,
                                 config.kappa_p, config.dt)
        rounds = gossip_until_stable(nodes, k)
        records.append(EpochRecord(
            epoch=k,
            anchor_agent=anchor_agent,
            total_cost=nodes[0].cost_totals[k],
            gossip_rounds=rounds,
            phases=np.array([node.phase for node in nodes]),
            positions=np.stack([node.position for node in nodes]),
        ))
    phases, positions, best_total, best_epoch = select_and_finalize(nodes, search_config)
    return SearchResult(records, phases, positions, best_total, best_epoch)


def recompute_total(config, phases, positions) -> float:
    """Re-evaluate the configuration cost by quadrature, independently of the
    moment table that gave the epoch totals (verification path)."""
    return total_cost(phases, positions, config.region, config.density, config.cost)
