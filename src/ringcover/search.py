"""Circular anchored-epoch search over a synchronous ring of agents.

The search sweeps K* evenly spaced anchor angles. In epoch k the agent whose
bar is closest to the anchor pins its bar there while the rest of the system
relaxes for a fixed duration; each agent then knows its own slice cost and
the ring floods the costs in synchronous rounds until every agent holds all
N of them. After the last epoch every agent selects the epoch with the least
total cost and restores that configuration.

State (bars and positions) carries over between epochs; only the epoch timer
resets. An epoch steps the coverage run's own loop (`sim.integrate_system`)
with the anchor bar pinned: the bar pass steps the phases with the anchor's
rate zeroed, and the agent pass moves the positions once per block of
steps, as no record is logged within an epoch. Its slice costs come from the
slice moments of the epoch's last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI
from .agents import slice_cost_terms, total_cost
from .sim import integrate_system

TOTAL_TIE_RTOL = 1e-14  # epoch totals this close to the least, relatively, tie


def anchor_assignment(phases, epoch_index: int, epoch_count: int) -> int:
    """Index of the agent whose bar sits closest to this epoch's anchor angle.

    Distance is circular; ties go to the lowest agent index. Epochs are
    indexed from 0, so the anchor angle is 2*pi*epoch_index/epoch_count.
    """
    if not 0 <= epoch_index < epoch_count:
        raise ValueError("epoch index out of range")
    anchor = TWO_PI * epoch_index / epoch_count
    phases = np.asarray(phases, dtype=float)
    offsets = np.abs(((phases - anchor + math.pi) % TWO_PI) - math.pi)
    return int(np.argmin(offsets))


def run_epoch(config, phases, positions, epoch_index: int):
    """One anchored relaxation epoch of a scenario with a search section.

    The anchor bar jumps to the anchor angle (the representative nearest its
    unwrapped phase) and stays pinned for the whole epoch while everything
    else follows the coupled dynamics. Returns (anchor agent, phases,
    positions, slice costs), the costs from the moment table's slice moments
    at the epoch's last step.
    """
    epoch_count = config.search.epoch_count
    phases = np.array(phases, dtype=float)  # the jump must not move the caller's array
    anchor_agent = anchor_assignment(phases, epoch_index, epoch_count)
    # The anchor angle's representative nearest the bar: no other bar lies
    # between them, so the unwrapped phases stay in cyclic order.
    anchor = TWO_PI * epoch_index / epoch_count
    phases[anchor_agent] = anchor + TWO_PI * round((phases[anchor_agent] - anchor) / TWO_PI)

    phases, positions, moments = integrate_system(
        config, phases, positions, config.search.epoch_duration, anchor_agent)
    costs = slice_cost_terms(moments, positions, config.beta)[0]
    return anchor_agent, phases, positions, costs


def gossip_until_stable(costs) -> tuple[int, float]:
    """Synchronous ring flooding of the slice costs; returns (rounds, total).

    `holds[i, j]` says agent i holds agent j's cost. Every round each agent
    adds what its ring predecessor held; the loop stops on the first round
    that changes nothing, so `rounds` is N-1 for N > 1 and 0 for a single
    agent. The total is the agent-ordered sum of the costs every agent holds.
    """
    n = len(costs)
    holds = np.eye(n, dtype=bool)
    rounds = 0
    while True:
        merged = holds | np.roll(holds, 1, axis=0)
        if np.array_equal(merged, holds):
            break
        holds = merged
        rounds += 1
    # Python's left-to-right sum, not np.sum, whose pairwise order differs
    # for N >= 8.
    return rounds, sum(float(c) for c in costs)


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
    best: EpochRecord  # the first epoch whose total ties with the least


def run_search(config) -> SearchResult:
    """Full anchored search for a scenario config carrying a search section."""
    if config.search is None:
        raise ValueError("scenario has no search section")
    phases, positions = config.initial_phases, config.initial_positions
    records = []
    for k in range(config.search.epoch_count):
        anchor_agent, phases, positions, costs = run_epoch(config, phases, positions, k)
        rounds, total = gossip_until_stable(costs)
        records.append(EpochRecord(k, anchor_agent, total, rounds, phases, positions))
    # The first minimum up to rounding, which must not decide k* on a flat landscape.
    totals = np.array([r.total_cost for r in records])
    ties = totals - totals.min() <= TOTAL_TIE_RTOL * abs(totals.min())
    return SearchResult(records, records[int(np.argmax(ties))])


def recompute_total(config, phases, positions) -> float:
    """Re-evaluate the configuration cost by quadrature, independently of the
    moment table that gave the epoch totals (verification path)."""
    return total_cost(phases, positions, config.region, config.density, config.beta)
