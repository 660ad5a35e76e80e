"""Agent positions, service cost, targets, and analytic diagnostics.

Each agent serves the slice between its bar and the next one. The service
cost of a configuration is the density-weighted integral of a move cost
f(p_i, q) over each slice. Both built-in costs are polynomials of degree at
most four in the event position, so a slice's cost, gradient and exact
Hessian are linear combinations of its rows in the moment table
(`slice_cost_terms`). Every slice cost is strictly convex; `optimal_targets`
finds its minimiser by Newton's method from the slice centroid, which is
already the minimiser of the squared-distance cost. Adaptive quadrature
(`subregion_cost`, `total_cost`) stays as the independent reference. The
sign-condition box test certifies existence of a gradient zero, and the
radial second moment about a point backs the stability diagnostic reported
by the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import MomentTable, moment_table, radial_moment, region_integral
from .partition import PartitionState

MAX_NEWTON_STEPS = 20
# Newton stops after a step below this fraction of every slice's RMS radius.
# Convergence is quadratic, so the error left after that step is near
# rounding level, while the rounding floor of a step (measured up to 2e-11 on
# thin slices of an annulus at radius 100) stays well below the threshold.
NEWTON_STEP_TOL = 1e-8


class DegenerateSubregionError(ValueError):
    """Requested a centroid/target on a slice with no workload."""


class TargetSearchError(RuntimeError):
    """Newton's method did not settle on a slice optimum within its step cap."""


@dataclass(frozen=True)
class CostModel:
    """Move-cost f(p, q) between an agent at p and an event at q.

    Kinds:
      squared_distance   f = |p - q|^2 (optimum: the slice centroid)
      generic_builtin    f = |p - q|^2 + beta * |p - q|^4 with
                         beta = parameters[0] (default 0.25); beta = 0 is the
                         squared-distance cost.

    For beta >= 0 the Hessian in p, 2I + beta * (4|d|^2 I + 8 d d') with
    d = p - q, is at least 2I, so every slice cost is strictly convex and
    has a unique minimiser.
    """

    kind: str = "squared_distance"
    parameters: tuple = ()

    @property
    def beta(self) -> float:
        """Weight of the quartic term; 0 for the squared-distance cost."""
        if self.kind == "squared_distance":
            return 0.0
        if self.kind == "generic_builtin":
            return float(self.parameters[0]) if self.parameters else 0.25
        raise ValueError(f"unknown cost kind {self.kind!r}")

    def value(self, p, x, y):
        dx = np.asarray(x, dtype=float) - p[0]
        dy = np.asarray(y, dtype=float) - p[1]
        d2 = dx * dx + dy * dy
        return d2 + self.beta * d2 * d2


@dataclass
class AgentState:
    """Agent positions, the tracking gain, and the current targets."""

    positions: np.ndarray
    kappa_p: float
    targets: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 2).copy()
        if self.kappa_p <= 0.0:
            raise ValueError("kappa_p must be positive")
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=float).reshape(-1, 2).copy()

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def slice_bounds(state: PartitionState, i: int):
    """(phi_lo, phi_hi) of slice i in wrapped coordinates."""
    wrapped = state.wrapped
    return float(wrapped[i]), float(wrapped[(i + 1) % state.n])


def all_centroids(state: PartitionState, region, density) -> np.ndarray:
    """Density-weighted centroids of all slices, shape (N, 2)."""
    table = moment_table(region, density)
    moments = table.slice_moments(state.wrapped)
    mass = moments[0]
    if np.any(mass <= 0.0):
        bad = int(np.argmin(mass))
        raise DegenerateSubregionError(f"slice {bad} has no workload")
    return np.stack([moments[1] / mass, moments[2] / mass], axis=1)


def centroid(state: PartitionState, region, density, i: int) -> np.ndarray:
    """Centroid of slice i."""
    table = moment_table(region, density)
    moments = table.slice_moments(state.wrapped)[:, i]
    if moments[0] <= 0.0:
        raise DegenerateSubregionError(f"slice {i} has no workload")
    return np.array([moments[1] / moments[0], moments[2] / moments[0]])


def subregion_cost(state: PartitionState, region, density, cost_model: CostModel,
                   i: int, position, rel_tol: float = 1e-8) -> float:
    """Service cost of slice i for an agent at `position` by adaptive quadrature.

    The search's slice costs, and the reference that the moment-table costs
    are tested against.
    """
    phi_lo, phi_hi = slice_bounds(state, i)
    return region_integral(region, density, phi_lo, phi_hi, "cost",
                           cost_model=cost_model, position=np.asarray(position, float),
                           rel_tol=rel_tol)


def total_cost(partition_state: PartitionState, agent_state: AgentState, region,
               density, cost_model: CostModel, rel_tol: float = 1e-8) -> float:
    """Total service cost: sum of per-slice costs at the agents' positions."""
    if agent_state.n != partition_state.n:
        raise ValueError("agent and partition states disagree on N")
    return sum(
        subregion_cost(partition_state, region, density, cost_model, i,
                       agent_state.positions[i], rel_tol)
        for i in range(partition_state.n)
    )


def cost_table(region, density, cost_model: CostModel) -> MomentTable:
    """The cached moment table with the rows `cost_model` needs.

    The six quartic rows are built only for beta != 0, so a squared-distance
    run keeps the default four-row table and its truncation bit for bit.
    """
    if cost_model.beta:
        return moment_table(region, density, degree=4)
    return moment_table(region, density)


def slice_cost_terms(moments, positions, cost_model: CostModel):
    """Cost, gradient and exact Hessian of every slice cost, from table rows.

    `moments` are slice moments of shape (rows, N) from `cost_table`, and
    slice i is evaluated at positions[i]. Returns (costs (N,), gradients
    (N, 2), Hessians (N, 2, 2)) of F_i(p) = int_{W_i} f(p, q) rho(q) dq,
    expanded into the moments of q about the origin.
    """
    p = np.asarray(positions, dtype=float).reshape(-1, 2)
    mass = moments[0]
    first = moments[1:3].T
    norms = np.sum(p * p, axis=1)
    cross = p[:, 0] * moments[1] + p[:, 1] * moments[2]
    quadratic = moments[3] - 2.0 * cross + norms * mass  # int |q - p|^2 rho
    costs = quadratic
    grads = 2.0 * (mass[:, None] * p - first)
    hessians = 2.0 * mass[:, None, None] * np.eye(2)
    beta = cost_model.beta
    if beta:
        # int q q' rho and int |q|^2 q rho; row 9 is int |q|^4 rho
        second = moments[[4, 5, 5, 6]].T.reshape(-1, 2, 2)
        third = moments[7:9].T
        second_p = np.einsum("nij,nj->ni", second, p)
        # int |q - p|^4 rho, int |q - p|^2 (q - p) rho and int (q - p)(q - p)' rho
        quartic = (moments[9] - 4.0 * np.sum(p * third, axis=1)
                   + 2.0 * norms * moments[3] + 4.0 * np.sum(p * second_p, axis=1)
                   - 4.0 * norms * cross + norms * norms * mass)
        cubic = (third - moments[3][:, None] * p - 2.0 * second_p
                 + 2.0 * cross[:, None] * p + norms[:, None] * (first - mass[:, None] * p))
        p_first = p[:, :, None] * first[:, None, :]
        spread = (second - p_first - p_first.transpose(0, 2, 1)
                  + mass[:, None, None] * p[:, :, None] * p[:, None, :])
        costs = costs + beta * quartic
        grads = grads - 4.0 * beta * cubic
        hessians = hessians + beta * (4.0 * quadratic[:, None, None] * np.eye(2)
                                      + 8.0 * spread)
    return costs, grads, hessians


def optimal_targets(moments, cost_model: CostModel) -> np.ndarray:
    """Minimiser of every slice cost, shape (N, 2), from table rows.

    The squared-distance minimiser is the centroid (M_x / m, M_y / m). For
    beta > 0 Newton's method starts there with the exact Hessian; the slice
    cost is strictly convex, so the minimiser is unique and the iteration
    converges quadratically. The minimiser is unconstrained: like the
    centroid it may lie outside the slice.
    """
    mass = moments[0]
    targets = np.stack([moments[1] / mass, moments[2] / mass], axis=1)
    if not cost_model.beta:
        return targets
    tolerance = NEWTON_STEP_TOL * np.sqrt(moments[3] / mass)
    for _ in range(MAX_NEWTON_STEPS):
        _, grads, hessians = slice_cost_terms(moments, targets, cost_model)
        steps = np.linalg.solve(hessians, grads[:, :, None])[:, :, 0]
        targets = targets - steps
        if np.all(np.linalg.norm(steps, axis=1) <= tolerance):
            return targets
    raise TargetSearchError(f"Newton steps still {np.linalg.norm(steps, axis=1)} "
                            f"after {MAX_NEWTON_STEPS} iterations")


def _slice_moments(partition_state: PartitionState, region, density,
                   cost_model: CostModel, i: int) -> np.ndarray:
    """Table rows of slice i alone, shape (rows, 1)."""
    table = cost_table(region, density, cost_model)
    return table.slice_moments(partition_state.wrapped)[:, [i]]


def gradient_at(partition_state: PartitionState, region, density,
                cost_model: CostModel, i: int, position) -> np.ndarray:
    """Gradient of the slice-i cost at an arbitrary probe position."""
    moments = _slice_moments(partition_state, region, density, cost_model, i)
    return slice_cost_terms(moments, position, cost_model)[1][0]


def cost_gradient(partition_state: PartitionState, agent_state: AgentState, region,
                  density, cost_model: CostModel, i: int) -> np.ndarray:
    """Gradient of the total cost with respect to agent i's position."""
    return gradient_at(partition_state, region, density, cost_model, i,
                       agent_state.positions[i])


def control_input(agent_state: AgentState, i: int) -> np.ndarray:
    """Velocity command driving agent i toward its target."""
    if agent_state.targets is None:
        raise ValueError("targets are not set")
    return -agent_state.kappa_p * (agent_state.positions[i] - agent_state.targets[i])


def optimal_target(partition_state: PartitionState, region, density,
                   cost_model: CostModel, i: int) -> np.ndarray:
    """Best serving position for slice i (see `optimal_targets`)."""
    moments = _slice_moments(partition_state, region, density, cost_model, i)
    if moments[0, 0] <= 0.0:
        raise DegenerateSubregionError(f"slice {i} has no workload")
    return optimal_targets(moments, cost_model)[0]


def miranda_box_test(partition_state: PartitionState, region, density,
                     cost_model: CostModel, i: int, box,
                     boundary_samples: int = 64) -> bool:
    """Boundary sign certificate for a gradient zero inside an axis-aligned box.

    box = ((a_lo, a_hi), (b_lo, b_hi)). The box is mapped onto the unit
    square; the test passes iff the slice-cost gradient has positive inner
    product with the outward parameter z at every boundary sample. A true
    result certifies (at sample resolution) that the gradient vanishes
    somewhere in the box; false never claims nonexistence.
    """
    (a_lo, a_hi), (b_lo, b_hi) = box
    if a_hi <= a_lo or b_hi <= b_lo:
        raise ValueError("box sides must have positive length")
    scale = 0.5 * np.array([a_hi - a_lo, b_hi - b_lo])
    center = 0.5 * np.array([a_hi + a_lo, b_hi + b_lo])

    ts = np.arange(boundary_samples) * (4.0 / boundary_samples)
    for t in ts:
        edge, frac = divmod(t, 1.0)
        u = 2.0 * frac - 1.0
        if edge == 0:
            z = np.array([u, -1.0])
        elif edge == 1:
            z = np.array([1.0, u])
        elif edge == 2:
            z = np.array([-u, 1.0])
        else:
            z = np.array([-1.0, -u])
        point = scale * z + center
        g = gradient_at(partition_state, region, density, cost_model, i, point)
        if float(g @ z) <= 0.0:
            return False
    return True


def radial_second_moment_about(region, density, theta: float, point,
                               rel_tol: float = 1e-8) -> float:
    """Radial integral of |s - q|^2 * rho * r along the ray at `theta`.

    Expanded into three weighted radial moments; equals the direct quadrature
    of the squared distance along the ray.
    """
    s = np.asarray(point, dtype=float)
    m_plain = radial_moment(region, density, theta, "plain", rel_tol=rel_tol)
    m_x = radial_moment(region, density, theta, "x", rel_tol=rel_tol)
    m_y = radial_moment(region, density, theta, "y", rel_tol=rel_tol)
    m_r2 = radial_moment(region, density, theta, "r2", rel_tol=rel_tol)
    return m_r2 + float(s @ s) * m_plain - 2.0 * (s[0] * m_x + s[1] * m_y)


def cost_hessian(partition_state: PartitionState, agent_state: AgentState, region,
                 density, cost_model: CostModel, i: int):
    """(exact 2x2 Hessian of the slice cost, rank) at agent i's position.

    Rank counts singular values above 1e-8 relative to the largest one.
    """
    moments = _slice_moments(partition_state, region, density, cost_model, i)
    hessian = slice_cost_terms(moments, agent_state.positions[i], cost_model)[2][0]
    singular = np.linalg.svd(hessian, compute_uv=False)
    rank = int(np.sum(singular > 1e-8 * singular[0])) if singular[0] > 0 else 0
    return hessian, rank
