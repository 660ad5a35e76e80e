"""Agent positions, service cost, targets, and analytic diagnostics.

Each agent serves the slice between its bar and the next one. The service
cost of a configuration is the density-weighted integral over each slice of
the move cost f(p_i, q) = |p_i - q|^2 + beta * |p_i - q|^4, and beta >= 0 is
the one cost value this module takes (0 is the squared-distance cost). f is a
polynomial of degree four in the event position, so a slice's cost, gradient
and exact Hessian are linear combinations of its rows in the moment table
(`slice_cost_terms`). The Hessian of f in p, 2I + beta * (4|d|^2 I + 8 d d')
with d = p - q, is at least 2I, so every slice cost is strictly convex;
`optimal_targets` finds its minimiser by Newton's method from the slice
centroid, which is already the minimiser of the squared-distance cost. It
takes any number of slices at once: the integrator's agent pass hands it
the stage moments of a whole block of RK4 steps in one call, and the
columns do not interact, except that Newton stops when all of them have
converged.
Quadrature of `cost_weight` (`subregion_cost`, `total_cost`) stays as the
independent reference: adaptive in the angle, and exact in r, because the
weight has degree 4 in r, the most that `geometry`'s radial rule allows.

A partition is passed as its unwrapped bar phases (see `partition`) and the
agents as their (N, 2) positions; slice i lies between bars i and i+1.
"""

from __future__ import annotations

import numpy as np

from .geometry import MomentTable, moment_table, region_integral

MAX_NEWTON_STEPS = 20
# Newton stops after a step below this fraction of every slice's RMS radius.
# Convergence is quadratic, so the error left after that step is near
# rounding level, while the rounding floor of a step (measured up to 2e-11 on
# thin slices of an annulus at radius 100) stays well below the threshold.
NEWTON_STEP_TOL = 1e-8

_IDENTITY = np.eye(2)
_IDENTITY.flags.writeable = False


class TargetSearchError(RuntimeError):
    """Newton's method did not settle on a slice optimum within its step cap."""


def cost_weight(beta: float, position):
    """The quadrature weight w(r, theta) = f(position, q) of the move cost at
    the event q = (r cos(theta), r sin(theta))."""
    p = np.asarray(position, dtype=float)

    def weight(r, theta):
        dx = r * np.cos(theta) - p[0]
        dy = r * np.sin(theta) - p[1]
        d2 = dx * dx + dy * dy
        return d2 + beta * d2 * d2

    return weight


def slice_centroids(moments) -> np.ndarray:
    """Density-weighted centroids (M_x / m, M_y / m) of every slice, shape (N, 2).

    `moments` are slice moments of shape (rows, N) from the moment table.
    """
    return (moments[1:3] / moments[0]).T


def subregion_cost(phases, region, density, beta: float, i: int, position) -> float:
    """Service cost of slice i for an agent at `position` by adaptive quadrature.

    The reference that the moment-table costs are tested against. The last
    slice ends at phases[0], which `region_integral` moves on by 2*pi.
    """
    return region_integral(region, density, float(phases[i]),
                           float(phases[(i + 1) % len(phases)]), cost_weight(beta, position))


def total_cost(phases, positions, region, density, beta: float) -> float:
    """Total service cost by quadrature: slice i's cost at positions[i], summed."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    if len(positions) != len(phases):
        raise ValueError(f"{len(positions)} positions for {len(phases)} bars")
    return sum(subregion_cost(phases, region, density, beta, i, positions[i])
               for i in range(len(phases)))


def cost_table(region, density, beta: float) -> MomentTable:
    """The cached moment table with the rows the cost of quartic weight `beta` needs.

    The one choice of a command's table. Only beta != 0 builds the quartic rows;
    a squared-distance run shares `moment_table(region, density)`'s cache entry.
    """
    if beta:
        return moment_table(region, density, degree=4)
    return moment_table(region, density)


def slice_cost_terms(moments, positions, beta: float):
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
    hessians = 2.0 * mass[:, None, None] * _IDENTITY
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
        hessians = hessians + beta * (4.0 * quadratic[:, None, None] * _IDENTITY
                                      + 8.0 * spread)
    return costs, grads, hessians


def optimal_targets(moments, beta: float) -> np.ndarray:
    """Minimiser of every slice cost, shape (N, 2), from table rows.

    The squared-distance minimiser is the centroid (M_x / m, M_y / m). For
    beta > 0 Newton's method starts there with the exact Hessian; the slice
    cost is strictly convex, so the minimiser is unique and the iteration
    converges quadratically. The minimiser is unconstrained: like the
    centroid it may lie outside the slice.
    """
    targets = slice_centroids(moments)
    if not beta:
        return targets
    tolerance = NEWTON_STEP_TOL * np.sqrt(moments[3] / moments[0])
    for _ in range(MAX_NEWTON_STEPS):
        _, grads, hessians = slice_cost_terms(moments, targets, beta)
        steps = np.linalg.solve(hessians, grads[:, :, None])[:, :, 0]
        targets = targets - steps
        if np.all(np.linalg.norm(steps, axis=1) <= tolerance):
            return targets
    raise TargetSearchError(f"Newton steps still {np.linalg.norm(steps, axis=1)} "
                            f"after {MAX_NEWTON_STEPS} iterations")
