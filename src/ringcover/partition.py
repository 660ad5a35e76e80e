"""Partition-bar phases, slice workloads, and the balancing dynamics.

N radial bars cut the annular region into N angular slices; each bar rotates
at a rate proportional to the workload difference between the two slices it
separates (`bar_rates`), which equalizes the workloads. The module also
carries the machinery used to verify that convergence: the imbalance
(Lyapunov) value, the cyclic-difference quadratic form and its minimum
eigenvalue, the decay constants they induce, and the equal-share phase
advance map.

A partition is its array of unwrapped bar phases in cyclic order,
phi_1 < phi_2 < ... < phi_N < phi_1 + 2*pi (`cyclic_gaps` are all positive).
These are the integration state and may leave [0, 2*pi) as bars rotate;
every function takes them as they are, slice i spanning [phi_i, phi_{i+1}]
and the last slice [phi_N, phi_1 + 2*pi], so the mean unwrapped phase is a
conserved quantity that tests can check directly.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import TWO_PI, moment_table, radial_moment_extrema

MIN_PHASE_SEPARATION = 1e-6


def validate_initial_phases(phases) -> np.ndarray:
    """Check the strictly-increasing, strictly-separated start layout."""
    p = np.asarray(phases, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("at least two partition bars are required")
    if np.any(p < 0.0) or np.any(p >= TWO_PI):
        raise ValueError("initial phases must lie in [0, 2*pi)")
    gaps = cyclic_gaps(p)  # the last gap is positive on [0, 2*pi)
    if np.any(np.abs(gaps) < MIN_PHASE_SEPARATION):
        raise ValueError("initial phases not strictly separated")
    if np.any(gaps <= 0.0):
        raise ValueError("initial phases must be strictly increasing")
    return p


def cyclic_gaps(phases) -> np.ndarray:
    """Gaps phi_{i+1} - phi_i between neighbouring bars, the last being
    phi_1 + 2*pi - phi_N; all positive iff the bars are in cyclic order.

    Works along the last axis, so an (R, N) array gives R rows of N gaps.
    """
    p = np.asarray(phases, dtype=float)
    gaps = np.empty_like(p)
    np.subtract(p[..., 1:], p[..., :-1], out=gaps[..., :-1])
    np.subtract(p[..., :1] + TWO_PI, p[..., -1:], out=gaps[..., -1:])
    return gaps


def bar_rates(workloads, kappa_phi: float) -> np.ndarray:
    """Bar rates: each bar moves toward the heavier neighbouring slice.

    Bar i separates slice i-1 from slice i, so it turns at
    kappa_phi * (m_i - m_{i-1}); the rates sum to zero.
    """
    return kappa_phi * (workloads - workloads[np.arange(-1, len(workloads) - 1)])


def imbalance(workloads, mean: float):
    """Imbalance energy 0.5 * sum_i (m_i - mean)^2; zero iff equalized.

    Works along the last axis, so an (R, N) array gives R values.
    """
    return 0.5 * np.sum((np.asarray(workloads) - mean) ** 2, axis=-1)


def cyclic_difference_form(n: int):
    """Matrix S of the cyclic-difference quadratic form on N-1 coordinates.

    With errors e_i = m_i - mean satisfying sum_i e_i = 0, the sum of squared
    neighbour differences sum_i (e_i - e_{i-1})^2 equals e' S e in the first
    N-1 coordinates once e_N is eliminated. S is assembled from that
    expansion (S = A'A for the stacked difference rows), not from any fixed
    printed pattern, and is positive definite; the minimum eigenvalue is
    returned alongside.
    """
    if n < 2:
        raise ValueError("need at least two bars")
    dim = n - 1
    rows = np.zeros((n, dim))
    rows[0] = 1.0
    rows[0, 0] = 2.0
    for i in range(2, n):
        rows[i - 1, i - 2] = -1.0
        rows[i - 1, i - 1] = 1.0
    rows[n - 1] = 1.0
    rows[n - 1, dim - 1] += 1.0
    matrix = rows.T @ rows
    lambda_min = float(np.linalg.eigvalsh(matrix)[0])
    return matrix, lambda_min


def decay_constants(phases, kappa_phi: float, region, density) -> dict:
    """The constants of the guaranteed exponential workload-gap decay.

    Returns c1 = sqrt(2 * V(0)), the amplitude, with V the imbalance of the
    slice workloads at `phases`; c2 = kappa_phi * omega_min * lambda_min / N,
    the rate; lambda_min, the least eigenvalue of the cyclic-difference form;
    and omega_min and omega_max, the grid extrema of the radial moment
    profile. The keys keep that order, the order of a run's log meta.
    """
    n = len(phases)
    table = moment_table(region, density)
    workloads = table.slice_moments(phases)[0]
    v0 = imbalance(workloads, float(table.totals[0]) / n)
    omega_min, omega_max = radial_moment_extrema(region, density)
    _, lambda_min = cyclic_difference_form(n)
    return {"c1": math.sqrt(2.0 * v0), "c2": kappa_phi * omega_min * lambda_min / n,
            "lambda_min": lambda_min, "omega_min": omega_min, "omega_max": omega_max}


def advance_by_mean_workload(region, density, phi: float, n_agents: int) -> float:
    """Phase xi in [phi, phi + 2*pi] whose slice [phi, xi] holds one share.

    Composing the map N times advances the phase by exactly one full turn.
    The returned value is unwrapped; callers wrap it for reporting. Solved by
    bisection on the cumulative moment bracket followed by three Newton
    polish steps using the moment profile as the derivative.
    """
    table = moment_table(region, density)
    share = float(table.totals[0]) / n_agents

    def cumulative(t: float) -> float:
        return float(table.cumulative(t)[0, 0])

    target = cumulative(phi) + share
    lo, hi = phi, phi + TWO_PI
    f_lo = cumulative(lo) - target
    f_hi = cumulative(hi) - target
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise RuntimeError("bracketing failed for the equal-share advance "
                           f"(f_lo={f_lo:.3e}, f_hi={f_hi:.3e})")
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if cumulative(mid) - target <= 0.0:
            lo = mid
        else:
            hi = mid
    xi = 0.5 * (lo + hi)
    for _ in range(3):
        slope = float(table.value(xi)[0, 0])
        xi -= (cumulative(xi) - target) / slope
        xi = min(max(xi, phi), phi + TWO_PI)

    residual = abs(cumulative(xi) - target)
    if residual > 1e-10 * share:
        raise RuntimeError(f"equal-share advance residual {residual:.3e} "
                           "exceeds 1e-10 * share")
    return xi
