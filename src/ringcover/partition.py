"""Partition-bar phases, slice workloads, and the balancing dynamics.

N radial bars cut the annular region into N angular slices; each bar rotates
at a rate proportional to the workload difference between the two slices it
separates (`bar_rates`), which equalizes the workloads. The module also
carries the machinery used to verify that convergence: the imbalance
(Lyapunov) value, the cyclic-difference quadratic form and its minimum
eigenvalue, and the decay constants they induce. The equal-share layouts
the balancing approaches, bars at M^-1(M(a) + j W / N) for the cumulative
workload M and its total W, come from `MomentTable.inverse_cumulative`.

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
    return np.concatenate((p[..., 1:], p[..., :1] + TWO_PI), axis=-1) - p


_PREVIOUS = {}  # bar count N -> np.arange(-1, N - 1), the slice before each bar


def bar_rates(workloads, kappa_phi: float, pinned: int | None = None) -> np.ndarray:
    """The bar law: bar i, between slices i-1 and i, turns toward the heavier
    of the two at kappa_phi * (m_i - m_{i-1}), and the rates sum to zero; the
    bar `pinned`, if any, turns at 0. Works along the first axis, so an
    (N, R) array gives the rates of R states."""
    n = len(workloads)
    previous = _PREVIOUS.get(n)
    if previous is None:
        previous = _PREVIOUS[n] = np.arange(-1, n - 1)
    rates = workloads - workloads[previous]
    rates *= kappa_phi
    if pinned is not None:
        rates[pinned] = 0.0
    return rates


def imbalance(workloads, mean: float):
    """Imbalance energy 0.5 * sum_i (m_i - mean)^2; zero iff equalized.

    Works along the last axis, so an (R, N) array gives R values.
    """
    return 0.5 * np.sum((np.asarray(workloads) - mean) ** 2, axis=-1)


def cyclic_difference_form(n: int):
    """Matrix S of the cyclic-difference quadratic form on N-1 coordinates.

    With errors e_i = m_i - mean satisfying sum_i e_i = 0, the sum of squared
    neighbour differences sum_i (e_i - e_{i-1})^2 equals e' S e in the first
    N-1 coordinates once e_N is eliminated: S = A'A, A the bar law at unit
    gain applied to the elimination [I; -1']. S is an integer matrix and
    positive definite; its minimum eigenvalue is returned alongside.
    """
    if n < 2:
        raise ValueError("need at least two bars")
    rows = bar_rates(np.vstack([np.eye(n - 1), -np.ones(n - 1)]), 1.0)
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
