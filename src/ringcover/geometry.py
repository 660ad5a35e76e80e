"""Annular region geometry, workload density, and polar quadrature.

The coverage region is the set between two closed star-shaped curves given
as truncated Fourier series in the polar angle. Every integral over the
region reduces to a radial moment

    int_{r_in(theta)}^{r_out(theta)} w(r, theta) * rho(r, theta) * r dr

followed by an angular integral, so this module provides adaptive
Gauss-Legendre quadrature for both stages. It also builds a cached spectral
table of cumulative moments (`MomentTable`) so that the simulation inner
loop can evaluate slice workloads, centroids and polynomial service costs
in O(modes) instead of re-running the adaptive quadrature at every step;
the table is validated against the quadrature path in the test suite.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

logger = logging.getLogger(__name__)

# 16-node Gauss-Legendre rule on [-1, 1]; composite panels are doubled until
# successive estimates agree to the requested relative tolerance.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 2 ** 14
_ABS_FLOOR = 1e-12


class QuadratureError(RuntimeError):
    """Panel doubling hit the cap without reaching the tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message}; achieved residual {residual:.3e}")
        self.residual = residual


class InvalidDensityError(ValueError):
    """Density (or its radial moment) is not strictly positive on the region."""


@dataclass(frozen=True)
class PolarCurve:
    """Closed curve r(theta) = mean + sum_k cos_k*cos(k*theta) + sin_k*sin(k*theta).

    Coefficients are indexed from harmonic k = 1. The series form makes the
    curve exactly 2*pi-periodic and keeps scenario files serializable.
    """

    mean: float
    cosine_coeffs: tuple = ()
    sine_coeffs: tuple = ()

    def radius(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = np.full(theta.shape, float(self.mean))
        for k, coeff in enumerate(self.cosine_coeffs, start=1):
            if coeff:
                r = r + coeff * np.cos(k * theta)
        for k, coeff in enumerate(self.sine_coeffs, start=1):
            if coeff:
                r = r + coeff * np.sin(k * theta)
        if r.ndim == 0:
            return float(r)
        return r


@dataclass(frozen=True)
class AnnularRegion:
    """Region between two positive star-shaped curves about the origin.

    A point with polar coordinates (r, theta) belongs to the
    region iff r_in(theta) <= r <= r_out(theta). Validity (0 < inner < outer)
    is checked on a uniform angle grid at construction time.
    """

    inner: PolarCurve
    outer: PolarCurve
    validation_grid_size: int = 2048

    def __post_init__(self):
        if self.validation_grid_size < 8:
            raise ValueError("validation_grid_size must be at least 8")
        grid = np.arange(self.validation_grid_size) * (TWO_PI / self.validation_grid_size)
        r_in = self.inner.radius(grid)
        r_out = self.outer.radius(grid)
        if np.min(r_in) <= 0.0:
            raise ValueError("inner curve must be strictly positive")
        if np.min(r_out - r_in) <= 0.0:
            raise ValueError("outer curve must stay strictly outside the inner curve")

    def contains(self, point) -> bool:
        """Membership test; boundary points are inside."""
        x = float(point[0])
        y = float(point[1])
        r = math.hypot(x, y)
        if r == 0.0:
            # Polar angle undefined at the origin; the origin sits in the hole
            # anyway because the inner radius is positive.
            logger.debug("membership query at the origin: polar angle undefined")
            return False
        theta = math.atan2(y, x)
        return self.inner.radius(theta) <= r <= self.outer.radius(theta)

    def bounding_radius(self) -> float:
        grid = np.arange(self.validation_grid_size) * (TWO_PI / self.validation_grid_size)
        return float(np.max(self.outer.radius(grid)))


@dataclass(frozen=True)
class DensityField:
    """Workload density rho(r, theta), strictly positive on the region.

    Kinds:
      uniform                           rho = parameters[0] (default 1.0)
      reference                         rho = exp(sin(theta)^2 + cos(theta)) + c*r
                                        with c = parameters[0] (default 0.01)
      radial_polynomial_times_angular   rho = poly(r; parameters) * angular.radius(theta)
    """

    kind: str
    parameters: tuple = ()
    angular: PolarCurve | None = None

    def evaluate(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if self.kind == "uniform":
            value = self.parameters[0] if self.parameters else 1.0
            return np.full(np.broadcast(r, theta).shape, float(value))
        if self.kind == "reference":
            slope = self.parameters[0] if self.parameters else 0.01
            return np.exp(np.sin(theta) ** 2 + np.cos(theta)) + slope * r
        if self.kind == "radial_polynomial_times_angular":
            if not self.parameters:
                raise ValueError("radial polynomial needs at least one coefficient")
            radial = np.polynomial.polynomial.polyval(r, np.asarray(self.parameters))
            if self.angular is None:
                return radial * np.ones_like(theta)
            return radial * self.angular.radius(theta)
        raise ValueError(f"unknown density kind {self.kind!r}")

    def bounds(self, region: AnnularRegion):
        """(rho_lower, rho_upper) sampled on a 256 x 33 polar grid of the region."""
        thetas = np.arange(256) * (TWO_PI / 256)
        r_in = np.atleast_1d(region.inner.radius(thetas))
        r_out = np.atleast_1d(region.outer.radius(thetas))
        fractions = np.linspace(0.0, 1.0, 33)
        r = r_in[:, None] + (r_out - r_in)[:, None] * fractions[None, :]
        values = self.evaluate(r, thetas[:, None])
        return float(values.min()), float(values.max())


def _panel_points(a: float, b: float, panels: int):
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    return pts, half


# Polynomial weights w(r, theta) of the tabulated moments, with
# x = r cos(theta) and y = r sin(theta).
_MONOMIALS = {
    "plain": lambda r, theta: np.ones_like(r),
    "x": lambda r, theta: r * np.cos(theta),
    "y": lambda r, theta: r * np.sin(theta),
    "r2": lambda r, theta: r * r,
    "xx": lambda r, theta: (r * np.cos(theta)) ** 2,
    "xy": lambda r, theta: r * r * np.cos(theta) * np.sin(theta),
    "yy": lambda r, theta: (r * np.sin(theta)) ** 2,
    "xr2": lambda r, theta: r ** 3 * np.cos(theta),
    "yr2": lambda r, theta: r ** 3 * np.sin(theta),
    "r4": lambda r, theta: r ** 4,
}


def _integrand_values(weight, r, theta, cost_model, position):
    if weight == "cost":
        if cost_model is None or position is None:
            raise ValueError("cost-weighted moments need cost_model and position")
        return cost_model.value(position, r * np.cos(theta), r * np.sin(theta))
    if weight not in _MONOMIALS:
        raise ValueError(f"unknown weight {weight!r}")
    return _MONOMIALS[weight](r, theta)


def _radial_batch(region, density, thetas, weight="plain", cost_model=None,
                  position=None, rel_tol=1e-8):
    """Radial moments for an array of angles, shared panel-doubling loop."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    r_lo = np.atleast_1d(region.inner.radius(thetas))
    r_hi = np.atleast_1d(region.outer.radius(thetas))
    span = r_hi - r_lo

    prev = None
    panels = 1
    residual = math.inf
    while panels <= _MAX_PANELS:
        s_pts, s_half = _panel_points(0.0, 1.0, panels)
        s = s_pts.ravel()
        w = (s_half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        r = r_lo[:, None] + span[:, None] * s[None, :]
        th = np.broadcast_to(thetas[:, None], r.shape)
        g = _integrand_values(weight, r, th, cost_model, position)
        g = g * density.evaluate(r, th) * r
        est = span * (g @ w)
        if prev is not None:
            diff = np.abs(est - prev)
            tol = rel_tol * np.abs(est) + _ABS_FLOOR
            if np.all(diff <= tol):
                return est
            residual = float(np.max(diff / (np.abs(est) + _ABS_FLOOR)))
        prev = est
        panels *= 2
    raise QuadratureError("radial quadrature did not converge", residual)


def _chunked_radial(region, density, thetas, weight, rel_tol):
    out = np.empty(thetas.shape)
    for start in range(0, thetas.size, 1024):
        sl = slice(start, start + 1024)
        out[sl] = _radial_batch(region, density, thetas[sl], weight, rel_tol=rel_tol)
    return out


def radial_moment(region, density, theta, weight="plain", *, cost_model=None,
                  position=None, rel_tol=1e-8):
    """Weighted radial moment at a single angle.

    weight selects w(r, theta): "plain" -> 1, "x" -> r*cos(theta),
    "y" -> r*sin(theta), "r2" -> r^2, the quartic-table monomials "xx", "xy",
    "yy", "xr2", "yr2", "r4", or "cost" -> cost_model.value(position, .).
    """
    values = _radial_batch(region, density, theta, weight, cost_model, position, rel_tol)
    return float(values[0])


def region_integral(region, density, phi_lo, phi_hi, integrand="plain", *,
                    cost_model=None, position=None, rel_tol=1e-8):
    """Integral of integrand * rho over the angular slice [phi_lo, phi_hi].

    When phi_hi < phi_lo the slice wraps through zero (2*pi is added).
    An equal pair gives an empty slice, not a full turn.
    """
    span = phi_hi - phi_lo
    if phi_hi < phi_lo:
        span += TWO_PI
    if span <= 0.0:
        return 0.0
    inner_tol = 0.1 * rel_tol

    def profile(th):
        return _radial_batch(region, density, th, integrand, cost_model, position, inner_tol)

    prev = None
    panels = 1
    residual = math.inf
    while panels <= _MAX_PANELS:
        pts, half = _panel_points(phi_lo, phi_lo + span, panels)
        vals = profile(pts.ravel()).reshape(pts.shape)
        est = float(np.sum((vals * _GL_WEIGHTS).sum(axis=1) * half))
        if prev is not None:
            diff = abs(est - prev)
            if diff <= rel_tol * abs(est) + _ABS_FLOOR:
                return est
            residual = diff / (abs(est) + _ABS_FLOOR)
        prev = est
        panels *= 2
    raise QuadratureError("angular quadrature did not converge", residual)


@lru_cache(maxsize=32)
def radial_moment_extrema(region, density, grid_size=2048):
    """(min, max) of the plain radial moment over a uniform angle grid."""
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    thetas = np.arange(grid_size) * (TWO_PI / grid_size)
    values = _chunked_radial(region, density, thetas, "plain", 1e-8)
    lo = float(values.min())
    hi = float(values.max())
    if lo <= 0.0:
        raise InvalidDensityError(f"radial moment has non-positive minimum {lo:.3e}")
    return lo, hi


# The table samples every profile on this many angles, each by radial
# quadrature to this relative tolerance.
_TABLE_GRID = 4096
_TABLE_REL_TOL = 1e-13

# Table rows: the moments of degree <= 2 that workloads, centroids and the
# squared-distance cost need, then the rows a quartic cost adds.
_TABLE_WEIGHTS = {
    2: ("plain", "x", "y", "r2"),
    4: ("plain", "x", "y", "r2", "xx", "xy", "yy", "xr2", "yr2", "r4"),
}


class MomentTable:
    """Spectral antiderivatives of the tabulated radial moments.

    Each moment profile is sampled on a uniform angle grid with the adaptive
    radial quadrature, interpolated by a truncated trigonometric series, and
    integrated term by term. `cumulative` then evaluates
    M_w(theta) = int_0^theta w-moment dt for any real (unwrapped) theta, and
    `slice_moments` turns wrapped partition phases into per-slice integrals
    with the wrap-through-zero branch handled explicitly.

    Row order is ("plain", "x", "y", "r2") for degree 2; degree 4 appends
    ("xx", "xy", "yy", "xr2", "yr2", "r4"), the moments of x^a y^b with
    a + b <= 4 that a quartic cost needs. The truncation is chosen over all
    rows, so the degree-2 rows of the two tables agree only to rounding.
    """

    def __init__(self, region, density, degree=2):
        weights = _TABLE_WEIGHTS[degree]
        n_grid = _TABLE_GRID
        thetas = np.arange(n_grid) * (TWO_PI / n_grid)
        samples = np.empty((len(weights), n_grid))
        for row, weight in enumerate(weights):
            samples[row] = _chunked_radial(region, density, thetas, weight,
                                           _TABLE_REL_TOL)

        spectrum = np.fft.rfft(samples, axis=1)
        cos_c = 2.0 * spectrum.real / n_grid
        sin_c = -2.0 * spectrum.imag / n_grid
        cos_c[:, 0] *= 0.5
        cos_c[:, -1] *= 0.5  # Nyquist term of the even grid

        # Truncate once the harmonics fall below the sampling noise floor.
        scale = np.max(np.abs(samples), axis=1, keepdims=True)
        keep = np.abs(cos_c) + np.abs(sin_c) > 1e-15 * scale
        keep[:, 0] = True
        modes = int(np.max(np.nonzero(np.any(keep, axis=0))[0])) if keep.any() else 0
        modes = max(modes, 1)

        self._mean = cos_c[:, 0]
        self._k = np.arange(1, modes + 1, dtype=float)
        self._cos = cos_c[:, 1:modes + 1]
        self._sin = sin_c[:, 1:modes + 1]
        self._cos_over_k = self._cos / self._k
        self._sin_over_k = self._sin / self._k
        self.totals = self._mean * TWO_PI

    @property
    def mode_count(self) -> int:
        return self._k.size

    def value(self, theta):
        """Point values of the moment profiles, shape (rows, len(theta))."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        kt = self._k[:, None] * theta[None, :]
        out = self._mean[:, None] + self._cos @ np.cos(kt) + self._sin @ np.sin(kt)
        return out

    def cumulative(self, theta):
        """M_w(theta) = int_0^theta of each profile; valid for unwrapped theta."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        kt = self._k[:, None] * theta[None, :]
        out = self._mean[:, None] * theta[None, :]
        out += self._cos_over_k @ np.sin(kt) + self._sin_over_k @ (1.0 - np.cos(kt))
        return out

    def slice_moments(self, wrapped_phases):
        """Per-slice integrals between consecutive bars, shape (rows, N).

        Slice i spans [phi_i, phi_{i+1}] with phi_{N+1} = phi_1; when the
        successor is numerically below the bar the slice wraps through zero.
        """
        phi = np.asarray(wrapped_phases, dtype=float)
        nxt = np.roll(phi, -1)
        lo = self.cumulative(phi)
        hi = np.roll(lo, -1, axis=1)
        out = hi - lo
        wraps = nxt < phi
        if np.any(wraps):
            out[:, wraps] += self.totals[:, None]
        return out


@lru_cache(maxsize=16)
def moment_table(region, density, degree=2) -> MomentTable:
    """Cached moment table for a region/density pair.

    The cache key is the call as written: `moment_table(region, density)`
    and `moment_table(region, density, degree=2)` build two tables, so
    degree-2 callers omit the argument.
    """
    return MomentTable(region, density, degree=degree)
