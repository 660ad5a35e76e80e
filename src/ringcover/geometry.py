"""Annular region geometry, workload density, and polar quadrature.

The coverage region is the set between two closed star-shaped curves given
as truncated Fourier series in the polar angle. Every integral over the
region reduces to a radial moment

    int_{r_in(theta)}^{r_out(theta)} w(r, theta) * rho(r, theta) * r dr

followed by an angular integral. Every density is a polynomial in r of
degree `DensityField.radial_degree` and every weight w has degree <= 4 in r,
so the radial stage is one Gauss-Legendre rule with just enough nodes to be
exact: one density evaluation per batch of angles, within a node budget.
The angular stage doubles composite Gauss-Legendre panels until two levels
agree. A cached spectral table of cumulative moments (`MomentTable`) lets
the simulation evaluate slice workloads, centroids and polynomial service
costs in O(modes): all slices of a partition come out of one matrix product,
the table's antiderivative coefficients times the differences of a
trigonometric basis between neighbouring bars. A build samples all rows in
one radial pass and checks the fit off its grid against the rule with one
node more; the moment extrema are read off its samples. Curves, membership
and the distance to the boundary take arrays of angles and points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# 16-node Gauss-Legendre rule on [-1, 1] of the angular stage; its composite
# panels double until successive estimates agree to the relative tolerance.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 2 ** 14
_NODE_BUDGET = 2 ** 22  # (angles x nodes) of a radial pass, (nodes x nodes) of its rule
_ABS_FLOOR = 1e-12


class QuadratureError(RuntimeError):
    """Panel doubling hit its cap, a radial pass the node budget, or a table its check."""

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

    def radius(self, theta) -> np.ndarray:
        """r(theta) as an array shaped like theta."""
        theta = np.asarray(theta, dtype=float)
        r = np.full(theta.shape, float(self.mean))
        for k, coeff in enumerate(self.cosine_coeffs, start=1):
            if coeff:
                r = r + coeff * np.cos(k * theta)
        for k, coeff in enumerate(self.sine_coeffs, start=1):
            if coeff:
                r = r + coeff * np.sin(k * theta)
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

    def contains(self, points) -> np.ndarray:
        """Membership of each point of a (..., 2) array; boundary points are
        inside, and the origin is not, since the inner radius is positive."""
        points = np.asarray(points, dtype=float)
        x, y = points[..., 0], points[..., 1]
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        return (self.inner.radius(theta) <= r) & (r <= self.outer.radius(theta))

    def boundary_distance(self, points) -> np.ndarray:
        """Euclidean distance of each point of a (..., 2) array to the nearer
        boundary curve, each curve taken as the polygon through its
        validation grid and measured on the two edges at the nearest vertex."""
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, 2)
        grid = np.arange(self.validation_grid_size) * (TWO_PI / self.validation_grid_size)
        out = np.full(len(flat), np.inf)
        for curve in (self.inner, self.outer):
            r = curve.radius(grid)
            vertices = np.stack([r * np.cos(grid), r * np.sin(grid)], axis=1)
            edges = np.roll(vertices, -1, axis=0) - vertices
            squares = np.sum(vertices * vertices, axis=1)
            for start in range(0, len(flat), 64):  # (64, grid) distances at a time
                p = flat[start:start + 64]
                nearest = np.argmin(squares - 2.0 * (p @ vertices.T), axis=1)
                for j in (nearest - 1, nearest):
                    offset = p - vertices[j]
                    along = np.clip(np.sum(offset * edges[j], axis=1)
                                    / np.sum(edges[j] * edges[j], axis=1), 0.0, 1.0)
                    gap = offset - along[:, None] * edges[j]
                    np.minimum(out[start:start + 64], np.hypot(gap[:, 0], gap[:, 1]),
                               out=out[start:start + 64])
        return out.reshape(points.shape[:-1])

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
        """rho at r broadcast against theta; a column of angles against a
        matrix of radii evaluates the angle terms once per angle."""
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

    @property
    def radial_degree(self) -> int:
        """Degree of rho as a polynomial in r: trailing zero coefficients of a
        radial polynomial do not count."""
        if self.kind == "uniform":
            return 0
        if self.kind == "reference":
            return 1
        return int(max(np.flatnonzero(self.parameters), default=0))

    def bounds(self, region: AnnularRegion):
        """(rho_lower, rho_upper) sampled on a 256 x 33 polar grid of the region."""
        thetas = np.arange(256) * (TWO_PI / 256)
        r_in = region.inner.radius(thetas)
        r_out = region.outer.radius(thetas)
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


@lru_cache(maxsize=16)
def _unit_rule(m: int):
    """m-node Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _radial_batch(region, density, thetas, weights, extra=0):
    """Radial moments for an array of angles, one row per weight w(r, theta),
    from one evaluation of the nodes and the density for all rows.

    Every weight a caller passes is a polynomial of degree <= 4 in r (the
    table's monomials and the move weights of `agents`). With rho of degree d
    the integrand w * rho * r has degree <= d + 5, which m = (d + 7) // 2
    Gauss-Legendre nodes integrate exactly; `extra` adds nodes.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    m = (density.radial_degree + 7) // 2 + extra
    if max(thetas.size, m) * m > _NODE_BUDGET:
        raise QuadratureError(f"radial pass of {thetas.size} angles x {m} nodes "
                              f"exceeds the node budget {_NODE_BUDGET}", math.inf)
    s, w = _unit_rule(m)
    r_lo = region.inner.radius(thetas)
    span = region.outer.radius(thetas) - r_lo
    th = thetas[:, None]
    r = r_lo[:, None] + span[:, None] * s
    rho_r = density.evaluate(r, th) * r
    return np.array([span * ((weight(r, th) * rho_r) @ w) for weight in weights])


def region_integral(region, density, phi_lo, phi_hi, weight=_MONOMIALS["plain"], *,
                    rel_tol=1e-8):
    """Integral of weight(r, theta) * rho over the angular slice [phi_lo, phi_hi].

    When phi_hi < phi_lo the slice wraps through zero (2*pi is added).
    An equal pair gives an empty slice, not a full turn. The angular panels
    double until two levels agree to `rel_tol`; QuadratureError at the cap,
    with the last residual.
    """
    span = phi_hi - phi_lo
    if phi_hi < phi_lo:
        span += TWO_PI
    if span <= 0.0:
        return 0.0
    prev = None
    residual = math.inf
    panels = 1
    while panels <= _MAX_PANELS:
        pts, half = _panel_points(phi_lo, phi_lo + span, panels)
        vals = _radial_batch(region, density, pts.ravel(), (weight,))[0].reshape(pts.shape)
        est = float(np.sum((vals * _GL_WEIGHTS).sum(axis=1) * half))
        if prev is not None:
            diff = abs(est - prev)
            if diff <= rel_tol * abs(est) + _ABS_FLOOR:
                return est
            residual = diff / (abs(est) + _ABS_FLOOR)
        prev = est
        panels *= 2
    raise QuadratureError("angular quadrature did not converge", residual)


# Cached only for callers that clear it, and time it cold, with the table.
@lru_cache(maxsize=32)
def radial_moment_extrema(region, density):
    """(min, max) of the plain radial moment on 2048 uniform angles, which
    are the even-index samples of the moment table's plain row."""
    values = moment_table(region, density).samples[0, ::2]
    lo = float(values.min())
    hi = float(values.max())
    if lo <= 0.0:
        raise InvalidDensityError(f"radial moment has non-positive minimum {lo:.3e}")
    return lo, hi


# The table samples every profile on this many angles, and its build fails
# past the check tolerance off the grid, relative to each row's largest sample.
_TABLE_GRID = 4096
_TABLE_CHECK_TOL = 1e-10
# `inverse_cumulative` stops at steps <= this times max(1, |theta|), or fails at the cap.
_INVERSE_STOP = 8.0 * np.finfo(float).eps
_INVERSE_NEWTON_CAP = 8

# Table rows: the moments of degree <= 2 that workloads, centroids and the
# squared-distance cost need, then the rows a quartic cost adds.
_TABLE_WEIGHTS = {
    2: ("plain", "x", "y", "r2"),
    4: ("plain", "x", "y", "r2", "xx", "xy", "yy", "xr2", "yr2", "r4"),
}


class MomentTable:
    """Spectral antiderivatives of the tabulated radial moments.

    Each moment profile is sampled on a uniform angle grid with the exact
    radial rule, interpolated by a truncated trigonometric series
    mean + sum_k c_k cos(k theta) + s_k sin(k theta), and integrated term by
    term. The table keeps the antiderivative as one matrix, `coefficients`
    = [mean | c/k | -s/k] of shape rows x (1 + 2K), against the basis
    (theta, sin k theta, cos k theta). A slice integral is the difference of
    that basis between two bars times the matrix, so `slice_moments` turns
    unwrapped partition phases in cyclic order
    (phi_1 < ... < phi_N < phi_1 + 2*pi) into every per-slice integral with
    one product; the last slice's full turn comes out of its theta
    difference. `cumulative` evaluates M_w(theta) = int_0^theta w-moment dt
    for any real (unwrapped) theta with the same matrix and the basis
    (theta, sin k theta, cos k theta - 1), and `value` with the basis
    differentiated; `inverse_cumulative` inverts the plain row's M by Newton.
    `totals` are the full-turn integrals 2*pi*mean.
    `samples` keeps the sampled profiles, one row per moment, and
    `check_error`, set by `moment_table`, the fit's largest error off the
    grid relative to each row's largest sample.

    Row order is ("plain", "x", "y", "r2") for degree 2; degree 4 appends
    ("xx", "xy", "yy", "xr2", "yr2", "r4"), the moments of x^a y^b with
    a + b <= 4 that a quartic cost needs. The degree-4 table reuses the
    degree-2 samples, but its truncation is chosen over all rows, so the
    degree-2 rows of the two tables agree only to rounding.
    """

    def __init__(self, samples):
        self.samples = samples
        n_grid = samples.shape[1]
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

        k = np.arange(1, modes + 1, dtype=float)
        self.totals = cos_c[:, 0] * TWO_PI
        # [mean | C/k | -S/k]: the antiderivative against (theta, sin k*theta, cos k*theta)
        self.coefficients = np.hstack([cos_c[:, :1], cos_c[:, 1:modes + 1] / k,
                                       -sin_c[:, 1:modes + 1] / k])
        self._k = k[:, None]  # broadcasts against a row of angles
        self._workspaces = {}  # bar count -> the buffers of `slice_moments`

    @property
    def mode_count(self) -> int:
        return self._k.size

    def value(self, theta):
        """Point values of the moment profiles, shape (rows, len(theta)): the
        antiderivative's basis differentiated term by term."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        kt = self._k * theta
        return self.coefficients @ np.vstack([np.ones_like(theta), self._k * np.cos(kt),
                                              -self._k * np.sin(kt)])

    def cumulative(self, theta):
        """M_w(theta) = int_0^theta of each profile; valid for unwrapped theta."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        kt = self._k * theta
        return self.coefficients @ np.vstack([theta, np.sin(kt), np.cos(kt) - 1.0])

    def inverse_cumulative(self, u):
        """The angle theta with M(theta) = u for any real u, shaped like u, M the
        plain row of `cumulative`, which grows by W = totals[0] a turn. Whole
        turns split off; Newton's step (M(theta) - u) / omega(theta) from the
        linear interpolant of the trapezoid cumulative of `samples[0]` stops
        once every step is at most `_INVERSE_STOP` max(1, |theta|), else
        QuadratureError after `_INVERSE_NEWTON_CAP` steps. M(theta) - M(start)
        comes from sum-to-product formulas, whose rounding shrinks with it."""
        u = np.asarray(u, dtype=float)
        turns = np.round(u.ravel() / self.totals[0])
        rest = u.ravel() - turns * self.totals[0]
        n = self.samples.shape[1]
        # the trapezoid cumulative at the grid angles 0, ..., 2*pi, and a turn back
        knots = np.cumsum(np.append(0.0, self.samples[0] + np.roll(self.samples[0], -1)))
        knots *= math.pi / n
        start = np.interp(rest, np.append(knots[:-1] - knots[-1], knots),
                          np.arange(-n, n + 1) * (TWO_PI / n))
        offset = self.cumulative(start)[0] - rest
        angles = self._k * start
        shift = np.zeros_like(start)
        for _ in range(_INVERSE_NEWTON_CAP):
            half = 0.5 * self._k * shift
            chord = 2.0 * np.sin(half)
            increment = self.coefficients[0] @ np.vstack([shift, chord * np.cos(angles + half),
                                                          -chord * np.sin(angles + half)])
            step = (offset + increment) / self.value(start + shift)[0]
            shift -= step
            theta = start + shift + TWO_PI * turns
            if np.all(np.abs(step) <= _INVERSE_STOP * np.maximum(1.0, np.abs(theta))):
                return theta.reshape(u.shape)
        raise QuadratureError(f"inverse cumulative still moves after {_INVERSE_NEWTON_CAP} "
                              "Newton steps", float(np.max(np.abs(step))))

    def slice_moments(self, phases):
        """Per-slice integrals between consecutive bars, shape (rows, N).

        `phases` are unwrapped and in cyclic order: slice i spans
        [phi_i, phi_{i+1}] and the last slice [phi_N, phi_1 + 2*pi]. Bars out
        of that order give a negative slice mass. One basis buffer holds
        theta, sin k*theta and cos k*theta at the N bars and at phi_1 + 2*pi;
        its column differences times the coefficients are the slices. The
        buffers are kept per bar count (`_workspace`) and overwritten by
        every call; the returned moments are a fresh array.
        """
        n = len(phases)
        theta, kt, sines, cosines, upper, lower, steps, difference = (
            self._workspaces.get(n) or self._workspace(n))
        theta[:n] = phases
        theta[n] = phases[0] + TWO_PI
        np.multiply(self._k, theta, out=kt)
        np.sin(kt, out=sines)
        np.cos(kt, out=cosines)
        np.subtract(upper, lower, out=steps)
        return self.coefficients @ difference

    def _workspace(self, n: int) -> tuple:
        """The buffers of `slice_moments` for n bars, and views into them.

        The basis is (1 + 2K) x (n + 1). Its column differences are taken
        along the raveled basis, one contiguous subtraction for every row;
        `difference` views the n differences of each row, and the entry
        after them is scratch.
        """
        width, modes = self.coefficients.shape[1], self._k.size
        basis = np.empty((width, n + 1))
        flat = basis.ravel()
        steps = np.empty(width * (n + 1))
        work = (basis[0], np.empty((modes, n + 1)), basis[1:modes + 1], basis[modes + 1:],
                flat[1:], flat[:-1], steps[:-1], steps.reshape(width, n + 1)[:, :n])
        self._workspaces[n] = work
        return work


@lru_cache(maxsize=16)
def moment_table(region, density, degree=2) -> MomentTable:
    """Cached moment table for a region/density pair.

    The cache key is the call as written: `moment_table(region, density)`
    and `moment_table(region, density, degree=2)` build two tables, so
    degree-2 callers omit the argument; the degree-4 table stacks that
    table's samples over its six quartic rows. Raises QuadratureError when
    the fit misses the radial rule with one node more off the grid by more
    than `_TABLE_CHECK_TOL`.
    """
    weights = tuple(_MONOMIALS[name] for name in _TABLE_WEIGHTS[degree])
    thetas = np.arange(_TABLE_GRID) * (TWO_PI / _TABLE_GRID)
    kept = (moment_table(region, density).samples if degree == 4
            else np.empty((0, _TABLE_GRID)))
    fresh = _radial_batch(region, density, thetas, weights[len(kept):])
    table = MomentTable(np.vstack([kept, fresh]))

    # Halfway between samples, where an aliased or truncated harmonic shows;
    # the extra node exposes a rule that is not exact for the stated degree.
    checks = (np.arange(7) * (_TABLE_GRID // 7) + 0.5) * (TWO_PI / _TABLE_GRID)
    direct = _radial_batch(region, density, checks, weights, extra=1)
    scale = np.max(np.abs(table.samples), axis=1, keepdims=True)
    table.check_error = float(np.max(np.abs(table.value(checks) - direct) / scale))
    if table.check_error > _TABLE_CHECK_TOL:
        raise QuadratureError("moment table misses the radial quadrature off its grid",
                              table.check_error)
    return table
