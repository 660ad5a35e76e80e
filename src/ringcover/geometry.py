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
trigonometric basis between neighbouring bars. A build samples its rows in
one radial pass and checks the fit off its grid against the rule with one
node more; `MomentTable.extrema` reads the plain samples. `DensityField.bounds`
bounds rho over the whole region in closed form, from no samples. Curves,
membership and the distance to the boundary take arrays of angles and points.

A curve is sampled once, on the table grid, on its first grid read, and keeps
those samples: the table pass reads r_in and r_out from them, and the region
grid (the validity check, the grid range, the bounding radius and the
boundary polygon) reads their even samples, which are the same bits.
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
# The table samples every profile, and every curve its radius, on this many
# angles; the table's build fails past the check tolerance off the grid,
# relative to each row's largest sample.
_TABLE_GRID = 4096
# The region grid: validity, the boundary polygon and the bounding radius read
# r_in and r_out at these angles, the table grid's even samples: j * (2 pi / 2048)
# and 2j * (2 pi / 4096) are one real number, so they round alike.
_REGION_GRID = np.arange(_TABLE_GRID // 2) * (TWO_PI / (_TABLE_GRID // 2))


class QuadratureError(RuntimeError):
    """Panel doubling hit its cap, a radial pass the node budget, or a table its check."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message}; achieved residual {residual:.3e}")
        self.residual = residual


@dataclass(frozen=True)
class PolarCurve:
    """Closed curve r(theta) = mean + sum_k cos_k*cos(k*theta) + sin_k*sin(k*theta).

    Coefficients are indexed from harmonic k = 1. The series form makes the
    curve exactly 2*pi-periodic and keeps scenario files serializable. A curve
    is sampled once on the table grid, on its first grid read, and keeps the
    samples (`sampled`); the region grid is their even samples.
    """

    mean: float
    cosine_coeffs: tuple = ()
    sine_coeffs: tuple = ()

    def radius(self, theta) -> np.ndarray:
        """r(theta) as an array shaped like theta."""
        theta = np.asarray(theta, dtype=float)
        r = np.full(theta.shape, float(self.mean))
        for basis, coeffs in ((np.cos, self.cosine_coeffs), (np.sin, self.sine_coeffs)):
            for k, coeff in enumerate(coeffs, start=1):
                if coeff:
                    r = r + coeff * basis(k * theta)
        return r

    def sampled(self, size: int) -> np.ndarray:
        """r at the `size` angles 2 pi j / size, read-only. The curve evaluates
        a grid once, on its first read, and keeps the samples; the package
        reads the table grid alone, and the region grid as its even samples."""
        kept = self.__dict__.setdefault("_samples", {})  # not a field: no effect on ==
        if size not in kept:
            kept[size] = self.radius(np.arange(size) * (TWO_PI / size))
            kept[size].flags.writeable = False
        return kept[size]

    @property
    def region_samples(self) -> np.ndarray:
        """r on the region grid: the even samples of the table grid."""
        return self.sampled(2 * _REGION_GRID.size)[::2]

    @property
    def margin(self) -> float:
        """How far r can move from any angle to the nearest angle of the
        region grid, at most pi / 2048 away: pi / 2048 times the slope bound
        sum_k k (|cos_k| + |sin_k|), 0 for a circle. A bound that r clears
        by more than this on the grid holds at every angle."""
        return math.pi / _REGION_GRID.size * sum(
            k * abs(coeff) for coeffs in (self.cosine_coeffs, self.sine_coeffs)
            for k, coeff in enumerate(coeffs, start=1))

    def grid_range(self) -> tuple:
        """(least, greatest) r on the region grid."""
        r = self.region_samples
        return float(np.min(r)), float(np.max(r))


@dataclass(frozen=True)
class AnnularRegion:
    """Region between two positive star-shaped curves about the origin.

    A point with polar coordinates (r, theta) belongs to the region iff
    r_in(theta) <= r <= r_out(theta). 0 < r_in < r_out holds at every angle
    when, on the region grid, r_in exceeds the inner curve's `margin` and
    r_out - r_in the sum of both margins; construction checks that.
    """

    inner: PolarCurve
    outer: PolarCurve

    def __post_init__(self):
        inner, outer = self.inner.margin, self.outer.margin
        r_in = self.inner.region_samples
        gap = self.outer.region_samples - r_in
        for name, least, margin in (("inner radius", np.min(r_in), inner),
                                    ("gap between the curves", np.min(gap), inner + outer)):
            if least <= margin:
                raise ValueError(f"{name} sampled down to {least:.3e}, not above the "
                                 f"margin {margin:.3e}")

    def contains(self, points) -> np.ndarray:
        """Membership of each point of a (..., 2) array; boundary points are
        inside, and the origin is not, since the inner radius is positive."""
        points = np.asarray(points, dtype=float)
        x, y = points[..., 0], points[..., 1]
        r, theta = np.hypot(x, y), np.arctan2(y, x)
        return (self.inner.radius(theta) <= r) & (r <= self.outer.radius(theta))

    def boundary_distance(self, points) -> np.ndarray:
        """Euclidean distance of each point of a (..., 2) array to the nearer
        boundary curve, each curve taken as the polygon through its points
        at the region grid and measured on the two edges at the nearest vertex."""
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, 2)
        out = np.full(len(flat), np.inf)
        for curve in (self.inner, self.outer):
            r = curve.region_samples
            vertices = np.stack([r * np.cos(_REGION_GRID), r * np.sin(_REGION_GRID)], axis=1)
            edges = np.roll(vertices, -1, axis=0) - vertices
            squares = np.sum(vertices * vertices, axis=1)
            for start in range(0, len(flat), 16):  # (16, grid) temporaries, 256 KB each
                rows = slice(start, start + 16)
                p = flat[rows]
                nearest = np.argmin(squares - 2.0 * (p @ vertices.T), axis=1)
                for j in (nearest - 1, nearest):
                    offset = p - vertices[j]
                    along = np.clip(np.sum(offset * edges[j], axis=1)
                                    / np.sum(edges[j] * edges[j], axis=1), 0.0, 1.0)
                    gap = offset - along[:, None] * edges[j]
                    np.minimum(out[rows], np.hypot(gap[:, 0], gap[:, 1]), out=out[rows])
        return out.reshape(points.shape[:-1])

    def bounding_radius(self) -> float:
        return self.outer.grid_range()[1]


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
            radial = np.polynomial.polynomial.polyval(r, np.asarray(self.parameters))
            factor = (np.ones(theta.shape) if self.angular is None
                      else self.angular.radius(theta))
            return radial * factor
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
        """(least, greatest) rho at every point of the region, whose radii fill
        [least r_in, greatest r_out] inside the curves' grid ranges widened by
        their margins. The other kinds are linear in r, and exp(sin^2 + cos)
        is least at pi and greatest at pi / 3. A radial polynomial, less leading
        terms whose sum S of |c_k| R^k (R = max |r|) is below rounding, peaks at
        the ends or a real root of its derivative, found in r / 2^e for
        1 <= 2^e <= max(R, 1) (nan if the scaled derivative or its companion
        matrix over- or underflows); its range widened by S times the angular
        factor's widened range."""
        r = np.array([region.inner.grid_range()[0] - region.inner.margin,
                      region.outer.grid_range()[1] + region.outer.margin])
        if self.kind != "radial_polynomial_times_angular":
            values = self.evaluate(r[:, None], [math.pi, math.pi / 3])
            return float(values.min()), float(values.max())
        poly, c = np.polynomial.polynomial, np.asarray(self.parameters, dtype=float)
        radius = float(np.abs(r).max())
        logs = np.log(np.abs(c), out=np.full(c.size, -np.inf), where=c != 0)
        terms = np.exp(logs + np.arange(c.size) * math.log(radius))  # no R^k overflow
        tail = np.append(np.cumsum(terms[::-1])[::-1], 0.0)  # tail[k]: terms k and up
        keep = max(1, np.count_nonzero(tail > np.finfo(float).eps * tail[0]))
        # The turns are rooted in x = r / 2^e with 1 <= 2^e <= max(R, 1): each
        # coefficient c_k 2^(e k) is exact, and its size lies between |c_k| and
        # its term |c_k| R^k, so it neither over- nor underflows where they do not.
        # A derivative that still does, or whose leading coefficient is not a
        # normal float, would drop turns from its companion matrix: refused.
        exponent = max(0, math.frexp(radius)[1] - 1)
        slope = poly.polyder(np.ldexp(c[:keep], exponent * np.arange(keep)))
        if keep > 1 and not (np.isfinite(slope).all()
                             and abs(slope[-1]) >= np.finfo(float).tiny):
            return math.nan, math.nan
        try:
            turns = np.clip(np.ldexp(poly.polyroots(slope).real, exponent), *r)
        except np.linalg.LinAlgError:
            return math.nan, math.nan
        radial = poly.polyval(np.append(r, turns), c[:keep])
        (lo, hi), margin = (((1.0, 1.0), 0.0) if self.angular is None
                            else (self.angular.grid_range(), self.angular.margin))
        products = np.outer([radial.min() - tail[keep], radial.max() + tail[keep]],
                            [lo - margin, hi + margin])
        return float(products.min()), float(products.max())


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
    from one evaluation of the nodes and the density for all rows. `region`
    is an `AnnularRegion`, whose curves are evaluated at the angles, or the
    pair (r_in, r_out) already sampled there.

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
    r_lo, r_hi = ((region.inner.radius(thetas), region.outer.radius(thetas))
                  if isinstance(region, AnnularRegion) else region)
    span = r_hi - r_lo
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
    prev, residual, panels = None, math.inf, 1
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


# Only the benchmark calls this and clears its cache; both go with ROADMAP item 1.
@lru_cache(maxsize=32)
def radial_moment_extrema(region, density):
    """`MomentTable.extrema` of the region/density pair's default table."""
    return moment_table(region, density).extrema()


# The highest radial degree d whose table pass, (d + 7) // 2 nodes an angle, fits the budget.
MAX_RADIAL_DEGREE = 2 * (_NODE_BUDGET // _TABLE_GRID) - 6
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
    a + b <= 4 that a quartic cost needs. Its first four sampled rows are the
    degree-2 table's bit for bit, but its truncation is chosen over all rows,
    so the degree-2 rows of the two tables agree only to rounding.
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
        modes = max(1, int(np.max(np.nonzero(np.any(keep, axis=0))[0])))

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

    def extrema(self) -> tuple:
        """(min, max) of the plain radial moment at the region grid's 2048
        angles, the even plain samples; positive where rho's `bounds` are."""
        return float(np.min(self.samples[0, ::2])), float(np.max(self.samples[0, ::2]))

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

        `phases`, a list of floats or an array, are unwrapped and in cyclic
        order: slice i spans [phi_i, phi_{i+1}] and the last slice
        [phi_N, phi_1 + 2*pi]. Bars out of that order give a negative slice
        mass. One basis buffer holds theta, sin k*theta and cos k*theta at
        the N bars and at phi_1 + 2*pi; its column differences times the
        coefficients are the slices. The buffers are kept per bar count
        (`_workspace`) and overwritten by every call; the returned moments
        are a fresh array.
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
    """Cached moment table of the rows `_TABLE_WEIGHTS[degree]`, sampled in one pass.

    The cache key is the call as written: `moment_table(region, density)`
    and `moment_table(region, density, degree=2)` build two tables, so
    degree-2 callers omit the argument. `agents.cost_table` picks the one
    table a command reads. Raises QuadratureError when the fit misses the
    radial rule with one node more off the grid by more than `_TABLE_CHECK_TOL`.
    """
    weights = tuple(_MONOMIALS[name] for name in _TABLE_WEIGHTS[degree])
    thetas = np.arange(_TABLE_GRID) * (TWO_PI / _TABLE_GRID)
    radii = (region.inner.sampled(_TABLE_GRID), region.outer.sampled(_TABLE_GRID))
    table = MomentTable(_radial_batch(radii, density, thetas, weights))

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
