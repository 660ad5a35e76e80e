import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import (CONFIGS, cumulative_difference_moments, cyclic_layouts,
                      per_row_radial, radial_polynomial_densities, region_and_density,
                      star_regions)
from ringcover import geometry
from ringcover.agents import cost_weight
from ringcover.geometry import (TWO_PI, AnnularRegion, DensityField,
                                InvalidDensityError, PolarCurve, QuadratureError,
                                _MONOMIALS, _TABLE_WEIGHTS, _radial_batch, moment_table,
                                radial_moment_extrema, region_integral)
from ringcover.sim import scenario_from_dict

EPS = np.finfo(float).eps


def rows(*names):
    """The weight functions of the named tabulated moments."""
    return tuple(_MONOMIALS[name] for name in names)


def test_curve_harmonic_evaluation():
    curve = PolarCurve(1.0, cosine_coeffs=(0.0,), sine_coeffs=(0.0, 0.5))
    assert_allclose(curve.radius(math.pi / 4), 1.5, rtol=1e-15)
    outer = PolarCurve(3.0, cosine_coeffs=(0.0, 0.5))
    assert_allclose(outer.radius(0.0), 3.5, rtol=1e-15)


def test_curve_periodicity():
    curve = PolarCurve(2.0, cosine_coeffs=(0.3, -0.1), sine_coeffs=(0.05, 0.2, 0.01))
    thetas = np.linspace(0.0, TWO_PI, 17)
    assert_allclose(curve.radius(thetas), curve.radius(thetas + TWO_PI), rtol=1e-12)


def test_contains(uniform_region):
    assert uniform_region.contains((1.5, 0.0))
    assert not uniform_region.contains((0.5, 0.0))
    assert uniform_region.contains((2.0, 0.0))  # boundary inclusive
    assert not uniform_region.contains((0.0, 0.0))  # origin: angle undefined
    assert not uniform_region.contains((2.5, 0.0))
    # a (..., 2) array of points in one call
    points = [[[1.5, 0.0], [0.5, 0.0]], [[0.0, 2.0], [0.0, 0.0]]]
    assert np.array_equal(uniform_region.contains(points), [[True, False], [True, False]])


def test_region_validation():
    with pytest.raises(ValueError):
        AnnularRegion(PolarCurve(2.0), PolarCurve(1.0))
    with pytest.raises(ValueError):
        AnnularRegion(PolarCurve(0.2, cosine_coeffs=(0.5,)), PolarCurve(2.0))
    # curves touching somewhere is also invalid
    with pytest.raises(ValueError):
        AnnularRegion(PolarCurve(1.0), PolarCurve(2.0, cosine_coeffs=(-1.0,)))


def test_radial_moment_uniform(uniform_region, uniform_density):
    assert_allclose(_radial_batch(uniform_region, uniform_density, [0.0, 1.0, 4.5],
                                  rows("plain")), 1.5, rtol=1e-14)
    assert_allclose(_radial_batch(uniform_region, uniform_density, 1.0, rows("r2"))[0],
                    [15.0 / 4.0], rtol=1e-14)


def test_radial_moment_reference_closed_form(reference_region, reference_density):
    # r_in(0) = 1, r_out(0) = 3.5, rho(r, 0) = e + 0.01 r; antiderivative by hand
    expected = math.e * (3.5 ** 2 - 1.0) / 2.0 + 0.01 * (3.5 ** 3 - 1.0) / 3.0
    value = _radial_batch(reference_region, reference_density, 0.0, rows("plain"))[0]
    assert_allclose(value, expected, rtol=1e-14)
    assert_allclose(value, 15.4299186, rtol=1e-7)


def test_radial_moment_linear_in_density(reference_region):
    # doubling a uniform density doubles the plain moment
    one = DensityField("uniform", (1.0,))
    two = DensityField("uniform", (2.0,))
    m1 = _radial_batch(reference_region, one, 0.7, rows("plain"))
    m2 = _radial_batch(reference_region, two, 0.7, rows("plain"))
    assert_allclose(m2, 2.0 * m1, rtol=1e-10)


def test_product_density_closed_form(uniform_region):
    # (2 + r) radially, (1 + 0.2 cos(theta)) angularly; by hand at theta = 0:
    # 1.2 * int_1^2 (2 + r) r dr = 1.2 * (3 + 7/3) = 6.4
    density = DensityField("radial_polynomial_times_angular", (2.0, 1.0),
                           angular=PolarCurve(1.0, cosine_coeffs=(0.2,)))
    assert_allclose(_radial_batch(uniform_region, density, 0.0, rows("plain"))[0], [6.4],
                    rtol=1e-14)
    lo, hi = density.bounds(uniform_region)
    assert 0.0 < lo < hi


def test_region_integral_slices(uniform_region, uniform_density):
    assert_allclose(region_integral(uniform_region, uniform_density, 0.0, TWO_PI),
                    3.0 * math.pi, rtol=1e-10)
    assert_allclose(region_integral(uniform_region, uniform_density, 0.0, math.pi / 2),
                    3.0 * math.pi / 4.0, rtol=1e-10)
    # wrap-around slice gets 2*pi added
    assert_allclose(region_integral(uniform_region, uniform_density,
                                    3.0 * math.pi / 2.0, math.pi / 2.0),
                    3.0 * math.pi / 2.0, rtol=1e-10)
    assert region_integral(uniform_region, uniform_density, 1.0, 1.0) == 0.0


def test_region_integral_additivity(reference_region, reference_density):
    rng = np.random.default_rng(5)
    cuts = np.sort(rng.uniform(0.0, TWO_PI, 5))
    total = region_integral(reference_region, reference_density, 0.0, TWO_PI,
                            rel_tol=1e-10)
    pieces = [region_integral(reference_region, reference_density, a, b, rel_tol=1e-10)
              for a, b in zip(cuts, np.roll(cuts, -1))]
    assert_allclose(sum(pieces), total, rtol=1e-8)


def test_plain_moment_matches_region_integral(reference_region, reference_density):
    # periodic trapezoid of the moment profile converges spectrally
    n = 4096
    thetas = np.arange(n) * (TWO_PI / n)
    table = moment_table(reference_region, reference_density)
    profile = table.value(thetas)[0]
    total_from_profile = float(np.mean(profile) * TWO_PI)
    total = region_integral(reference_region, reference_density, 0.0, TWO_PI,
                            rel_tol=1e-10)
    assert_allclose(total_from_profile, total, rtol=1e-8)


def test_extrema_uniform(uniform_region, uniform_density):
    lo, hi = radial_moment_extrema(uniform_region, uniform_density)
    assert_allclose([lo, hi], [1.5, 1.5], rtol=1e-10)


def test_extrema_reference_dense_oracle(reference_region, reference_density):
    lo, hi = radial_moment_extrema(reference_region, reference_density)
    dense = _radial_batch(reference_region, reference_density,
                          np.arange(16384) * (TWO_PI / 16384), rows("plain"))[0]
    lo_dense, hi_dense = dense.min(), dense.max()
    assert abs(lo - lo_dense) <= 1e-3 * lo_dense
    assert abs(hi - hi_dense) <= 1e-3 * hi_dense
    assert lo > 0.0


def test_extrema_density_scaling(reference_region):
    lo1, hi1 = radial_moment_extrema(reference_region, DensityField("uniform", (1.0,)))
    lo2, hi2 = radial_moment_extrema(reference_region, DensityField("uniform", (2.0,)))
    assert_allclose([lo2, hi2], [2.0 * lo1, 2.0 * hi1], rtol=1e-10)


def test_invalid_density_detected(uniform_region):
    # angular factor 0.5 + cos(theta) goes negative near theta = pi
    bad = DensityField("radial_polynomial_times_angular", (1.0,),
                       angular=PolarCurve(0.5, cosine_coeffs=(1.0,)))
    lo, _ = bad.bounds(uniform_region)
    assert lo <= 0.0
    with pytest.raises(InvalidDensityError):
        radial_moment_extrema(uniform_region, bad)


def test_density_bounds_positive(reference_region, reference_density):
    lo, hi = reference_density.bounds(reference_region)
    assert 0.0 < lo < hi


def test_moment_table_matches_quadrature(reference_region, reference_density):
    table = moment_table(reference_region, reference_density)
    for row, weight in enumerate(("plain", "x", "y", "r2")):
        direct = region_integral(reference_region, reference_density, 0.0, TWO_PI,
                                 _MONOMIALS[weight], rel_tol=1e-11)
        assert abs(table.totals[row] - direct) <= 1e-9 * (abs(direct) + 1.0)
    rng = np.random.default_rng(11)
    for _ in range(6):
        a, b = rng.uniform(0.0, TWO_PI, 2)
        sliced = table.cumulative(np.array([b]))[0, 0] - table.cumulative(np.array([a]))[0, 0]
        if b < a:
            sliced += table.totals[0]
        direct = region_integral(reference_region, reference_density, a, b,
                                 rel_tol=1e-11)
        assert abs(sliced - direct) <= 1e-9 * (abs(direct) + 1.0)


def test_table_build_refuses_an_aliased_fit(monkeypatch, reference_region,
                                           reference_density):
    # the reference profiles need 25 modes; 16 samples alias them, and the
    # check between the samples sees it
    moment_table.cache_clear()
    monkeypatch.setattr(geometry, "_TABLE_GRID", 16)
    with pytest.raises(QuadratureError):
        moment_table(reference_region, reference_density)


@settings(max_examples=10, deadline=None)
@given(sections=star_regions())
def test_tables_and_extrema_share_one_sampling_pass(sections):
    region, density = region_and_density(sections)
    table, quartic = moment_table(region, density), moment_table(region, density, degree=4)
    assert np.array_equal(quartic.samples[:4], table.samples)
    # the build-time check found both fits far inside its tolerance
    assert 0.0 <= table.check_error <= 1e-13 and 0.0 <= quartic.check_error <= 1e-13
    lo, hi = radial_moment_extrema(region, density)
    direct = per_row_radial(region, density, np.arange(2048) * (TWO_PI / 2048),
                            _MONOMIALS["plain"])
    assert abs(lo - direct.min()) <= 1e-12 * direct.min()
    assert abs(hi - direct.max()) <= 1e-12 * direct.max()


@st.composite
def densities(draw):
    """A density of each kind; the radial polynomial has 1 to 8 coefficients."""
    kind = draw(st.sampled_from(["uniform", "reference", "radial_polynomial_times_angular"]))
    if kind == "uniform":
        return DensityField(kind, (draw(st.floats(0.5, 2.0)),))
    if kind == "reference":
        return DensityField(kind, (draw(st.floats(0.0, 0.1)),))
    coefficients = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=8))
    return DensityField(kind, tuple(coefficients), angular=PolarCurve(1.0, (0.2,), (0.0, 0.1)))


@settings(max_examples=40, deadline=None)
@given(sections=star_regions(), density=densities(), count=st.integers(1, 64),
       position=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_exact_radial_rule_matches_the_adaptive_oracle(sections, density, count, position):
    # the one rule of (degree + 7) // 2 nodes against panel doubling to 1e-13,
    # for every tabulated monomial and the quartic move weight
    region, _ = region_and_density(sections)
    weights = rows(*_TABLE_WEIGHTS[4]) + (cost_weight(0.25, position),)
    thetas = np.arange(count) * (TWO_PI / count)
    exact = _radial_batch(region, density, thetas, weights)
    for row, weight in zip(exact, weights):
        oracle = per_row_radial(region, density, thetas, weight, rel_tol=1e-13)
        assert np.all(np.abs(row - oracle) <= 1e-14 * np.max(np.abs(oracle)))


@pytest.mark.parametrize("density, degree", [
    (DensityField("uniform", (1.5,)), 0),
    (DensityField("reference", (0.01,)), 1),
    (DensityField("radial_polynomial_times_angular", (2.0,)), 0),
    (DensityField("radial_polynomial_times_angular", (2.0, 0.0, 0.5, 0.0, 0.0),
                  angular=PolarCurve(1.0, (0.2,))), 2),
    (DensityField("radial_polynomial_times_angular", (1.0, -0.5, 0.3, 0.2, 0.1, 0.05)), 5),
])
def test_radial_degree_is_exact(density, degree):
    # at a fixed angle a degree-d fit in r leaves only rounding and a fit of
    # degree d - 1 does not; trailing zero coefficients do not count
    assert density.radial_degree == degree
    r = np.linspace(0.5, 3.0, 12)
    rho = density.evaluate(r, 0.7)

    def residual(d):
        fit = np.polynomial.Polynomial.fit(r, rho, d)
        return np.max(np.abs(fit(r) - rho)) / np.max(np.abs(rho))

    assert residual(degree) <= 1e-13
    assert degree == 0 or residual(degree - 1) > 1e-6


def test_every_weight_is_a_quartic_in_r():
    # the exact radial rule counts on it: at fixed angles a degree-4 fit in r
    # leaves only rounding, for every tabulated monomial and the move weights
    r = np.linspace(0.5, 3.0, 12)
    weights = rows(*_TABLE_WEIGHTS[4]) + (cost_weight(0.25, (1.2, -0.7)),
                                          cost_weight(0.0, (0.3, 0.4)))
    for theta in (0.3, 2.0, 4.4):
        for weight in weights:
            values = weight(r, theta)
            fit = np.polynomial.Polynomial.fit(r, values, 4)
            assert np.max(np.abs(fit(r) - values)) <= 1e-13 * np.max(np.abs(values))


@pytest.mark.parametrize("density", [
    DensityField("reference", (0.01,)),
    DensityField("radial_polynomial_times_angular", (1.0, 0.5, 0.3, 0.2, 0.1))])
def test_table_check_catches_an_understated_radial_degree(monkeypatch, reference_region,
                                                          density):
    # two degrees short, the rule still integrates the degree-2 rows exactly
    # but not the quartic ones, and the check's extra node sees it
    degree = density.radial_degree
    monkeypatch.setattr(DensityField, "radial_degree", property(lambda self: degree - 2))
    moment_table.cache_clear()
    assert moment_table(reference_region, density).check_error <= 1e-13
    with pytest.raises(QuadratureError):
        moment_table(reference_region, density, degree=4)
    moment_table.cache_clear()


def count_evaluations(monkeypatch):
    """The argument tuples of every DensityField.evaluate call from now on."""
    calls = []
    evaluate = DensityField.evaluate
    monkeypatch.setattr(DensityField, "evaluate",
                        lambda *args: calls.append(args) or evaluate(*args))
    return calls


def test_node_budget_refuses_a_radial_pass_before_evaluating(monkeypatch, reference_region,
                                                             reference_density):
    # the reference table's grid pass is 4096 angles x 4 nodes
    calls = count_evaluations(monkeypatch)
    moment_table.cache_clear()
    monkeypatch.setattr(geometry, "_NODE_BUDGET", 4096 * 4 - 1)
    with pytest.raises(QuadratureError, match="node budget"):
        moment_table(reference_region, reference_density)
    assert calls == []
    monkeypatch.setattr(geometry, "_NODE_BUDGET", 4096 * 4)
    moment_table(reference_region, reference_density)
    assert len(calls) == 2
    moment_table.cache_clear()
    # a config may ask for any polynomial length: 2048 coefficients need
    # 1027 nodes, past the real budget on the table grid
    monkeypatch.undo()
    long = DensityField("radial_polynomial_times_angular", (1.0,) * 2048)
    with pytest.raises(QuadratureError, match="node budget"):
        moment_table(reference_region, long)
    # on few angles the rule's own (nodes x nodes) eigenproblem is the bound
    longer = DensityField("radial_polynomial_times_angular", (1.0,) * 4200)
    with pytest.raises(QuadratureError, match="1 angles x 2103 nodes"):
        _radial_batch(reference_region, longer, 0.0, rows("plain"))


def test_cold_builds_evaluate_the_density_once_per_chunk_and_level(
        monkeypatch, reference_region, reference_density):
    # one pass over the table grid and one over the check angles per build
    # (a pass per row took 40, then 68, and panel doubling in chunks 10)
    calls = count_evaluations(monkeypatch)
    moment_table.cache_clear()
    moment_table(reference_region, reference_density)
    assert len(calls) == 2
    moment_table(reference_region, reference_density, degree=4)
    assert len(calls) == 4


@settings(max_examples=25, deadline=None)
@given(sections=star_regions(), phases=cyclic_layouts())
def test_slice_moments_match_quadrature_for_unwrapped_phases(sections, phases):
    region, density = region_and_density(sections)
    table = moment_table(region, density)
    moments = table.slice_moments(phases)
    # each row against the bound on its size: |M_x|, |M_y| <= sqrt(m * M_r2)
    mass, r2 = moments[0], moments[3]
    scales = np.array([mass, np.sqrt(mass * r2), np.sqrt(mass * r2), r2])
    n = phases.size
    for i in range(n):
        # the last slice ends at phases[0], which region_integral moves on by 2*pi
        direct = [region_integral(region, density, phases[i], phases[(i + 1) % n],
                                  _MONOMIALS[weight], rel_tol=1e-11)
                  for weight in ("plain", "x", "y", "r2")]
        assert np.all(np.abs(moments[:, i] - direct) <= 1e-8 * scales[:, i])
    assert abs(np.sum(mass) - table.totals[0]) <= 1e-12 * table.totals[0]
    # a full turn of every bar leaves the slices as they were, up to the
    # rounding of the cumulative moments at angles up to 6*pi
    shifted = table.slice_moments(phases + TWO_PI)
    assert np.all(np.abs(shifted - moments) <= 1e-11 * scales)


@settings(max_examples=40, deadline=None)
@given(sections=star_regions(), phases=cyclic_layouts(), turns=st.integers(-2, 2),
       quartic=st.booleans(), crossed=st.integers(0, 6))
def test_slice_moments_match_the_cumulative_difference(sections, phases, turns, quartic,
                                                       crossed):
    # the one product form against the differences of the antiderivative,
    # on phases moved by whole turns and with two neighbouring bars crossed
    region, density = region_and_density(sections)
    table = (moment_table(region, density, degree=4) if quartic
             else moment_table(region, density))
    scale = TWO_PI * np.max(np.abs(table.samples), axis=1, keepdims=True)
    phases = phases + TWO_PI * turns
    swapped = phases.copy()
    i = crossed % (phases.size - 1)
    swapped[[i, i + 1]] = swapped[[i + 1, i]]
    for p in (phases, swapped):
        moments = table.slice_moments(p)
        oracle = cumulative_difference_moments(table, p)
        assert np.all(np.abs(moments - oracle) <= 1e-13 * scale)
    # the crossed slice's mass is negative in both forms
    assert moments[0, i] < 0.0 and oracle[0, i] < 0.0


def test_moment_table_slice_moments_wrap(uniform_region, uniform_density):
    table = moment_table(uniform_region, uniform_density)
    # the first slice runs from 3*pi/2 through 2*pi to 5*pi/2
    phases = np.array([3.0 * math.pi / 2.0, 5.0 * math.pi / 2.0])
    moments = table.slice_moments(phases)
    assert_allclose(moments[0], [3.0 * math.pi / 2.0, 3.0 * math.pi / 2.0],
                    rtol=1e-10)


def test_quadrature_relative_tolerance(uniform_region):
    huge = DensityField("uniform", (1e6,))
    assert_allclose(region_integral(uniform_region, huge, 0.0, TWO_PI),
                    3.0 * math.pi * 1e6, rtol=1e-8)


@settings(max_examples=40, deadline=None)
@given(sections=star_regions(), polynomial=st.none() | radial_polynomial_densities(),
       fractions=st.lists(st.floats(-1.5, 1.5), max_size=20), turns=st.integers(-3, 3))
def test_inverse_cumulative_inverts_the_plain_cumulative(sections, polynomial, fractions,
                                                         turns):
    # all three density kinds; u within one and a half turns of workload
    # either side of 0, on a grid and at drawn points
    if polynomial is not None:
        sections = {**sections, "density": polynomial}
    table = moment_table(*region_and_density(sections))
    total = table.totals[0]
    u = np.sort(np.append(np.linspace(-1.5, 1.5, 61), fractions) * total)
    theta = table.inverse_cumulative(u)
    assert np.max(np.abs(table.cumulative(theta)[0] - u)) <= 8.0 * EPS * total
    # non-decreasing, but for rounding where two workloads (nearly) tie
    assert np.all(np.diff(theta) >= -8.0 * EPS * np.maximum(1.0, np.abs(theta[1:])))
    # a turn of workload is a turn of angle, to the rounding of u + j W
    # carried through the slope 1 / omega of the inverse
    shifted = table.inverse_cumulative(u + turns * total)
    rounding = EPS * np.maximum(total, np.abs(u) + abs(turns) * total) / table.value(theta)[0]
    assert np.all(np.abs(shifted - theta - TWO_PI * turns) <= 8.0 * rounding)


@pytest.mark.parametrize("name", ["reference_n8", "uniform_n2_search"])
def test_inverse_cumulative_stops_within_four_newton_steps(monkeypatch, name):
    # the stop rule fires: with the cap at 4 steps, 10 000 workloads over four
    # turns of each bundled table converge, and keep their array's shape
    config = scenario_from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    table = moment_table(config.region, config.density)
    monkeypatch.setattr(geometry, "_INVERSE_NEWTON_CAP", 4)
    u = np.linspace(-2.0, 2.0, 10000).reshape(100, 100) * table.totals[0]
    theta = table.inverse_cumulative(u)
    assert theta.shape == u.shape
    # past one turn, evaluating M(theta) itself rounds at eps |u|
    assert np.all(np.abs(table.cumulative(theta.ravel())[0] - u.ravel())
                  <= 8.0 * EPS * np.maximum(table.totals[0], np.abs(u.ravel())))
    assert table.inverse_cumulative(0.0).shape == ()


def test_inverse_cumulative_raises_past_its_cap(monkeypatch, reference_region,
                                                reference_density):
    # one Newton step from the interpolant does not meet the stop rule
    monkeypatch.setattr(geometry, "_INVERSE_NEWTON_CAP", 1)
    with pytest.raises(QuadratureError, match="after 1 Newton steps"):
        moment_table(reference_region, reference_density).inverse_cumulative([1.0, 20.0])
