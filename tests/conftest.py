import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ringcover import agents, geometry, sim
from ringcover.agents import slice_centroids
from ringcover.geometry import TWO_PI, AnnularRegion, DensityField, PolarCurve
from ringcover.partition import bar_rates, cyclic_gaps
from ringcover.search import run_search
from ringcover.sim import rk4_step, run_scenario, scenario_from_dict

CONFIGS = Path(sim.__file__).with_name("configs")


def all_centroids(phases, region, density):
    """Density-weighted centroids of every slice, shape (N, 2), from the
    degree-2 moment table."""
    return slice_centroids(geometry.moment_table(region, density).slice_moments(phases))


@pytest.fixture(scope="session")
def uniform_region():
    return AnnularRegion(PolarCurve(1.0), PolarCurve(2.0))


@pytest.fixture(scope="session")
def uniform_density():
    return DensityField("uniform", (1.0,))


@pytest.fixture(scope="session")
def reference_region():
    return AnnularRegion(PolarCurve(1.0, sine_coeffs=(0.0, 0.5)),
                         PolarCurve(3.0, cosine_coeffs=(0.0, 0.5)))


@pytest.fixture(scope="session")
def reference_density():
    return DensityField("reference", (0.01,))


def _with_overrides(data, overrides):
    """`data` updated by `overrides`; without an `output` override, the default
    snapshot times beyond a shortened t_end are dropped (the parser rejects
    them)."""
    data.update(overrides)
    if "output" not in overrides:
        t_end = data["integrator"]["t_end"]
        data["output"] = {"snapshot_times": [t for t in data["output"]["snapshot_times"]
                                             if t <= t_end]}
    return data


def reference_scenario_dict(**overrides):
    data = {
        "region": {
            "inner": {"mean": 1.0, "sin": [0.0, 0.5]},
            "outer": {"mean": 3.0, "cos": [0.0, 0.5]},
        },
        "density": {"kind": "reference", "parameters": [0.01]},
        "agents": {"count": 8, "initial_phases": "random",
                   "initial_positions": "random"},
        "gains": {"kappa_phi": 0.03, "kappa_p": 0.1},
        "integrator": {"dt": 0.01, "t_end": 100.0, "log_stride": 10},
        "cost": {"kind": "squared_distance"},
        "output": {"snapshot_times": [0.0, 25.0, 100.0]},
        "seed": 42,
    }
    return _with_overrides(data, overrides)


def uniform_scenario_dict(**overrides):
    data = {
        "region": {"inner": {"mean": 1.0}, "outer": {"mean": 2.0}},
        "density": {"kind": "uniform", "parameters": [1.0]},
        "agents": {"count": 2, "initial_phases": [0.4, 1.9],
                   "initial_positions": [[1.5, 0.3], [-1.4, 0.2]]},
        "gains": {"kappa_phi": 0.1, "kappa_p": 0.5},
        "integrator": {"dt": 0.05, "t_end": 30.0, "log_stride": 100},
        "cost": {"kind": "squared_distance"},
        "search": {"K_star": 8, "T_epsilon": 30.0},
        "output": {"snapshot_times": [0.0, 30.0]},
    }
    return _with_overrides(data, overrides)


def overtaking_scenario_dict():
    """Stiff bars (kappa_phi = 1, dt = 1): an unguarded first step crosses bars,
    so the guard halves it."""
    return {
        "region": {"inner": {"mean": 1.0}, "outer": {"mean": 2.0}},
        "density": {"kind": "uniform", "parameters": [1.0]},
        "agents": {"count": 3, "initial_phases": [0.1, 0.3, 3.0],
                   "initial_positions": [[1.5, 0.3], [-1.4, 0.2], [0.0, -1.5]]},
        "gains": {"kappa_phi": 1.0, "kappa_p": 0.5},
        "integrator": {"dt": 1.0, "t_end": 10.0, "log_stride": 1},
    }


def parser_scenarios() -> dict:
    """The two bundled configs and a variant with the generic cost, an angular
    density and a tolerance-set search, whose entries the parser tests mutate."""
    bundled = {name: json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
               for name in ("reference_n8", "uniform_n2_search")}
    variant = copy.deepcopy(bundled["uniform_n2_search"])
    variant.update(density={"kind": "radial_polynomial_times_angular",
                            "parameters": [1.0, 0.1],
                            "angular": {"mean": 1.0, "cos": [0.2]}},
                   cost={"kind": "generic_builtin", "parameters": [0.25]},
                   search={"epsilon_p": 0.8, "T_epsilon": 30.0})
    return {**bundled, "generic_angular_epsilon": variant}


def entry_paths(node, path=()):
    """The key path of every entry under `node`, sections and list items included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from entry_paths(child, path + (key,))


def sweep_search(k_star):
    """The search on the uniform scenario with anchor-grid size K*."""
    return run_search(scenario_from_dict(uniform_scenario_dict(
        search={"K_star": k_star, "T_epsilon": 30.0})))


@pytest.fixture(scope="session")
def search_sweep():
    """`sweep_search` for each anchor-grid size K*."""
    return {k_star: sweep_search(k_star) for k_star in (8, 16, 32, 64)}


def scenario_run(data):
    """(log, config) of the scenario dict `data`, run."""
    config = scenario_from_dict(data)
    return run_scenario(config), config


@pytest.fixture(scope="session")
def reference_run():
    """The bundled N=8 scenario integrated to t=100 (shared across files)."""
    return scenario_run(reference_scenario_dict())


@st.composite
def star_regions(draw):
    """Region and density sections of a scenario config: a star-shaped region
    (inner mean plus one harmonic, circular outer curve strictly outside) and
    a uniform or reference density."""
    inner = draw(st.floats(0.5, 1.5))
    harmonic = [0.0] * draw(st.integers(0, 2)) + [draw(st.floats(-0.4, 0.4)) * inner]
    curve = {"mean": inner, draw(st.sampled_from(["cos", "sin"])): harmonic}
    outer = inner + abs(harmonic[-1]) + draw(st.floats(0.2, 1.5))
    return {
        "region": {"inner": curve, "outer": {"mean": outer}},
        "density": draw(st.sampled_from([{"kind": "uniform", "parameters": [1.0]},
                                         {"kind": "reference", "parameters": [0.01]}])),
    }


def region_and_density(sections):
    """The AnnularRegion and DensityField of a `star_regions` draw."""
    def curve(data):
        return PolarCurve(data["mean"], tuple(data.get("cos", ())),
                          tuple(data.get("sin", ())))

    region = AnnularRegion(curve(sections["region"]["inner"]),
                           curve(sections["region"]["outer"]))
    density = sections["density"]
    angular = density.get("angular")
    return region, DensityField(density["kind"], tuple(density["parameters"]),
                                None if angular is None else curve(angular))


@st.composite
def radial_polynomial_densities(draw):
    """A `radial_polynomial_times_angular` density section, positive on any
    `star_regions` region: a positive linear polynomial in r times a curve
    of mean 1 with one cosine harmonic below 1."""
    return {"kind": "radial_polynomial_times_angular",
            "parameters": [draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 0.5))],
            "angular": {"mean": 1.0, "cos": [draw(st.floats(-0.5, 0.5))]}}


@st.composite
def cyclic_layouts(draw):
    """N in [2, 8] bars in cyclic order: positive gaps summing to 2*pi, the
    first bar anywhere in [-4*pi, 4*pi]."""
    n = draw(st.integers(2, 8))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    gaps = TWO_PI * weights / np.sum(weights)
    offset = draw(st.floats(-4.0 * math.pi, 4.0 * math.pi))
    return offset + np.concatenate([[0.0], np.cumsum(gaps[:-1])])


def cumulative_difference_moments(table, phases):
    """Oracle for `MomentTable.slice_moments`: differences of the cumulative
    moments at the bars, the last slice closed by a full turn's totals."""
    lo = table.cumulative(phases)
    out = np.empty_like(lo)
    out[:, :-1] = lo[:, 1:] - lo[:, :-1]
    out[:, -1] = (lo[:, 0] - lo[:, -1]) + table.totals
    return out


def per_row_radial(region, density, thetas, weight, rel_tol=1e-8):
    """Oracle for `geometry._radial_batch`: the radial moments of one weight
    function w(r, theta), each 1024-angle chunk by its own adaptive
    panel-doubling pass on the materialised (angle, node) grid."""
    out = np.empty(thetas.shape)
    for start in range(0, thetas.size, 1024):
        chunk = thetas[start:start + 1024]
        r_lo = region.inner.radius(chunk)
        span = region.outer.radius(chunk) - r_lo
        prev = None
        panels = 1
        while True:
            s_pts, s_half = geometry._panel_points(0.0, 1.0, panels)
            w = (s_half[:, None] * geometry._GL_WEIGHTS[None, :]).ravel()
            r = r_lo[:, None] + span[:, None] * s_pts.ravel()[None, :]
            th = np.broadcast_to(chunk[:, None], r.shape)
            g = weight(r, th) * density.evaluate(r, th) * r
            est = span * (g @ w)
            if prev is not None and np.all(np.abs(est - prev)
                                           <= rel_tol * np.abs(est) + geometry._ABS_FLOOR):
                break
            prev = est
            panels *= 2
        out[start:start + 1024] = est
    return out


def stacked_run(config, pinned=None) -> dict:
    """Oracle for the cascade stepper of `sim._System`: the coupled system
    integrated as one stacked (phases, positions) vector, every RK4 stage
    evaluating the bar rates and the agents' targets together, with the same
    guard and halving. Returns the record columns of a run of `config` with
    bar `pinned` frozen, as `run_scenario` logs them."""
    n, beta = config.n_agents, config.beta
    table = agents.cost_table(config.region, config.density, beta)
    floor = sim.WORKLOAD_FLOOR_FRACTION * float(table.totals[0]) / n
    m_bar = float(table.totals[0]) / n

    def evaluate(y, moments=None):
        """(state, moments, targets, stacked derivative) at y."""
        if moments is None:
            moments = table.slice_moments(y[:n])
        rates = bar_rates(moments[0], config.kappa_phi)
        if pinned is not None:
            rates[pinned] = 0.0
        targets = agents.optimal_targets(moments, beta)
        velocity = -config.kappa_p * (y[n:].reshape(n, 2) - targets)
        return y, moments, targets, np.concatenate([rates, velocity.ravel()])

    def advance(start, dt, depth=0):
        trial = rk4_step(start[0], lambda y: evaluate(y)[3], dt, start[3])
        if not (cyclic_gaps(trial[:n]) <= 0.0).any():
            moments = table.slice_moments(trial[:n])
            if moments[0].min() > floor:
                return evaluate(trial, moments), depth
        if depth >= sim.MAX_STEP_HALVINGS:
            raise sim.IntegrationError("step halvings exhausted")
        mid, first = advance(start, 0.5 * dt, depth + 1)
        end, second = advance(mid, 0.5 * dt, depth + 1)
        return end, max(first, second)

    steps = round(config.t_end / config.dt)
    current = evaluate(np.concatenate([config.initial_phases,
                                       np.ravel(config.initial_positions)]))
    rows, halvings = [], 0
    for k in range(steps + 1):
        if k:
            current, halvings = advance(current, config.dt)
        if k % config.log_stride and k != steps:
            continue
        y, moments, targets, _ = current
        positions = y[n:].reshape(n, 2)
        m = moments[0]
        costs = agents.slice_cost_terms(moments, positions, beta)[0]
        offsets = positions - targets
        rows.append({
            "times": k * config.dt,
            "phases_unwrapped": y[:n],
            "positions": positions,
            "workloads": m,
            "lyapunov": 0.5 * float(np.sum((m - m_bar) ** 2)),
            "cost": float(np.sum(costs)),
            "targets": targets,
            "tracking": float(np.sum(m * np.sum(offsets * offsets, axis=1))),
            "excursion": not config.region.contains(positions).all(),
            "halvings": halvings,
        })
    return {name: np.array([row[name] for row in rows],
                           dtype=sim._RECORD_DTYPES.get(name, float))
            for name in sim._RECORDS}
