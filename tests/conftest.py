import pytest

from ringcover.geometry import AnnularRegion, DensityField, PolarCurve
from ringcover.sim import run_scenario, scenario_from_dict


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
    data.update(overrides)
    return data


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
    data.update(overrides)
    return data


def overtaking_scenario_dict():
    """Stiff bars (kappa_phi = 1, dt = 0.5): an unguarded step crosses two bars."""
    return {
        "region": {"inner": {"mean": 1.0}, "outer": {"mean": 2.0}},
        "density": {"kind": "uniform", "parameters": [1.0]},
        "agents": {"count": 3, "initial_phases": [0.1, 0.3, 3.0],
                   "initial_positions": [[1.5, 0.3], [-1.4, 0.2], [0.0, -1.5]]},
        "gains": {"kappa_phi": 1.0, "kappa_p": 0.5},
        "integrator": {"dt": 0.5, "t_end": 10.0, "log_stride": 1},
    }


@pytest.fixture(scope="session")
def reference_run():
    """The bundled N=8 scenario integrated to t=100 (shared across files)."""
    config = scenario_from_dict(reference_scenario_dict())
    return run_scenario(config), config
