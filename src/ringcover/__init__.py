"""Coverage control with workload balancing on annular regions."""

from .geometry import (AnnularRegion, DensityField, InvalidDensityError,
                       MomentTable, PolarCurve, QuadratureError, moment_table,
                       radial_moment_extrema, region_integral)
from .partition import (advance_by_mean_workload, bar_rates, cyclic_difference_form,
                        cyclic_gaps, decay_constants, imbalance)
from .agents import (CostModel, DegenerateSubregionError, TargetSearchError,
                     all_centroids, cost_table, optimal_targets,
                     slice_centroids, slice_cost_terms, subregion_cost, total_cost)
from .sim import (ConfigError, IntegrationError, ScenarioConfig, SearchConfig,
                  TrajectoryLog, VerificationReport, epoch_count_for_tolerance,
                  rk4_step, run_scenario, scenario_from_dict, verify_invariants)
from .search import (SearchResult, anchor_assignment, gossip_until_stable, run_epoch,
                     run_search)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
