"""Coverage control with workload balancing on annular regions."""

from .geometry import (AnnularRegion, DensityField, InvalidDensityError,
                       MomentTable, PolarCurve, QuadratureError, moment_table,
                       radial_moment, radial_moment_extrema, region_integral)
from .partition import (PartitionState, Workloads, advance_by_mean_workload,
                        cyclic_difference_form, decay_constants, lyapunov_value,
                        mean_workload, min_workload_guard, partition_rhs,
                        slice_workloads, subregion_workload)
from .agents import (AgentState, CostModel, DegenerateSubregionError,
                     TargetSearchError, all_centroids, centroid, control_input,
                     cost_gradient, cost_hessian, cost_table, miranda_box_test,
                     optimal_target, optimal_targets, radial_second_moment_about,
                     slice_cost_terms, subregion_cost, total_cost)
from .search import (AgentNode, GossipProtocolError, RingMessage, SearchConfig,
                     SearchResult, anchor_assignment, epoch_count_for_tolerance,
                     gossip_until_stable, run_epoch, run_search,
                     select_and_finalize)
from .sim import (ConfigError, IntegrationError, ScenarioConfig, TrajectoryLog,
                  VerificationReport, rk4_step, run_scenario, scenario_from_dict,
                  verify_invariants)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
