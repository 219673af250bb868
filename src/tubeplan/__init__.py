"""Optimal virtual tubes for robot swarms.

Plan a small set of optimal polynomial trajectories between the vertices
of convex start/goal regions, then generate the optimal trajectory of any
interior member as a convex combination of that basis — no further
optimization required.  A horizon controller flies a swarm along the tube
with pairwise collision avoidance and a box around each robot's member.
"""

from .geometry import (OrderPairSet, Terminal, assign_vertices,
                       barycentric_weights, equispaced_weights)
from .knots import KnotVector, chord_length_knots, normalize_knots, public_knots
from .mpcsim import (AvoidanceModel, Metrics, MpcConfig, SimLog,
                     TimeScaling, compute_metrics, simulate)
from .pathfinder import (ObstacleSet, RrtConfig, equalize_waypoints,
                         find_homotopic_paths, find_path, simplify_path)
from .scenario_io import (Scenario, load_scenario, load_tube, save_log,
                          save_metrics, save_tube)
from .trajopt import (PiecewisePolynomial, assemble_cost, assemble_equality,
                      basis_row, evaluate, solve_qp)
from .tube import (OptimalVirtualTube, QpSolution, TrajectoryConfig,
                   build_tube, combination_benchmark, cross_section,
                   direct_member_solve, member_trajectory,
                   tube_from_waypoints, verify_member_optimality)

__version__ = "0.1.0"

__all__ = [
    "AvoidanceModel", "KnotVector", "Metrics", "MpcConfig", "ObstacleSet",
    "OptimalVirtualTube", "OrderPairSet",
    "PiecewisePolynomial", "QpSolution", "RrtConfig", "Scenario", "SimLog",
    "Terminal", "TimeScaling", "TrajectoryConfig", "assemble_cost",
    "assemble_equality", "assign_vertices", "barycentric_weights",
    "basis_row", "build_tube", "chord_length_knots", "combination_benchmark",
    "compute_metrics", "cross_section", "direct_member_solve",
    "equalize_waypoints", "equispaced_weights", "evaluate",
    "find_homotopic_paths", "find_path", "load_scenario", "load_tube",
    "member_trajectory", "normalize_knots", "public_knots",
    "save_log", "save_metrics", "save_tube", "simplify_path", "simulate",
    "solve_qp", "tube_from_waypoints", "verify_member_optimality",
    "__version__",
]
