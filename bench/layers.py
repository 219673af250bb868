"""Which ``tubeplan`` functions the traced run wraps, and the per-layer
metrics computed from what the wrappers record.

Every ``*_s`` metric is a self time: the function's inclusive time minus
that of the wrapped functions it called, so the self times of one pass
add up to the traced end-to-end time.  The exceptions are the two
``mpc_step`` percentiles, which are inclusive per-call latencies.
"""

import math
import os

from tracing import SpanStats, Target, Tracer


def _kkt_size(tracer: Tracer, args, kwargs, result) -> None:
    # _kkt_solve(H, A, b) factors the (n + r) x (n + r) saddle-point matrix
    rows = args[0].shape[0] + args[1].shape[0]
    tracer.add("trajopt.kkt_rows", rows)
    tracer.add("trajopt.kkt_flops", 2.0 / 3.0 * rows ** 3)


def _file_bytes(tracer: Tracer, args, kwargs, result) -> None:
    # save_tube / save_log / save_metrics(obj, path)
    tracer.add("scenario_io.bytes_written", os.path.getsize(args[1]))


def _coeff_err(tracer: Tracer, args, kwargs, result) -> None:
    tracer.peak("tube.member_coeff_err", result.coefficient_error)


TARGETS = (
    Target("pathfinder", "find_path", "pathfinder.find_path"),
    Target("pathfinder", "simplify_path", "pathfinder.simplify_path"),
    Target("pathfinder", "check_homotopy", "pathfinder.check_homotopy"),
    Target("pathfinder", "equalize_waypoints",
           "pathfinder.equalize_waypoints"),
    Target("pathfinder", "ObstacleSet.segment_free",
           "pathfinder.segment_free_calls", kind="count"),
    Target("pathfinder", "ObstacleSet.point_free",
           "pathfinder.point_free_calls", kind="count"),
    Target("geometry", "assign_vertices", "geometry.assign_vertices"),
    Target("geometry", "barycentric_weights", "geometry.barycentric_weights"),
    Target("knots", "chord_length_knots", "knots"),
    Target("knots", "public_knots", "knots"),
    Target("knots", "normalize_knots", "knots"),
    Target("trajopt", "_kkt_solve", "trajopt.kkt", hook=_kkt_size),
    Target("trajopt", "solve_qp", "trajopt.solve_qp"),
    Target("trajopt", "assemble_equality", "trajopt.assemble"),
    Target("trajopt", "assemble_cost", "trajopt.assemble"),
    Target("trajopt", "corridor_constraints", "trajopt.assemble"),
    Target("trajopt", "evaluate", "trajopt.evaluate"),
    Target("tube", "member_trajectory", "tube.member_trajectory"),
    Target("tube", "direct_member_solve", "tube.direct_member_solve"),
    Target("tube", "verify_member_optimality", "tube.verify",
           hook=_coeff_err),
    Target("tube", "combination_benchmark", "tube.combination_benchmark"),
    Target("tube", "cross_section", "tube.cross_section"),
    Target("mpcsim", "simulate", "mpcsim.simulate"),
    Target("mpcsim", "reference_window", "mpcsim.reference_window"),
    Target("mpcsim", "hull_inequalities", "mpcsim.hull_inequalities"),
    Target("mpcsim", "avoidance_halfspaces", "mpcsim.avoidance_halfspaces"),
    Target("mpcsim", "mpc_step", "mpcsim.mpc_step", keep_durations=True),
    Target("mpcsim", "compute_metrics", "mpcsim.compute_metrics"),
    Target("scenario_io", "load_scenario", "scenario_io.load_scenario"),
    Target("scenario_io", "load_tube", "scenario_io.load_tube"),
    Target("scenario_io", "save_tube", "scenario_io.save_tube",
           hook=_file_bytes),
    Target("scenario_io", "save_log", "scenario_io.save_log",
           hook=_file_bytes),
    Target("scenario_io", "save_metrics", "scenario_io.save_metrics_calls",
           kind="count", hook=_file_bytes),
    Target("cli", "cmd_plan", "cli.plan"),
    Target("cli", "cmd_members", "cli.members"),
    Target("cli", "cmd_verify", "cli.verify"),
    Target("cli", "cmd_simulate", "cli.simulate"),
)

# (metric, span whose self time it reports)
_SELF_TIMES = (
    ("pathfinder.find_path_s", "pathfinder.find_path"),
    ("pathfinder.simplify_path_s", "pathfinder.simplify_path"),
    ("pathfinder.check_homotopy_s", "pathfinder.check_homotopy"),
    ("pathfinder.equalize_waypoints_s", "pathfinder.equalize_waypoints"),
    ("geometry.assign_vertices_s", "geometry.assign_vertices"),
    ("geometry.barycentric_weights_s", "geometry.barycentric_weights"),
    ("knots.s", "knots"),
    ("trajopt.kkt_s", "trajopt.kkt"),
    ("trajopt.solve_qp_s", "trajopt.solve_qp"),
    ("trajopt.assemble_s", "trajopt.assemble"),
    ("trajopt.evaluate_s", "trajopt.evaluate"),
    ("tube.member_trajectory_s", "tube.member_trajectory"),
    ("tube.direct_member_solve_s", "tube.direct_member_solve"),
    ("tube.verify_s", "tube.verify"),
    ("tube.combination_benchmark_s", "tube.combination_benchmark"),
    ("tube.cross_section_s", "tube.cross_section"),
    ("mpcsim.simulate_self_s", "mpcsim.simulate"),
    ("mpcsim.reference_window_s", "mpcsim.reference_window"),
    ("mpcsim.hull_inequalities_s", "mpcsim.hull_inequalities"),
    ("mpcsim.avoidance_halfspaces_s", "mpcsim.avoidance_halfspaces"),
    ("mpcsim.mpc_step_s", "mpcsim.mpc_step"),
    ("mpcsim.compute_metrics_s", "mpcsim.compute_metrics"),
    ("scenario_io.load_scenario_s", "scenario_io.load_scenario"),
    ("scenario_io.load_tube_s", "scenario_io.load_tube"),
    ("scenario_io.save_tube_s", "scenario_io.save_tube"),
    ("scenario_io.save_log_s", "scenario_io.save_log"),
    ("cli.plan_self_s", "cli.plan"),
    ("cli.members_self_s", "cli.members"),
    ("cli.verify_self_s", "cli.verify"),
    ("cli.simulate_self_s", "cli.simulate"),
)

# (metric, span whose call count it reports)
_CALLS = (
    ("trajopt.kkt_solves", "trajopt.kkt"),
    ("trajopt.solve_qp_calls", "trajopt.solve_qp"),
    ("trajopt.evaluate_calls", "trajopt.evaluate"),
    ("tube.member_trajectory_calls", "tube.member_trajectory"),
    ("tube.cross_section_calls", "tube.cross_section"),
    ("mpcsim.robot_steps", "mpcsim.mpc_step"),
)

_COUNTERS = (
    ("pathfinder.segment_free_calls", "count"),
    ("pathfinder.point_free_calls", "count"),
    ("scenario_io.bytes_written", "B"),
    ("trajopt.kkt_flops", "flop"),
    ("tube.member_coeff_err", "abs"),
)


def nearest_rank(values, fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def per_layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float
                      ) -> dict:
    """name -> (value, unit) for every per-layer metric.

    Layers the workload never reaches report 0.  kkt_flops is computed
    as the sum of 2/3 n^3 over the KKT systems factored, not measured.
    """
    def span(name):
        return tracer.spans.get(name, SpanStats())

    out = {}
    for metric, name in _SELF_TIMES:
        out[metric] = (span(name).self_time, "s")
    for metric, name in _CALLS:
        out[metric] = (float(span(name).calls), "count")
    for metric, unit in _COUNTERS:
        out[metric] = (tracer.counters.get(metric, 0.0), unit)
    kkt = span("trajopt.kkt")
    qp = span("trajopt.solve_qp")
    rows = tracer.counters.get("trajopt.kkt_rows", 0.0)
    out["trajopt.kkt_rows_mean"] = (rows / kkt.calls if kkt.calls else 0.0,
                                    "rows")
    out["trajopt.active_set_iters_per_qp"] = (
        kkt.calls / qp.calls if qp.calls else 0.0, "kkt/qp")
    steps = span("mpcsim.mpc_step").durations or []
    out["mpcsim.mpc_step_ms_p50"] = (1e3 * nearest_rank(steps, 0.50), "ms")
    out["mpcsim.mpc_step_ms_p99"] = (1e3 * nearest_rank(steps, 0.99), "ms")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


PER_LAYER_NAMES = tuple(sorted(per_layer_metrics(Tracer(), 0.0, 0.0)))
