"""End-to-end checks of the package's headline guarantees.

Each test prints one PASS/FAIL line summarizing the measured quantities
against their bounds.  The shipped scenarios are planned, and the corridor
members of criteria 1 and 2 solved directly, once at module scope; every
quadratic-program solution produced along the way is retained for the
final numerical-hygiene audit, which requests those fixtures and so also
runs alone.
"""

import dataclasses
import time
from collections import namedtuple

import numpy as np
import pytest

from tubeplan.cli import plan_tube
from tubeplan.geometry import (OrderPairSet, Terminal, barycentric_weights,
                               equispaced_weights)
from tubeplan.mpcsim import (TimeScaling, compute_metrics, reference_grid,
                             simulate)
from tubeplan.scenario_io import load_scenario
from tubeplan.trajopt import basis_row, evaluate
from tubeplan.tube import (TrajectoryConfig, check_weights,
                           direct_member_solve, member_trajectory,
                           tube_from_waypoints, verify_member_optimality)

AUDITED = []   # (label, QpSolution) pairs accumulated by every criterion
TUBES = []     # (label, tube) pairs whose trajectories get the hygiene audit


def keep(label, solution):
    AUDITED.append((label, solution))


def keep_tube(label, tube):
    TUBES.append((label, tube))
    # a vertex member's direct solve repeats its basis QP bit for bit
    for k, weights in enumerate(np.eye(tube.count)):
        keep(f"{label} basis {k}", direct_member_solve(tube, weights))


def report(number, passed, details):
    line = f"CRITERION {number}: {'PASS' if passed else 'FAIL'} - {details}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def corridor():
    scenario = load_scenario("scenarios/corridor_2d.json")
    tube = plan_tube(scenario)
    keep_tube("corridor", tube)
    return scenario, tube


@pytest.fixture(scope="module")
def equality_only(corridor):
    scenario, _ = corridor
    bare = dataclasses.replace(
        scenario, traj=dataclasses.replace(scenario.traj,
                                           corridor_mode="none"))
    tube = plan_tube(bare)
    keep_tube("hyperplane-only corridor", tube)
    return tube


@pytest.fixture(scope="module")
def triangle():
    scenario = load_scenario("scenarios/triangle_2d.json")
    tube = plan_tube(scenario)
    keep_tube("triangle", tube)
    return scenario, tube


@pytest.fixture(scope="module")
def tetra():
    scenario = load_scenario("scenarios/tetra_3d.json")
    tube = plan_tube(scenario)
    keep_tube("tetra", tube)
    return scenario, tube


# one simulate run: the scenario and tube flown, the robots' starts, the
# log and the wall time simulate took
Run = namedtuple("Run", "scenario tube starts log wall")


def fly(scenario, tube, starts):
    start = time.perf_counter()
    log = simulate(tube, starts, scenario.mpc, scenario.avoidance,
                   time_limit=scenario.time_limit,
                   goal_radius=scenario.goal_radius)
    return Run(scenario, tube, starts, log, time.perf_counter() - start)


@pytest.fixture(scope="module")
def corridor_run(corridor):
    scenario, tube = corridor
    return fly(scenario, tube, scenario.robot_starts)


@pytest.fixture(scope="module")
def tetra_run(tetra):
    scenario, tube = tetra
    return fly(scenario, tube, scenario.robot_starts)


@pytest.fixture(scope="module")
def tetra_35_run(tetra):
    """tetra_3d with robots.count 35: the lattice puts some robots strictly
    inside the start terminal, at M = 35 and J = 34 neighbours each."""
    scenario, tube = tetra
    starts = equispaced_weights(35, 4) @ scenario.start_terminal.vertices
    return fly(scenario, tube, starts)


def straight_tube(segments, length=0.2, gap=0.04):
    """Two parallel straight member paths, solved directly; small physical
    scale keeps the stacked coefficients well inside double precision."""
    xs = np.linspace(0.0, length, segments + 1)
    waypoints = np.array(
        [np.column_stack([xs, np.full(segments + 1, -gap / 2)]),
         np.column_stack([xs, np.full(segments + 1, gap / 2)])])
    config = TrajectoryConfig(segments=segments, corridor_width=gap)
    pairs = OrderPairSet(Terminal(waypoints[:, 0, :]),
                         Terminal(waypoints[:, -1, :]), np.arange(2))
    return tube_from_waypoints(pairs, waypoints, config)


@pytest.fixture(scope="module")
def straight_pair():
    base, doubled = straight_tube(7), straight_tube(14)
    keep_tube("straight 7-segment", base)
    keep_tube("straight 14-segment", doubled)
    return base, doubled


def member_error(tube, theta, label):
    """Coefficient and objective gap between combination and direct solve."""
    direct = direct_member_solve(tube, theta)
    keep(label, direct)
    x = tube.basis_x.T @ theta
    coeff = float(np.abs(x - direct.x).max())
    obj = float(x @ tube.cost.H @ x)
    obj_rel = abs(obj - direct.objective) / max(abs(direct.objective), 1e-12)
    return coeff, obj_rel


@pytest.fixture(scope="module")
def interior_members(corridor):
    """Direct solves of 9 + 99 evenly spaced interior corridor members:
    worst coefficient and objective errors, and the time they took."""
    _, tube = corridor
    start = time.perf_counter()
    worst_coeff = worst_obj = 0.0
    for count in (9, 99):
        for i in range(1, count + 1):
            f = i / (count + 1)
            coeff, obj_rel = member_error(tube, np.array([f, 1.0 - f]),
                                          "interior member")
            worst_coeff = max(worst_coeff, coeff)
            worst_obj = max(worst_obj, obj_rel)
    return worst_coeff, worst_obj, time.perf_counter() - start


@pytest.fixture(scope="module")
def sampled_members(corridor):
    """Direct solves of 10 and then 1000 random corridor members: the
    worst coefficient error of each set, and the time both took."""
    _, tube = corridor
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    def worst_error(count):
        worst = 0.0
        for theta in rng.dirichlet(np.ones(tube.count), size=count):
            coeff, _ = member_error(tube, theta, "sampled member")
            worst = max(worst, coeff)
        return worst

    err_small = worst_error(10)
    err_large = worst_error(1000)
    return err_small, err_large, time.perf_counter() - start


def test_criterion_1_interior_members_match_direct_solves(corridor,
                                                          interior_members):
    _, tube = corridor
    assert tube.count == 2 and tube.dim == 2
    assert tube.config.order == 5 and tube.config.segments >= 5
    worst_coeff, worst_obj, elapsed = interior_members
    report(1, worst_coeff <= 1e-6 and worst_obj <= 1e-8 and elapsed < 10.0,
           f"9+99 interior members: max coeff err {worst_coeff:.2e} "
           f"(<= 1e-6), max objective rel err {worst_obj:.2e} (<= 1e-8), "
           f"{elapsed:.1f}s (< 10s)")


def test_criterion_2_error_flat_from_10_to_1000_members(sampled_members):
    err_small, err_large, elapsed = sampled_members
    ratio = err_large / err_small
    report(2, err_large <= 10.0 * err_small and elapsed < 60.0,
           f"max coeff err {err_small:.2e} at 10 members vs {err_large:.2e} "
           f"at 1000, growth {ratio:.2f}x (<= 10x), {elapsed:.0f}s (< 60s)")


def test_criterion_3_first_order_optimality_holds_along_the_tube(
        corridor, equality_only):
    _, strict = corridor
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_eq = worst_corridor = 0.0
    worst_variational = np.inf
    for tube in (equality_only, strict):
        for theta in rng.dirichlet(np.ones(tube.count), size=100):
            rep = verify_member_optimality(tube, theta, directions=100)
            worst_eq = max(worst_eq, rep.eq_residual)
            worst_corridor = max(worst_corridor, rep.corridor_violation)
            worst_variational = min(worst_variational, rep.variational_min)
    elapsed = time.perf_counter() - start
    report(3, worst_eq <= 1e-8 and worst_corridor <= 1e-8
           and worst_variational >= -1e-8 and elapsed < 30.0,
           f"100 members on each instance, 100 feasible probes each: "
           f"feasibility {max(worst_eq, worst_corridor):.2e} (<= 1e-8), "
           f"min variational inner product {worst_variational:.2e} "
           f"(>= -1e-8), {elapsed:.0f}s (< 30s)")


def test_criterion_4_three_solves_serve_every_member(triangle):
    _, tube = triangle
    coeff, obj_rel = member_error(tube, np.array([0.5, 0.3, 0.2]),
                                  "triangle interior member")
    passed = (tube.count == 3 and tube.knots.segments == 7
              and coeff <= 1e-6 and obj_rel <= 1e-8)
    report(4, passed,
           f"3-vertex, 7-segment tube from {tube.count} QP solves; "
           f"4th member coeff err {coeff:.2e} (<= 1e-6), objective rel err "
           f"{obj_rel:.2e} (<= 1e-8)")


def _member_seconds(tube, repeats=7, count=200):
    thetas = np.random.default_rng(2).dirichlet(np.ones(tube.count),
                                                size=count)
    best = np.inf
    for _ in range(repeats):
        begin = time.perf_counter()
        for theta in thetas:
            member_trajectory(tube, theta)
        best = min(best, (time.perf_counter() - begin) / count)
    return best


def _direct_seconds(tube, repeats=3, count=3):
    thetas = np.random.default_rng(3).dirichlet(np.ones(tube.count),
                                                size=count)
    best = np.inf
    for _ in range(repeats):
        begin = time.perf_counter()
        for theta in thetas:
            direct_member_solve(tube, theta)
        best = min(best, (time.perf_counter() - begin) / count)
    return best


def test_criterion_5_combination_is_fast_and_scales_linearly(
        corridor, straight_pair):
    _, tube = corridor
    base, doubled = straight_pair
    assert 2 * base.basis_x.shape[1] == doubled.basis_x.shape[1]
    combine = _member_seconds(tube)
    direct = _direct_seconds(tube)
    ratio = direct / combine
    scale = _member_seconds(doubled) / _member_seconds(base)
    report(5, ratio >= 50.0 and scale <= 2.5,
           f"combination {combine * 1e6:.1f}us vs direct solve "
           f"{direct * 1e3:.2f}ms per member ({ratio:.0f}x, >= 50x); "
           f"doubling coefficients {base.basis_x.shape[1]} -> "
           f"{doubled.basis_x.shape[1]} scales time {scale:.2f}x (<= 2.5x)")


def min_pairwise_distance_per_tick(log):
    worst = np.inf
    d = log.dim
    for t in range(log.states.shape[0]):
        pos = log.states[t, :, :d]
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        worst = min(worst, float(dist.min()))
    return worst


def test_criterion_6_eleven_robots_cross_the_corridor_safely(corridor_run):
    scenario, _, _, log, wall = corridor_run
    assert scenario.robot_starts.shape == (11, 2)
    metrics = compute_metrics(log, scenario.time_limit, scenario.goal_radius)
    closest = min_pairwise_distance_per_tick(log)
    report(6, metrics.arrival_rate == 1.0 and closest >= 1.0 and wall < 120.0,
           f"11 robots: arrival rate {metrics.arrival_rate:.2f} (= 1), "
           f"min pairwise distance {closest:.3f} m every tick (>= 1.0), "
           f"simulated {log.times[-1]:.1f}s in {wall:.0f}s wall (< 120s)")


def test_criterion_7_twenty_robots_fly_the_tetrahedral_tube(tetra_run):
    scenario, tube, _, log, _ = tetra_run
    assert tube.count == 4 and tube.dim == 3
    assert scenario.robot_starts.shape == (20, 3)
    metrics = compute_metrics(log, scenario.time_limit, scenario.goal_radius)
    closest = min_pairwise_distance_per_tick(log)
    safety = scenario.avoidance.safety_distance
    worst_coeff = worst_obj = 0.0
    rng = np.random.default_rng(5)
    for theta in rng.dirichlet(np.ones(4), size=5):
        coeff, obj_rel = member_error(tube, theta, "tetra member")
        worst_coeff = max(worst_coeff, coeff)
        worst_obj = max(worst_obj, obj_rel)
    report(7, metrics.arrival_rate == 1.0 and closest >= safety
           and worst_coeff <= 1e-6 and worst_obj <= 1e-8,
           f"20 robots: arrival rate {metrics.arrival_rate:.2f} (= 1), "
           f"min distance {closest:.3f} m (>= safety {safety}); member "
           f"coeff err {worst_coeff:.2e} (<= 1e-6), objective rel err "
           f"{worst_obj:.2e} (<= 1e-8)")


def test_tetrahedral_tube_flies_at_horizon_14(tetra):
    # at horizon 14 the first QPs of robots 10, 11, 13 and 16 add a row
    # that depends on their working rows; the dual step makes room for it
    scenario, tube = tetra
    config = dataclasses.replace(scenario.mpc, horizon=14)
    log = simulate(tube, scenario.robot_starts, config, scenario.avoidance,
                   time_limit=scenario.time_limit,
                   goal_radius=scenario.goal_radius)
    metrics = compute_metrics(log, scenario.time_limit, scenario.goal_radius)
    assert metrics.arrival_rate == 1.0
    assert (min_pairwise_distance_per_tick(log)
            >= scenario.avoidance.safety_distance)


def reference_gap(run):
    """Largest distance (infinity norm) between a logged position and the
    reference of the robot's own member at the same tick."""
    scenario, tube, starts, log, _ = run
    thetas = np.array([check_weights(barycentric_weights(
        p, tube.pairs.starts), tube.count) for p in starts])
    ticks = log.times.size
    grid = reference_grid(
        tube.basis_x, tube.knots, tube.config.order, thetas,
        TimeScaling(tube.chord_total, scenario.mpc.reference_speed), ticks,
        scenario.mpc.timestep)
    ref = grid.states[:, grid.index(np.arange(ticks)), :log.dim]
    return float(np.abs(log.states[:, :, :log.dim]
                        - ref.swapaxes(0, 1)).max())


@pytest.mark.parametrize("run", ["corridor_run", "tetra_run", "tetra_35_run"])
def test_every_robot_stays_in_the_box_around_its_reference(run, request):
    run = request.getfixturevalue(run)
    assert (reference_gap(run)
            <= run.scenario.mpc.boundary_tolerance + 1e-9)


def test_thirty_five_robots_fly_the_tetrahedral_tube_safely(tetra_35_run):
    scenario, _, _, log, _ = tetra_35_run
    metrics = compute_metrics(log, scenario.time_limit, scenario.goal_radius)
    assert metrics.arrival_rate == 1.0
    assert (metrics.min_pairwise_distance
            >= scenario.avoidance.safety_distance)


def continuity_gap(tube):
    """Worst two-sided derivative mismatch at interior knots, orders 0..p,
    over the centroid member and every basis member: the end (tau = 1) of
    each segment against the start (tau = 0) of the next."""
    q = tube.count
    order = tube.config.order
    spans = np.diff(tube.knots.u)
    worst = 0.0
    for theta in [np.full(q, 1.0 / q), *np.eye(q)]:
        traj = member_trajectory(tube, theta)
        for seg in range(tube.knots.segments - 1):
            for deriv in range(tube.config.continuity + 1):
                left = (basis_row(1.0, deriv, order, spans[seg])
                        @ traj.segment_coefficients(seg))
                right = (basis_row(0.0, deriv, order, spans[seg + 1])
                         @ traj.segment_coefficients(seg + 1))
                worst = max(worst, float(np.abs(left - right).max()))
    return worst


def second_derivative_fd_error(tube, samples=100, seed=4):
    """Five-point central-difference check of evaluate's second derivative.

    The stencil is exact for degree-5 segments, so the step can stay large
    enough that subtractive cancellation in evaluate stays far below the
    tolerance.  Samples keep the whole stencil inside one segment.
    """
    traj = member_trajectory(tube, np.full(tube.count, 1.0 / tube.count))
    interior = tube.knots.u[1:-1]
    h = min(2e-2, float(np.diff(tube.knots.u).min()) / 7.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    taken = 0
    while taken < samples:
        t = float(rng.uniform(2 * h, 1 - 2 * h))
        if interior.size and np.abs(t - interior).min() < 2.5 * h:
            continue
        taken += 1
        exact = evaluate(traj, t, deriv=2)
        stencil = (-evaluate(traj, t + 2 * h) + 16 * evaluate(traj, t + h)
                   - 30 * evaluate(traj, t) + 16 * evaluate(traj, t - h)
                   - evaluate(traj, t - 2 * h)) / (12 * h * h)
        rel = np.abs(stencil - exact) / np.maximum(1.0, np.abs(exact))
        worst = max(worst, float(rel.max()))
    return worst


def test_criterion_8_numerical_hygiene(corridor, equality_only, triangle,
                                       tetra, straight_pair,
                                       interior_members, sampled_members):
    assert len(AUDITED) > 1000 and len(TUBES) >= 6
    worst_eq = max(sol.eq_residual for _, sol in AUDITED)
    worst_ineq = max(sol.ineq_violation for _, sol in AUDITED)
    worst_stat = max(
        sol.kkt_stationarity / (1e-6 * (1.0 + np.linalg.norm(sol.x)))
        for _, sol in AUDITED)
    worst_mu = min((sol.mu.min() for _, sol in AUDITED if sol.mu.size),
                   default=0.0)
    worst_gap = max(continuity_gap(tube) for _, tube in TUBES)
    worst_fd = max(second_derivative_fd_error(tube) for _, tube in TUBES)
    report(8, worst_eq <= 1e-8 and worst_ineq <= 1e-8 and worst_stat <= 1.0
           and worst_mu >= -1e-10 and worst_gap <= 1e-9 and worst_fd <= 1e-5,
           f"{len(AUDITED)} QP solutions: eq residual {worst_eq:.2e} "
           f"(<= 1e-8), corridor violation {worst_ineq:.2e} (<= 1e-8), "
           f"stationarity {worst_stat:.2e} of bound (<= 1), multipliers "
           f">= {worst_mu:.1e}; knot continuity {worst_gap:.2e} (<= 1e-9); "
           f"FD second-derivative rel err {worst_fd:.2e} (<= 1e-5) "
           f"at 100 random t per tube")
