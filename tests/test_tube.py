import numpy as np
import pytest

from tubeplan import tube as tube_module
from tubeplan.geometry import OrderPairSet, Terminal, assign_vertices
from tubeplan.pathfinder import ObstacleSet, RrtConfig, equalize_waypoints
from tubeplan.trajopt import PiecewisePolynomial, evaluate, evaluate_grid
from tubeplan.tube import (BenchmarkRow, InvalidWeights, TrajectoryConfig,
                           build_tube, check_weights, combination_benchmark,
                           combine_rhs, cross_section, direct_member_solve,
                           member_trajectory, tube_from_waypoints,
                           verify_member_optimality)


def hand_tube(paths, config):
    """Solve a tube from explicit waypoint lists, skipping path planning."""
    waypoints = np.array([np.asarray(p, dtype=float) for p in paths])
    pairs = OrderPairSet(Terminal(waypoints[:, 0, :]),
                         Terminal(waypoints[:, -1, :]),
                         np.arange(len(paths)))
    return tube_from_waypoints(pairs, waypoints, config)


@pytest.fixture(scope="module")
def triangle_tube():
    starts = Terminal(np.array([[0.0, -4.0], [0.0, 4.0], [-3.0, 0.0]]))
    goals = Terminal(starts.vertices + np.array([20.0, 0.0]))
    pairs = assign_vertices(starts, goals)
    rrt = RrtConfig(max_iterations=1500, step_size=1.5, rewire_radius=4.0,
                    corridor_shrink_radius=3.0, rng_seed=7)
    return build_tube(pairs, ObstacleSet(), rrt, TrajectoryConfig())


def basis_solution(tube, k):
    """The k-th basis QP solved again: a vertex member's direct solve."""
    return direct_member_solve(tube, np.eye(tube.count)[k])


def test_build_solves_one_qp_per_vertex(triangle_tube):
    tube = triangle_tube
    assert tube.count == 3
    assert tube.basis_x.shape == (3, (5 + 1) * 7 * 2)
    assert tube.basis_b.shape[0] == 3
    assert tube.knots.u[0] == 0.0 and tube.knots.u[-1] == 1.0
    for k in range(3):
        sol = basis_solution(tube, k)
        # the vertex member's problem is the basis QP itself
        assert np.array_equal(sol.x, tube.basis_x[k])
        assert sol.eq_residual <= 1e-8
        assert sol.ineq_violation <= 1e-8


def test_member_endpoints_interpolate_terminals(triangle_tube):
    tube = triangle_tube
    theta = np.array([0.2, 0.3, 0.5])
    traj = member_trajectory(tube, theta)
    start = tube.pairs.starts.vertices.T @ theta
    goal = tube.pairs.paired_goals().T @ theta
    assert np.allclose(evaluate(traj, 0.0), start, atol=1e-7)
    assert np.allclose(evaluate(traj, 1.0), goal, atol=1e-7)


def test_member_matches_direct_solve(triangle_tube):
    tube = triangle_tube
    rng = np.random.default_rng(11)
    for _ in range(5):
        theta = rng.dirichlet(np.ones(3))
        x = member_trajectory(tube, theta).x
        direct = direct_member_solve(tube, theta)
        assert np.abs(x - direct.x).max() <= 1e-6
        obj = float(x @ tube.cost.H @ x)
        assert abs(obj - direct.objective) <= 1e-8 * max(direct.objective, 1.0)


def test_one_reduction_per_tube_and_per_direct_solve(triangle_tube,
                                                      monkeypatch):
    # the basis QPs of a tube share one reduction of the equality rows;
    # a direct solve is a reference from scratch, so it reduces every time
    reductions, solves = [], []
    reduce, solve = tube_module.reduce_equalities, tube_module._solve_reduced

    def counted(A, H):
        reductions.append(A.shape)
        return reduce(A, H)

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(tube_module, "reduce_equalities", counted)
    monkeypatch.setattr(tube_module, "_solve_reduced", counted_solve)
    tube = hand_tube(_kink_paths(0.4), TrajectoryConfig(segments=6))
    assert len(solves) == tube.count == 2 and len(reductions) == 1
    for theta in ([0.5, 0.5], [0.5, 0.5], [0.25, 0.75]):
        direct_member_solve(tube, theta)
    assert len(reductions) == 4
    direct_member_solve(triangle_tube, [0.2, 0.3, 0.5])
    assert reductions[-1] == triangle_tube.A.shape and len(reductions) == 5


def test_member_verification_passes(triangle_tube):
    rng = np.random.default_rng(2)
    for _ in range(3):
        theta = rng.dirichlet(np.ones(3))
        report = verify_member_optimality(triangle_tube, theta,
                                          directions=50, seed=4)
        assert report.passed
        assert report.eq_residual <= 1e-8
        assert report.corridor_violation <= 1e-8
        assert report.coefficient_error <= 1e-6
        assert report.objective_rel_error <= 1e-8
        assert report.variational_min >= -1e-8


def test_combine_rhs_is_linear(triangle_tube):
    tube = triangle_tube
    theta = np.array([0.5, 0.25, 0.25])
    expected = (0.5 * tube.basis_b[0] + 0.25 * tube.basis_b[1]
                + 0.25 * tube.basis_b[2])
    assert np.allclose(combine_rhs(tube, theta), expected, atol=1e-12)


def test_check_weights_rejects_bad_input():
    with pytest.raises(InvalidWeights):
        check_weights([0.5, 0.6], 2)            # sums to 1.1
    with pytest.raises(InvalidWeights):
        check_weights([-0.2, 1.2], 2)           # negative entry
    with pytest.raises(InvalidWeights):
        check_weights([1.0], 2)                 # wrong length
    with pytest.raises(InvalidWeights, match="sum to nan"):
        check_weights([float("nan"), 1.0], 2)   # not a number
    cleaned = check_weights([1.0 + 5e-10, -5e-10], 2)
    assert cleaned.min() >= 0.0
    assert cleaned.sum() == pytest.approx(1.0, abs=1e-9)


def test_cross_section_endpoints(triangle_tube):
    tube = triangle_tube
    sec0 = cross_section(tube, 0.0)
    sec1 = cross_section(tube, 1.0)
    assert np.allclose(sec0.points, tube.pairs.starts.vertices, atol=1e-7)
    assert np.allclose(sec1.points, tube.pairs.paired_goals(), atol=1e-7)


_SKEW_3D = [[[0.0, 0.0, 0.0], [3.0, 1.0, 0.5], [6.0, 0.0, 2.0],
             [9.0, -1.0, 1.0], [12.0, 0.0, 0.0]],
            [[0.0, 2.0, 0.0], [3.0, 3.0, 1.0], [6.0, 2.5, 2.0],
             [9.0, 1.0, 1.5], [12.0, 2.0, 0.0]],
            [[0.0, 1.0, 2.0], [3.0, 2.0, 3.0], [6.0, 1.0, 4.0],
             [9.0, 0.0, 2.5], [12.0, 1.0, 2.0]]]


@pytest.mark.parametrize("tube_kind", ["triangle_2d", "skew_3d"])
def test_evaluate_grid_matches_scalar_evaluate(triangle_tube, tube_kind):
    tube = (triangle_tube if tube_kind == "triangle_2d"
            else hand_tube(_SKEW_3D, TrajectoryConfig(segments=4)))
    order = tube.config.order
    # every knot (right-open segments, closed last one), the ends, and
    # random parameters
    ts = np.concatenate([tube.knots.u, [0.0, 1.0],
                         np.random.default_rng(3).uniform(0.0, 1.0, 40)])
    for deriv in range(3):
        grid = evaluate_grid(tube.basis_x, tube.knots, order, ts, deriv)
        assert grid.shape == (tube.count, ts.size, tube.dim)
        for k, x in enumerate(tube.basis_x):
            traj = PiecewisePolynomial(tube.dim, order, tube.knots, x)
            ref = np.array([evaluate(traj, t, deriv) for t in ts])
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(grid[k] - ref).max() <= 1e-12 * scale
        # a member is the weighted sum of the basis rows
        theta = np.array([0.2, 0.3, 0.5])
        member = member_trajectory(tube, theta)
        ref = np.array([evaluate(member, t, deriv) for t in ts])
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(np.tensordot(theta, grid, 1) - ref).max() <= (
            1e-12 * scale)


def test_combination_benchmark_rows(triangle_tube):
    rows = combination_benchmark(triangle_tube, counts=(10, 50), seed=0)
    assert [r.members for r in rows] == [10, 50]
    for row in rows:
        assert isinstance(row, BenchmarkRow)
        assert row.member_seconds > 0.0
        assert row.direct_seconds > 0.0
        assert row.ratio > 10.0


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(corridor_mode="banana")
    with pytest.raises(ValueError):
        TrajectoryConfig(order=3, continuity=4)


# --- corridor activity and optimality transfer ------------------------------
#
# Hand-built two-member instances around a pinned kink at (6, 2).  The
# terminals differ by a small perpendicular offset so the two equality
# systems share A while the corridor squeezes the swing around the kink.

_CORE = [[1.5, 0.0], [3.0, 0.0], [6.0, 2.0], [9.0, 0.0], [10.5, 0.0]]


def _kink_paths(spread):
    p0 = np.array([[0.0, spread]] + _CORE + [[12.0, spread]])
    p1 = np.array([[0.0, -spread]] + _CORE + [[12.0, -spread]])
    return [p0, p1]


def test_equality_only_members_verify():
    cfg = TrajectoryConfig(segments=6, corridor_mode="none")
    tube = hand_tube(_kink_paths(0.4), cfg)
    assert tube.corridor is None
    rng = np.random.default_rng(8)
    for _ in range(5):
        report = verify_member_optimality(tube, rng.dirichlet(np.ones(2)),
                                          directions=50, seed=2)
        assert report.passed
        assert report.corridor_violation == 0.0


def test_shared_active_rows_still_transfer():
    # tight corridor: both basis solutions clamp onto the same wall rows,
    # so members remain exactly optimal with those rows active
    cfg = TrajectoryConfig(segments=6, corridor_width=0.15)
    tube = hand_tube(_kink_paths(0.02), cfg)
    a0, a1 = (set(basis_solution(tube, k).active_set.tolist())
              for k in range(2))
    assert a0 and a0 == a1
    rng = np.random.default_rng(5)
    for _ in range(5):
        report = verify_member_optimality(tube, rng.dirichlet(np.ones(2)),
                                          directions=50, seed=1)
        assert report.passed
        assert report.coefficient_error <= 1e-6
        assert report.variational_min >= -1e-8


def test_differing_active_rows_detected():
    # a perpendicular translate makes the two bases press opposite walls;
    # the combination is then genuinely suboptimal and must be reported
    zig = np.array([[0.0, 0.0], [4.0, 3.0], [8.0, 0.0]])
    paths = equalize_waypoints([zig, zig + np.array([0.0, 1.0])], 5)
    cfg = TrajectoryConfig(segments=5, corridor_width=0.3)
    tube = hand_tube(paths, cfg)
    a0, a1 = (set(basis_solution(tube, k).active_set.tolist())
              for k in range(2))
    assert a0 != a1
    report = verify_member_optimality(tube, [0.5, 0.5], directions=50, seed=1)
    assert not report.passed
    assert report.coefficient_error > 1e-6
