import dataclasses
import json

import numpy as np
import pytest

from tubeplan import pathfinder
from tubeplan.cli import main, plan_tube
from tubeplan.geometry import OrderPairSet, Terminal, assign_vertices
from tubeplan.pathfinder import (HomotopyCheckFailed, InvalidEndpoints,
                                 NoPathFound, ObstacleSet, RrtConfig,
                                 TooFewSegments, _PolylineRegion,
                                 check_homotopy, equalize_waypoints,
                                 find_homotopic_paths, find_path,
                                 simplify_path)
from tubeplan.scenario_io import load_scenario

WALL = ObstacleSet((
    (np.array([4.0, -18.0]), np.array([6.0, -2.0])),
    (np.array([4.0, 2.0]), np.array([6.0, 18.0])),
), inflation=0.5)


def _path_length(pts):
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def test_point_and_segment_queries():
    obs = ObstacleSet(((np.array([0.0, 0.0]), np.array([1.0, 1.0])),),
                      inflation=0.25)
    assert not obs.point_free([0.5, 0.5])
    assert not obs.point_free([-0.2, 0.5])      # inside the inflated margin
    assert obs.point_free([-0.3, 0.5])
    assert obs.segment_free([-1.0, -1.0], [-1.0, 2.0])
    assert not obs.segment_free([-1.0, 0.5], [2.0, 0.5])
    # touching endpoints: segment entirely outside passes
    assert obs.segment_free([-2.0, 2.0], [2.0, 2.0])


def test_segment_axis_parallel_cases():
    obs = ObstacleSet(((np.array([0.0, 0.0]), np.array([2.0, 2.0])),))
    # parallel to x inside the y-slab
    assert not obs.segment_free([-1.0, 1.0], [3.0, 1.0])
    # parallel to x outside the y-slab
    assert obs.segment_free([-1.0, 3.0], [3.0, 3.0])
    # zero-length-ish segment inside
    assert not obs.segment_free([1.0, 1.0], [1.0, 1.0 + 1e-12])


def test_empty_obstacles_free_everywhere():
    obs = ObstacleSet()
    assert obs.point_free([0.0, 0.0])
    assert obs.segment_free([-100.0, 0.0], [100.0, 0.0])


def test_invalid_box():
    with pytest.raises(ValueError):
        ObstacleSet(((np.array([1.0, 0.0]), np.array([0.0, 1.0])),))


def test_find_path_through_wall_gap():
    cfg = RrtConfig(max_iterations=1500, step_size=1.0, rewire_radius=3.0,
                    rng_seed=1)
    path = find_path([0.0, 0.0], [10.0, 0.0], WALL, cfg)
    assert np.allclose(path[0], [0.0, 0.0])
    assert np.allclose(path[-1], [10.0, 0.0])
    for a, b in zip(path[:-1], path[1:]):
        assert WALL.segment_free(a, b)
    # must thread the gap |y| < 1.5 inside the wall span
    for p in path:
        if 3.5 <= p[0] <= 6.5:
            assert abs(p[1]) <= 1.5 + 1e-9


def test_find_path_deterministic_and_monotone():
    base = RrtConfig(max_iterations=800, step_size=1.0, rewire_radius=3.0,
                     rng_seed=5)
    p1 = find_path([0.0, 0.0], [10.0, 0.0], WALL, base)
    p2 = find_path([0.0, 0.0], [10.0, 0.0], WALL, base)
    assert np.array_equal(p1, p2)
    more = dataclasses.replace(base, max_iterations=1600)
    p3 = find_path([0.0, 0.0], [10.0, 0.0], WALL, more)
    assert _path_length(p3) <= _path_length(p1) + 1e-9


def test_find_path_endpoint_validation():
    cfg = RrtConfig(max_iterations=100, rng_seed=0)
    with pytest.raises(InvalidEndpoints):
        find_path([0.0, 0.0], [0.0, 0.0], WALL, cfg)
    with pytest.raises(InvalidEndpoints):
        find_path([5.0, 10.0], [10.0, 0.0], WALL, cfg)   # start in a wall


# four overlapping walls seal the start (0, 0) off from any goal outside
RING = ObstacleSet((
    (np.array([-4.0, -4.0]), np.array([-3.0, 4.0])),
    (np.array([3.0, -4.0]), np.array([4.0, 4.0])),
    (np.array([-4.0, -4.0]), np.array([4.0, -3.0])),
    (np.array([-4.0, 3.0]), np.array([4.0, 4.0])),
), inflation=0.25)


def test_no_path_when_fully_blocked(monkeypatch):
    trees = _count_trees(monkeypatch)
    start, goal = np.array([0.0, 0.0]), np.array([10.0, 0.0])
    assert pathfinder._corner_graph_path(start, goal, RING, None) is None
    cfg = RrtConfig(max_iterations=200, step_size=1.0, rng_seed=2)
    with pytest.raises(NoPathFound):
        find_path(start, goal, RING, cfg)
    assert len(trees) == 1


def test_simplify_straightens_free_space():
    zig = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0], [3.0, 0.5],
                    [4.0, 0.0]])
    out = simplify_path(zig, ObstacleSet())
    assert len(out) == 2
    assert np.allclose(out[0], zig[0])
    assert np.allclose(out[-1], zig[-1])


def test_simplify_keeps_needed_corner():
    # an L around a box corner cannot be shortcut
    obs = ObstacleSet(((np.array([1.0, 1.0]), np.array([5.0, 5.0])),))
    path = np.array([[0.0, 0.0], [6.0, 0.0], [6.0, 6.0]])
    out = simplify_path(path, obs)
    assert len(out) == 3


def test_check_homotopy_detects_split_paths():
    upper = np.array([[0.0, 3.0], [10.0, 3.0]])
    lower = np.array([[0.0, -3.0], [10.0, -3.0]])
    blocker = ObstacleSet(((np.array([4.0, -1.0]), np.array([6.0, 1.0])),))
    with pytest.raises(HomotopyCheckFailed):
        check_homotopy([upper, lower], blocker)
    check_homotopy([upper, lower], ObstacleSet())   # free space: fine


def test_find_homotopic_paths_share_the_gap():
    # a wall with two gaps; all endpoints sit inside the lower gap's band,
    # so every pair must thread that gap and stay in one homotopy class
    two_gaps = ObstacleSet((
        (np.array([4.0, -14.0]), np.array([6.0, -6.0])),
        (np.array([4.0, -1.0]), np.array([6.0, 9.0])),
        (np.array([4.0, 11.0]), np.array([6.0, 20.0])),
    ), inflation=0.25)
    starts = Terminal(np.array([[0.0, -5.0], [0.5, -3.5], [0.0, -2.0]]))
    goals = Terminal(starts.vertices + np.array([10.0, 0.0]))
    pairs = assign_vertices(starts, goals)
    cfg = RrtConfig(max_iterations=1500, step_size=1.5, rewire_radius=3.0,
                    corridor_shrink_radius=2.5, rng_seed=9)
    paths = find_homotopic_paths(pairs, two_gaps, cfg)
    assert len(paths) == 3
    check_homotopy(paths, two_gaps)
    for k, path in enumerate(paths):
        assert np.allclose(path[0], starts.vertices[k])
        assert np.allclose(path[-1], goals.vertices[pairs.pairing[k]])
        # every path threads the lower gap at the wall midplane
        crossings = []
        for a, b in zip(path[:-1], path[1:]):
            if (a[0] - 5.0) * (b[0] - 5.0) < 0:
                frac = (5.0 - a[0]) / (b[0] - a[0])
                crossings.append(a[1] + frac * (b[1] - a[1]))
        assert crossings
        assert all(-5.75 < y < -1.25 for y in crossings)


def test_equalize_straight_line_uniform():
    out = equalize_waypoints([np.array([[0.0, 0.0], [4.0, 0.0]])], 4)
    pts = out[0]
    assert pts.shape == (5, 2)
    assert np.allclose(pts[:, 0], [0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.allclose(pts[:, 1], 0.0)


def test_equalize_preserves_corner():
    path = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]])
    out = equalize_waypoints([path], 4)[0]
    assert out.shape == (5, 2)
    assert any(np.allclose(p, [2.0, 0.0]) for p in out)
    # every resampled point stays on the original polyline
    for p in out:
        on_first = abs(p[1]) < 1e-9 and -1e-9 <= p[0] <= 2 + 1e-9
        on_second = abs(p[0] - 2.0) < 1e-9 and -1e-9 <= p[1] <= 2 + 1e-9
        assert on_first or on_second


def test_equalize_merges_collinear_interior_points():
    path = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 2.0]])
    out = equalize_waypoints([path], 3)[0]
    assert out.shape == (4, 2)
    assert any(np.allclose(p, [2.0, 0.0]) for p in out)


def test_equalize_too_few_segments():
    path = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
    with pytest.raises(TooFewSegments):
        equalize_waypoints([path], 2)
    with pytest.raises(TooFewSegments):
        equalize_waypoints([path], 0)


def test_equalize_same_length_output_across_paths():
    a = np.array([[0.0, 0.0], [4.0, 0.0]])
    b = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 1.0]])
    out = equalize_waypoints([a, b], 6)
    assert out[0].shape == out[1].shape == (7, 2)


# --- the visible-goal shortcut in find_path ---------------------------------

def _pairs(starts, goals):
    return OrderPairSet(Terminal(np.array(starts, dtype=float)),
                        Terminal(np.array(goals, dtype=float)),
                        np.arange(len(starts)))


def _count_trees(monkeypatch):
    """Records the endpoints of every RRT* tree that find_path grows."""
    calls = []
    real = pathfinder._rrt_star

    def counting(start, goal, *rest):
        calls.append((start, goal))
        return real(start, goal, *rest)

    monkeypatch.setattr(pathfinder, "_rrt_star", counting)
    return calls


# two walls leave a 15 m gap in y between x = 7.5 and 12.5; the lower pair
# sees its goal through the gap, the upper pair has a wall in the way
CORRIDOR = ObstacleSet((
    (np.array([8.0, -18.0]), np.array([12.0, -10.0])),
    (np.array([8.0, 6.0]), np.array([12.0, 18.0])),
), inflation=0.5)
CORRIDOR_CFG = RrtConfig(max_iterations=1500, step_size=1.5,
                         rewire_radius=4.0, corridor_shrink_radius=3.0,
                         rng_seed=1)

# the gap |y - 3| < 1.5 lies off the line y = 0, so (0, 0) -> (10, 0) is hidden
OFFSET_WALL = ObstacleSet((
    (np.array([4.0, -18.0]), np.array([6.0, 1.0])),
    (np.array([4.0, 5.0]), np.array([6.0, 18.0])),
), inflation=0.5)


def test_shortcut_skips_rrt_in_free_space(monkeypatch):
    trees = _count_trees(monkeypatch)
    starts = [[0.0, 0.0], [0.0, 2.0], [1.0, 1.0]]
    goals = [[8.0, 0.0], [8.0, 2.0], [9.0, 1.0]]
    paths = find_homotopic_paths(_pairs(starts, goals), ObstacleSet(),
                                 CORRIDOR_CFG)
    assert trees == []
    for path, start, goal in zip(paths, starts, goals):
        assert np.array_equal(path, np.array([start, goal]))
    # a visible goal needs no iterations, so it cannot fail with NoPathFound
    one = dataclasses.replace(CORRIDOR_CFG, max_iterations=1)
    assert np.array_equal(find_path([0.0, -7.5], [20.0, -7.5], CORRIDOR, one),
                          [[0.0, -7.5], [20.0, -7.5]])
    assert trees == []


def test_hidden_pair_takes_the_corner_graph_without_a_tree(monkeypatch):
    trees = _count_trees(monkeypatch)
    starts = [[0.0, -7.5], [0.0, 7.5]]
    goals = [[20.0, -7.5], [20.0, 7.5]]
    paths = find_homotopic_paths(_pairs(starts, goals), CORRIDOR,
                                 CORRIDOR_CFG)
    assert trees == []
    assert np.array_equal(paths[0], np.array([starts[0], goals[0]]))
    # around the upper wall's two lower corners, pushed out by 1e-6
    push = pathfinder._CORNER_PUSH
    assert np.array_equal(paths[1], [starts[1], [7.5 - push, 5.5 - push],
                                     [12.5 + push, 5.5 - push], goals[1]])
    for a, b in zip(paths[1][:-1], paths[1][1:]):
        assert CORRIDOR.segment_free(a, b)


def test_shortcut_equals_the_simplified_tree_path():
    # with obstacles present but out of the way, RRT* followed by the
    # shortcut pass gives exactly the segment the shortcut returns
    for seed in (1, 4):
        cfg = dataclasses.replace(CORRIDOR_CFG, rng_seed=seed)
        start, goal = np.array([0.0, -7.5]), np.array([20.0, -6.0])
        paths = find_homotopic_paths(_pairs([start], [goal]), CORRIDOR, cfg)
        tree = pathfinder._rrt_star(start, goal, CORRIDOR, cfg, None)
        assert len(tree) > 2
        assert np.array_equal(paths[0], simplify_path(tree, CORRIDOR))
        assert np.array_equal(paths[0], find_path(start, goal, CORRIDOR, cfg))


def test_find_path_grows_a_deterministic_tree_for_a_hidden_goal():
    # the tree that find_path falls back on when the corner graph fails
    start, goal = np.array([0.0, 0.0]), np.array([10.0, 0.0])
    base = RrtConfig(max_iterations=800, step_size=1.0, rewire_radius=3.0,
                     rng_seed=5)
    p1 = pathfinder._rrt_star(start, goal, OFFSET_WALL, base, None)
    assert len(p1) > 2
    assert np.array_equal(p1, pathfinder._rrt_star(start, goal, OFFSET_WALL,
                                                   base, None))
    more = dataclasses.replace(base, max_iterations=1600)
    p3 = pathfinder._rrt_star(start, goal, OFFSET_WALL, more, None)
    assert _path_length(p3) <= _path_length(p1) + 1e-9
    for path in (p1, p3):
        for a, b in zip(path[:-1], path[1:]):
            assert OFFSET_WALL.segment_free(a, b)
        for p in path:
            if 3.5 <= p[0] <= 6.5:
                assert 1.5 - 1e-9 <= p[1] <= 4.5 + 1e-9


@pytest.mark.parametrize("obstacles", [ObstacleSet(), CORRIDOR])
def test_shortcut_keeps_coincident_endpoints_invalid(obstacles):
    pairs = _pairs([[0.0, -7.5], [0.0, 0.0]], [[20.0, -7.5], [0.0, 0.0]])
    with pytest.raises(InvalidEndpoints, match="coincide"):
        find_homotopic_paths(pairs, obstacles, CORRIDOR_CFG)


@pytest.mark.parametrize("starts, goals, where", [
    ([[10.0, 7.0], [0.0, -7.5]], [[20.0, 7.5], [20.0, -7.5]], "start"),
    ([[0.0, -7.5], [0.0, 7.5]], [[20.0, -7.5], [10.0, -9.7]], "goal"),
])
def test_shortcut_keeps_endpoints_in_boxes_invalid(starts, goals, where):
    with pytest.raises(InvalidEndpoints, match=where):
        find_homotopic_paths(_pairs(starts, goals), CORRIDOR, CORRIDOR_CFG)


@pytest.mark.parametrize("height, radius", [(1.0, 6.0), (7.0, 12.0)])
def test_find_homotopic_paths_hidden_pair_keeps_to_the_envelope(
        monkeypatch, height, radius):
    # pair 0 sees its goal through the lower of two gaps; pair 1 has the
    # wall between its ends and keeps to an envelope around pair 0's path,
    # so it threads the lower gap too, never the upper one, even from
    # y = 7 where the upper gap would be shorter
    two_gaps = ObstacleSet((
        (np.array([4.0, -14.0]), np.array([6.0, -6.0])),
        (np.array([4.0, -1.0]), np.array([6.0, 9.0])),
        (np.array([4.0, 11.0]), np.array([6.0, 20.0])),
    ), inflation=0.25)
    starts = [[0.0, -3.5], [0.0, height]]
    goals = [[10.0, -3.5], [10.0, height]]
    cfg = RrtConfig(max_iterations=1500, step_size=1.5, rewire_radius=3.0,
                    corridor_shrink_radius=2.5, rng_seed=9)
    trees = _count_trees(monkeypatch)
    paths = find_homotopic_paths(_pairs(starts, goals), two_gaps, cfg)
    assert trees == []
    check_homotopy(paths, two_gaps)
    envelope = _PolylineRegion(paths[0], radius)   # radius grown to the ends
    for p in paths[1]:
        assert envelope.contains(p)
    crossings = []
    for a, b in zip(paths[1][:-1], paths[1][1:]):
        if (a[0] - 5.0) * (b[0] - 5.0) < 0:
            frac = (5.0 - a[0]) / (b[0] - a[0])
            crossings.append(a[1] + frac * (b[1] - a[1]))
    assert crossings
    assert all(-5.75 < y < -1.25 for y in crossings)


# four touching boxes frame a square hole |y|, |z| < 0.75 in the wall
# 3.75 <= x <= 6.25; every corner bordering the hole lies inside a
# neighbouring box, and the free corners sit on the wall's outer edges
FRAMED_HOLE = ObstacleSet((
    (np.array([4.0, -10.0, -10.0]), np.array([6.0, 10.0, -1.0])),
    (np.array([4.0, -10.0, 1.0]), np.array([6.0, 10.0, 10.0])),
    (np.array([4.0, -10.0, -1.0]), np.array([6.0, -1.0, 1.0])),
    (np.array([4.0, 1.0, -1.0]), np.array([6.0, 10.0, 1.0])),
), inflation=0.25)


def test_framed_hole_in_3d_falls_back_to_rrt(monkeypatch):
    # pair 0 sees its goal through the hole; the graph inside pair 1's
    # envelope keeps no corner, so RRT* grows one tree and threads the hole
    starts = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 3.0]])
    goals = starts + [10.0, 0.0, 0.0]
    cfg = RrtConfig(max_iterations=500, step_size=1.0, rewire_radius=2.0,
                    corridor_shrink_radius=2.0, rng_seed=1)
    trees = _count_trees(monkeypatch)
    paths = find_homotopic_paths(_pairs(starts, goals), FRAMED_HOLE, cfg)
    assert len(trees) == 1
    assert np.array_equal(trees[0][0], starts[1])
    assert np.array_equal(paths[0], np.array([starts[0], goals[0]]))
    for a, b in zip(paths[1][:-1], paths[1][1:]):
        assert FRAMED_HOLE.segment_free(a, b)
        if (a[0] - 5.0) * (b[0] - 5.0) < 0:
            hit = a + (5.0 - a[0]) / (b[0] - a[0]) * (b - a)
            assert np.all(np.abs(hit[1:]) < 0.75)


# --- the shipped scenarios ---------------------------------------------------

SCENARIOS = ["scenarios/corridor_2d.json", "scenarios/triangle_2d.json",
             "scenarios/tetra_3d.json"]


def test_shipped_scenarios_plan_without_a_tree(monkeypatch):
    def no_tree(*args):
        raise AssertionError("an RRT* tree was grown")

    monkeypatch.setattr(pathfinder, "_rrt_star", no_tree)
    for path in SCENARIOS:
        plan_tube(load_scenario(path))


def test_corridor_hidden_pair_is_the_shortest_path_at_every_seed(tmp_path):
    doc = json.loads(open(SCENARIOS[0], encoding="utf-8").read())
    scenario = load_scenario(SCENARIOS[0])
    pairs = assign_vertices(scenario.start_terminal, scenario.goal_terminal,
                            scenario.variance_weight)
    # around the inflated upper box's two lower corners, 2 m below y = 7.5
    shortest = 2.0 * np.hypot(7.5, 2.0) + 5.0
    tubes = []
    for seed in (1, 42, 7919):
        cfg = dataclasses.replace(scenario.rrt, rng_seed=seed)
        paths = find_homotopic_paths(pairs, scenario.obstacles, cfg)
        assert max(map(_path_length, paths)) == pytest.approx(shortest,
                                                              abs=1e-6)
        doc["rng_seed"] = seed
        src = tmp_path / f"corridor{seed}.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / f"corridor{seed}.tube.json"
        assert main(["plan", "--scenario", str(src), "--out", str(out)]) == 0
        tubes.append(out.read_bytes())
    assert tubes[0] == tubes[1] == tubes[2]
