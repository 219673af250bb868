import numpy as np
import pytest

from tubeplan.geometry import Terminal, assign_vertices
from tubeplan.pathfinder import (HomotopyCheckFailed, InvalidEndpoints,
                                 NoPathFound, ObstacleSet, RrtConfig,
                                 TooFewSegments, check_homotopy,
                                 equalize_waypoints, find_homotopic_paths,
                                 find_path, simplify_path)

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
    import dataclasses
    more = dataclasses.replace(base, max_iterations=1600)
    p3 = find_path([0.0, 0.0], [10.0, 0.0], WALL, more)
    assert _path_length(p3) <= _path_length(p1) + 1e-9


def test_find_path_endpoint_validation():
    cfg = RrtConfig(max_iterations=100, rng_seed=0)
    with pytest.raises(InvalidEndpoints):
        find_path([0.0, 0.0], [0.0, 0.0], WALL, cfg)
    with pytest.raises(InvalidEndpoints):
        find_path([5.0, 10.0], [10.0, 0.0], WALL, cfg)   # start in a wall


def test_no_path_when_fully_blocked():
    sealed = ObstacleSet(((np.array([4.0, -200.0]), np.array([6.0, 200.0])),))
    cfg = RrtConfig(max_iterations=200, step_size=1.0, rng_seed=2)
    with pytest.raises(NoPathFound):
        find_path([0.0, 0.0], [10.0, 0.0], sealed, cfg)


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
