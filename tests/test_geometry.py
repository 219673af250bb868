import json

import numpy as np
import pytest
from itertools import permutations

from tubeplan.geometry import (HULL_TOL, DegenerateTerminal, OrderPairSet,
                               PointOutsideHull, SizeMismatch, Terminal,
                               TooManyVertices, assign_vertices,
                               barycentric_weights, equispaced_points,
                               equispaced_weights, hull_distance)

TRI = Terminal(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_barycentric_triangle_oracle():
    theta = barycentric_weights(np.array([0.25, 0.10]), TRI)
    assert np.allclose(theta, [0.65, 0.25, 0.10], atol=1e-12)


def test_barycentric_vertices_are_unit_weights():
    for k in range(3):
        theta = barycentric_weights(TRI.vertices[k], TRI)
        expect = np.zeros(3)
        expect[k] = 1.0
        assert np.allclose(theta, expect, atol=1e-9)


def test_barycentric_reconstructs_interior_points():
    rng = np.random.default_rng(0)
    square = Terminal(np.array([[0.0, 0.0], [2.0, 0.0],
                                [2.0, 2.0], [0.0, 2.0]]))
    for _ in range(25):
        w = rng.dirichlet(np.ones(4))
        p = square.vertices.T @ w
        theta = barycentric_weights(p, square)
        assert theta.min() >= 0.0
        assert abs(theta.sum() - 1.0) <= 1e-9
        assert np.linalg.norm(square.vertices.T @ theta - p) <= 1e-8


def test_barycentric_outside_raises():
    with pytest.raises(PointOutsideHull):
        barycentric_weights(np.array([1.0, 1.0]), TRI)
    with pytest.raises(PointOutsideHull):
        barycentric_weights(np.array([-0.1, 0.0]), TRI)


def test_barycentric_dim_mismatch():
    with pytest.raises(SizeMismatch):
        barycentric_weights(np.array([0.1, 0.1, 0.1]), TRI)


def test_terminal_rejects_duplicates_and_interior_vertices():
    with pytest.raises(DegenerateTerminal):
        Terminal(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    # middle vertex lies on the segment between the others
    with pytest.raises(DegenerateTerminal):
        Terminal(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def _lp_in_hull(vertices, point):
    """Oracle: is the point a convex combination of the vertices?"""
    from scipy.optimize import linprog
    q = len(vertices)
    A_eq = np.vstack([vertices.T, np.ones((1, q))])
    return linprog(np.zeros(q), A_eq=A_eq, b_eq=np.append(point, 1.0),
                   bounds=(0, None), method="highs").status == 0


def _sphere_terminal(rng, q, d):
    # points on a sphere are always in convex position
    ring = rng.normal(size=(q, d))
    return Terminal(rng.normal(size=d)
                    + 2.0 * ring / np.linalg.norm(ring, axis=1)[:, None])


@pytest.mark.parametrize("d", [2, 3])
def test_barycentric_weights_agree_with_the_lp_oracle(d):
    rng = np.random.default_rng(40 + d)
    for trial in range(240):
        terminal = _sphere_terminal(rng, rng.integers(2, 8), d)
        V = terminal.vertices
        p = (rng.dirichlet(np.ones(len(V))) @ V if trial % 2
             else terminal.centroid() + rng.normal(size=d))
        inside = _lp_in_hull(V, p)
        try:
            theta = barycentric_weights(p, terminal)
        except PointOutsideHull:
            assert not inside, trial
            continue
        assert inside, trial
        assert theta.min() >= 0.0
        assert abs(theta.sum() - 1.0) <= 1e-12
        assert np.abs(V.T @ theta - p).max() <= 1e-9
        assert np.count_nonzero(theta) <= d + 1


def test_extreme_vertex_check_takes_few_solves(monkeypatch):
    # every vertex of a tetrahedron lies outside the hull of the others
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    Terminal(np.array([[0.0, 0.0, 0.0], [3.0, 8.0, 0.0], [3.0, 0.0, 8.0],
                       [0.0, 8.0, 8.0]]))
    assert len(calls) <= 4 * 4


@pytest.mark.parametrize("name", ["corridor_2d", "triangle_2d", "tetra_3d"])
def test_barycentric_weights_do_not_move_with_the_terminal(name):
    with open(f"scenarios/{name}.json", encoding="utf-8") as f:
        V = np.array(json.load(f)["start_terminal"], dtype=float)
    rng = np.random.default_rng(11)
    points = np.vstack([rng.dirichlet(np.ones(len(V)), size=200) @ V, V])
    base = [barycentric_weights(p, Terminal(V)) for p in points]
    for k in range(8):
        offset = 10.0 ** k * np.ones(V.shape[1])
        shifted = Terminal(V + offset)
        for p, theta in zip(points + offset, base):
            assert np.abs(barycentric_weights(p, shifted) - theta).max() \
                <= 1e-8, (k, p)


def test_terminal_properties():
    assert TRI.count == 3
    assert TRI.dim == 2
    assert np.allclose(TRI.centroid(), [1 / 3, 1 / 3])


def test_assign_translated_terminals_identity():
    goals = Terminal(TRI.vertices + np.array([10.0, 0.0]))
    pairs = assign_vertices(TRI, goals)
    assert pairs.pairing.tolist() == [0, 1, 2]
    assert np.allclose(pairs.paired_goals(), goals.vertices)


def _circle_terminal(rng, center, radius=4.0):
    # vertices on a circle are always in convex position
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, 4))
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    return Terminal(np.asarray(center) + radius * ring)


def test_assign_matches_exhaustive_search():
    rng = np.random.default_rng(3)
    for _ in range(5):
        s = _circle_terminal(rng, [0.0, 0.0])
        g = _circle_terminal(rng, [30.0, 5.0])
        pairs = assign_vertices(s, g, variance_weight=0.7)
        d = np.linalg.norm(s.vertices[:, None] - g.vertices[None], axis=2)
        best = min(
            (d[range(4), list(p)].mean()
             + 0.7 * d[range(4), list(p)].var(), p)
            for p in permutations(range(4)))
        picked = d[range(4), pairs.pairing]
        assert picked.mean() + 0.7 * picked.var() == pytest.approx(best[0])


def test_assign_tie_breaks_lexicographically():
    s = Terminal(np.array([[0.0, 0.0], [2.0, 0.0]]))
    g = Terminal(np.array([[1.0, 1.0], [1.0, -1.0]]))
    # both pairings give identical distance sets; lexicographic order wins
    assert assign_vertices(s, g).pairing.tolist() == [0, 1]


def test_assign_vertex_cap():
    # 9 vertices take seconds; each more about ten times as long
    for q in (10, 13):
        pts = np.column_stack([np.arange(float(q)), np.arange(float(q)) ** 2])
        big = Terminal(pts)
        with pytest.raises(TooManyVertices):
            assign_vertices(big, big)


def test_order_pair_set_validation():
    goals = Terminal(TRI.vertices + np.array([5.0, 0.0]))
    with pytest.raises(ValueError):
        OrderPairSet(TRI, goals, np.array([0, 0, 1]))
    pairs = OrderPairSet(TRI, goals, np.array([2, 0, 1]))
    assert np.allclose(pairs.paired_goals()[0], goals.vertices[2])


def test_equispaced_weights_centroid_and_segment():
    assert np.allclose(equispaced_weights(1, 3), [[1 / 3, 1 / 3, 1 / 3]])
    w = equispaced_weights(11, 2)
    assert w.shape == (11, 2)
    assert np.allclose(sorted(w[:, 0]), np.linspace(0, 1, 11))
    assert np.allclose(w.sum(axis=1), 1.0)


def test_equispaced_weights_exact_lattice():
    w = equispaced_weights(20, 4)
    assert w.shape == (20, 4)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert w.min() >= 0.0
    # 20 = C(6, 3): the full resolution-3 lattice, all rows distinct
    assert len({tuple(np.round(r, 9)) for r in w}) == 20
    assert np.allclose(w * 3, np.round(w * 3))


def test_equispaced_weights_validation():
    with pytest.raises(ValueError):
        equispaced_weights(0, 3)


def test_equispaced_points_are_distinct_on_a_square():
    # the lattice weights (1/2, 0, 1/2, 0) and (0, 1/2, 0, 1/2) both give
    # the centre; only the first is kept
    square = Terminal(np.array([[0.0, -2.0], [0.0, 2.0], [-3.0, 2.0],
                                [-3.0, -2.0]]))
    for count in range(1, 25):
        points = equispaced_points(count, square)
        assert points.shape == (count, 2)
        gaps = np.linalg.norm(points[:, None] - points[None], axis=2)
        assert gaps[np.triu_indices(count, 1)].min(initial=np.inf) \
            >= HULL_TOL
        for p in points:
            barycentric_weights(p, square)
        # moved far away, the same lattice points are kept
        offset = np.array([1e7, -1e7])
        moved = equispaced_points(count, Terminal(square.vertices + offset))
        assert np.abs(moved - offset - points).max() <= 1e-8
    centre = np.array([-1.5, 0.0])
    assert (np.linalg.norm(equispaced_points(9, square) - centre, axis=1)
            < HULL_TOL).sum() == 1


def test_equispaced_points_on_a_simplex_are_the_lattice():
    for V in ([[0.0, -7.5], [0.0, 7.5]],
              [[0.0, -1.6], [0.0, 1.6], [-1.2, 0.0]],
              [[0.0, 0.0, 0.0], [3.0, 8.0, 0.0], [3.0, 0.0, 8.0],
               [0.0, 8.0, 8.0]]):
        terminal = Terminal(np.array(V))
        for count in (1, 2, 6, 11, 20, 35):
            assert np.array_equal(
                equispaced_points(count, terminal),
                equispaced_weights(count, terminal.count) @ terminal.vertices)


def _lp_hulls_intersect(U, W):
    """Oracle: is some point a convex combination of both vertex sets?"""
    from scipy.optimize import linprog
    qu, d = U.shape
    qw = W.shape[0]
    A_eq = np.zeros((d + 2, qu + qw))
    A_eq[:d, :qu] = U.T
    A_eq[:d, qu:] = -W.T
    A_eq[d, :qu] = 1.0
    A_eq[d + 1, qu:] = 1.0
    b_eq = np.concatenate([np.zeros(d), [1.0, 1.0]])
    return linprog(np.zeros(qu + qw), A_eq=A_eq, b_eq=b_eq,
                   bounds=(0, None), method="highs").status == 0


@pytest.mark.parametrize("d", [2, 3])
def test_hull_distance_agrees_with_the_lp_oracle(d):
    rng = np.random.default_rng(20 + d)
    for trial in range(300):
        U = rng.normal(size=(rng.integers(1, 6), d))
        W = rng.normal(size=(rng.integers(1, 6), d))
        W += rng.normal(size=d) * rng.uniform(0.0, 3.0)
        if trial % 3 == 0:      # a vertex of W inside conv(U)
            W[0] = rng.dirichlet(np.ones(len(U))) @ U
        dist = hull_distance(U, W)
        assert (dist <= 1e-9) == _lp_hulls_intersect(U, W), (trial, dist)
        if trial % 3 == 0:
            assert dist <= 1e-12


def test_hull_distance_exact_cases():
    U = np.array([[0.0, 0.0], [0.0, 1.0]])
    W = np.array([[1.0, 0.0], [1.0, 1.0]])
    # parallel unit segments 1 m apart, also far from the origin
    assert hull_distance(U, W) == 1.0
    assert hull_distance(U + 1e5, W + 1e5) == 1.0
    tri = TRI.vertices
    assert hull_distance(tri, [[0.2, 0.3]]) <= 1e-15
    assert hull_distance([[0.2, 0.3]], tri) <= 1e-15
    # 1e-8 m outside the edge from (1, 0) to (0, 1)
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    outside = np.array([0.3, 0.7]) + 1e-8 * n
    assert abs(hull_distance(tri, [outside]) - 1e-8) <= 1e-12
    assert abs(hull_distance(tri, [[0.5, -1e-8]]) - 1e-8) <= 1e-12
    # two tetrahedra on either side of a shared face
    face = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    above = np.vstack([face, [[0.2, 0.2, 1.0]]])
    below = np.vstack([face, [[0.3, 0.1, -1.0]]])
    assert hull_distance(above, below) == 0.0
    # single vertices: the distance between the points
    assert hull_distance([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0
    assert hull_distance([[1.0, 2.0, 2.0]], [[1.0, 2.0, 2.0]]) == 0.0
