"""Waypoint paths for bundles of homotopic start/goal vertex pairs.

A pair whose start sees its goal gets the straight segment, so it can never
fail with NoPathFound.  Any other pair takes the shortest path over a
visibility graph (Lozano-Perez & Wesley, CACM 1979) whose nodes are the
start, the goal and every corner of every inflated box, pushed out by
``_CORNER_PUSH`` because ``segment_free`` treats box boundaries as closed.
In 2-D that path is the exact shortest one, and it depends on no seed or
iteration budget.  Only where the graph cannot reach the goal does an
RRT* tree grow (Karaman & Frazzoli, IJRR 2011): in 3-D a passage whose
bordering corners all lie inside neighbouring boxes has no graph path.
The first pair may use the whole workspace; later pairs keep their graph
corners and tree samples inside an envelope around the first path, so all
paths thread the same passage.  A deterministic shortcut pass trims a
path down to a few corners, and equalization resamples every path to a
common waypoint count by arc length.
"""

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import OrderPairSet


class NoPathFound(RuntimeError):
    """The RRT* fallback never reached the goal within its iteration budget."""


class InvalidEndpoints(ValueError):
    """Start and goal coincide or lie inside an inflated obstacle."""


class HomotopyCheckFailed(RuntimeError):
    """An obstacle separates two of the planned paths."""


class TooFewSegments(ValueError):
    """Equalization target cannot preserve a path's corner vertices."""


@dataclass(frozen=True)
class ObstacleSet:
    """Axis-aligned boxes, inflated on every side by a common margin."""

    boxes: tuple = ()
    inflation: float = 0.0

    def __post_init__(self):
        lows, highs = [], []
        for lo, hi in self.boxes:
            lo = np.asarray(lo, dtype=float)
            hi = np.asarray(hi, dtype=float)
            if lo.shape != hi.shape or np.any(hi <= lo):
                raise ValueError("box must satisfy min < max per axis")
            lows.append(lo - self.inflation)
            highs.append(hi + self.inflation)
        if lows:
            object.__setattr__(self, "_lo", np.array(lows))
            object.__setattr__(self, "_hi", np.array(highs))
        else:
            object.__setattr__(self, "_lo", np.zeros((0, 0)))
            object.__setattr__(self, "_hi", np.zeros((0, 0)))

    @property
    def count(self) -> int:
        return len(self.boxes)

    def point_free(self, p) -> bool:
        """True when the point is outside every inflated box."""
        if self.count == 0:
            return True
        p = np.asarray(p, dtype=float)
        return not np.any(np.all((p >= self._lo) & (p <= self._hi), axis=1))

    def segment_free(self, p0, p1) -> bool:
        """Exact slab test of the closed segment against every inflated box."""
        if self.count == 0:
            return True
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        d = p1 - p0
        zero = np.abs(d) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (self._lo - p0) / d
            t2 = (self._hi - p0) / d
        tmin = np.minimum(t1, t2)
        tmax = np.maximum(t1, t2)
        inside = (p0 >= self._lo) & (p0 <= self._hi)
        tmin = np.where(zero, np.where(inside, -np.inf, np.inf), tmin)
        tmax = np.where(zero, np.where(inside, np.inf, -np.inf), tmax)
        enter = np.maximum(tmin.max(axis=1), 0.0)
        leave = np.minimum(tmax.min(axis=1), 1.0)
        return not np.any(enter <= leave)


@dataclass
class RrtConfig:
    max_iterations: int = 4000
    step_size: float = 1.0
    goal_bias: float = 0.1
    rewire_radius: float = 3.0
    corridor_shrink_radius: float = 3.0
    rng_seed: int = 0

    def __post_init__(self):
        for ok, rule in (
                (self.max_iterations >= 1, "max_iterations must be at least 1"),
                (self.step_size > 0, "step_size must be positive"),
                (0.0 <= self.goal_bias < 1.0, "goal_bias must be in [0, 1)"),
                (self.rewire_radius > 0, "rewire_radius must be positive"),
                (self.corridor_shrink_radius > 0,
                 "corridor_shrink_radius must be positive"),
                (self.rng_seed >= 0, "rng_seed must be nonnegative")):
            if not ok:
                raise ValueError(rule)


class _PolylineRegion:
    """Union of balls of a fixed radius around a polyline."""

    def __init__(self, polyline: np.ndarray, radius: float):
        self.polyline = np.asarray(polyline, dtype=float)
        self.radius = float(radius)

    def distance(self, p) -> float:
        a = self.polyline[:-1]
        b = self.polyline[1:]
        ab = b - a
        ap = np.asarray(p, dtype=float) - a
        denom = np.maximum((ab * ab).sum(axis=1), 1e-300)
        t = np.clip((ap * ab).sum(axis=1) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        return float(np.linalg.norm(p - proj, axis=1).min())

    def contains(self, p) -> bool:
        return self.distance(p) <= self.radius

    def bounds(self):
        lo = self.polyline.min(axis=0) - self.radius
        hi = self.polyline.max(axis=0) + self.radius
        return lo, hi


def _sample_bounds(start, goal, obstacles: ObstacleSet, region, config):
    pts = [start, goal]
    if obstacles.count:
        pts.append(obstacles._lo.min(axis=0))
        pts.append(obstacles._hi.max(axis=0))
    if region is not None:
        rlo, rhi = region.bounds()
        pts.extend([rlo, rhi])
    pts = np.array(pts)
    pad = max(config.step_size, config.rewire_radius)
    return pts.min(axis=0) - pad, pts.max(axis=0) + pad


def find_path(start, goal, obstacles: ObstacleSet, config: RrtConfig,
              sample_region=None) -> np.ndarray:
    """Collision-free polyline from start to goal.

    A goal that the start sees returns ``[start, goal]``: ``simplify_path``
    keeps the start and first tries the last vertex, so it would make
    exactly that of any other path, and a visible goal never raises
    NoPathFound.  A hidden goal takes the shortest path over the corner
    graph (``_corner_graph_path``), which ignores ``config``.  Only when
    that graph cannot reach the goal does RRT* with rewiring run; it is
    deterministic for a fixed seed, and more iterations can only keep or
    shorten its path because samples are drawn as a fixed stream.  An
    optional region keeps graph corners and tree samples inside it
    (goal-biased draws still hit the exact goal).
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if np.linalg.norm(goal - start) < 1e-12:
        raise InvalidEndpoints("start and goal coincide")
    if not obstacles.point_free(start):
        raise InvalidEndpoints("start lies inside an inflated obstacle")
    if not obstacles.point_free(goal):
        raise InvalidEndpoints("goal lies inside an inflated obstacle")
    if obstacles.segment_free(start, goal):
        return np.array([start, goal])
    path = _corner_graph_path(start, goal, obstacles, sample_region)
    if path is not None:
        return path
    return _rrt_star(start, goal, obstacles, config, sample_region)


# how far each graph corner sits outside its inflated box on every axis
_CORNER_PUSH = 1e-6


def _corner_graph_path(start, goal, obstacles, region):
    """Dijkstra from start to goal over the boxes' pushed-out corners, or
    None when no chain of free segments joins them.

    Corners inside another box or outside the region are dropped.  Nodes
    are numbered start, goal, then box by box in corner-bit order, and heap
    ties go to the lower number, so the path depends only on the geometry.
    An edge is tested with ``segment_free`` only when it would shorten a
    distance.
    """
    dim = start.size
    bits = (np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1
    corners = np.where(bits, obstacles._hi[:, None] + _CORNER_PUSH,
                       obstacles._lo[:, None] - _CORNER_PUSH).reshape(-1, dim)
    nodes = np.array([start, goal] + [
        c for c in corners if obstacles.point_free(c)
        and (region is None or region.contains(c))])
    dist = np.full(len(nodes), np.inf)
    dist[0] = 0.0
    prev = np.full(len(nodes), -1)
    done = np.zeros(len(nodes), dtype=bool)
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == 1:
            chain = [1]
            while chain[-1] != 0:
                chain.append(prev[chain[-1]])
            return nodes[chain[::-1]]
        if done[u]:
            continue
        done[u] = True
        reach = d + np.linalg.norm(nodes - nodes[u], axis=1)
        for v in np.flatnonzero(~done & (reach < dist)):
            if obstacles.segment_free(nodes[u], nodes[v]):
                dist[v] = reach[v]
                prev[v] = u
                heapq.heappush(heap, (dist[v], int(v)))
    return None


def _rrt_star(start, goal, obstacles, config, sample_region):
    """The RRT* tree of ``find_path``, on checked float endpoints."""
    rng = np.random.default_rng(config.rng_seed)
    lo, hi = _sample_bounds(start, goal, obstacles, sample_region, config)
    dim = start.size
    cap = config.max_iterations + 1
    pts = np.empty((cap, dim))
    cost = np.empty(cap)
    parent = np.full(cap, -1, dtype=np.int64)
    children = [set() for _ in range(cap)]
    pts[0] = start
    cost[0] = 0.0
    n = 1
    goal_parent = -1
    goal_cost = np.inf

    def draw_sample():
        if rng.random() < config.goal_bias:
            return goal
        for _ in range(256):
            p = rng.uniform(lo, hi)
            if sample_region is None or sample_region.contains(p):
                return p
        return goal

    def propagate(root_idx, delta):
        stack = [root_idx]
        while stack:
            k = stack.pop()
            cost[k] += delta
            stack.extend(children[k])

    for _ in range(config.max_iterations):
        target = draw_sample()
        gaps = np.linalg.norm(pts[:n] - target, axis=1)
        nearest = int(np.argmin(gaps))
        gap = gaps[nearest]
        if gap < 1e-12:
            continue
        step = min(config.step_size, gap)
        new = pts[nearest] + (target - pts[nearest]) * (step / gap)
        if not obstacles.point_free(new):
            continue
        dists = np.linalg.norm(pts[:n] - new, axis=1)
        near_ids = np.flatnonzero(dists <= config.rewire_radius)
        # cheapest collision-free parent among the neighbourhood
        best_parent = -1
        best_cost = np.inf
        order = near_ids[np.argsort(cost[near_ids] + dists[near_ids])]
        for j in order:
            cand = cost[j] + dists[j]
            if cand >= best_cost:
                break
            if obstacles.segment_free(pts[j], new):
                best_parent = int(j)
                best_cost = cand
                break
        if best_parent < 0:
            continue
        idx = n
        pts[idx] = new
        cost[idx] = best_cost
        parent[idx] = best_parent
        children[best_parent].add(idx)
        n += 1
        # rewire the neighbourhood through the new node
        for j in near_ids:
            j = int(j)
            cand = best_cost + dists[j]
            if cand < cost[j] - 1e-12 and obstacles.segment_free(new, pts[j]):
                children[parent[j]].discard(j)
                parent[j] = idx
                children[idx].add(j)
                propagate(j, cand - cost[j])
        # try to connect the goal through the new node
        goal_gap = np.linalg.norm(goal - new)
        if goal_gap <= config.step_size and obstacles.segment_free(new, goal):
            if cost[idx] + goal_gap < goal_cost:
                goal_parent = idx
                goal_cost = cost[idx] + goal_gap
        if goal_parent >= 0:
            goal_cost = min(goal_cost, cost[goal_parent]
                            + np.linalg.norm(goal - pts[goal_parent]))

    if goal_parent < 0:
        raise NoPathFound(
            f"no path after {config.max_iterations} iterations")
    chain = [goal]
    k = goal_parent
    while k >= 0:
        chain.append(pts[k].copy())
        k = parent[k]
    return np.array(chain[::-1])


def simplify_path(points, obstacles: ObstacleSet) -> np.ndarray:
    """Greedy shortcut pass: from each kept vertex jump to the farthest
    vertex reachable by a collision-free straight segment."""
    pts = np.asarray(points, dtype=float)
    last = len(pts) - 1
    keep = [0]
    i = 0
    while i < last:
        j = last
        while j > i + 1 and not obstacles.segment_free(pts[i], pts[j]):
            j -= 1
        keep.append(j)
        i = j
    return pts[keep]


def _arc_lengths(pts: np.ndarray) -> np.ndarray:
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _point_at_arc(pts: np.ndarray, cum: np.ndarray, s: float) -> np.ndarray:
    s = min(max(s, 0.0), cum[-1])
    j = int(np.searchsorted(cum, s, side="right")) - 1
    j = min(max(j, 0), len(pts) - 2)
    span = cum[j + 1] - cum[j]
    w = 0.0 if span <= 0 else (s - cum[j]) / span
    return pts[j] + w * (pts[j + 1] - pts[j])


def check_homotopy(paths, obstacles: ObstacleSet, samples: int = 41) -> None:
    """Verify no obstacle separates any two paths.

    Samples each path at matching arc-length fractions and requires every
    straight cross-path segment to be collision-free.
    """
    fractions = np.linspace(0.0, 1.0, samples)
    resampled = []
    for pts in paths:
        pts = np.asarray(pts, dtype=float)
        cum = _arc_lengths(pts)
        resampled.append(
            np.array([_point_at_arc(pts, cum, f * cum[-1]) for f in fractions]))
    for a in range(len(paths)):
        for b in range(a + 1, len(paths)):
            for s in range(samples):
                if not obstacles.segment_free(resampled[a][s], resampled[b][s]):
                    raise HomotopyCheckFailed(
                        f"paths {a} and {b} are separated near fraction "
                        f"{fractions[s]:.2f}")


def _dedupe(pts: np.ndarray) -> np.ndarray:
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-12:
            keep.append(i)
    return pts[keep]


def _merge_collinear(pts: np.ndarray) -> np.ndarray:
    """Drop interior vertices that lie exactly on the surrounding segment."""
    pts = _dedupe(pts)
    if len(pts) <= 2:
        return pts
    keep = [0]
    for i in range(1, len(pts) - 1):
        u = pts[i] - pts[keep[-1]]
        v = pts[i + 1] - pts[i]
        u = u / np.linalg.norm(u)
        v = v / np.linalg.norm(v)
        if 1.0 - float(u @ v) > 1e-12:
            keep.append(i)
    keep.append(len(pts) - 1)
    return pts[keep]


def find_homotopic_paths(pairs: OrderPairSet, obstacles: ObstacleSet,
                         config: RrtConfig) -> list:
    """One simplified path per vertex pair, all in the same homotopy class.

    Pair k's RRT* fallback uses seed ``rng_seed + k``.  Pairs beyond the
    first keep their graph corners and tree samples inside an envelope
    around the first path (radius at least corridor_shrink_radius, grown to
    reach the pair's endpoints) and the result is verified by cross-path
    segment checks.
    """
    starts = pairs.starts.vertices
    goals = pairs.paired_goals()
    paths = []
    envelope = None
    for k in range(pairs.count):
        cfg = replace(config, rng_seed=config.rng_seed + k)
        region = None
        if envelope is not None:
            radius = config.corridor_shrink_radius
            radius = max(radius,
                         envelope.distance(starts[k]) + config.step_size,
                         envelope.distance(goals[k]) + config.step_size)
            region = _PolylineRegion(envelope.polyline, radius)
        raw = find_path(starts[k], goals[k], obstacles, cfg, region)
        path = simplify_path(raw, obstacles)
        if envelope is None:
            envelope = _PolylineRegion(path, config.corridor_shrink_radius)
        paths.append(path)
    check_homotopy(paths, obstacles)
    return paths


def equalize_waypoints(paths, m_target: int) -> list:
    """Resample every path to m_target + 1 waypoints along its own polyline.

    Points are spaced evenly by arc length between anchors; every corner of
    the input (after merging exactly collinear runs) claims the nearest free
    resampling slot so the output polyline never leaves the input polyline.
    """
    if m_target < 1:
        raise TooFewSegments("m_target must be at least 1")
    out = []
    for pts in paths:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or len(pts) < 2:
            raise ValueError("each path needs at least two points")
        core = _merge_collinear(pts)
        segments = len(core) - 1
        if m_target < segments:
            raise TooFewSegments(
                f"m_target={m_target} cannot preserve {segments} segments")
        cum = _arc_lengths(core)
        total = cum[-1]
        interior = list(range(1, len(core) - 1))
        slots = [int(round(cum[j] / total * m_target)) for j in interior]
        # strictly increasing slots inside 1..m_target-1
        for i in range(len(slots)):
            low = 1 if i == 0 else slots[i - 1] + 1
            slots[i] = max(slots[i], low)
        for i in range(len(slots) - 1, -1, -1):
            high = m_target - (len(slots) - i)
            slots[i] = min(slots[i], high)
        if any(s < 1 for s in slots) or any(
                slots[i] >= slots[i + 1] for i in range(len(slots) - 1)):
            raise TooFewSegments(
                f"m_target={m_target} cannot order {len(slots)} corners")
        anchor_slots = [0] + slots + [m_target]
        anchor_arcs = [0.0] + [cum[j] for j in interior] + [total]
        arcs = []
        for (s0, a0), (s1, a1) in zip(zip(anchor_slots, anchor_arcs),
                                      zip(anchor_slots[1:], anchor_arcs[1:])):
            block = np.linspace(a0, a1, s1 - s0 + 1)
            arcs.extend(block[:-1])
        arcs.append(total)
        resampled = np.array([_point_at_arc(core, cum, s) for s in arcs])
        out.append(resampled)
    return out
