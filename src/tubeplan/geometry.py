"""Convex terminal sets, barycentric weights, hull distances, and start/goal
vertex assignment.

A terminal is the convex hull of a small list of vertices.  Weights are
barycentric coordinates over those vertices; the weight solver returns the
minimum-Euclidean-norm feasible weights when the representation is not
unique.  The distance between two vertex hulls is the minimum-norm point
of their difference hull.  Assignment pairs start vertices with goal
vertices so that member trajectories spread evenly instead of crossing.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

# Reconstruction tolerance for hull membership, in metres.
HULL_TOL = 1e-9
# hull_distance stops within this times the largest vertex difference
DIST_REL_TOL = 1e-12
# Exhaustive assignment is factorial in the vertex count; hard cap.
MAX_ASSIGN_VERTICES = 12


class DegenerateTerminal(ValueError):
    """Terminal vertices are duplicated or not all extreme points."""


class PointOutsideHull(ValueError):
    """No nonnegative weights reconstruct the point within tolerance."""


class SizeMismatch(ValueError):
    """Start and goal terminals have different vertex counts."""


class TooManyVertices(ValueError):
    """Vertex count exceeds the exhaustive-assignment cap."""


def _min_norm_weights(vertices: np.ndarray, point: np.ndarray,
                      max_iter: int = 200) -> np.ndarray:
    """Minimum-norm theta with vertices.T @ theta = point, sum(theta) = 1,
    theta >= 0.

    Active-set iteration on the nonnegativity bounds: clamp the most
    negative weight, re-solve the free subproblem with a minimum-norm
    least-squares solve, and release clamped weights whose multiplier turns
    negative.  Feasibility is judged by the caller via the reconstruction
    residual.

    Each step depends only on the free set, so a repeated free set (points
    outside the hull clamp and release the same weight) starts a cycle; the
    loop then returns the weights that cycle would hold after max_iter steps.
    """
    q, _ = vertices.shape
    A = np.vstack([vertices.T, np.ones((1, q))])
    b = np.append(point, 1.0)
    free = np.ones(q, dtype=bool)
    theta = np.zeros(q)
    first_seen = {}     # free set -> step at which it was first solved
    assigned = []       # weights assigned at each step, or None
    for step in range(max_iter):
        if not free.any():
            break
        key = free.tobytes()
        if key in first_seen:
            cycle = assigned[first_seen[key]:]
            k = (max_iter - 1 - first_seen[key]) % len(cycle)
            theta = next((t for t in cycle[k::-1] + cycle[:k:-1]
                          if t is not None), theta)
            break
        first_seen[key] = step
        assigned.append(None)
        tf, *_ = np.linalg.lstsq(A[:, free], b, rcond=None)
        if tf.min() < -1e-12:
            worst = np.flatnonzero(free)[np.argmin(tf)]
            free[worst] = False
            continue
        theta = np.zeros(q)
        theta[free] = tf
        assigned[-1] = theta
        # KKT: theta + A.T @ lam - mu = 0 with mu = 0 on the free set.
        lam, *_ = np.linalg.lstsq(A[:, free].T, -tf, rcond=None)
        mu = theta + A.T @ lam
        clamped = ~free
        if clamped.any() and mu[clamped].min() < -1e-9:
            release = np.flatnonzero(clamped)[np.argmin(mu[clamped])]
            free[release] = True
            continue
        break
    return theta


@dataclass(frozen=True)
class Terminal:
    """Convex hull of q distinct vertices in d dimensions.

    Every vertex must be an extreme point of the hull (no vertex may be a
    convex combination of the others).
    """

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 1:
            raise DegenerateTerminal("vertices must be a non-empty (q, d) array")
        if not np.all(np.isfinite(verts)):
            raise DegenerateTerminal("vertices must be finite")
        object.__setattr__(self, "vertices", verts)
        q = verts.shape[0]
        for i in range(q):
            for j in range(i + 1, q):
                if np.linalg.norm(verts[i] - verts[j]) < 1e-12:
                    raise DegenerateTerminal(f"vertices {i} and {j} coincide")
        if q >= 3:
            for k in range(q):
                others = np.delete(verts, k, axis=0)
                theta = _min_norm_weights(others, verts[k])
                residual = np.abs(others.T @ theta - verts[k]).max()
                if residual <= HULL_TOL and abs(theta.sum() - 1.0) <= HULL_TOL:
                    raise DegenerateTerminal(
                        f"vertex {k} is a convex combination of the others")

    @property
    def count(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


def hull_distance(U, W) -> float:
    """Euclidean distance between conv(U) and conv(W), (qu, d) and (qw, d).

    The distance is the norm of the minimum-norm point of the difference
    hull conv{u_i - w_j}, found by Wolfe's algorithm (Math. Programming
    11, 1976): a corral of affinely independent differences whose affine
    minimiser lies inside their hull.  Only differences enter, so the
    result and the stopping test do not move when both sets are
    translated.  The result is within DIST_REL_TOL * R of the true
    distance, R the largest difference norm.
    """
    P = np.asarray(U, dtype=float)[:, None] - np.asarray(W, dtype=float)
    P = P.reshape(-1, P.shape[-1])
    sq = (P * P).sum(axis=1)
    tol = DIST_REL_TOL * np.sqrt(sq.max())
    S = [int(np.argmin(sq))]
    lam = np.ones(1)
    x = P[S[0]]
    # finite in exact arithmetic; the cap stops a cycle rounding could start
    for _ in range(10 * len(P)):
        norm = np.linalg.norm(x)
        j = int(np.argmin(P @ x))
        # |x| is within tol of the distance, by
        # |x| - dist <= (|x|^2 - min_j x.p_j) / |x|
        if norm <= tol or x @ x - P[j] @ x <= tol * norm or j in S:
            break
        S.append(j)
        lam = np.append(lam, 0.0)
        while True:     # move to the affine minimiser of the corral
            Y = P[S]
            c, *_ = np.linalg.lstsq((Y[1:] - Y[0]).T, -Y[0], rcond=None)
            alpha = np.concatenate([[1.0 - c.sum()], c])
            if alpha.min() > 0.0:
                lam = alpha
                break
            # step towards it until a weight reaches zero; drop that point
            # (a new point with alpha = 0 has lam = alpha = 0: ratio 0)
            neg = np.flatnonzero(alpha <= 0.0)
            ratios = lam[neg] / np.maximum(lam[neg] - alpha[neg],
                                           np.finfo(float).tiny)
            lam = lam + ratios.min() * (alpha - lam)
            lam[neg[np.argmin(ratios)]] = 0.0
            keep = lam > 0.0
            S = [s for s, k in zip(S, keep) if k]
            lam = lam[keep]
        x = lam @ P[S]
    return float(np.linalg.norm(x))


def barycentric_weights(point, terminal: Terminal) -> np.ndarray:
    """Nonnegative weights theta with sum 1 and vertices.T @ theta = point.

    For more vertices than dim + 1 the weights are the minimum-norm feasible
    choice, so the map from points to weights is deterministic.  Raises
    PointOutsideHull when no feasible weights reconstruct the point within
    HULL_TOL.
    """
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.shape[0] != terminal.dim:
        raise SizeMismatch(
            f"point has dim {p.shape[0]}, terminal has dim {terminal.dim}")
    theta = _min_norm_weights(terminal.vertices, p)
    residual = np.abs(terminal.vertices.T @ theta - p).max()
    if residual > HULL_TOL or abs(theta.sum() - 1.0) > HULL_TOL:
        raise PointOutsideHull(
            f"reconstruction residual {residual:.3e} exceeds {HULL_TOL:.0e}")
    return np.clip(theta, 0.0, None)


@dataclass(frozen=True)
class OrderPairSet:
    """Start/goal terminals plus a bijective vertex pairing.

    ``pairing[k]`` is the goal-vertex index assigned to start vertex k.
    """

    starts: Terminal
    goals: Terminal
    pairing: np.ndarray

    def __post_init__(self):
        pairing = np.asarray(self.pairing, dtype=int)
        object.__setattr__(self, "pairing", pairing)
        q = self.starts.count
        if self.goals.count != q:
            raise SizeMismatch(
                f"start terminal has {q} vertices, goal has {self.goals.count}")
        if self.starts.dim != self.goals.dim:
            raise SizeMismatch("start and goal terminals differ in dimension")
        if sorted(pairing.tolist()) != list(range(q)):
            raise ValueError("pairing must be a permutation of 0..q-1")

    @property
    def count(self) -> int:
        return self.starts.count

    @property
    def dim(self) -> int:
        return self.starts.dim

    def paired_goals(self) -> np.ndarray:
        """Goal vertices reordered so row k matches start vertex k."""
        return self.goals.vertices[self.pairing]


def assign_vertices(starts: Terminal, goals: Terminal,
                    variance_weight: float = 1.0) -> OrderPairSet:
    """Pair start and goal vertices by exhaustive permutation search.

    Minimises mean(pair distances) + variance_weight * var(pair distances).
    The variance term discourages pairings where one member travels much
    farther than the rest (typically the crossing pairings).  Ties resolve
    to the lexicographically smallest permutation.
    """
    q = starts.count
    if goals.count != q:
        raise SizeMismatch(f"{q} start vertices vs {goals.count} goal vertices")
    if q > MAX_ASSIGN_VERTICES:
        raise TooManyVertices(
            f"{q} vertices exceeds exhaustive-search cap {MAX_ASSIGN_VERTICES}")
    if starts.dim != goals.dim:
        raise SizeMismatch("start and goal terminals differ in dimension")
    dists = np.linalg.norm(
        starts.vertices[:, None, :] - goals.vertices[None, :, :], axis=2)
    rows = np.arange(q)
    best_perm = None
    best_cost = np.inf
    for perm in permutations(range(q)):
        picked = dists[rows, list(perm)]
        cost = picked.mean() + variance_weight * picked.var()
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    return OrderPairSet(starts, goals, np.array(best_perm))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def equispaced_weights(count: int, q: int) -> np.ndarray:
    """Deterministic lattice of simplex weights, (count, q).

    Uses the coarsest lattice i / r with at least ``count`` points and takes
    the first ``count`` in lexicographic order; for q = 2 this spans the
    segment endpoints inclusively.  count = 1 returns the centroid.
    """
    if count < 1 or q < 1:
        raise ValueError("count and q must be positive")
    if count == 1:
        return np.full((1, q), 1.0 / q)
    if q == 1:
        return np.ones((count, 1))
    r = 1
    while True:
        pts = []
        for c in _compositions(r, q):
            pts.append(c)
            if len(pts) >= count:
                break
        total = 1
        for i in range(1, q):
            total = total * (r + i) // i
        if total >= count:
            return np.array(pts[:count], dtype=float) / r
        r += 1
