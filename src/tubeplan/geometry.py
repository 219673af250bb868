"""Convex terminal sets, barycentric weights, hull distances, and start/goal
vertex assignment.

A terminal is the convex hull of a small list of vertices.  One routine,
Wolfe's minimum-norm point of a vertex hull, answers every hull question:
the distance between two hulls is the minimum-norm point of their
difference hull, a point's barycentric weights are the corral weights of
the minimum-norm point of the vertices less the point, and a vertex is
extreme when it lies farther than HULL_TOL from the hull of the others.
Only differences enter, so no answer moves when the points are
translated.  Assignment pairs start vertices with goal vertices so that
member trajectories spread evenly instead of crossing.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

# A point this close to a hull counts as inside it, in metres.
HULL_TOL = 1e-9
# Wolfe's iteration stops within this times the largest point norm
DIST_REL_TOL = 1e-12
# Exhaustive assignment is factorial in the vertex count, about ten times
# slower per added vertex (seconds at 9); hard cap.
MAX_ASSIGN_VERTICES = 9


class DegenerateTerminal(ValueError):
    """Terminal vertices are duplicated or not all extreme points."""


class PointOutsideHull(ValueError):
    """No nonnegative weights reconstruct the point within tolerance."""


class SizeMismatch(ValueError):
    """Start and goal terminals have different vertex counts."""


class TooManyVertices(ValueError):
    """Vertex count exceeds the exhaustive-assignment cap."""


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
                if hull_distance(np.delete(verts, k, axis=0),
                                 verts[k:k + 1]) <= HULL_TOL:
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


def _min_norm_corral(P: np.ndarray):
    """Wolfe's minimum-norm point of conv(P), P (n, d) (Math. Programming
    11, 1976).

    Returns the final corral S, affinely independent rows of P whose
    affine minimiser lies inside their hull, and its positive weights lam
    (sum 1): the point is lam @ P[S], and its norm is within
    DIST_REL_TOL * R of the least norm on conv(P), R the largest row norm.
    """
    sq = (P * P).sum(axis=1)
    tol = DIST_REL_TOL * np.sqrt(sq.max())
    S = [int(np.argmin(sq))]
    lam = np.ones(1)
    x = P[S[0]]
    # finite in exact arithmetic; the cap stops a cycle rounding could start
    for _ in range(10 * len(P)):
        norm = np.linalg.norm(x)
        j = int(np.argmin(P @ x))
        # |x| is within tol of the least norm, by
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
    return S, lam


def hull_distance(U, W) -> float:
    """Euclidean distance between conv(U) and conv(W), (qu, d) and (qw, d).

    The distance is the norm of the minimum-norm point of the difference
    hull conv{u_i - w_j}.  Only differences enter, so the result and the
    stopping test do not move when both sets are translated.  The result
    is within DIST_REL_TOL * R of the true distance, R the largest
    difference norm.
    """
    P = np.asarray(U, dtype=float)[:, None] - np.asarray(W, dtype=float)
    P = P.reshape(-1, P.shape[-1])
    S, lam = _min_norm_corral(P)
    return float(np.linalg.norm(lam @ P[S]))


def barycentric_weights(point, terminal: Terminal) -> np.ndarray:
    """Nonnegative weights theta with sum 1 and vertices.T @ theta = point.

    The weights are the corral weights of the minimum-norm point of
    conv(vertices - point): at most dim + 1 are nonzero, and for more
    vertices than dim + 1 this picks one of the many feasible choices,
    deterministically.  Raises PointOutsideHull when the point lies more
    than HULL_TOL from the hull.  Only differences enter, so translating
    the terminal and the point together does not change the weights
    beyond the rounding of their coordinates.
    """
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.shape[0] != terminal.dim:
        raise SizeMismatch(
            f"point has dim {p.shape[0]}, terminal has dim {terminal.dim}")
    P = terminal.vertices - p
    S, lam = _min_norm_corral(P)
    distance = np.linalg.norm(lam @ P[S])
    if distance > HULL_TOL:
        raise PointOutsideHull(
            f"point lies {distance:.3e} m from the hull, more than "
            f"{HULL_TOL:.0e}")
    theta = np.zeros(terminal.count)
    theta[S] = lam
    return theta


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


def equispaced_points(count: int, terminal: Terminal) -> np.ndarray:
    """The first ``count`` distinct points of the weight lattice, (count, d).

    A point is ``w @ vertices`` for the rows w of equispaced_weights(n, q),
    n the least count whose rows give ``count`` points, each kept only if
    no earlier row lies within HULL_TOL of it.  A simplex terminal maps
    the lattice one-to-one, so there n = count; with more than dim + 1
    vertices two weights can give one point.  Gaps are measured from the
    first vertex, so the choice does not move with the terminal.
    """
    V = terminal.vertices
    n = count
    while True:
        W = equispaced_weights(n, terminal.count)
        offsets = W @ (V - V[0])
        gaps = np.linalg.norm(offsets[:, None] - offsets[None], axis=2)
        keep = np.flatnonzero(~np.tril(gaps < HULL_TOL, -1).any(axis=1))
        if len(keep) >= count:
            return (W @ V)[keep[:count]]
        n += 1
