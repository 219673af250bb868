"""Optimal virtual tubes: bundles of minimum-energy trajectories whose
members are convex combinations of a few basis solutions.

All basis problems share the same equality matrix, cost Hessian, and (in
strict corridor mode) the same inequality rows; only the right-hand sides
differ.  Any member with simplex weights theta is then optimal for the
combined right-hand side and costs one matrix-vector product instead of a
full QP solve.  A tube is fixed by its settings, vertex pairs, equalized
waypoints and basis solutions; ``tube_structure`` derives everything else
from them, and ``tube_from_waypoints`` is the one builder that planning
(``build_tube``) and loading (``scenario_io.load_tube``) both call.
"""

import time
from dataclasses import dataclass

import numpy as np

from .geometry import OrderPairSet
from .knots import (KnotVector, chord_length_knots, normalize_knots,
                    public_knots)
from .pathfinder import (ObstacleSet, RrtConfig, equalize_waypoints,
                         find_homotopic_paths)
from .trajopt import (FEAS_TOL, ActiveSetSolution, AffineInequalities,
                      CorridorSpec, CostSpec, Infeasible, PiecewisePolynomial,
                      ReducedEqualities, assemble_cost, assemble_equality,
                      corridor_constraints, equality_rhs, evaluate_grid,
                      reduce_equalities, solve_qp)

CORRIDOR_MODES = ("strict", "none")


class InvalidWeights(ValueError):
    """Weights are not nonnegative or do not sum to one."""


@dataclass
class TrajectoryConfig:
    """Polynomial, equalization, and corridor settings for a tube build.

    Every check on these settings lives here, and each message begins
    with the field it checks; a field is also its key in a tube document.
    """

    order: int = 5
    cost_derivative: int = 3
    continuity: int = 3
    segments: int = 7
    corridor_width: float = 1.0
    corridor_samples: int = 3
    corridor_mode: str = "strict"

    def __post_init__(self):
        for ok, rule in (
                (self.order >= 1, "order must be at least 1"),
                (1 <= self.cost_derivative <= self.order,
                 "cost_derivative must be in [1, order]"),
                (0 <= self.continuity <= self.order,
                 "continuity must be in [0, order]"),
                (self.segments >= 1, "segments must be at least 1"),
                (self.corridor_width > 0, "corridor_width must be positive"),
                (self.corridor_samples >= 1,
                 "corridor_samples must be at least 1"),
                (self.corridor_mode in CORRIDOR_MODES,
                 f"corridor_mode must be one of {CORRIDOR_MODES}")):
            if not ok:
                raise ValueError(rule)


@dataclass
class OptimalVirtualTube:
    """Basis solutions plus everything needed to combine and audit members.

    Built only by ``tube_from_waypoints``: every field past ``basis_x``
    is derived from the ones before it by ``tube_structure``.
    """

    pairs: OrderPairSet
    config: TrajectoryConfig
    waypoints: np.ndarray        # (q, m + 1, d) equalized waypoints
    basis_x: np.ndarray          # (q, n_t) stacked basis coefficients
    knots: KnotVector            # normalized, shared by every member
    chord_total: float           # mean chord length before normalization
    A: np.ndarray                # shared equality matrix
    basis_b: np.ndarray          # (q, rows) stacked right-hand sides
    cost: CostSpec
    corridor: AffineInequalities | None          # shared rows (strict mode)

    @property
    def count(self) -> int:
        return self.basis_x.shape[0]

    @property
    def dim(self) -> int:
        return self.pairs.dim

    @property
    def n_t(self) -> int:
        return self.basis_x.shape[1]


def check_weights(theta, count: int) -> np.ndarray:
    """Validate simplex weights: length, nonnegative, sum to one.

    Weights within 1e-9 below zero are clamped to zero.  The checks run on
    a Python list: with a handful of weights, NumPy's per-call overhead
    would dominate the member combination they guard.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != count:
        raise InvalidWeights(f"expected {count} weights, got {theta.size}")
    values = theta.tolist()
    low = min(values)
    if low < -1e-9:
        raise InvalidWeights(f"negative weight {low:.3e}")
    total = sum(values)
    if not abs(total - 1.0) <= 1e-9:     # a NaN weight fails here too
        raise InvalidWeights(f"weights sum to {total:.12f}")
    return theta if low >= 0.0 else np.maximum(theta, 0.0)


def tube_structure(waypoints: np.ndarray, config: TrajectoryConfig):
    """What every basis problem of a tube shares, from its (q, m + 1, d)
    waypoints and settings.

    Returns ``(knots, chord_total, A, rhs, cost, corridor)``: the shared
    knots, the normalized mean of the per-pair chord-length knots, and
    their span before normalization; the equality matrix, which depends
    only on the knots and the polynomial settings; the (q, rows)
    right-hand sides, one per pair; the cost; and the shared corridor
    rows, or None when ``corridor_mode`` is "none".

    The corridor runs around the mean polyline.  Widths per segment grow
    by the largest perpendicular offset of any pair's waypoints from the
    mean chord, so each basis problem stays feasible while all problems
    share identical inequality rows.
    """
    shared_u = public_knots([chord_length_knots(p) for p in waypoints])
    knots = normalize_knots(shared_u)
    A = assemble_equality(waypoints[0], knots, config.order,
                          config.continuity)
    rhs = np.array([equality_rhs(p, config.continuity) for p in waypoints])
    cost = assemble_cost(knots, config.cost_derivative, config.order,
                         waypoints.shape[2])
    shared = (knots, shared_u.total, A, rhs, cost)
    if config.corridor_mode == "none":
        return (*shared, None)
    mean = waypoints.mean(axis=0)
    m = mean.shape[0] - 1
    dim = mean.shape[1]
    widths = np.empty(m)
    for seg in range(m):
        chord = mean[seg + 1] - mean[seg]
        norm = np.linalg.norm(chord)
        if norm < 1e-12:
            raise ValueError(f"segment {seg} has zero chord")
        tangent = chord / norm
        P = np.eye(dim) - np.outer(tangent, tangent)
        offset = 0.0
        for e in (seg, seg + 1):
            deltas = waypoints[:, e, :] - mean[e]       # (q, d)
            offset = max(offset, np.abs(deltas @ P.T).max())
        widths[seg] = config.corridor_width + offset
    spec = CorridorSpec(widths, config.corridor_samples)
    return (*shared, corridor_constraints(mean, knots, spec, config.order))


@dataclass
class QpSolution(ActiveSetSolution):
    """A QP with equality rows solved: x in the full coefficients."""

    objective: float
    eq_residual: float
    ineq_violation: float
    kkt_stationarity: float
    active_set: np.ndarray
    lam: np.ndarray


def _solve_reduced(reduced: ReducedEqualities,
                   corridor: AffineInequalities | None,
                   b: np.ndarray) -> QpSolution:
    """Minimise x^T H x subject to A x = b and the corridor rows, if any,
    as x = x_u + Z w: x_u minimises on A x = b, and ``solve_qp`` finds w."""
    x_u = reduced.minimiser(b)
    G, h = ((np.zeros((0, x_u.size)), np.zeros(0)) if corridor is None
            else (corridor.G, corridor.h))
    sol = solve_qp(reduced.factor, G @ reduced.Z, h - G @ x_u)
    x = x_u + reduced.Z @ sol.x
    grad = 2.0 * reduced.H @ x + G.T @ sol.mu
    lam = reduced.multipliers(grad)
    res = G @ x - h
    eq_residual = float(np.abs(reduced.A @ x - b).max(initial=0.0))
    if eq_residual > FEAS_TOL:
        raise Infeasible(f"equality residual {eq_residual:.3e} after solve")
    return QpSolution(
        x=x, objective=float(x @ reduced.H @ x), eq_residual=eq_residual,
        ineq_violation=float(res.max(initial=0.0)),
        kkt_stationarity=float(np.abs(grad + reduced.A.T @ lam).max()),
        active_set=np.flatnonzero(res >= -FEAS_TOL), lam=lam, mu=sol.mu,
        working=sol.working, iterations=sol.iterations)


def tube_from_waypoints(pairs: OrderPairSet, waypoints,
                        config: TrajectoryConfig,
                        basis_x=None) -> OptimalVirtualTube:
    """The tube of the given equalized paths, its structure derived by
    ``tube_structure``.

    Its basis solutions are ``basis_x`` when given (a loaded tube, which
    the caller checks), else those of the q basis QPs, which share one
    reduction of A.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    knots, chord_total, A, rhs, cost, corridor = tube_structure(waypoints,
                                                                config)
    if basis_x is None:
        reduced = reduce_equalities(A, cost.H)
        basis_x = np.array([_solve_reduced(reduced, corridor, b).x
                            for b in rhs])
    return OptimalVirtualTube(
        pairs=pairs, config=config, waypoints=waypoints, basis_x=basis_x,
        knots=knots, chord_total=chord_total, A=A, basis_b=rhs, cost=cost,
        corridor=corridor)


def build_tube(pairs: OrderPairSet, obstacles: ObstacleSet,
               rrt_config: RrtConfig, traj_config: TrajectoryConfig
               ) -> OptimalVirtualTube:
    """Plan q homotopic paths, equalize them, and solve the basis QPs."""
    paths = find_homotopic_paths(pairs, obstacles, rrt_config)
    paths = equalize_waypoints(paths, traj_config.segments)
    return tube_from_waypoints(pairs, paths, traj_config)


def combine_rhs(tube: OptimalVirtualTube, theta) -> np.ndarray:
    """Right-hand side of the member problem: the stored basis right-hand
    sides combined with the member weights (never re-derived from paths)."""
    theta = check_weights(theta, tube.count)
    return tube.basis_b.T @ theta


def member_trajectory(tube: OptimalVirtualTube, theta) -> PiecewisePolynomial:
    """Member trajectory for simplex weights theta.

    One (q x n_t) matrix-vector product; no QP solve.
    """
    theta = check_weights(theta, tube.count)
    x = tube.basis_x.T @ theta
    return PiecewisePolynomial(dim=tube.dim, order=tube.config.order,
                               knots=tube.knots, x=x)


def direct_member_solve(tube: OptimalVirtualTube, theta) -> QpSolution:
    """Solve the member's QP from scratch, its reduction of A included
    (the reference for verification), with the tube's corridor rows."""
    b = combine_rhs(tube, theta)
    return _solve_reduced(reduce_equalities(tube.A, tube.cost.H),
                          tube.corridor, b)


@dataclass
class MemberVerification:
    theta: np.ndarray
    eq_residual: float
    corridor_violation: float
    coefficient_error: float
    objective_rel_error: float
    variational_min: float
    passed: bool


def verify_member_optimality(tube: OptimalVirtualTube, theta,
                             directions: int = 100, seed: int = 0
                             ) -> MemberVerification:
    """Audit one member: feasibility, agreement with a direct solve, and
    first-order optimality against random feasible perturbations.

    The variational check walks from the member along null-space directions
    of the equality matrix (scaled back by a ratio test to stay inside the
    corridor) and requires 2 x^T H (y - x) >= -1e-8 for every probe y.
    """
    theta = check_weights(theta, tube.count)
    x = tube.basis_x.T @ theta
    b = tube.basis_b.T @ theta
    H = tube.cost.H
    eq_residual = float(np.abs(tube.A @ x - b).max())

    corridor = tube.corridor
    if corridor is not None:
        corridor_violation = float(max(corridor.residuals(x).max(), 0.0))
    else:
        corridor_violation = 0.0

    direct = direct_member_solve(tube, theta)
    coefficient_error = float(np.abs(x - direct.x).max())
    obj = float(x @ H @ x)
    objective_rel_error = abs(obj - direct.objective) / max(
        abs(direct.objective), 1e-12)

    # Feasible probe directions: null space of the equality matrix, also
    # tangent to any corridor rows tight at x (stepping off an active row
    # is infeasible, so only sliding directions are informative).  Probe
    # steps are kept tiny: the inner-product tolerance is absolute, and
    # null-space leakage amplified by the equality multipliers (norm up to
    # ~1e8 on ill-conditioned instances) grows linearly with step size.
    walls = tube.A
    slack = None
    if corridor is not None:
        slack = corridor.h - corridor.G @ x
        tight_rows = slack <= 1e-8 * np.maximum(1.0, np.abs(corridor.h))
        if tight_rows.any():
            walls = np.vstack([walls, corridor.G[tight_rows]])
    _, s, vh = np.linalg.svd(walls)
    rank = int((s > s[0] * 1e-12).sum())
    null = vh[rank:].T
    variational_min = 0.0
    if null.shape[1] and directions:
        # one row per probe: the same stream as one draw per direction
        rng = np.random.default_rng(seed)
        steps = rng.standard_normal((directions, null.shape[1])) @ null.T
        scale = 1e-8 * max(1.0, float(np.abs(x).max()))
        steps *= (scale / np.maximum(np.linalg.norm(steps, axis=1),
                                     1e-300))[:, None]
        alpha = np.ones(directions)
        if corridor is not None:
            g_steps = steps @ corridor.G.T
            ratio = np.divide(np.maximum(slack, 0.0), g_steps,
                              out=np.full_like(g_steps, np.inf),
                              where=g_steps > 1e-300)
            alpha = np.minimum(alpha, 0.99 * ratio.min(axis=1))
        # y - x is alpha * step by construction; using the exact step
        # avoids the cancellation noise of forming (x + step) - x.
        probes = (alpha[:, None] * steps) @ (2.0 * H @ x)
        if (alpha > 0.0).any():
            variational_min = float(probes[alpha > 0.0].min())

    passed = (eq_residual <= 1e-8 and corridor_violation <= 1e-8
              and coefficient_error <= 1e-6
              and objective_rel_error <= 1e-8
              and variational_min >= -1e-8)
    return MemberVerification(
        theta=theta, eq_residual=eq_residual,
        corridor_violation=corridor_violation,
        coefficient_error=coefficient_error,
        objective_rel_error=objective_rel_error,
        variational_min=variational_min, passed=passed)


@dataclass
class CrossSection:
    t: float
    points: np.ndarray   # (q, d) basis positions; members fill the hull


def cross_section(tube: OptimalVirtualTube, t: float) -> CrossSection:
    """Basis trajectory positions at parameter t."""
    pts = evaluate_grid(tube.basis_x, tube.knots, tube.config.order, t)
    return CrossSection(float(t), pts[:, 0])


@dataclass
class BenchmarkRow:
    members: int
    member_seconds: float
    direct_seconds: float
    ratio: float


# no caller in the package: kept only as a benchmark trace target
def combination_benchmark(tube: OptimalVirtualTube, counts=(10, 100, 1000),
                          seed: int = 0) -> list:
    """Wall-clock cost of combining members vs solving them directly.

    member_seconds is the per-member cost of the convex combination;
    direct_seconds is the per-solve cost of ``direct_member_solve``,
    which reduces the equality rows and solves the QP from scratch.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for count in counts:
        thetas = rng.dirichlet(np.ones(tube.count), size=count)
        start = time.perf_counter()
        for theta in thetas:
            member_trajectory(tube, theta)
        member_seconds = (time.perf_counter() - start) / count
        n_direct = min(count, 5)
        start = time.perf_counter()
        for theta in thetas[:n_direct]:
            direct_member_solve(tube, theta)
        direct_seconds = (time.perf_counter() - start) / n_direct
        rows.append(BenchmarkRow(count, member_seconds, direct_seconds,
                                 direct_seconds / max(member_seconds, 1e-12)))
    return rows
