"""Optimal virtual tubes: bundles of minimum-energy trajectories whose
members are convex combinations of a few basis solutions.

All basis problems share the same equality matrix, cost Hessian, and (in
strict corridor mode) the same inequality rows; only the right-hand sides
differ.  Any member with simplex weights theta is then optimal for the
combined right-hand side and costs one matrix-vector product instead of a
full QP solve.  ``tube_structure`` is the one place that derives this
shared structure: planning (``build_tube`` through ``tube_from_waypoints``)
and loading (``scenario_io.load_tube``) both call it.
"""

import time
from dataclasses import dataclass

import numpy as np

from .geometry import OrderPairSet
from .knots import (KnotVector, chord_length_knots, normalize_knots,
                    public_knots)
from .pathfinder import (ObstacleSet, RrtConfig, equalize_waypoints,
                         find_homotopic_paths)
from .trajopt import (AffineInequalities, CorridorSpec, CostSpec,
                      EqualitySystem, PiecewisePolynomial, QpSolution,
                      assemble_cost, assemble_equality, corridor_constraints,
                      equality_rhs, solve_qp)

CORRIDOR_MODES = ("strict", "none")


class InvalidWeights(ValueError):
    """Weights are not nonnegative or do not sum to one."""


@dataclass
class TrajectoryConfig:
    """Polynomial, equalization, and corridor settings for a tube build.

    Every check on these settings lives here; scenario and tube loaders
    turn the ValueError into a validation error.
    """

    order: int = 5
    cost_deriv: int = 3
    continuity: int = 3
    m_target: int = 7
    corridor_width: float = 1.0
    corridor_samples: int = 3
    corridor_mode: str = "strict"

    def __post_init__(self):
        for ok, rule in (
                (self.order >= 1, "order must be at least 1"),
                (1 <= self.cost_deriv <= self.order,
                 "cost derivative must be in [1, order]"),
                (0 <= self.continuity <= self.order,
                 "continuity must be in [0, order]"),
                (self.m_target >= 1, "segments must be at least 1"),
                (self.corridor_width > 0, "corridor width must be positive"),
                (self.corridor_samples >= 1,
                 "corridor samples must be at least 1"),
                (self.corridor_mode in CORRIDOR_MODES,
                 f"corridor mode must be one of {CORRIDOR_MODES}")):
            if not ok:
                raise ValueError(rule)


@dataclass
class OptimalVirtualTube:
    """Basis solutions plus everything needed to combine and audit members."""

    pairs: OrderPairSet
    config: TrajectoryConfig
    knots: KnotVector            # normalized, shared by every member
    chord_total: float           # mean chord length before normalization
    waypoints: np.ndarray        # (q, m + 1, d) equalized waypoints
    A: np.ndarray                # shared equality matrix
    blocks: dict
    basis_x: np.ndarray          # (q, n_t) stacked basis coefficients
    basis_b: np.ndarray          # (q, rows) stacked right-hand sides
    cost: CostSpec
    corridor: AffineInequalities | None          # shared rows (strict mode)
    solutions: list | None                       # build-time audits, if any
    qp_solves: int

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
    """Validate simplex weights: length, nonnegative, sum to one."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != count:
        raise InvalidWeights(f"expected {count} weights, got {theta.size}")
    if theta.min() < -1e-9:
        raise InvalidWeights(f"negative weight {theta.min():.3e}")
    if abs(theta.sum() - 1.0) > 1e-9:
        raise InvalidWeights(f"weights sum to {theta.sum():.12f}")
    return np.clip(theta, 0.0, None)


def tube_structure(waypoints: np.ndarray, knots: KnotVector,
                   config: TrajectoryConfig):
    """What every basis problem of a tube shares, from its (q, m + 1, d)
    waypoints, knots and settings.

    Returns ``(systems, cost, corridor)``: one equality system per pair
    (the matrix depends only on the knots and the polynomial settings, so
    the systems differ only in their right-hand sides), the cost, and the
    shared corridor rows, or None when ``corridor_mode`` is "none".

    The corridor runs around the mean polyline.  Widths per segment grow
    by the largest perpendicular offset of any pair's waypoints from the
    mean chord, so each basis problem stays feasible while all problems
    share identical inequality rows.
    """
    shared = assemble_equality(waypoints[0], knots, config.order,
                               config.continuity)
    systems = [EqualitySystem(shared.A, equality_rhs(p, config.continuity),
                              shared.blocks) for p in waypoints]
    cost = assemble_cost(knots, config.cost_deriv, config.order,
                         waypoints.shape[2])
    if config.corridor_mode == "none":
        return systems, cost, None
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
    return systems, cost, corridor_constraints(mean, knots, spec, config.order)


def tube_from_waypoints(pairs: OrderPairSet, waypoints,
                        config: TrajectoryConfig) -> OptimalVirtualTube:
    """Solve the q basis QPs of a tube whose equalized paths are given.

    The shared knot vector is the normalized mean of the per-pair
    chord-length knots.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    shared_u = public_knots([chord_length_knots(p) for p in waypoints])
    knots = normalize_knots(shared_u)
    systems, cost, corridor = tube_structure(waypoints, knots, config)
    solutions = [solve_qp(cost, system, corridor) for system in systems]
    return OptimalVirtualTube(
        pairs=pairs, config=config, knots=knots,
        chord_total=shared_u.total, waypoints=waypoints, A=systems[0].A,
        blocks=systems[0].blocks,
        basis_x=np.array([s.x for s in solutions]),
        basis_b=np.array([s.b for s in systems]), cost=cost,
        corridor=corridor, solutions=solutions, qp_solves=len(solutions))


def build_tube(pairs: OrderPairSet, obstacles: ObstacleSet,
               rrt_config: RrtConfig, traj_config: TrajectoryConfig
               ) -> OptimalVirtualTube:
    """Plan q homotopic paths, equalize them, and solve the basis QPs."""
    paths = find_homotopic_paths(pairs, obstacles, rrt_config)
    paths = equalize_waypoints(paths, traj_config.m_target)
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
    """Solve the member's QP from scratch (reference for verification),
    with the tube's shared corridor rows, if it has any."""
    b = combine_rhs(tube, theta)
    eq = EqualitySystem(tube.A, b, tube.blocks)
    return solve_qp(tube.cost, eq, tube.corridor)


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
    rng = np.random.default_rng(seed)
    grad = 2.0 * H @ x
    variational_min = np.inf
    scale = 1e-8 * max(1.0, float(np.abs(x).max()))
    for _ in range(directions):
        if null.shape[1] == 0:
            variational_min = 0.0
            break
        step = null @ rng.standard_normal(null.shape[1])
        step *= scale / max(np.linalg.norm(step), 1e-300)
        alpha = 1.0
        if corridor is not None:
            g_step = corridor.G @ step
            room = np.maximum(slack, 0.0)
            tight = g_step > 1e-300
            if tight.any():
                alpha = min(alpha, 0.99 * float(
                    np.min(room[tight] / g_step[tight])))
        if alpha <= 0.0:
            continue
        # y - x is alpha * step by construction; using the exact step
        # avoids the cancellation noise of forming (x + step) - x.
        variational_min = min(variational_min,
                              float(grad @ (alpha * step)))
    if not np.isfinite(variational_min):
        variational_min = 0.0

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
    pts = np.array([
        member_trajectory(tube, np.eye(tube.count)[k]).evaluate(t)
        for k in range(tube.count)])
    return CrossSection(float(t), pts)


@dataclass
class BenchmarkRow:
    members: int
    member_seconds: float
    direct_seconds: float
    ratio: float


def combination_benchmark(tube: OptimalVirtualTube, counts=(10, 100, 1000),
                          seed: int = 0) -> list:
    """Wall-clock cost of combining members vs solving them directly.

    member_seconds is the per-member cost of the convex combination;
    direct_seconds is the per-solve cost of a fresh KKT factorization.
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
