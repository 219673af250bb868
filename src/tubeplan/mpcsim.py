"""Swarm tracking of tube members with per-robot horizon QPs.

Each robot is a discrete double integrator tracking its own member
trajectory, time-scaled so the bundle is traversed at a reference speed.
Robots avoid each other through tangent half-spaces of ellipse Minkowski
sums, softened by one shared slack per horizon step, and stay inside the
tube by keeping every planned position within a +-eps_c box around the
robot's own reference.

The horizon QP is condensed (Jerez, Kerrigan & Constantinides, CDC 2011).
In error coordinates (reference minus actual) the dynamics give the error
states as x~ = S u~ + F, so the only variables are the input errors and
the slacks.  Shifting them by the unconstrained minimiser leaves a pure
quadratic form over affine inequalities with no equality rows, which the
trajectory QP solver takes as it is.

Each tick assembles the QPs of the whole swarm at once (``tick_qps``):
the free responses, the unconstrained minimisers and the input,
avoidance and box rows are arrays with a leading robot axis, and every
robot's rows share one layout.  One call then solves them all
(``mpc_step``), each robot against its neighbours' plans of the
previous tick.

The condensed Hessian is positive definite and depends only on the
dynamics, the horizon and the weights, so ``simulate`` builds it and its
Cholesky factor once (``HorizonQp``) for every robot and tick.  Each
active-set step then solves its KKT system through that factor by the
range-space method (Nocedal & Wright, Numerical Optimization, 16.2): one
small QR of the factored working rows.  The robots' active-set loops run
in lockstep: each step groups the robots by working-set size and solves
a group's KKT systems with one stacked QR (``trajopt.solve_qp``).  The
basis QPs take the same path, as stacks of one, once
``trajopt.reduce_equalities`` has removed their equality rows.

Each robot's active-set loop is warm-started from the working set its own
QP ended with on the previous tick (Ferreau, Bock & Diehl, IJRNC 2008):
consecutive horizons share most of their binding rows, so a warm QP
mostly settles after one or two KKT solves.  Rows are matched by index;
the row layout is the same at every tick of a run.

Every robot shares one time scaling, so step k of tick t samples the tube
at the same parameter for all of them.  ``simulate`` evaluates the basis
once on those parameters (``ReferenceGrid``); every reference window of
the run is a slice of that grid.

``hull_inequalities`` (the facet rows of a cross-section hull) is not on
the tick's path; it imports ``scipy.spatial`` when called, so the module
loads NumPy alone.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import PointOutsideHull, barycentric_weights
from .knots import KnotVector
from .trajopt import (Infeasible, RankDeficient, evaluate_grid,
                      inverse_cholesky, solve_qp)
from .tube import OptimalVirtualTube, check_weights

MAX_TICKS = 10**6  # the longest run simulate accepts
# the longest horizon MpcConfig accepts: the QP arrays of one tick grow
# with the square of the horizon times the square of the swarm size
MAX_HORIZON = 50


class CoincidentCenters(RuntimeError):
    """Predicted centers coincide and no fallback normal exists."""


class StartOutsideTerminal(ValueError):
    """A robot start position is not inside the start terminal hull."""


class UnrunnableSettings(ValueError):
    """The run settings ask for too many ticks or overflow the reference."""


@dataclass(frozen=True)
class TimeScaling:
    """Linear map from simulation time s to tube parameter t = (v/u) s."""

    total_chord: float
    speed: float

    @property
    def rate(self) -> float:
        return self.speed / self.total_chord

    @property
    def duration(self) -> float:
        return self.total_chord / self.speed

    def param(self, s: float) -> float:
        return self.rate * s


@dataclass
class MpcConfig:
    horizon: int = 10
    timestep: float = 0.1
    position_weight: float = 10.0
    velocity_weight: float = 1.0
    input_weight: float = 0.1
    slack_weight: float = 1000.0
    terminal_weight_scale: float = 10.0
    boundary_tolerance: float = 0.5      # eps_c box half-width, metres
    input_limit: float = 100.0
    reference_speed: float = 2.5

    def __post_init__(self):
        # the position at step 1 depends on no input of the double
        # integrator, so a horizon of 1 constrains no controlled position
        rules = [(self.horizon >= 2, "horizon must be at least 2"),
                 (self.horizon <= MAX_HORIZON,
                  f"horizon must be at most {MAX_HORIZON}")]
        rules += [(getattr(self, f) > 0, f"{f} must be positive") for f in (
            "timestep", "slack_weight", "boundary_tolerance", "input_limit",
            "reference_speed")]
        rules += [(getattr(self, f) >= 0, f"{f} must be nonnegative")
                  for f in ("position_weight", "velocity_weight",
                            "input_weight", "terminal_weight_scale")]
        for ok, rule in rules:
            if not ok:
                raise ValueError(rule)


@dataclass(frozen=True)
class AvoidanceModel:
    """Identical ellipses around every robot plus the target separation.

    axes are the per-robot semi-axis lengths in metres.  The Minkowski sum
    of two such ellipses doubles the axes; tangent half-spaces of that sum
    separate robot pairs.
    """

    axes: np.ndarray
    safety_distance: float = 1.0

    def __post_init__(self):
        axes = np.asarray(self.axes, dtype=float)
        object.__setattr__(self, "axes", axes)
        for ok, rule in (
                (axes.ndim == 1 and np.all((axes > 0) & np.isfinite(axes)),
                 "axes must be positive and finite"),
                (self.safety_distance > 0, "safety_distance must be positive")):
            if not ok:
                raise ValueError(rule)


@dataclass
class ReferenceGrid:
    """Every robot's reference at every grid index g = tick + step.

    The grid stops at the first index whose parameter reaches 1: later
    indices hold the goal, with zero velocity and zero feedforward, and
    read the last entry.
    """

    states: np.ndarray    # (M, G, 2 d)
    inputs: np.ndarray    # (M, G, d), feedforward accelerations
    params: np.ndarray    # (G,) tube parameter per index, capped at 1

    def index(self, g: np.ndarray) -> np.ndarray:
        """Grid entries that serve indices g."""
        return np.minimum(g, self.params.size - 1)


def reference_grid(basis_x: np.ndarray, knots: KnotVector, order: int,
                   thetas: np.ndarray, scaling: TimeScaling, size: int,
                   timestep: float) -> ReferenceGrid:
    """References of the members with weights thetas (M, q) over the
    basis trajectories basis_x (q, n_t), at indices 0 .. size - 1.

    The basis is evaluated once, for derivatives 0 to 2, and each member
    is thetas @ basis.
    """
    # the parameter passes 1 at most two steps after the duration, so
    # the grid never grows with a long time limit
    size = int(min(size, scaling.duration / timestep + 3))
    params = scaling.param(np.arange(size) * timestep)
    params = np.minimum(params[:np.searchsorted(params, 1.0) + 1], 1.0)
    basis = [evaluate_grid(basis_x, knots, order, params, p)
             for p in range(3)]
    member = [np.tensordot(thetas, b, 1) for b in basis]
    rate = scaling.rate
    moving = (params < 1.0)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        states = np.concatenate(
            [member[0], np.where(moving, member[1] * rate, 0.0)], axis=2)
        inputs = np.where(moving, member[2] * (rate * rate), 0.0)
    if not (np.isfinite(states).all() and np.isfinite(inputs).all()):
        raise UnrunnableSettings(
            f"the reference overflows at {scaling.speed:g} m/s; lower "
            f"controller.reference_speed")
    return ReferenceGrid(states, inputs, params)


def reference_window(grid: ReferenceGrid, tick: int, horizon: int):
    """Every robot's reference over the horizon that starts at a tick:
    the desired states (M, N + 1, 2 d) and feedforward inputs
    (M, N + 1, d)."""
    g = grid.index(np.arange(tick, tick + horizon + 1))
    return grid.states[:, g], grid.inputs[:, g]


@dataclass
class Halfspaces:
    """Exclusion rows per neighbour and horizon step.

    Row (j, k): normals[j, k] . p_k >= offsets[j, k] - s_k keeps robot i
    outside neighbour j's Minkowski ellipse at step k.  Batched calls
    prepend their leading axes to both arrays.
    """

    normals: np.ndarray   # (J, N + 1, d)
    offsets: np.ndarray   # (J, N + 1)


def avoidance_halfspaces(self_pred: np.ndarray, neighbor_preds: np.ndarray,
                         model: AvoidanceModel, prev_normals=None
                         ) -> Halfspaces:
    """Tangent half-spaces of the pairwise Minkowski ellipses.

    self_pred is (..., n, d) and neighbor_preds (..., J, n, d), with the
    same leading axes; simulate passes every robot at once.  For each
    neighbour and step, the half-space is tangent to the ellipse around
    the neighbour's predicted center at the point where the segment to
    our own predicted center exits it.  Coincident centers fall back to
    the previous valid normal for that neighbour: the previous step, then
    prev_normals (..., J, d), the previous tick's, NaN where there is
    none.  With no fallback at all this raises CoincidentCenters.
    """
    self_pred = np.asarray(self_pred, dtype=float)
    neighbor_preds = np.asarray(neighbor_preds, dtype=float)
    if neighbor_preds.ndim == self_pred.ndim:
        neighbor_preds = neighbor_preds[..., None, :, :]
    n = neighbor_preds.shape[-2]
    # W = 2**k E with the power of two that brings W's largest entry near
    # 1, so that E.T @ E cannot overflow on tiny axes; scaling by a power
    # of two is exact, so the rows equal those computed with E itself
    k = np.frexp(model.axes.min())[1]
    W = np.diag(np.ldexp(0.5, k) / model.axes)
    r = self_pred[..., None, :, :] - neighbor_preds       # (..., J, n, d)
    grad = r @ (W.T @ W)
    length = np.linalg.norm(grad, axis=-1, keepdims=True)
    apart = ((np.linalg.norm(r @ W.T, axis=-1) >= np.ldexp(1e-9, k))
             & (length[..., 0] > 0))
    normals = np.divide(grad, length, out=np.zeros_like(grad),
                        where=apart[..., None])
    # a coincident step reuses the normal of the latest distinct step
    source = np.maximum.accumulate(np.where(apart, np.arange(n), -1),
                                   axis=-1)
    normals = np.take_along_axis(normals, np.maximum(source, 0)[..., None],
                                 axis=-2)
    # steps before the first distinct one reuse the previous tick's normal
    leading = source < 0
    if prev_normals is None:
        prev_normals = np.full(normals.shape[:-2] + normals.shape[-1:],
                               np.nan)
    prev_normals = np.asarray(prev_normals, dtype=float)
    missing = leading[..., 0] & np.isnan(prev_normals).any(axis=-1)
    if missing.any():
        *batch, j = np.argwhere(missing)[0].tolist()
        at = f" (batch index {batch})" if batch else ""
        raise CoincidentCenters(f"neighbour {j} coincides at step 0{at}")
    normals = np.where(leading[..., None], prev_normals[..., None, :],
                       normals)
    # the exit point along r, or along the reused normal when r vanishes
    toward = np.where(apart[..., None], r, normals)
    touch = neighbor_preds + np.ldexp(toward / np.linalg.norm(
        toward @ W.T, axis=-1, keepdims=True), k)
    offsets = np.einsum("...kd,...kd->...k", normals, touch)
    return Halfspaces(normals, offsets)


# no caller in the package: kept only as a benchmark trace target
def hull_inequalities(points: np.ndarray):
    """Outward facet rows (A, b) with A p <= b for a full-dimensional hull.

    Returns None when the points do not span the ambient dimension (flat
    cross-sections have no usable interior).  Rows are normalized so the
    facet margin b - A p is a Euclidean distance.
    """
    # imported here, not with the module: no command calls this function,
    # and scipy.spatial (with the scipy.sparse it loads) would be a third
    # of the CLI's start-up
    from scipy.spatial import ConvexHull, QhullError
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if len(s) < d or s[d - 1] <= 1e-9 * max(s[0], 1.0):
        return None
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    eqs = hull.equations          # rows [a, c] with a p + c <= 0, |a| = 1
    return eqs[:, :d], -eqs[:, d]


@dataclass(frozen=True)
class HorizonQp:
    """What every horizon QP of one simulation shares.

    The condensed Hessian depends only on the dynamics, the horizon and
    the weights, so one Cholesky factor serves every robot and tick.
    """

    A: np.ndarray          # (2 d, 2 d) double integrator x+ = A x + B u
    B: np.ndarray          # (2 d, d)
    S: np.ndarray          # (N + 1, 2 d, N d) input errors to error states
    weights: np.ndarray    # (N + 1, 2 d) stage weights, terminal scaled
    L_inv: np.ndarray      # inverse of the lower Cholesky factor of 2 H
    G_bounds: np.ndarray   # input-limit rows, then slack-sign rows
    G_box: np.ndarray      # (N, 2 d, nz) +-eps_c box rows of steps 1..N
    input_limit: float

    @property
    def steps(self) -> int:
        return self.S.shape[0] - 1


def horizon_qp(config: MpcConfig, d: int, N: int) -> HorizonQp:
    """Build the fixed part of the horizon QP for d dimensions and N steps.

    Raises RankDeficient when the Hessian is not positive definite, as
    when an input moves only states that carry no weight.
    """
    # the state stacks position over velocity; the velocity row of A is
    # zero, so the input sets the next velocity (Ts u) directly and the
    # position advances by Ts v exactly
    Ts, eye = config.timestep, np.eye(d)
    A = np.block([[eye, Ts * eye], [np.zeros((d, 2 * d))]])
    B = np.vstack([np.zeros((d, d)), Ts * eye])
    n_u = N * d
    nz = n_u + N + 1
    # x~_{k+1} = A x~_k + B u~_k stacks into x~ = S u~ (+ F, per robot)
    S = np.zeros((N + 1, 2 * d, n_u))
    for k in range(N):
        S[k + 1] = A @ S[k]
        S[k + 1, :, k * d:(k + 1) * d] += B
    stage = np.concatenate([np.full(d, config.position_weight),
                            np.full(d, config.velocity_weight)])
    weights = np.tile(stage, (N + 1, 1))
    weights[N] *= config.terminal_weight_scale
    S_flat = S.reshape(-1, n_u)
    H = np.zeros((nz, nz))
    H[:n_u, :n_u] = (S_flat.T @ (weights.reshape(-1, 1) * S_flat)
                     + config.input_weight * np.eye(n_u))
    H[n_u:, n_u:] = config.slack_weight * np.eye(N + 1)
    try:
        L_inv = inverse_cholesky(2.0 * H)
    except np.linalg.LinAlgError:
        raise RankDeficient("horizon QP Hessian is not positive definite; "
                            "check the controller weights") from None
    # |u| <= input_limit with u = u_d - u~ (one row per sign), then s >= 0
    G_bounds = np.zeros((2 * n_u + N + 1, nz))
    G_bounds[:2 * n_u, :n_u] = np.kron(np.eye(n_u), [[1.0], [-1.0]])
    G_bounds[2 * n_u:, n_u:] = -np.eye(N + 1)
    # |p_k - p_d,k| <= eps_c per axis, upper bounds first, as -+p~_k rows
    G_box = np.zeros((N, 2 * d, nz))
    G_box[:, :d, :n_u] = -S[1:, :d]
    G_box[:, d:, :n_u] = S[1:, :d]
    return HorizonQp(A, B, S, weights, L_inv, G_bounds, G_box,
                     config.input_limit)


@dataclass
class TickQps:
    """Every robot's horizon QP of one tick.

    The variables are z = [u~, s]: the input errors u~_k = u_d,k - u_k
    for steps 0..N-1 and one slack per step 0..N.  Robot i minimises
    y^T H y over y = z - z_star[i] subject to G[i] y <= h[i].  Every
    robot's rows share one layout, so G and h are single arrays.
    """

    G: np.ndarray          # (M, rows, nz)
    h: np.ndarray          # (M, rows)
    z_star: np.ndarray     # (M, nz) unconstrained minimisers
    free: np.ndarray       # (M, N + 1, 2 d) free responses F


def tick_qps(horizon: HorizonQp, ref: np.ndarray, ff: np.ndarray,
             state: np.ndarray, halfspaces: Halfspaces,
             tolerance: float) -> TickQps:
    """Assemble the horizon QPs of every robot at one tick at once.

    ref (M, N + 1, 2 d) and ff (M, N + 1, d) are the reference windows,
    state (M, 2 d) the current states, and halfspaces the avoidance rows
    of every robot against its J neighbours, (M, J, N + 1, ...).  The tube
    keeps each robot's position at steps 1..N within a +-tolerance box
    around its own reference.

    Each robot's rows are, in order: the input limits, the slack signs,
    the avoidance rows (neighbour j, step k), then the box rows step by
    step, upper bounds first.  Avoidance rows share one nonnegative slack
    per step.
    """
    A, B, S = horizon.A, horizon.B, horizon.S
    N, d = horizon.steps, B.shape[1]
    M, n_u = ref.shape[0], N * d
    nz = n_u + N + 1

    # error states x~ = S u~ + F, with x~_{k+1} = A x~_k + B u~_k + w_k,
    # where w_k is the amount by which the reference misses the dynamics
    drift = ref[:, 1:] - ref[:, :-1] @ A.T - ff[:, :-1] @ B.T
    F = np.empty_like(ref)
    F[:, 0] = ref[:, 0] - state
    for k in range(N):
        F[:, k + 1] = F[:, k] @ A.T + drift[:, k]

    # the unconstrained minimiser of z^T H z + 2 (S^T Q F)^T u~, through
    # the input block of the factor (the slack block is diagonal);
    # shifting to y = z - z_star leaves the pure quadratic form y^T H y
    L_u = horizon.L_inv[:n_u, :n_u]
    grad = ((horizon.weights * F).reshape(M, 2 * d * (N + 1))
            @ S.reshape(-1, n_u))
    z_star = np.zeros((M, nz))
    z_star[:, :n_u] = -2.0 * ((grad @ L_u.T) @ L_u)

    u_ref = ff[:, :N].reshape(M, n_u, 1)
    h_in = (horizon.input_limit
            + np.concatenate([u_ref, -u_ref], axis=2)).reshape(M, 2 * n_u)
    # avoidance rows on p~_k = S_pos u~ + p_d,k - p_ff for steps 1..N,
    # where p_ff is the absolute position reached by flying the
    # feedforward alone
    S_pos = S[1:, :d]
    F_pos = F[:, 1:, :d]
    p_ff = ref[:, 1:, :d] - F_pos
    normals = halfspaces.normals[:, :, 1:]   # n . p~_k - s_k <= h
    J = normals.shape[1]
    h_av = (np.einsum("mjkd,mkd->mjk", normals, p_ff)
            - halfspaces.offsets[:, :, 1:]).reshape(M, J * N)
    # the box rows -+p~_k <= eps_c read -+S_pos u~ <= eps_c +- F_pos
    h_box = np.concatenate([tolerance + F_pos, tolerance - F_pos], axis=2)

    fixed = horizon.G_bounds.shape[0]
    G = np.zeros((M, fixed + J * N + 2 * d * N, nz))
    G[:, :fixed] = horizon.G_bounds
    G_av = G[:, fixed:fixed + J * N].reshape(M, J, N, nz)
    G_av[..., :n_u] = (normals[..., None, :] @ S_pos)[..., 0, :]
    G_av[..., np.arange(N), n_u + 1 + np.arange(N)] = -1.0
    G[:, fixed + J * N:] = horizon.G_box.reshape(2 * d * N, nz)
    h = np.concatenate([h_in, np.zeros((M, N + 1)), h_av,
                        h_box.reshape(M, 2 * d * N)], axis=1)
    h -= (G @ z_star[:, :, None])[..., 0]
    return TickQps(G, h, z_star, F)


def mpc_step(G: np.ndarray, h: np.ndarray, z_star: np.ndarray,
             horizon: HorizonQp, warm=None):
    """Solve the horizon QPs of a tick (see TickQps), every robot's at
    once, or one robot's from its own G, h and z_star; returns the
    solutions z and the final working sets.

    warm holds the working set each robot's previous call returned, None
    before its first; it seeds the QP, whose rows keep their layout from
    tick to tick.
    """
    sol = solve_qp(horizon.L_inv, G, h, warm)
    return sol.x + z_star, sol.working


def horizon_plans(horizon: HorizonQp, ref: np.ndarray, ff: np.ndarray,
                  free: np.ndarray, z: np.ndarray):
    """Every robot's first input (M, d), planned absolute states
    (M, N + 1, 2 d) and largest slack (M,) from its QP solution z."""
    S = horizon.S
    n_u = S.shape[2]
    u_err = z[:, :n_u]
    plan = ref - (np.einsum("kxu,mu->mkx", S, u_err) + free)
    return ff[:, 0] - u_err[:, :ff.shape[2]], plan, z[:, n_u:].max(axis=1)


@dataclass
class SimLog:
    """Full state/input history of one swarm run."""

    times: np.ndarray        # (T + 1,)
    states: np.ndarray       # (T + 1, M, 2 d)
    inputs: np.ndarray       # (T, M, d)
    goals: np.ndarray        # (M, d)
    timestep: float
    max_slack: np.ndarray    # (T, M)

    @property
    def robots(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.goals.shape[1]


@dataclass
class Metrics:
    average_time: float
    arrival_rate: float
    average_speed: float
    min_pairwise_distance: float


def simulate(tube: OptimalVirtualTube, starts, config: MpcConfig,
             avoidance: AvoidanceModel, time_limit: float | None = None,
             goal_radius: float = 0.2) -> SimLog:
    """Run the swarm until everyone arrives or the time limit expires.

    Each robot tracks the member whose weights reconstruct its start
    position.  Per tick, every robot solves its horizon QP against a
    snapshot of neighbour plans from the previous tick, so results do not
    depend on robot order.  A run of more than MAX_TICKS ticks is refused
    before anything is allocated.  A horizon QP without a feasible point
    raises Infeasible naming the robot, the tick and the settings that
    bind.
    """
    scaling = TimeScaling(tube.chord_total, config.reference_speed)
    if time_limit is None:
        time_limit = 3.0 * scaling.duration
    Ts = config.timestep
    N = config.horizon
    ticks = np.floor(time_limit / Ts + 1e-9)
    if not ticks <= MAX_TICKS:
        raise UnrunnableSettings(
            f"a run of {time_limit:g} s in steps of {Ts:g} s takes "
            f"{ticks:.3g} ticks, more than {MAX_TICKS}; lower time_limit or "
            f"raise controller.timestep")
    ticks = int(ticks)
    starts = np.asarray(starts, dtype=float)
    M, d = starts.shape
    thetas = np.zeros((M, tube.count))
    for i, p in enumerate(starts):
        try:
            thetas[i] = check_weights(
                barycentric_weights(p, tube.pairs.starts), tube.count)
        except PointOutsideHull as err:
            raise StartOutsideTerminal(f"robot {i}: {err}") from err
    order = tube.config.order
    goals = np.tensordot(
        thetas, evaluate_grid(tube.basis_x, tube.knots, order, 1.0), 1)[:, 0]
    horizon = horizon_qp(config, d, N)
    refs = reference_grid(tube.basis_x, tube.knots, order, thetas, scaling,
                          ticks + N + 1, Ts)

    states = np.zeros((ticks + 1, M, 2 * d))
    states[0, :, :d] = starts
    inputs = np.zeros((ticks, M, d))
    max_slack = np.zeros((ticks, M))
    arrived = np.zeros(M, dtype=bool)

    # predicted positions per robot, aligned to the *current* tick
    steps = np.arange(N + 1)[:, None] * Ts
    preds = starts[:, None] + steps * states[0, :, None, d:]
    # others[i] lists every robot but i, in robot order
    J = max(M - 1, 0)
    others = np.arange(J) + (np.arange(J) >= np.arange(M)[:, None])
    prev_normals = np.full((M, J, d), np.nan)
    warm = None

    used = 0
    for tick in range(ticks):
        hs = avoidance_halfspaces(preds, preds[others], avoidance,
                                  prev_normals)
        prev_normals = hs.normals[:, :, -1]
        ref, ff = reference_window(refs, tick, N)
        qps = tick_qps(horizon, ref, ff, states[tick], hs,
                       config.boundary_tolerance)
        try:
            z, warm = mpc_step(qps.G, qps.h, qps.z_star, horizon, warm)
        except Infeasible as err:
            raise Infeasible(
                f"robot {err.index} at tick {tick}: {err.reason}; the "
                f"settings that bind are controller.reference_speed "
                f"({config.reference_speed:g}), "
                f"controller.boundary_tolerance "
                f"({config.boundary_tolerance:g}) and "
                f"controller.input_limit ({config.input_limit:g})"
            ) from err
        inputs[tick], plans, max_slack[tick] = horizon_plans(
            horizon, ref, ff, qps.free, z)
        del qps    # free this tick's rows before the next tick builds its own
        preds = np.concatenate([plans[:, 1:, :d], plans[:, -1:, :d]], axis=1)
        states[tick + 1] = (np.einsum("ij,mj->mi", horizon.A, states[tick])
                            + np.einsum("ij,mj->mi", horizon.B, inputs[tick]))
        used = tick + 1
        dists = np.linalg.norm(states[tick + 1, :, :d] - goals, axis=1)
        arrived |= dists <= goal_radius
        if arrived.all():
            break

    times = np.arange(used + 1) * Ts
    return SimLog(times=times, states=states[:used + 1],
                  inputs=inputs[:used], goals=goals, timestep=Ts,
                  max_slack=max_slack[:used])


def compute_metrics(log: SimLog, time_limit: float,
                    goal_radius: float) -> Metrics:
    """Swarm metrics recomputed from the log.

    average_time is infinite if any robot misses the goal within the time
    limit.  Over an empty swarm the arrival rate is 1 by convention.
    """
    M = log.robots
    if M == 0:
        return Metrics(0.0, 1.0, 0.0, np.inf)
    d = log.dim
    pos = log.states[:, :, :d]
    dists = np.linalg.norm(pos - log.goals[None, :, :], axis=2)
    arrived_mask = dists <= goal_radius
    arrival = np.full(M, np.inf)
    for i in range(M):
        hits = np.flatnonzero(arrived_mask[:, i] & (log.times <= time_limit + 1e-9))
        if hits.size:
            arrival[i] = log.times[hits[0]]
    arrived = np.isfinite(arrival)
    rate = float(arrived.mean())
    if np.all(arrived):
        average_time = float(arrival.mean())
    else:
        average_time = np.inf
    speeds = []
    for i in range(M):
        if not arrived[i]:
            continue
        stop = int(round(arrival[i] / log.timestep))
        if arrival[i] <= 0:
            continue
        travelled = np.linalg.norm(np.diff(pos[:stop + 1, i], axis=0),
                                   axis=1).sum()
        speeds.append(travelled / arrival[i])
    average_speed = float(np.mean(speeds)) if speeds else 0.0
    min_dist = np.inf
    if M >= 2:
        for t in range(pos.shape[0]):
            diff = pos[t, :, None, :] - pos[t, None, :, :]
            pd = np.linalg.norm(diff, axis=2)
            pd[np.arange(M), np.arange(M)] = np.inf
            min_dist = min(min_dist, float(pd.min()))
    return Metrics(average_time=average_time, arrival_rate=rate,
                   average_speed=average_speed,
                   min_pairwise_distance=min_dist)
