import numpy as np
import pytest

from tubeplan.geometry import OrderPairSet, Terminal
from tubeplan.knots import KnotVector
from tubeplan import mpcsim
from tubeplan.mpcsim import (AvoidanceModel, CoincidentCenters, Halfspaces,
                             MpcConfig, SimLog, StartOutsideTerminal,
                             TimeScaling, avoidance_halfspaces,
                             compute_metrics, horizon_plans, horizon_qp,
                             hull_inequalities, mpc_step, reference_grid,
                             reference_window, simulate, tick_qps)
from tubeplan import trajopt
from tubeplan.trajopt import PiecewisePolynomial, RankDeficient
from tubeplan.tube import (TrajectoryConfig, member_trajectory,
                           tube_from_waypoints)

UNIT = KnotVector(np.array([0.0, 1.0]), normalized=True)


def test_dynamics_matrices():
    dyn = horizon_qp(MpcConfig(timestep=0.1), 2, 3)
    assert np.allclose(dyn.A, [[1.0, 0.0, 0.1, 0.0],
                               [0.0, 1.0, 0.0, 0.1],
                               [0.0, 0.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0, 0.0]])
    assert np.allclose(dyn.B, [[0.0, 0.0],
                               [0.0, 0.0],
                               [0.1, 0.0],
                               [0.0, 0.1]])


def test_time_scaling():
    scaling = TimeScaling(total_chord=20.0, speed=2.5)
    assert scaling.rate == pytest.approx(0.125)
    assert scaling.duration == pytest.approx(8.0)
    assert scaling.param(2.0) == pytest.approx(0.25)


def _window(traj, scaling, tick, horizon, timestep):
    """reference_window of one trajectory, taken as a one-member basis:
    its states (N + 1, 2 d) and feedforward inputs (N + 1, d)."""
    grid = reference_grid(traj.x[None], traj.knots, traj.order,
                          np.ones((1, 1)), scaling, tick + horizon + 1,
                          timestep)
    states, inputs = reference_window(grid, tick, horizon)
    return states[0], inputs[0]


def _margin(rows, p):
    """Distance from p to the nearest facet of hull rows (negative
    outside)."""
    A, b = rows
    return float((b - A @ p).min())


def test_reference_window_tracks_then_holds_goal():
    traj = PiecewisePolynomial(1, 1, UNIT, np.array([0.0, 2.0]))  # h(t) = 2t
    scaling = TimeScaling(total_chord=2.0, speed=1.0)             # rate 0.5
    grid = reference_grid(traj.x[None], traj.knots, traj.order,
                          np.ones((1, 1)), scaling, 26, 0.1)
    # t = 0.05 g reaches 1.0 at g = 20, where the grid stops
    assert grid.params.size == 21
    assert grid.params[-1] == 1.0
    states, inputs = reference_window(grid, tick=15, horizon=10)
    assert states.shape == (1, 11, 2) and inputs.shape == (1, 11, 1)
    for k in range(5):
        t = 0.75 + 0.05 * k
        assert states[0, k, 0] == pytest.approx(2 * t)
        assert states[0, k, 1] == pytest.approx(1.0)   # 2 * rate
        assert inputs[0, k, 0] == pytest.approx(0.0)
    for k in range(5, 11):
        assert states[0, k, 0] == pytest.approx(2.0)
        assert states[0, k, 1] == 0.0
        assert inputs[0, k, 0] == 0.0


def _scalar_window(traj, scaling, tick, horizon, timestep):
    """The per-step reference: one evaluate call per step and derivative,
    the goal held with zero velocity and feedforward from t = 1 on."""
    d = traj.dim
    states = np.zeros((horizon + 1, 2 * d))
    inputs = np.zeros((horizon + 1, d))
    rate = scaling.rate
    for k in range(horizon + 1):
        t = scaling.param((tick + k) * timestep)
        if t >= 1.0:
            states[k, :d] = trajopt.evaluate(traj, 1.0)
        else:
            states[k, :d] = trajopt.evaluate(traj, t)
            states[k, d:] = trajopt.evaluate(traj, t, 1) * rate
            inputs[k] = trajopt.evaluate(traj, t, 2) * rate * rate
    return states, inputs


def test_reference_grid_matches_per_step_reference():
    tube = straight_pair_tube()
    thetas = np.array([[0.7, 0.3], [0.25, 0.75]])
    scaling = TimeScaling(tube.chord_total, 2.5)
    Ts, N = 0.1, 10
    # the tube ends near tick 48, so the last ticks run past its end
    ticks = int(scaling.duration / Ts) + 8
    grid = reference_grid(tube.basis_x, tube.knots, tube.config.order,
                          thetas, scaling, ticks + N + 1, Ts)
    assert grid.params[-1] == 1.0 and grid.params.size < ticks + N + 1
    # a longer time limit does not grow the grid
    longer = reference_grid(tube.basis_x, tube.knots, tube.config.order,
                            thetas, scaling, 10 ** 6, Ts)
    assert np.array_equal(longer.params, grid.params)
    for i, theta in enumerate(thetas):
        traj = member_trajectory(tube, theta)
        goal = trajopt.evaluate(traj, 1.0)
        for tick in range(ticks):
            ref, ff = (w[i] for w in reference_window(grid, tick, N))
            states, inputs = _scalar_window(traj, scaling, tick, N, Ts)
            scale = max(1.0, float(np.abs(inputs).max()))
            assert np.abs(ref - states).max() <= 1e-12 * scale
            assert np.abs(ff - inputs).max() <= 1e-12 * scale
        # past the end: the goal held, zero velocity and feedforward
        assert np.abs(ref[:, :2] - goal).max() <= 1e-12
        assert np.array_equal(ref[:, 2:], np.zeros((N + 1, 2)))
        assert np.array_equal(ff, np.zeros((N + 1, 2)))


def test_avoidance_tangent_oracle():
    # axes of 0.5 make the pair obstacle the unit disc
    model = AvoidanceModel(axes=np.array([0.5, 0.5]))
    self_pred = np.tile([2.0, 0.0], (3, 1))
    neighbor = np.tile([0.0, 0.0], (3, 1))
    hs = avoidance_halfspaces(self_pred, neighbor, model)
    assert hs.normals.shape == (1, 3, 2)
    assert np.allclose(hs.normals[0], [1.0, 0.0])
    # tangent plane at the exit point (1, 0) of the radius-1 pair ellipse
    assert np.allclose(hs.offsets[0], 1.0)


def _halfspaces_by_loop(self_pred, neighbor_preds, model, prev_normals):
    """Per-neighbour, per-step reference for avoidance_halfspaces."""
    # the pair obstacle is { p : ||E (p - c)|| <= 1 }
    E = np.diag(1.0 / (2.0 * model.axes))
    J, n, d = neighbor_preds.shape
    normals = np.zeros((J, n, d))
    offsets = np.zeros((J, n))
    for j in range(J):
        last = prev_normals[j]
        for k in range(n):
            center = neighbor_preds[j, k]
            r = self_pred[k] - center
            dist = np.linalg.norm(E @ r)
            if dist < 1e-9:
                normal = last
                touch = center + normal / np.linalg.norm(E @ normal)
            else:
                touch = center + r / dist
                normal = E.T @ E @ (touch - center)
                normal = normal / np.linalg.norm(normal)
            last = normal
            normals[j, k] = normal
            offsets[j, k] = normal @ touch
    return normals, offsets


def test_avoidance_coincident_center_fallbacks():
    model = AvoidanceModel(axes=np.array([0.5, 0.5]))
    with pytest.raises(CoincidentCenters):
        avoidance_halfspaces(np.zeros((2, 2)), np.zeros((2, 2)), model,
                             np.full((1, 2), np.nan))
    # previous-tick normal carries over
    hs = avoidance_halfspaces(np.zeros((2, 2)), np.zeros((2, 2)), model,
                              np.array([[0.0, 1.0]]))
    assert np.allclose(hs.normals[0], [0.0, 1.0])
    assert np.allclose(hs.offsets[0], 1.0)
    # previous-step normal inside the same call carries over too
    self_pred = np.array([[2.0, 0.0], [0.0, 0.0]])
    neighbor = np.zeros((2, 2))
    hs = avoidance_halfspaces(self_pred, neighbor, model)
    assert np.allclose(hs.normals[0, 0], [1.0, 0.0])
    assert np.allclose(hs.normals[0, 1], [1.0, 0.0])
    # several neighbours at once on unequal axes: 0 coincides at steps 0-1
    # (previous tick), 1 coincides at step 2 (previous step), 2 never does
    model = AvoidanceModel(axes=np.array([0.5, 0.3]))
    rng = np.random.default_rng(3)
    self_pred = rng.normal(size=(4, 2))
    neighbors = self_pred + rng.normal(size=(3, 4, 2))
    neighbors[0, :2] = self_pred[:2]
    neighbors[1, 2] = self_pred[2]
    prev = np.array([[0.6, 0.8], [np.nan, np.nan], [np.nan, np.nan]])
    hs = avoidance_halfspaces(self_pred, neighbors, model, prev)
    assert np.allclose(hs.normals[0, :2], [0.6, 0.8])
    assert np.allclose(hs.normals[1, 2], hs.normals[1, 1])
    normals, offsets = _halfspaces_by_loop(self_pred, neighbors, model, prev)
    assert np.abs(hs.normals - normals).max() <= 1e-12
    assert np.abs(hs.offsets - offsets).max() <= 1e-12
    # the first neighbour left without any fallback is named
    neighbors[1, 0] = self_pred[0]
    with pytest.raises(CoincidentCenters, match="neighbour 1 "):
        avoidance_halfspaces(self_pred, neighbors, model, prev)
    # every ordered pair of a swarm in one call, as simulate makes it:
    # robots 0 and 1 coincide at steps 0-1 (previous tick), 2 and 3 at
    # step 2 (previous step); every other previous normal is missing
    M = 4
    preds = 2.0 * rng.normal(size=(M, 4, 2))
    preds[1, :2] = preds[0, :2]
    preds[3, 2] = preds[2, 2]
    others = [[j for j in range(M) if j != i] for i in range(M)]
    prev = np.full((M, M - 1, 2), np.nan)
    prev[0, 0] = [0.6, 0.8]
    prev[1, 0] = [-0.6, -0.8]
    hs = avoidance_halfspaces(preds, preds[others], model, prev)
    assert hs.normals.shape == (M, M - 1, 4, 2)
    assert hs.offsets.shape == (M, M - 1, 4)
    assert np.allclose(hs.normals[1, 0, :2], [-0.6, -0.8])
    for i in range(M):
        normals, offsets = _halfspaces_by_loop(preds[i], preds[others[i]],
                                               model, prev[i])
        assert np.abs(hs.normals[i] - normals).max() <= 1e-12
        assert np.abs(hs.offsets[i] - offsets).max() <= 1e-12
    # a batched call names the pair left without any fallback
    prev[1, 0] = np.nan
    with pytest.raises(CoincidentCenters,
                       match=r"neighbour 0 .* \(batch index \[1\]\)"):
        avoidance_halfspaces(preds, preds[others], model, prev)


def test_avoidance_rows_scale_exactly_with_the_axes():
    # axes scaled by a power of two give the very same normals, and touch
    # points scaled about the neighbour's center, with no overflow even
    # where E = diag(1 / (2 axes)) squared would leave the float range
    rng = np.random.default_rng(5)
    self_pred = rng.normal(size=(4, 2))
    neighbors = self_pred + rng.normal(size=(3, 4, 2))
    axes = np.array([0.5, 0.3])
    hs = avoidance_halfspaces(self_pred, neighbors, AvoidanceModel(axes))
    at_center = np.einsum("jkd,jkd->jk", hs.normals, neighbors)
    for power in (-990, -40, 10):
        scaled = avoidance_halfspaces(self_pred, neighbors,
                                      AvoidanceModel(np.ldexp(axes, power)))
        assert np.array_equal(scaled.normals, hs.normals)
        assert np.allclose(scaled.offsets - at_center,
                           np.ldexp(hs.offsets - at_center, power),
                           rtol=1e-9, atol=1e-12)
    # the smallest axis beside an ordinary one: no entry of E.T @ E fits a
    # float, and the rows still come out finite
    extreme = avoidance_halfspaces(self_pred, neighbors,
                                   AvoidanceModel([5e-324, 20.0]))
    assert np.isfinite(extreme.normals).all()
    assert np.isfinite(extreme.offsets).all()


def test_hull_inequalities_square_and_degenerate():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    rows = hull_inequalities(square)
    assert rows is not None
    A, b = rows
    assert A.shape == (4, 2)
    assert _margin(rows, np.array([0.5, 0.5])) == pytest.approx(0.5)
    assert _margin(rows, np.array([0.0, 0.0])) == pytest.approx(0.0)
    assert _margin(rows, np.array([2.0, 0.5])) == pytest.approx(-1.0)
    # collinear cross-sections have no interior
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert hull_inequalities(line) is None


def _linear_window(horizon=10, timestep=0.1):
    traj = PiecewisePolynomial(1, 1, UNIT, np.array([0.0, 2.0]))
    scaling = TimeScaling(total_chord=2.0, speed=1.0)
    return _window(traj, scaling, 0, horizon, timestep)


def _horizon(config, window):
    ref, ff = window
    return horizon_qp(config, ff.shape[1], ref.shape[0] - 1)


# a box this wide never binds: the QP is as good as free of tube rows
WIDE = 1e3


def _solve(state, window, hs, horizon, tolerance, warm=None):
    """One robot's horizon QP, assembled by tick_qps on a swarm of one
    robot; returns its first input, plan, largest slack and final
    working set."""
    ref, ff = (w[None] for w in window)
    N, d = horizon.steps, ff.shape[2]
    if hs is None:
        hs = Halfspaces(np.zeros((0, N + 1, d)), np.zeros((0, N + 1)))
    qps = tick_qps(horizon, ref, ff, state[None],
                   Halfspaces(hs.normals[None], hs.offsets[None]), tolerance)
    z, warm = mpc_step(qps.G[0], qps.h[0], qps.z_star[0], horizon, warm)
    u0, plan, slack = horizon_plans(horizon, ref, ff, qps.free, z[None])
    return u0[0], plan[0], slack[0], warm


def test_mpc_step_structure():
    window = _linear_window()
    ref, _ = window
    config = MpcConfig()
    state = ref[0].copy()
    u0, plan, slack, _ = _solve(state, window, None,
                                _horizon(config, window), WIDE)
    assert plan.shape == ref.shape
    assert np.allclose(plan[0], state, atol=1e-9)
    assert slack == pytest.approx(0.0, abs=1e-9)
    # the deadbeat velocity row needs positive input to keep moving, but the
    # input penalty lets the open-loop plan sag behind the reference a little
    assert 0.0 < u0[0] < 10.0
    assert np.abs(plan[:, 0] - ref[:, 0]).max() <= 0.5
    assert plan[-1, 0] > plan[0, 0]


def _curved_window(horizon):
    # h(t) = (2 t + t^2, t - 2 t^2): nonzero feedforward, and a reference
    # that misses the discrete dynamics
    traj = PiecewisePolynomial(2, 2, UNIT,
                               np.array([0.0, 0.0, 2.0, 1.0, 1.0, -2.0]))
    scaling = TimeScaling(total_chord=2.0, speed=1.0)
    return _window(traj, scaling, 3, horizon, 0.1)


def test_mpc_step_matches_state_space_kkt():
    N, d = 4, 2
    nx, n_x = 2 * d, (N + 1) * 2 * d
    window = _curved_window(N)
    ref, ff = window
    config = MpcConfig()
    state = ref[0] + np.array([0.3, -0.2, 0.5, 0.1])
    # far neighbour and wide boxes: rows present, none of them active
    far = np.tile([40.0, 40.0], (N + 1, 1))
    hs = avoidance_halfspaces(ref[:, :d], far,
                              AvoidanceModel(axes=np.array([0.5, 0.5])))
    dyn = _horizon(config, window)
    u0, plan, slack, _ = _solve(state, window, hs, dyn, 5.0)

    # independent oracle: the uncondensed QP over z = [x~_0..x~_N,
    # u~_0..u~_{N-1}] with the error dynamics as equalities, one KKT solve
    stage = np.repeat([config.position_weight, config.velocity_weight], d)
    weights = np.concatenate([np.tile(stage, N),
                              config.terminal_weight_scale * stage,
                              np.full(N * d, config.input_weight)])
    n = weights.size
    Aeq = np.zeros((n_x, n))
    beq = np.zeros(n_x)
    Aeq[:nx, :nx] = np.eye(nx)
    beq[:nx] = ref[0] - state
    for k in range(N):
        rows = slice((k + 1) * nx, (k + 2) * nx)
        Aeq[rows, (k + 1) * nx:(k + 2) * nx] = np.eye(nx)
        Aeq[rows, k * nx:(k + 1) * nx] = -dyn.A
        Aeq[rows, n_x + k * d:n_x + (k + 1) * d] = -dyn.B
        beq[rows] = ref[k + 1] - dyn.A @ ref[k] - dyn.B @ ff[k]
    K = np.block([[2.0 * np.diag(weights), Aeq.T],
                  [Aeq, np.zeros((n_x, n_x))]])
    z = np.linalg.solve(K, np.concatenate([np.zeros(n), beq]))[:n]
    assert np.abs(u0 - (ff[0] - z[n_x:n_x + d])).max() <= 1e-9
    expected = ref - z[:n_x].reshape(N + 1, nx)
    assert np.abs(plan - expected).max() <= 1e-9
    assert slack == pytest.approx(0.0, abs=1e-12)


def test_mpc_step_holds_active_rows(monkeypatch):
    N, d = 6, 2
    window = _curved_window(N)
    ref = window[0]
    config = MpcConfig(boundary_tolerance=0.2)
    state = ref[0] + np.array([0.15, 0.0, 0.0, 0.0])
    # a neighbour flying 0.6 m beside the reference, inside the 1 m ellipse
    neighbor = ref[:, :d] + np.array([0.0, 0.6])
    hs = avoidance_halfspaces(ref[:, :d], neighbor,
                              AvoidanceModel(axes=np.array([0.5, 0.5])))
    horizon = _horizon(config, window)
    eps = config.boundary_tolerance
    solves = []
    kkt_solve = trajopt._kkt_solve

    def counted(*args):
        solves.append(1)
        return kkt_solve(*args)

    monkeypatch.setattr(trajopt, "_kkt_solve", counted)
    u0, plan, slack, warm = _solve(state, window, hs, horizon, eps)
    cold = len(solves)
    assert cold > 1
    # warm-started from its own final working set, one KKT solve suffices
    u0_w, plan_w, _, warm_w = _solve(state, window, hs, horizon, eps, warm)
    assert len(solves) == cold + 1 and warm_w == warm
    assert np.array_equal(u0_w, u0) and np.array_equal(plan_w, plan)
    # a stale set pinning both bounds of one input fails its first solve
    # and is dropped for a cold start
    u0_s, plan_s, _, _ = _solve(state, window, hs, horizon, eps, [0, 1])
    assert len(solves) == 2 * cold + 2
    assert np.abs(u0_s - u0).max() <= 1e-12
    assert np.abs(plan_s - plan).max() <= 1e-12
    assert np.abs(plan[0] - state).max() <= 1e-12
    assert np.abs(plan[1] - (horizon.A @ state + horizon.B @ u0)).max() <= 1e-9
    p = plan[1:, :d]
    margin = (hs.normals[0, 1:] * p).sum(axis=1) - hs.offsets[0, 1:]
    assert margin.min() >= -slack - 1e-8
    assert slack > 1e-3          # the avoidance rows bind and use slack
    assert np.abs(p - ref[1:, :d]).max() <= eps + 1e-8
    assert np.abs(p - ref[1:, :d]).max() >= eps - 1e-8


def test_mpc_step_respects_input_limit():
    traj = PiecewisePolynomial(1, 1, UNIT, np.array([0.0, 2.0]))
    scaling = TimeScaling(total_chord=2.0, speed=1.0)
    # reference already holds the goal at 2; the robot sits at 0
    window = _window(traj, scaling, 100, 10, 0.1)
    config = MpcConfig(input_limit=0.5)
    u0, plan, slack, _ = _solve(np.array([0.0, 0.0]), window, None,
                                _horizon(config, window), WIDE)
    assert u0[0] == pytest.approx(0.5, abs=1e-8)
    assert slack == pytest.approx(0.0, abs=1e-9)


def test_mpc_step_rejects_degenerate_weights():
    # the last input moves only the terminal velocity, which costs nothing
    config = MpcConfig(horizon=5, velocity_weight=0.0, input_weight=0.0)
    message = ("horizon QP Hessian is not positive definite; "
               "check the controller weights")
    with pytest.raises(RankDeficient) as built:
        horizon_qp(config, 1, 5)
    assert str(built.value) == message
    with pytest.raises(RankDeficient) as simulated:
        simulate(straight_pair_tube(), [[0.0, 0.25]], config,
                 AvoidanceModel(axes=np.array([0.3, 0.3])), time_limit=1.0)
    assert str(simulated.value) == message


def test_simulate_factors_the_horizon_hessian_once(monkeypatch):
    # one Cholesky factor per simulation, however many robots and ticks;
    # each tick solves every robot's horizon QP in one call, and every
    # horizon KKT system is solved through that one factor
    factored, stacks, factors = [], [], []
    cholesky = np.linalg.cholesky
    solve, kkt_solve = mpcsim.solve_qp, trajopt._kkt_solve

    def counted(a):
        factored.append(1)
        return cholesky(a)

    def recorded_solve(factor, G, h, working=None):
        stacks.append(G.shape)
        return solve(factor, G, h, working)

    def recorded_kkt(factor, G_W, h_W):
        factors.append(factor)
        return kkt_solve(factor, G_W, h_W)

    tube = straight_pair_tube()
    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(mpcsim, "solve_qp", recorded_solve)
    monkeypatch.setattr(trajopt, "_kkt_solve", recorded_kkt)
    log = simulate(tube, [[0.0, 0.2], [0.0, 0.8]],
                   MpcConfig(), AvoidanceModel(axes=np.array([0.3, 0.3])),
                   time_limit=2.0)
    assert log.inputs.shape[:2] == (20, 2)
    assert len(factored) == 1
    assert len(stacks) == 20 and all(shape[0] == 2 for shape in stacks)
    assert len(factors) >= 20      # at least one per tick
    assert all(f is factors[0] for f in factors)


def test_interior_reference_gets_box_rows():
    # tube rows hold |p_k - p_d,k| <= 0.5 per axis in absolute position,
    # upper bounds first, whether the reference lies deep inside the
    # cross-section (step 1, the centre of a 4 m square) or on its
    # boundary (step 2, on a facet)
    config = MpcConfig(horizon=2, boundary_tolerance=0.5)
    horizon = horizon_qp(config, 2, 2)
    ref = np.zeros((1, 3, 4))
    ref[0, 1, :2] = [2.0, 2.0]
    ref[0, 2, :2] = [4.0, 2.0]
    ff = np.zeros((1, 3, 2))
    state = np.array([[1.5, 2.0, 3.0, -1.0]])
    none = Halfspaces(np.zeros((1, 0, 3, 2)), np.zeros((1, 0, 3)))
    qps = tick_qps(horizon, ref, ff, state, none, 0.5)
    G, h = qps.G[0], qps.h[0]
    tube = slice(horizon.G_bounds.shape[0], None)
    assert G[tube].shape[0] == 4 + 4
    rng = np.random.default_rng(4)
    for z in rng.normal(size=(5, G.shape[1])):
        _, plan, _ = horizon_plans(horizon, ref, ff, qps.free, z[None])
        p1, p2 = plan[0, 1, :2], plan[0, 2, :2]
        residual = (G @ (z - qps.z_star[0]) - h)[tube]
        box = np.concatenate([p1 - [2.5, 2.5], [1.5, 1.5] - p1,
                              p2 - [4.5, 2.5], [3.5, 1.5] - p2])
        assert np.allclose(residual, box, atol=1e-12)


def _tick_by_robot(horizon, ref, ff, state, hs, tolerance):
    """Reference per-robot assembly of one robot's horizon QP, row by row
    as tick_qps orders them: the shifted (G, h) and z_star."""
    A, B, S = horizon.A, horizon.B, horizon.S
    N, d = horizon.steps, B.shape[1]
    n_u = N * d
    nz = n_u + N + 1
    drift = ref[1:] - ref[:-1] @ A.T - ff[:-1] @ B.T
    F = np.empty((N + 1, 2 * d))
    F[0] = ref[0] - state
    for k in range(N):
        F[k + 1] = A @ F[k] + drift[k]
    L_u = horizon.L_inv[:n_u, :n_u]
    grad = S.reshape(-1, n_u).T @ (horizon.weights * F).ravel()
    z_star = np.zeros(nz)
    z_star[:n_u] = -2.0 * (L_u.T @ (L_u @ grad))
    u_ref = ff[:N].ravel()
    G_parts = [horizon.G_bounds]
    h_parts = [(horizon.input_limit
                + np.column_stack([u_ref, -u_ref])).ravel(), np.zeros(N + 1)]
    S_pos = S[1:, :d]
    p_ff = ref[1:, :d] - F[1:, :d]
    normals = hs.normals[:, 1:]
    G_av = np.zeros((normals.shape[0], N, nz))
    G_av[..., :n_u] = np.einsum("jkd,kdu->jku", normals, S_pos)
    G_av[:, np.arange(N), n_u + 1 + np.arange(N)] = -1.0
    G_parts.append(G_av.reshape(-1, nz))
    h_parts.append((np.einsum("jkd,kd->jk", normals, p_ff)
                    - hs.offsets[:, 1:]).ravel())
    a = np.vstack([np.eye(d), -np.eye(d)])
    for k in range(N):
        p_d = ref[k + 1, :d]
        b = np.concatenate([p_d + tolerance, tolerance - p_d])
        G_k = np.zeros((b.size, nz))
        G_k[:, :n_u] = -a @ S_pos[k]
        G_parts.append(G_k)
        h_parts.append(b - a @ p_ff[k])
    G = np.vstack(G_parts)
    return G, np.concatenate(h_parts) - G @ z_star, z_star


def test_tick_qps_match_the_per_robot_assembly(monkeypatch):
    # a triangular tube that shrinks along its length, flown by interior
    # members at off-lattice weights and by a vertex member
    xs = np.linspace(0.0, 12.0, 7)[:, None]
    shrink = 1.0 - xs / 24.0
    corners = np.array([[0.0, -2.0], [0.0, 2.0], [-1.5, 0.0]])
    waypoints = np.array([np.hstack([xs + c[0] * shrink, c[1] * shrink])
                          for c in corners])
    pairs = OrderPairSet(Terminal(waypoints[:, 0, :]),
                         Terminal(waypoints[:, -1, :]), np.arange(3))
    tube = tube_from_waypoints(
        pairs, waypoints, TrajectoryConfig(segments=6))
    thetas = np.array([[0.55, 0.3, 0.15], [0.2, 0.47, 0.33],
                       [0.31, 0.12, 0.57], [1.0, 0.0, 0.0]])
    starts = thetas @ pairs.starts.vertices
    # at 2.5 m/s robot 2's most violated row is often a combination of
    # its working rows, and the dual step makes room for it
    config = MpcConfig(reference_speed=2.5)
    ticks, calls, stacked = [], [], []
    assemble, step, solve = mpcsim.tick_qps, mpcsim.mpc_step, mpcsim.solve_qp
    kkt_solve = trajopt._kkt_solve

    def recorded_tick(*args):
        ticks.append((args, assemble(*args)))
        return ticks[-1][1]

    def recorded_step(G, h, z_star, horizon, warm=None):
        given = None if warm is None else [list(w) for w in warm]
        calls.append([given])
        return step(G, h, z_star, horizon, warm)

    def recorded_solve(factor, G, h, working=None):
        sol = solve(factor, G, h, working)
        calls[-1] += [sol.working, sol.iterations]
        return sol

    def counted(factor, G_W, h_W):
        stacked.append(G_W.shape[0])
        return kkt_solve(factor, G_W, h_W)

    monkeypatch.setattr(mpcsim, "tick_qps", recorded_tick)
    monkeypatch.setattr(mpcsim, "mpc_step", recorded_step)
    monkeypatch.setattr(mpcsim, "solve_qp", recorded_solve)
    monkeypatch.setattr(trajopt, "_kkt_solve", counted)
    log = simulate(tube, starts, config,
                   AvoidanceModel(axes=np.array([0.1, 0.1])), time_limit=6.0)
    M = len(starts)
    # one mpc_step call per tick solves every robot's QP; the stacked KKT
    # calls solve as many systems as the robots' iteration counts add to
    assert len(ticks) == log.inputs.shape[0] == len(calls)
    assert sum(stacked) == sum(sum(iters) for _, _, iters in calls)
    monkeypatch.setattr(trajopt, "_kkt_solve", kkt_solve)
    N, d = config.horizon, 2
    for ((horizon, ref, ff, state, hs, tol), qps), (warm, out, iters) in zip(
            ticks, calls):
        # every robot has the same row layout, the box's 2 d rows per step
        assert qps.G.shape[1] == (horizon.G_bounds.shape[0] + (M - 1) * N
                                  + 2 * d * N)
        for i in range(M):
            G, h, z_star = _tick_by_robot(
                horizon, ref[i], ff[i], state[i],
                Halfspaces(hs.normals[i], hs.offsets[i]), tol)
            assert qps.G[i].shape == G.shape
            assert np.abs(qps.G[i] - G).max() <= 1e-12
            assert np.abs(qps.h[i] - h).max() <= 1e-12 * max(
                1.0, np.abs(h).max())
            assert np.abs(qps.z_star[i] - z_star).max() <= 1e-12 * max(
                1.0, np.abs(z_star).max())
            # the same QP from the same warm start, solved alone, takes the
            # same KKT solves to the same working set
            sol = trajopt.solve_qp(horizon.L_inv, G, h,
                                   None if warm is None else warm[i])
            assert out[i] == sol.working
            assert iters[i] == sol.iterations


def straight_pair_tube():
    """Two parallel straight member paths from x=0 to x=12."""
    xs = np.linspace(0.0, 12.0, 7)
    p0 = np.column_stack([xs, np.zeros(7)])
    p1 = np.column_stack([xs, np.ones(7)])
    waypoints = np.array([p0, p1])
    config = TrajectoryConfig(segments=6)
    pairs = OrderPairSet(Terminal(waypoints[:, 0, :]),
                         Terminal(waypoints[:, -1, :]), np.arange(2))
    return tube_from_waypoints(pairs, waypoints, config)


def test_simulate_single_robot_arrives():
    tube = straight_pair_tube()
    config = MpcConfig()
    avoidance = AvoidanceModel(axes=np.array([0.3, 0.3]))
    log = simulate(tube, [[0.0, 0.25]], config, avoidance,
                   time_limit=12.0, goal_radius=0.2)
    assert compute_metrics(log, 12.0, 0.2).arrival_rate == 1.0
    # the log replays exactly under the discrete dynamics
    dyn = horizon_qp(config, 2, config.horizon)
    for t in range(log.inputs.shape[0]):
        predicted = dyn.A @ log.states[t, 0] + dyn.B @ log.inputs[t, 0]
        assert np.allclose(log.states[t + 1, 0], predicted, atol=1e-12)
    # member for theta recovered from the start: straight line y = 0.25
    assert np.abs(log.states[:, 0, 1] - 0.25).max() <= 0.05
    final = log.states[-1, 0, :2]
    assert np.linalg.norm(final - log.goals[0]) <= 0.2
    assert log.max_slack.max() == pytest.approx(0.0, abs=1e-9)


def test_simulate_repeat_runs_are_identical():
    tube = straight_pair_tube()
    config = MpcConfig()
    avoidance = AvoidanceModel(axes=np.array([0.3, 0.3]))
    starts = [[0.0, 0.2], [0.0, 0.8]]
    a, b = (simulate(tube, starts, config, avoidance, time_limit=8.0,
                     goal_radius=0.2) for _ in range(2))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.max_slack, b.max_slack)


def test_simulate_rejects_start_outside_terminal():
    tube = straight_pair_tube()
    with pytest.raises(StartOutsideTerminal):
        simulate(tube, [[5.0, 5.0]], MpcConfig(),
                 AvoidanceModel(axes=np.array([0.3, 0.3])))


def test_simulate_runs_an_empty_swarm():
    log = simulate(straight_pair_tube(), np.zeros((0, 2)), MpcConfig(),
                   AvoidanceModel(axes=np.array([0.3, 0.3])), time_limit=1.0)
    assert log.robots == 0 and log.inputs.shape == (1, 0, 2)
    assert compute_metrics(log, 1.0, 0.2).arrival_rate == 1.0


def _hand_log():
    times = np.array([0.0, 0.1, 0.2])
    states = np.zeros((3, 2, 4))
    states[:, 0, :2] = [[0.9, 0.0], [1.0, 0.0], [1.0, 0.0]]
    states[:, 1, :2] = [[0.0, 0.8], [0.0, 0.9], [0.0, 1.0]]
    return SimLog(times=times, states=states, inputs=np.zeros((2, 2, 2)),
                  goals=np.array([[1.0, 0.0], [0.0, 1.0]]), timestep=0.1,
                  max_slack=np.zeros((2, 2)))


def test_compute_metrics_oracle():
    metrics = compute_metrics(_hand_log(), time_limit=1.0, goal_radius=0.05)
    assert metrics.arrival_rate == pytest.approx(1.0)
    assert metrics.average_time == pytest.approx(0.15)
    assert metrics.average_speed == pytest.approx(1.0)
    assert metrics.min_pairwise_distance == pytest.approx(np.sqrt(1.45))


def test_compute_metrics_time_limit_cutoff():
    metrics = compute_metrics(_hand_log(), time_limit=0.1, goal_radius=0.05)
    assert metrics.arrival_rate == pytest.approx(0.5)
    assert metrics.average_time == np.inf


def test_compute_metrics_empty_and_instant():
    empty = SimLog(times=np.array([0.0]), states=np.zeros((1, 0, 4)),
                   inputs=np.zeros((0, 0, 2)), goals=np.zeros((0, 2)),
                   timestep=0.1, max_slack=np.zeros((0, 0)))
    metrics = compute_metrics(empty, time_limit=1.0, goal_radius=0.1)
    assert metrics.arrival_rate == 1.0
    assert metrics.average_speed == 0.0
    assert metrics.min_pairwise_distance == np.inf
    # a robot that starts on its goal arrives at t = 0 with no speed sample
    log = _hand_log()
    log.states[:, 0, :2] = [1.0, 0.0]
    metrics = compute_metrics(log, time_limit=1.0, goal_radius=0.05)
    assert metrics.arrival_rate == 1.0
    assert metrics.average_speed == pytest.approx(1.0)  # only robot 1 counts
