import numpy as np
import pytest

from tubeplan.knots import KnotVector
from tubeplan.trajopt import (_kkt_solve, AffineInequalities, CorridorSpec,
                              Infeasible, OutOfDomain, PiecewisePolynomial,
                              RankDeficient, assemble_cost, assemble_equality,
                              basis_row, corridor_constraints, equality_rhs,
                              evaluate, evaluate_grid, reduce_equalities,
                              solve_qp)
from tubeplan.tube import _solve_reduced

UNIT = KnotVector(np.array([0.0, 1.0]), normalized=True)


def test_basis_row_values():
    assert np.allclose(basis_row(1.0, 1, 3), [0.0, 1.0, 2.0, 3.0])
    assert np.allclose(basis_row(0.5, 2, 3), [0.0, 0.0, 2.0, 3.0])
    t = 0.3
    assert np.allclose(basis_row(t, 0, 2), [1.0, t, t * t])
    assert np.allclose(basis_row(0.0, 0, 4), [1.0, 0.0, 0.0, 0.0, 0.0])
    # differentiating past the degree leaves nothing
    assert np.allclose(basis_row(0.7, 4, 3), np.zeros(4))
    # over a span of 0.5, d/dt = 2 d/dtau and d2/dt2 = 4 d2/dtau2
    assert np.allclose(basis_row(0.5, 1, 3, 0.5), [0.0, 2.0, 2.0, 1.5])
    assert np.allclose(basis_row(0.5, 2, 3, 0.5), [0.0, 0.0, 8.0, 12.0])
    assert np.array_equal(basis_row(0.3, 0, 2, 0.25), basis_row(0.3, 0, 2))


def test_cost_matrix_linear_velocity():
    cost = assemble_cost(UNIT, 1, 1, 1)
    assert np.allclose(cost.H, [[0.0, 0.0], [0.0, 1.0]])


def test_cost_matrix_quadratic_acceleration():
    cost = assemble_cost(UNIT, 2, 2, 1)
    expect = np.zeros((3, 3))
    expect[2, 2] = 4.0
    assert np.allclose(cost.H, expect)


def test_cost_matrix_block_diagonal_and_psd():
    kv = KnotVector(np.array([0.0, 0.4, 1.0]), normalized=True)
    cost = assemble_cost(kv, 3, 5, 2)
    H = cost.H
    w = 12   # coefficients per segment: (5 + 1) * 2
    assert H.shape == (24, 24)
    assert np.allclose(H[:w, w:], 0.0)
    assert np.allclose(H, H.T)
    assert np.linalg.eigvalsh(H).min() >= -1e-9


def test_cost_kills_constant_offsets():
    kv = KnotVector(np.array([0.0, 0.5, 1.0]), normalized=True)
    cost = assemble_cost(kv, 3, 5, 2)
    shift = np.zeros(24)
    shift[0:2] = 1.0        # constant coefficients of segment 0
    shift[12:14] = 1.0      # constant coefficients of segment 1
    assert np.allclose(cost.H @ shift, 0.0, atol=1e-12)


def test_equality_line_fit_oracle():
    pts = np.array([[0.0], [1.0]])
    A, b = assemble_equality(pts, UNIT, 1, 0), equality_rhs(pts, 0)
    assert np.allclose(A, [[1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(b, [0.0, 1.0])
    x = np.linalg.solve(A, b)
    assert np.allclose(x, [0.0, 1.0])


def test_equality_block_layout():
    kv = KnotVector(np.array([0.0, 0.5, 1.0]), normalized=True)
    pts = np.array([[0.0], [1.0], [0.5]])
    A, b = assemble_equality(pts, kv, 5, 2), equality_rhs(pts, 2)
    # (m-1)(p+1) + (m+1) + 2p rows for d = 1: continuity rows 0-2,
    # waypoint rows 3-5 and terminal rows 6-9
    assert A.shape == (10, 12) and b.shape == (10,)
    assert np.allclose(b[3:6], [0.0, 1.0, 0.5])
    assert np.allclose(b[:3], 0.0)
    assert np.allclose(b[6:], 0.0)
    # a waypoint row reads one segment's position, at its start or end
    assert np.allclose(A[3:6, [0, 6]], [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


def test_equality_rejects_dependent_rows():
    kv = KnotVector(np.array([0.0, 0.5, 1.0]), normalized=True)
    pts = np.array([[0.0], [1.0], [0.5]])
    with pytest.raises(RankDeficient):
        assemble_equality(pts, kv, 3, 2)   # more rows than a cubic affords


def test_equality_waypoint_count_mismatch():
    with pytest.raises(ValueError):
        assemble_equality(np.array([[0.0], [1.0], [2.0]]), UNIT, 5, 2)


def _null_space_problem(rng, n, r):
    """H positive semidefinite of rank n - r + 1 (positive definite when
    r is 0 or 1), positive definite on the null space of r random rows."""
    C = rng.standard_normal((r, n))
    null = np.linalg.svd(C)[2][r:].T if r else np.eye(n)
    M = rng.standard_normal((n, n))
    H = null @ (null.T @ (M @ M.T) @ null + 0.5 * np.eye(n - r)) @ null.T
    if r:
        H += 0.3 * np.outer(C[0], C[0])
    return H, C


def _solve(H, A, b, ineq=None):
    """min x^T H x subject to A x = b and ineq, the way a tube solves."""
    return _solve_reduced(reduce_equalities(A, H), ineq, b)


def test_null_space_kkt_matches_reference():
    # the reduction's minimiser on A x = b and its multipliers solve the
    # equality KKT system
    rng = np.random.default_rng(1)
    for n, r in ((4, 0), (3, 1), (8, 5), (20, 7), (20, 19), (12, 12)):
        H, C = _null_space_problem(rng, n, r)
        if r > 1:
            assert np.linalg.matrix_rank(H) < n       # singular H
        b = rng.standard_normal(r)
        K = np.block([[2.0 * H, C.T], [C, np.zeros((r, r))]])
        ref = np.linalg.solve(K, np.concatenate([np.zeros(n), b]))
        reduced = reduce_equalities(C, H)
        assert reduced.Z.shape == (n, n - r)
        x = reduced.minimiser(b)
        lam = reduced.multipliers(2.0 * H @ x)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(x - ref[:n]).max() <= 1e-9 * scale
        assert np.abs(lam - ref[n:]).max(initial=0.0) <= 1e-9 * scale


def test_null_space_kkt_rejects_dependent_rows():
    rng = np.random.default_rng(3)
    H, _ = _null_space_problem(rng, 6, 0)
    row = rng.standard_normal(6)
    with pytest.raises(RankDeficient, match="at row 1 of 2"):
        reduce_equalities(np.array([row, row]), H)
    with pytest.raises(RankDeficient, match="7 rows on 6 variables"):
        reduce_equalities(rng.standard_normal((7, 6)), H)


def test_null_space_kkt_names_a_late_dependent_row():
    rng = np.random.default_rng(4)
    H, _ = _null_space_problem(rng, 6, 0)
    # four good rows, then a small combination of them: pivoting takes the
    # larger rows first, and the last one left has no rank to give
    C = rng.standard_normal((5, 6))
    C[4] = C[:4].T @ np.array([0.05, -0.125, 0.2, 0.075])
    with pytest.raises(RankDeficient, match="at row 4 of 5"):
        reduce_equalities(C, H)
    # the same rows in another order name the same dependent row
    with pytest.raises(RankDeficient, match="at row 1 of 5"):
        reduce_equalities(C[[0, 4, 1, 2, 3]], H)


def test_null_space_kkt_rejects_indefinite_reduced_hessian():
    C = np.array([[1.0, 0.0, 0.0]])
    for H in (np.diag([1.0, 0.0, 1.0]),      # singular on null(C)
              np.diag([1.0, 1.0, -1.0]),     # indefinite on null(C)
              np.diag([1.0, 1e-14, 1.0])):   # numerically singular
        with pytest.raises(RankDeficient, match="not positive definite"):
            reduce_equalities(C, H)
    # positive definite on null(C), singular off it: solvable
    H = np.diag([0.0, 1.0, 1.0])
    reduced = reduce_equalities(C, H)
    x = reduced.minimiser(np.ones(1))
    lam = reduced.multipliers(2.0 * H @ x)
    assert np.allclose(x, [1.0, 0.0, 0.0]) and np.allclose(lam, [0.0])


def _spd_factor(rng, n):
    M = rng.standard_normal((n, n))
    H = M @ M.T + 0.5 * np.eye(n)
    return H, np.linalg.inv(np.linalg.cholesky(2.0 * H))


def test_range_space_kkt_matches_reference():
    rng = np.random.default_rng(5)
    for n, r in ((3, 1), (8, 5), (20, 7), (31, 31)):
        H, factor = _spd_factor(rng, n)
        C = rng.standard_normal((r, n))
        b = rng.standard_normal(r)
        K = np.block([[2.0 * H, C.T], [C, np.zeros((r, r))]])
        ref = np.linalg.solve(K, np.concatenate([np.zeros(n), b]))
        x, lam = _kkt_solve(factor, C, b)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(x - ref[:n]).max() <= 1e-9 * scale
        assert np.abs(lam - ref[n:]).max() <= 1e-9 * scale


def test_range_space_kkt_rejects_dependent_rows():
    rng = np.random.default_rng(6)
    _, factor = _spd_factor(rng, 6)
    row = rng.standard_normal(6)
    for C in (np.array([row, -row]), np.array([row, row]),
              rng.standard_normal((7, 6))):
        with pytest.raises(RankDeficient):
            _kkt_solve(factor, C, np.ones(C.shape[0]))
    # four good rows before the last one, a combination of them, loses rank
    C = rng.standard_normal((5, 6))
    C[4] = C[:4].T @ np.array([0.5, -1.25, 2.0, 0.75])
    with pytest.raises(RankDeficient, match="at row 4 of 5"):
        _kkt_solve(factor, C, rng.standard_normal(5))


def test_range_space_kkt_empty_working_set():
    rng = np.random.default_rng(7)
    _, factor = _spd_factor(rng, 4)
    x, lam = _kkt_solve(factor, np.zeros((0, 4)), np.zeros(0))
    assert np.array_equal(x, np.zeros(4)) and lam.size == 0


# the inverse lower Cholesky factor of 2 I, for min |x|^2
UNIT_FACTOR = np.eye(2) / np.sqrt(2.0)


def test_qp_minimum_norm_on_a_line():
    sol = _solve(np.eye(2), np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-10)
    assert sol.objective == pytest.approx(2.0)
    assert sol.eq_residual <= 1e-10
    assert sol.active_set.size == 0


def test_qp_matches_one_dof_oracle():
    # two segments, cubic, one remaining degree of freedom after equalities
    kv = KnotVector(np.array([0.0, 0.5, 1.0]), normalized=True)
    pts = np.array([[0.0], [1.0], [0.0]])
    A, b = assemble_equality(pts, kv, 3, 1), equality_rhs(pts, 1)
    assert A.shape == (7, 8)
    cost = assemble_cost(kv, 2, 3, 1)
    sol = _solve(cost.H, A, b)

    # independent oracle: along the one-dimensional feasible line the
    # objective is an exact quadratic, so a parabola through three samples
    # recovers the true minimum without touching the KKT machinery
    x_p, *_ = np.linalg.lstsq(A, b, rcond=None)
    _, _, vh = np.linalg.svd(A)
    direction = vh[-1]
    assert np.abs(A @ direction).max() < 1e-9

    def f(t):
        v = x_p + t * direction
        return float(v @ cost.H @ v)

    a = 0.5 * (f(1.0) + f(-1.0)) - f(0.0)
    slope = 0.5 * (f(1.0) - f(-1.0))
    assert a > 0.0
    t_star = -slope / (2.0 * a)
    best = f(t_star)
    assert sol.objective == pytest.approx(best, rel=1e-8, abs=1e-10)
    assert np.allclose(sol.x, x_p + t_star * direction, atol=1e-7)


def test_qp_active_inequality():
    ineq = AffineInequalities(np.array([[0.0, -1.0]]), np.array([-2.0]))
    # min |x|^2, x0 = 1, x1 >= 2
    sol = _solve(np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0]), ineq)
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-10)
    assert list(sol.active_set) == [0]
    assert sol.mu[0] == pytest.approx(4.0)
    assert sol.lam[0] == pytest.approx(-2.0)
    assert sol.mu.min() >= -1e-10
    assert sol.kkt_stationarity <= 1e-8
    # cold: one solve without the row, one with it
    assert sol.working == [0] and sol.iterations == 2


def test_qp_without_equalities():
    G = -np.eye(2)
    h = np.array([-1.0, -2.0])
    sol = solve_qp(UNIT_FACTOR, G, h)         # min |x|^2, x >= (1, 2)
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-10)
    assert np.allclose(sol.mu, [2.0, 4.0])
    # cold: the most violated row joins first, then the other
    assert sol.working == [1, 0] and sol.iterations == 3
    warm = solve_qp(UNIT_FACTOR, G, h, sol.working)
    assert warm.iterations == 1
    assert np.array_equal(warm.x, sol.x)
    # a warm set with dependent rows is dropped, never reported infeasible
    stale = solve_qp(UNIT_FACTOR, G, h, [0, 0])
    assert stale.iterations == 4
    assert np.array_equal(stale.x, sol.x)


def test_qp_inactive_inequality():
    ineq = AffineInequalities(np.array([[0.0, 1.0]]), np.array([5.0]))
    sol = _solve(np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0]), ineq)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-10)
    assert sol.active_set.size == 0
    assert np.allclose(sol.mu, 0.0)


def test_qp_infeasible_constraints():
    ineq = AffineInequalities(np.array([[-1.0]]), np.array([-1.0]))
    with pytest.raises(Infeasible):
        # x = 0 and x >= 1: no variable is left after the reduction
        _solve(np.eye(1), np.array([[1.0]]), np.array([0.0]), ineq)


def test_qp_dependent_row_without_positive_weight_is_infeasible():
    # x0 <= -1 joins first; x0 >= 0 is -1 times it, so nothing can make
    # room for it
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(Infeasible, match="no feasible point"):
        solve_qp(UNIT_FACTOR, G, np.array([-1.0, 0.0]))


def test_qp_dependent_row_takes_the_place_of_the_smallest_ratio():
    # x >= (1, 1) join first; at (1, 1) the row (x0 + 2 x1) / 10 >= 0.4 is
    # violated and is 0.1 and 0.2 times the two, whose multipliers are
    # 2 and 2: the ratios 20 and 10 send x1 >= 1 out
    G = np.array([[-1.0, 0.0], [0.0, -1.0], [-0.1, -0.2]])
    h = np.array([-1.0, -1.0, -0.4])
    sol = solve_qp(UNIT_FACTOR, G, h)
    assert np.allclose(sol.x, [1.0, 1.5], atol=1e-10)
    assert np.allclose(sol.mu, [0.5, 0.0, 15.0])
    # the empty set, then each row joins once, and one solve fails
    assert sol.working == [0, 2] and sol.iterations == 5


def test_qp_deterministic():
    kv = KnotVector(np.array([0.0, 0.5, 1.0]), normalized=True)
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    A, b = assemble_equality(pts, kv, 5, 2), equality_rhs(pts, 2)
    cost = assemble_cost(kv, 3, 5, 2)
    first, second = (_solve(cost.H, A, b) for _ in range(2))
    assert np.array_equal(first.x, second.x)


def test_corridor_rows_on_and_off_the_polyline():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    spec = CorridorSpec(np.array(0.5), samples_per_segment=1)
    ineq = corridor_constraints(pts, UNIT, spec, 1)
    straight = np.array([0.0, 0.0, 2.0, 0.0])   # h(t) = (2t, 0)
    res = ineq.residuals(straight)
    assert np.allclose(res, -0.5)
    shifted = np.array([0.0, 0.3, 2.0, 0.0])    # h(t) = (2t, 0.3)
    res = ineq.residuals(shifted)
    assert res.max() == pytest.approx(-0.2)
    assert res.min() == pytest.approx(-0.8)


def test_corridor_rows_scale_with_sample_count():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    kv = KnotVector(np.array([0.0, 0.5, 1.0]), normalized=True)
    ineq = corridor_constraints(pts, kv, CorridorSpec(np.array(1.0), 3), 5)
    # 2 segments x 3 samples x 2 coordinates x two sides
    assert ineq.G.shape == (24, 24)


def test_continuity_across_interior_knots():
    kv = KnotVector(np.array([0.0, 0.3, 0.7, 0.9, 1.0]), normalized=True)
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [3.5, 0.5],
                    [4.0, 0.0]])
    A, b = assemble_equality(pts, kv, 5, 3), equality_rhs(pts, 3)
    cost = assemble_cost(kv, 3, 5, 2)
    sol = _solve(cost.H, A, b)
    traj = PiecewisePolynomial(2, 5, kv, sol.x)
    # at the shared knot, tau = 1 of one segment meets tau = 0 of the next
    spans = np.diff(kv.u)
    for seg in range(kv.segments - 1):
        for p in range(4):
            left = (basis_row(1.0, p, 5, spans[seg])
                    @ traj.segment_coefficients(seg))
            right = (basis_row(0.0, p, 5, spans[seg + 1])
                     @ traj.segment_coefficients(seg + 1))
            assert np.abs(left - right).max() <= 1e-9


def test_second_derivative_matches_finite_differences():
    kv = KnotVector(np.array([0.0, 0.5, 1.0]), normalized=True)
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    A, b = assemble_equality(pts, kv, 5, 2), equality_rhs(pts, 2)
    cost = assemble_cost(kv, 3, 5, 2)
    traj = PiecewisePolynomial(2, 5, kv, _solve(cost.H, A, b).x)
    rng = np.random.default_rng(7)
    # h = 1e-4 balances cancellation noise against truncation; samples stay
    # clear of the interior knot so the stencil never straddles segments
    h = 1e-4
    for _ in range(100):
        t = rng.uniform(2 * h, 1.0 - 2 * h)
        while min(abs(t - k) for k in kv.u[1:-1]) < 2 * h:
            t = rng.uniform(2 * h, 1.0 - 2 * h)
        fd = (evaluate(traj, t + h) - 2 * evaluate(traj, t)
              + evaluate(traj, t - h)) / (h * h)
        exact = evaluate(traj, t, 2)
        denom = max(1.0, np.abs(exact).max())
        assert np.abs(fd - exact).max() / denom <= 1e-5


def test_objective_invariant_under_translation():
    kv = KnotVector(np.array([0.0, 0.5, 1.0]), normalized=True)
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    H = assemble_cost(kv, 3, 5, 2).H
    A = assemble_equality(pts, kv, 5, 2)
    base, moved = (_solve(H, A, equality_rhs(p, 2))
                   for p in (pts, pts + [10.0, -4.0]))
    assert moved.objective == pytest.approx(base.objective, abs=1e-6)
    # only the constant coefficients change
    diff = (moved.x - base.x).reshape(2, 6, 2)
    assert np.abs(diff[:, 1:, :]).max() <= 1e-6


def test_evaluate_domain_checks():
    traj = PiecewisePolynomial(1, 1, UNIT, np.array([0.0, 1.0]))
    assert evaluate(traj, 0.0) == pytest.approx(0.0)
    assert evaluate(traj, 1.0) == pytest.approx(1.0)
    with pytest.raises(OutOfDomain):
        evaluate(traj, 1.1)
    with pytest.raises(OutOfDomain):
        evaluate(traj, -0.1)
    # NaN fails both comparisons; it must not be clamped into a segment
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfDomain):
            evaluate(traj, bad)


def test_evaluate_grid_domain_checks():
    traj = PiecewisePolynomial(1, 1, UNIT, np.array([0.0, 1.0]))
    basis = np.vstack([traj.x, 2.0 * traj.x])
    grid = evaluate_grid(basis, UNIT, 1, [0.0, 0.25, 1.0])
    assert grid.shape == (2, 3, 1)
    assert np.array_equal(grid[:, :, 0], [[0.0, 0.25, 1.0], [0.0, 0.5, 2.0]])
    for bad in (1.1, -0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfDomain, match="outside"):
            evaluate_grid(basis, UNIT, 1, [0.5, bad])


def test_evaluate_grid_takes_right_open_segments():
    # random coefficients jump at every knot, so a knot read from the
    # wrong segment shows; the last segment is closed at t = 1
    kv = KnotVector(np.array([0.0, 0.3, 0.7, 1.0]), normalized=True)
    basis = np.random.default_rng(5).normal(size=(2, 4 * 3 * 2))
    ts = np.concatenate([kv.u, np.random.default_rng(6).uniform(0, 1, 20)])
    for deriv in range(3):
        grid = evaluate_grid(basis, kv, 3, ts, deriv)
        for k, x in enumerate(basis):
            traj = PiecewisePolynomial(2, 3, kv, x)
            ref = np.array([evaluate(traj, t, deriv) for t in ts])
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(grid[k] - ref).max() <= 1e-12 * scale


def test_piecewise_polynomial_size_check():
    with pytest.raises(ValueError):
        PiecewisePolynomial(2, 5, UNIT, np.zeros(10))
