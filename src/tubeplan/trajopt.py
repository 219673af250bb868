"""Minimum-energy piecewise-polynomial trajectories via equality/inequality QP.

A trajectory with m segments in d dimensions stacks its coefficients into
one vector x of length (order + 1) * m * d, segment-major.  Position at time
t inside segment j is a monomial row in global normalized time applied to
that segment's block.  The planning problem minimises the integral of the
squared k_r-th derivative, x^T H x, subject to interpolation/continuity
equalities A x = b and optional corridor inequalities G x <= h.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .knots import KnotVector


class RankDeficient(RuntimeError):
    """A linear system lost rank (duplicate constraints or singular KKT)."""


class Infeasible(RuntimeError):
    """The constraint set admits no solution."""


class MaxIterations(RuntimeError):
    """Active-set iteration exceeded its budget."""


class OutOfDomain(ValueError):
    """Evaluation parameter outside the knot span."""


def basis_row(t: float, deriv: int, order: int) -> np.ndarray:
    """Row of the deriv-th derivative of the monomials 1, t, ..., t^order."""
    row = np.zeros(order + 1)
    for i in range(deriv, order + 1):
        c = 1.0
        for k in range(deriv):
            c *= i - k
        row[i] = c * t ** (i - deriv)
    return row


@dataclass
class EqualitySystem:
    """Stacked equality constraints A x = b with named row blocks."""

    A: np.ndarray
    b: np.ndarray
    blocks: dict = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return self.A.shape[0]


@dataclass
class BoundarySpec:
    """Endpoint derivative targets, orders 1..p (row i is order i + 1)."""

    start_derivs: np.ndarray
    goal_derivs: np.ndarray

    @staticmethod
    def rest(continuity: int, dim: int) -> "BoundarySpec":
        """Rest-to-rest: all endpoint derivatives up to the continuity
        order are zero."""
        z = np.zeros((continuity, dim))
        return BoundarySpec(z, z.copy())


@dataclass
class CostSpec:
    """Energy Hessian for objective x^T H x."""

    H: np.ndarray
    deriv_order: int


@dataclass
class AffineInequalities:
    """Rows G x <= h; affine in the stacked coefficients."""

    G: np.ndarray
    h: np.ndarray

    @property
    def rows(self) -> int:
        return self.G.shape[0]

    def residuals(self, x: np.ndarray) -> np.ndarray:
        return self.G @ x - self.h

    @staticmethod
    def stack(parts: list) -> "AffineInequalities":
        parts = [p for p in parts if p is not None and p.rows]
        if not parts:
            raise ValueError("nothing to stack")
        return AffineInequalities(np.vstack([p.G for p in parts]),
                                  np.concatenate([p.h for p in parts]))


def _coef_width(order: int, dim: int) -> int:
    return (order + 1) * dim


def _place(row_scalar: np.ndarray, seg: int, order: int, dim: int,
           segments: int) -> np.ndarray:
    """Embed d rows of C_t^(deriv) for one segment into the full layout."""
    width = _coef_width(order, dim)
    out = np.zeros((dim, segments * width))
    out[:, seg * width:(seg + 1) * width] = np.kron(row_scalar, np.eye(dim))
    return out


def assemble_equality(waypoints, knots: KnotVector, order: int,
                      continuity: int, bounds: BoundarySpec | None = None
                      ) -> EqualitySystem:
    """Interpolation + continuity + endpoint-derivative equalities.

    Row blocks, in order:
      continuity: derivatives 0..continuity match across interior knots;
      waypoints: each segment starts at its waypoint, the last also ends
        at the final waypoint;
      terminal: endpoint derivatives (order continuity down to 1) equal the
        boundary targets, zero by default (rest to rest).
    Raises RankDeficient when the stacked rows are linearly dependent.
    """
    pts = np.asarray(waypoints, dtype=float)
    m = pts.shape[0] - 1
    dim = pts.shape[1]
    if knots.u.size != m + 1:
        raise ValueError(f"{m + 1} waypoints need {m + 1} knots")
    if continuity > order:
        raise ValueError("continuity order cannot exceed polynomial order")
    t = knots.u

    a_rows = []
    n_cont = (m - 1) * (continuity + 1) * dim
    for i in range(1, m):
        for p in range(continuity + 1):
            row = basis_row(t[i], p, order)
            a_rows.append(_place(row, i - 1, order, dim, m)
                          - _place(row, i, order, dim, m))
    n_way = (m + 1) * dim
    for i in range(m):
        a_rows.append(_place(basis_row(t[i], 0, order), i, order, dim, m))
    a_rows.append(_place(basis_row(t[m], 0, order), m - 1, order, dim, m))
    n_term = 2 * continuity * dim
    for p in range(continuity, 0, -1):
        a_rows.append(_place(basis_row(t[0], p, order), 0, order, dim, m))
    for p in range(continuity, 0, -1):
        a_rows.append(_place(basis_row(t[m], p, order), m - 1, order, dim, m))

    A = np.vstack(a_rows)
    rank = np.linalg.matrix_rank(A)
    if rank < A.shape[0]:
        raise RankDeficient(
            f"equality rows are dependent ({A.shape[0]} rows, rank {rank})")
    blocks = {"continuity": (0, n_cont),
              "waypoints": (n_cont, n_cont + n_way),
              "terminal": (n_cont + n_way, n_cont + n_way + n_term)}
    return EqualitySystem(A, equality_rhs(pts, continuity, bounds), blocks)


def equality_rhs(waypoints, continuity: int,
                 bounds: BoundarySpec | None = None) -> np.ndarray:
    """Right-hand side of ``assemble_equality``'s rows for one path.

    The matrix depends only on the knots and the polynomial settings, so
    paths that share them share it and differ only here.
    """
    pts = np.asarray(waypoints, dtype=float)
    m, dim = pts.shape[0] - 1, pts.shape[1]
    if bounds is None:
        bounds = BoundarySpec.rest(continuity, dim)
    parts = [np.zeros((m - 1) * (continuity + 1) * dim), pts.ravel()]
    for derivs in (bounds.start_derivs, bounds.goal_derivs):
        parts += [np.asarray(derivs[p - 1], dtype=float)
                  for p in range(continuity, 0, -1)]
    return np.concatenate(parts)


def assemble_cost(knots: KnotVector, deriv_order: int, order: int,
                  dim: int) -> CostSpec:
    """Hessian of the integrated squared deriv_order-th derivative.

    Block-diagonal per segment; entries are closed-form monomial integrals
    over the segment's knot span.  Symmetric positive semidefinite.
    """
    t = knots.u
    m = t.size - 1
    width = _coef_width(order, dim)
    H = np.zeros((m * width, m * width))
    # at t = 1 the derivative row holds just the falling factorials
    falling = basis_row(1.0, deriv_order, order)
    for seg in range(m):
        S = np.zeros((order + 1, order + 1))
        for i in range(deriv_order, order + 1):
            for j in range(deriv_order, order + 1):
                e = i + j - 2 * deriv_order + 1
                S[i, j] = (falling[i] * falling[j]
                           * (t[seg + 1] ** e - t[seg] ** e) / e)
        block = np.kron(S, np.eye(dim))
        H[seg * width:(seg + 1) * width, seg * width:(seg + 1) * width] = block
    H = 0.5 * (H + H.T)
    return CostSpec(H, deriv_order)


@dataclass
class CorridorSpec:
    """Per-segment corridor widths and the number of interior samples."""

    width: np.ndarray  # scalar broadcast to one width per segment
    samples_per_segment: int = 3


def corridor_constraints(waypoints, knots: KnotVector, spec: CorridorSpec,
                         order: int) -> AffineInequalities:
    """Linear rows bounding the perpendicular offset from each chord.

    At samples strictly inside each segment, the component of
    h(s) - q_i perpendicular to the segment direction must satisfy
    an infinity-norm bound; each sample contributes 2 * dim affine rows.
    """
    pts = np.asarray(waypoints, dtype=float)
    m = pts.shape[0] - 1
    dim = pts.shape[1]
    t = knots.u
    widths = np.broadcast_to(np.asarray(spec.width, dtype=float), (m,))
    n_c = spec.samples_per_segment
    width_cols = m * _coef_width(order, dim)
    g_rows, h_rows = [], []
    for seg in range(m):
        chord = pts[seg + 1] - pts[seg]
        norm = np.linalg.norm(chord)
        if norm < 1e-12:
            raise ValueError(f"segment {seg} has zero chord")
        tangent = chord / norm
        P = np.eye(dim) - np.outer(tangent, tangent)
        for j in range(1, n_c + 1):
            s = t[seg] + j / (1.0 + n_c) * (t[seg + 1] - t[seg])
            mono = basis_row(s, 0, order)
            for r in range(dim):
                row = np.zeros(width_cols)
                w = _coef_width(order, dim)
                row[seg * w:(seg + 1) * w] = np.kron(mono, P[r])
                offset = float(P[r] @ pts[seg])
                g_rows.append(row)
                h_rows.append(widths[seg] + offset)
                g_rows.append(-row)
                h_rows.append(widths[seg] - offset)
    return AffineInequalities(np.array(g_rows), np.array(h_rows))


def solve_full_pivot(M: np.ndarray, rhs: np.ndarray,
                     pivot_rtol: float = 1e-12) -> np.ndarray:
    """Dense Gaussian elimination with complete pivoting.

    Raises RankDeficient when a pivot falls below pivot_rtol times the
    largest pivot seen so far.
    """
    a = np.array(M, dtype=float)
    y = np.array(rhs, dtype=float)
    n = a.shape[0]
    col_perm = list(range(n))
    max_piv = 0.0
    # one buffer serves every pivot search; a contiguous view of its head
    # keeps argmax in the row-major order of the trailing block
    buf = np.empty(n * n)
    for k in range(n):
        m = n - k
        sub = np.abs(a[k:, k:], out=buf[:m * m].reshape(m, m))
        pi, pj = divmod(int(sub.argmax()), m)
        pi += k
        pj += k
        piv = abs(a[pi, pj])
        if piv <= pivot_rtol * max_piv or piv == 0.0:
            raise RankDeficient(f"pivot {piv:.3e} at step {k} of {n}")
        if piv > max_piv:
            max_piv = piv
        if pi != k:
            # left of column k both rows hold only eliminated entries
            row = a[k, k:].copy()
            a[k, k:] = a[pi, k:]
            a[pi, k:] = row
            y[k], y[pi] = y[pi], y[k]
        if pj != k:
            col = a[:, k].copy()
            a[:, k] = a[:, pj]
            a[:, pj] = col
            col_perm[k], col_perm[pj] = col_perm[pj], col_perm[k]
        if m > 1:
            # column k below the pivot is eliminated and never read again
            f = a[k + 1:, k] / a[k, k]
            a[k + 1:, k + 1:] -= f[:, None] * a[k, k + 1:]
            y[k + 1:] -= f * y[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (y[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    out = np.empty(n)
    out[col_perm] = x
    return out


@dataclass
class QpSolution:
    x: np.ndarray
    objective: float
    eq_residual: float
    ineq_violation: float
    kkt_stationarity: float
    active_set: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    working: list       # final working set, in the order rows joined it
    iterations: int     # KKT solves made


# termination tolerances for the active-set loop
_FEAS_TOL = 1e-8
_DUAL_TOL = 1e-10


def _kkt_solve(H: np.ndarray, A: np.ndarray, b: np.ndarray, factor=None):
    """Minimiser x of x^T H x subject to A x = b, and the multipliers.

    Without a factor this solves the saddle-point system by complete
    pivoting, which tolerates a singular H.  factor, when given, is L^-1
    for the lower Cholesky factor L L^T = 2 H of a positive definite H;
    then the range-space method applies (Nocedal & Wright, Numerical
    Optimization, 16.2): with V = L^-1 A^T = Q R, the multipliers are
    -R^-1 R^-T b and x = L^-T Q R^-T b.  R^T R = A (2 H)^-1 A^T is the
    Schur complement, so a diagonal entry of R below 1e-6 of the largest
    is a relative Schur pivot below 1e-12, the rank test of
    solve_full_pivot.
    """
    n = H.shape[0]
    r = A.shape[0]
    if factor is not None:
        if r == 0:
            return np.zeros(n), np.zeros(0)
        if r > n:
            raise RankDeficient(f"{r} rows on {n} variables")
        Q, R = np.linalg.qr(factor @ A.T)
        diag = np.abs(np.diag(R))
        if diag.min() <= 1e-6 * diag.max():
            k = int(diag.argmin())
            raise RankDeficient(f"|R_kk| {diag[k]:.3e} at row {k} of {r}")
        w, _ = dtrtrs(R, b, trans=1)
        lam, _ = dtrtrs(R, w)
        return factor.T @ (Q @ w), -lam
    K = np.zeros((n + r, n + r))
    K[:n, :n] = 2.0 * H
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([np.zeros(n), b])
    sol = solve_full_pivot(K, rhs)
    return sol[:n], sol[n:]


def solve_qp(cost: CostSpec, eq: EqualitySystem,
             ineq: AffineInequalities | None = None,
             max_iter: int | None = None,
             working: list | None = None, factor=None) -> QpSolution:
    """Minimise x^T H x subject to A x = b and optionally G x <= h.

    Equality-only problems solve one saddle-point KKT system.  Inequalities
    are handled by an active-set loop: solve with the working set pinned as
    equalities, drop rows with negative multipliers, add the most violated
    row, repeat.  The Hessian may be singular as long as it is positive
    definite on the constraint null space.

    working optionally names inequality rows to start from, typically the
    final working set of a neighbouring problem (a warm start).  When a
    KKT system of a warm-started loop turns out singular, the warm set is
    dropped and the loop starts again from the empty set, so a stale warm
    set is never reported as Infeasible.

    factor, for a positive definite Hessian only, is the inverse lower
    Cholesky factor of 2 H that ``_kkt_solve`` takes; every KKT system of
    the loop is then solved through it instead of by complete pivoting.
    """
    H, A, b = cost.H, eq.A, eq.b
    n = H.shape[0]
    if max_iter is None:
        max_iter = 100 * n
    working = list(working or [])
    warm = bool(working)
    iterations = 0
    x = lam = mu_w = None
    for _ in range(max_iter):
        if working:
            A_all = np.vstack([A, ineq.G[working]])
            b_all = np.concatenate([b, ineq.h[working]])
        else:
            A_all, b_all = A, b
        iterations += 1
        try:
            x, lam_all = _kkt_solve(H, A_all, b_all, factor)
        except RankDeficient:
            if warm:
                warm, working = False, []
                continue
            if working:
                raise Infeasible(
                    "active corridor row dependent on existing constraints; "
                    "no feasible point") from None
            raise
        lam = lam_all[:A.shape[0]]
        mu_w = lam_all[A.shape[0]:]
        if working and mu_w.size and mu_w.min() < -_DUAL_TOL:
            drop = int(np.argmin(mu_w))
            working.pop(drop)
            continue
        if ineq is not None and ineq.rows:
            res = ineq.residuals(x)
            res[working] = 0.0
            worst = int(np.argmax(res))
            if res[worst] > _FEAS_TOL:
                working.append(worst)
                continue
        break
    else:
        raise MaxIterations(f"active set did not settle in {max_iter} steps")

    mu = np.zeros(ineq.rows if ineq is not None else 0)
    if working:
        mu[working] = mu_w
    eq_residual = float(np.abs(A @ x - b).max(initial=0.0))
    if ineq is not None and ineq.rows:
        res = ineq.residuals(x)
        violation = float(max(res.max(), 0.0))
        active = np.flatnonzero(res >= -_FEAS_TOL)
        grad_ineq = ineq.G.T @ mu
    else:
        violation = 0.0
        active = np.array([], dtype=int)
        grad_ineq = 0.0
    stationarity = float(np.abs(2.0 * H @ x + A.T @ lam + grad_ineq).max())
    if eq_residual > _FEAS_TOL:
        raise Infeasible(f"equality residual {eq_residual:.3e} after solve")
    if violation > _FEAS_TOL:
        raise Infeasible(f"inequality violation {violation:.3e} after solve")
    return QpSolution(x=x, objective=float(x @ H @ x),
                      eq_residual=eq_residual, ineq_violation=violation,
                      kkt_stationarity=stationarity, active_set=active,
                      lam=lam, mu=mu, working=working, iterations=iterations)


@dataclass
class PiecewisePolynomial:
    """Stacked-coefficient trajectory over a normalized knot vector."""

    dim: int
    order: int
    knots: KnotVector
    x: np.ndarray

    def __post_init__(self):
        expected = (self.order + 1) * self.knots.segments * self.dim
        if self.x.size != expected:
            raise ValueError(
                f"coefficient vector has {self.x.size} entries, "
                f"expected {expected}")

    @property
    def segments(self) -> int:
        return self.knots.segments

    def segment_coefficients(self, seg: int) -> np.ndarray:
        """(order + 1, dim) coefficient block of one segment."""
        w = _coef_width(self.order, self.dim)
        return self.x[seg * w:(seg + 1) * w].reshape(self.order + 1, self.dim)

    def evaluate(self, t: float, deriv: int = 0) -> np.ndarray:
        return evaluate(self, t, deriv)


def evaluate(traj: PiecewisePolynomial, t: float, deriv: int = 0) -> np.ndarray:
    """Trajectory value or derivative at global parameter t.

    Segments own right-open knot intervals; the final segment is closed.
    """
    u = traj.knots.u
    if t < u[0] - 1e-12 or t > u[-1] + 1e-12:
        raise OutOfDomain(f"t={t} outside [{u[0]}, {u[-1]}]")
    seg = int(np.searchsorted(u, t, side="right")) - 1
    seg = min(max(seg, 0), traj.segments - 1)
    row = basis_row(float(t), deriv, traj.order)
    return row @ traj.segment_coefficients(seg)
