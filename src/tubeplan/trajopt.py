"""Minimum-energy piecewise-polynomial trajectories via equality/inequality QP.

A trajectory with m segments in d dimensions stacks its coefficients into
one vector x of length (order + 1) * m * d, segment-major.  Segment j spans
the knots [u_j, u_j + h_j], and its block holds monomial coefficients in
the local time tau = (t - u_j) / h_j in [0, 1]; a derivative of order p in
t is the tau-derivative times h_j^-p.  Local time keeps the coefficients
near the size of the positions they describe (per-segment
parameterization; Richter, Bry & Roy, ISRR 2013).  The planning problem
minimises the integral of the squared k_r-th derivative, x^T H x, subject
to interpolation/continuity equalities A x = b and optional corridor
inequalities G x <= h.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import (LinAlgError, cho_factor, cho_solve, qr,
                          solve_triangular)
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


def basis_row(tau: float, deriv: int, order: int,
              span: float = 1.0) -> np.ndarray:
    """Row of the deriv-th derivative of the monomials 1, tau, ...,
    tau^order with respect to t = u + span * tau."""
    row = np.zeros(order + 1)
    c = span ** -deriv
    for i in range(deriv, order + 1):
        row[i] = math.perm(i, deriv) * c
        c *= tau
    return row


@dataclass
class EqualitySystem:
    """Stacked equality constraints A x = b with named row blocks."""

    A: np.ndarray
    b: np.ndarray
    blocks: dict = field(default_factory=dict)


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
                      continuity: int) -> EqualitySystem:
    """Interpolation + continuity + endpoint-derivative equalities.

    Row blocks, in order:
      continuity: derivatives 0..continuity match across interior knots;
      waypoints: each segment starts at its waypoint, the last also ends
        at the final waypoint;
      terminal: endpoint derivatives (order continuity down to 1) are
        zero (rest to rest).
    Raises RankDeficient when the stacked rows are linearly dependent.
    """
    pts = np.asarray(waypoints, dtype=float)
    m = pts.shape[0] - 1
    dim = pts.shape[1]
    if knots.u.size != m + 1:
        raise ValueError(f"{m + 1} waypoints need {m + 1} knots")
    if continuity > order:
        raise ValueError("continuity order cannot exceed polynomial order")
    h = np.diff(knots.u)

    def at(seg, tau, p):
        """d rows of the p-th t-derivative at local time tau of seg."""
        return _place(basis_row(tau, p, order, h[seg]), seg, order, dim, m)

    a_rows = []
    n_cont = (m - 1) * (continuity + 1) * dim
    for i in range(1, m):
        for p in range(continuity + 1):
            a_rows.append(at(i - 1, 1.0, p) - at(i, 0.0, p))
    n_way = (m + 1) * dim
    for i in range(m):
        a_rows.append(at(i, 0.0, 0))
    a_rows.append(at(m - 1, 1.0, 0))
    n_term = 2 * continuity * dim
    for p in range(continuity, 0, -1):
        a_rows.append(at(0, 0.0, p))
    for p in range(continuity, 0, -1):
        a_rows.append(at(m - 1, 1.0, p))

    A = np.vstack(a_rows)
    rank = np.linalg.matrix_rank(A)
    if rank < A.shape[0]:
        raise RankDeficient(
            f"equality rows are dependent ({A.shape[0]} rows, rank {rank})")
    blocks = {"continuity": (0, n_cont),
              "waypoints": (n_cont, n_cont + n_way),
              "terminal": (n_cont + n_way, n_cont + n_way + n_term)}
    return EqualitySystem(A, equality_rhs(pts, continuity), blocks)


def equality_rhs(waypoints, continuity: int) -> np.ndarray:
    """Right-hand side of ``assemble_equality``'s rows for one path.

    The matrix depends only on the knots and the polynomial settings, so
    paths that share them share it and differ only here.
    """
    pts = np.asarray(waypoints, dtype=float)
    m, dim = pts.shape[0] - 1, pts.shape[1]
    return np.concatenate([np.zeros((m - 1) * (continuity + 1) * dim),
                           pts.ravel(), np.zeros(2 * continuity * dim)])


def assemble_cost(knots: KnotVector, deriv_order: int, order: int,
                  dim: int) -> CostSpec:
    """Hessian of the integrated squared deriv_order-th derivative.

    Block-diagonal per segment.  Over tau in [0, 1] the monomial integrals
    form one fixed block S0[i, j] = f_i f_j / (i + j - 2k + 1), with f the
    falling factorials of order k = deriv_order; dt = h dtau and the
    h^-k of each derivative scale it by h^(1 - 2k) on a segment of span h.
    Symmetric positive semidefinite.
    """
    # at tau = 1 the derivative row holds just the falling factorials
    falling = basis_row(1.0, deriv_order, order)
    i = np.arange(order + 1)
    e = i[:, None] + i[None, :] - 2 * deriv_order + 1
    # rows and columns below order k are zero, where e may not be positive
    S0 = np.outer(falling, falling) / np.maximum(e, 1)
    scale = np.diff(knots.u) ** (1 - 2 * deriv_order)
    return CostSpec(np.kron(np.diag(scale), np.kron(S0, np.eye(dim))),
                    deriv_order)


@dataclass
class CorridorSpec:
    """Per-segment corridor widths and the number of interior samples."""

    width: np.ndarray  # scalar broadcast to one width per segment
    samples_per_segment: int = 3


def corridor_constraints(waypoints, knots: KnotVector, spec: CorridorSpec,
                         order: int) -> AffineInequalities:
    """Linear rows bounding the perpendicular offset from each chord.

    At samples tau = s / (1 + n_c), s = 1 .. n_c, strictly inside each
    segment, the component of h(tau) - q_i perpendicular to the segment
    direction must satisfy an infinity-norm bound; each sample contributes
    2 * dim affine rows, the upper and then the lower bound of each
    coordinate.  Local time gives every segment the same sample monomials.
    """
    pts = np.asarray(waypoints, dtype=float)
    m = pts.shape[0] - 1
    dim = pts.shape[1]
    widths = np.broadcast_to(np.asarray(spec.width, dtype=float), (m,))
    n_c = spec.samples_per_segment
    monos = np.array([basis_row(s / (1.0 + n_c), 0, order)
                      for s in range(1, n_c + 1)])
    w = _coef_width(order, dim)
    rows = 2 * n_c * dim
    G = np.zeros((m * rows, m * w))
    h = np.empty(m * rows)
    for seg in range(m):
        chord = pts[seg + 1] - pts[seg]
        norm = np.linalg.norm(chord)
        if norm < 1e-12:
            raise ValueError(f"segment {seg} has zero chord")
        tangent = chord / norm
        P = np.eye(dim) - np.outer(tangent, tangent)
        # row (s, r) of the Kronecker product samples coordinate r at s
        upper = np.kron(monos, P)
        G[seg * rows:(seg + 1) * rows, seg * w:(seg + 1) * w] = np.stack(
            [upper, -upper], axis=1).reshape(rows, w)
        offset = np.tile(P @ pts[seg], n_c)
        h[seg * rows:(seg + 1) * rows] = np.stack(
            [widths[seg] + offset, widths[seg] - offset], axis=1).ravel()
    return AffineInequalities(G, h)


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
    """Minimiser x of x^T H x subject to A x = b, and the multipliers lam
    of the stationarity condition 2 H x + A^T lam = 0.

    Without a factor this is the null-space method (Nocedal & Wright,
    Numerical Optimization, 16.2), which tolerates a singular H as long as
    it is positive definite on null(A).  The pivoted QR A^T P = Q R splits
    the variables into range(A^T) = span Q_1 and null(A) = span Q_2:
    x_0 = Q_1 R^-T P^T b meets the rows, the Cholesky factor of the reduced
    Hessian Q_2^T (2 H) Q_2 gives the step along Q_2 that minimises the
    cost, and lam = -P R^-1 Q_1^T (2 H x).  A diagonal entry of R at or
    below 1e-12 of the largest marks a dependent row, and a reduced
    Hessian that is not positive definite, or whose Cholesky diagonal
    falls to 1e-6 of its largest (a relative pivot of 1e-12), a singular
    KKT system; both raise RankDeficient.

    factor, when given, is L^-1 for the lower Cholesky factor L L^T = 2 H
    of a positive definite H; then the range-space method applies (same
    section): with V = L^-1 A^T = Q R, the multipliers are -R^-1 R^-T b
    and x = L^-T Q R^-T b.  R^T R = A (2 H)^-1 A^T is the Schur
    complement, so a diagonal entry of R below 1e-6 of the largest is a
    relative Schur pivot below 1e-12.
    """
    n = H.shape[0]
    r = A.shape[0]
    if r > n:
        raise RankDeficient(f"{r} rows on {n} variables")
    if factor is not None:
        if r == 0:
            return np.zeros(n), np.zeros(0)
        Q, R = np.linalg.qr(factor @ A.T)
        diag = np.abs(np.diag(R))
        if diag.min() <= 1e-6 * diag.max():
            k = int(diag.argmin())
            raise RankDeficient(f"|R_kk| {diag[k]:.3e} at row {k} of {r}")
        w, _ = dtrtrs(R, b, trans=1)
        lam, _ = dtrtrs(R, w)
        return factor.T @ (Q @ w), -lam
    Q, R, perm = qr(A.T, pivoting=True)
    diag = np.abs(np.diag(R))
    if r and diag.min() <= 1e-12 * diag.max():
        k = int(diag.argmin())
        raise RankDeficient(f"|R_kk| {diag[k]:.3e} at row {perm[k]} of {r}")
    R, Q1, Q2 = R[:r], Q[:, :r], Q[:, r:]
    x = Q1 @ solve_triangular(R, b[perm], trans="T", check_finite=False)
    H2 = 2.0 * H
    try:
        reduced = cho_factor(Q2.T @ H2 @ Q2)
        pivots = np.abs(np.diag(reduced[0]))
        if pivots.size and pivots.min() <= 1e-6 * pivots.max():
            raise LinAlgError
    except LinAlgError:
        raise RankDeficient(
            "reduced Hessian is not positive definite on null(A)") from None
    x = x - Q2 @ cho_solve(reduced, Q2.T @ (H2 @ x))
    lam = np.empty(r)
    lam[perm] = -solve_triangular(R, Q1.T @ (H2 @ x), check_finite=False)
    return x, lam


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
    the loop is then solved through it by the range-space method instead
    of the null-space method.
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
                    "active inequality row dependent on existing constraints; "
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


def evaluate(traj: PiecewisePolynomial, t: float, deriv: int = 0) -> np.ndarray:
    """Trajectory value or derivative at global parameter t.

    Segments own right-open knot intervals; the final segment is closed.
    A parameter that is not a finite number is out of the domain.
    """
    u = traj.knots.u
    if not u[0] - 1e-12 <= t <= u[-1] + 1e-12:     # NaN fails here too
        raise OutOfDomain(f"t={t} outside [{u[0]}, {u[-1]}]")
    seg = int(np.searchsorted(u, t, side="right")) - 1
    seg = min(max(seg, 0), traj.segments - 1)
    lo = float(u[seg])
    span = float(u[seg + 1]) - lo
    row = basis_row((float(t) - lo) / span, deriv, traj.order, span)
    return row @ traj.segment_coefficients(seg)


def evaluate_grid(x: np.ndarray, knots: KnotVector, order: int, t,
                  deriv: int = 0) -> np.ndarray:
    """Derivative ``deriv`` of q trajectories at every parameter in t.

    x is (q, n_t): one stacked coefficient vector per row, all on the
    same knots and polynomial order.  Returns (q, len(t), d).  The segment
    rule and the domain check are those of ``evaluate``; one segment
    lookup and one contraction serve every row and parameter, so a convex
    combination of the rows is theta @ grid.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    u = knots.u
    inside = (t >= u[0] - 1e-12) & (t <= u[-1] + 1e-12)
    if not inside.all():
        raise OutOfDomain(f"t={t[~inside][0]} outside [{u[0]}, {u[-1]}]")
    m = knots.segments
    seg = np.clip(np.searchsorted(u, t, side="right") - 1, 0, m - 1)
    lo = u[seg]
    span = u[seg + 1] - lo
    tau = (t - lo) / span
    # basis_row for every parameter at once, column by column
    rows = np.zeros((t.size, order + 1))
    c = span ** -deriv
    for i in range(deriv, order + 1):
        rows[:, i] = math.perm(i, deriv) * c
        c = c * tau
    coeffs = x.reshape(x.shape[0], m, order + 1, -1)
    return np.einsum("si,qsid->qsd", rows, coeffs[:, seg])
