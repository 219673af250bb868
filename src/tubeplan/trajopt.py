"""Minimum-energy piecewise-polynomial trajectories and their QPs.

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

``solve_qp`` takes one form, min y^T H y subject to G y <= h with H
positive definite.  A planning problem reaches it through
``reduce_equalities``: x = x_u + Z y, with x_u its minimiser on A x = b
and Z a basis of null(A), leaves y^T (Z^T H Z) y over (G Z) y <= h - G x_u.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.linalg.lapack import dtrtri, dtrtrs

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
class CostSpec:
    """Energy Hessian for objective x^T H x."""

    H: np.ndarray


@dataclass
class AffineInequalities:
    """Rows G x <= h; affine in the stacked coefficients."""

    G: np.ndarray
    h: np.ndarray

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
                      continuity: int) -> np.ndarray:
    """Matrix A of the interpolation + continuity + endpoint-derivative
    equalities A x = b; ``equality_rhs`` gives b.

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
    for i in range(1, m):
        for p in range(continuity + 1):
            a_rows.append(at(i - 1, 1.0, p) - at(i, 0.0, p))
    for i in range(m):
        a_rows.append(at(i, 0.0, 0))
    a_rows.append(at(m - 1, 1.0, 0))
    for p in range(continuity, 0, -1):
        a_rows.append(at(0, 0.0, p))
    for p in range(continuity, 0, -1):
        a_rows.append(at(m - 1, 1.0, p))

    A = np.vstack(a_rows)
    rank = np.linalg.matrix_rank(A)
    if rank < A.shape[0]:
        raise RankDeficient(
            f"equality rows are dependent ({A.shape[0]} rows, rank {rank})")
    return A


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
    return CostSpec(np.kron(np.diag(scale), np.kron(S0, np.eye(dim))))


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


@dataclass(frozen=True)
class ReducedEqualities:
    """Equality rows A x = b removed once for every b (the null-space
    method; Nocedal & Wright, Numerical Optimization, 16.2)."""

    A: np.ndarray
    H: np.ndarray
    Q1: np.ndarray         # A^T P = Q1 R, a pivoted QR
    R: np.ndarray
    perm: np.ndarray       # the pivots P
    Z: np.ndarray          # orthonormal basis of null(A)
    factor: np.ndarray     # inverse lower Cholesky factor of Z^T (2 H) Z

    def minimiser(self, b: np.ndarray) -> np.ndarray:
        """The minimiser x_u of x^T H x subject to A x = b."""
        x = self.Q1 @ solve_triangular(self.R, b[self.perm], trans="T",
                                       check_finite=False)
        F = self.factor
        return x - self.Z @ (F.T @ (F @ (self.Z.T @ (2.0 * self.H @ x))))

    def multipliers(self, grad: np.ndarray) -> np.ndarray:
        """lam with A^T lam = -grad."""
        lam = np.empty(self.R.shape[0])
        lam[self.perm] = -solve_triangular(self.R, self.Q1.T @ grad,
                                           check_finite=False)
        return lam


def reduce_equalities(A: np.ndarray, H: np.ndarray) -> ReducedEqualities:
    """Remove the rows A x = b of min x^T H x once for every b.

    H need only be positive definite on null(A).  A diagonal entry of R
    at or below 1e-12 of the largest marks a dependent row, and a reduced
    Hessian that is not positive definite, or whose Cholesky diagonal
    falls to 1e-6 of its largest, a singular KKT system; both raise
    RankDeficient.
    """
    r, n = A.shape
    if r > n:
        raise RankDeficient(f"{r} rows on {n} variables")
    Q, R, perm = qr(A.T, pivoting=True)
    diag = np.abs(np.diag(R))
    if r and diag.min() <= 1e-12 * diag.max():
        k = int(diag.argmin())
        raise RankDeficient(f"|R_kk| {diag[k]:.3e} at row {perm[k]} of {r}")
    Z = Q[:, r:]
    try:
        factor = inverse_cholesky(Z.T @ (2.0 * H) @ Z)
        # the inverse's diagonal is 1 / the factor's, so the ratio is the same
        f = factor.diagonal()
        if f.size and f.min() <= 1e-6 * f.max():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise RankDeficient(
            "reduced Hessian is not positive definite on null(A)") from None
    return ReducedEqualities(A, H, Q[:, :r], R[:r], perm, Z, factor)


def inverse_cholesky(M: np.ndarray) -> np.ndarray:
    """Inverse of the lower Cholesky factor of M, by LAPACK dtrtri.

    Not solve_triangular(L, I), which takes milliseconds on 2 BLAS threads.
    Raises numpy.linalg.LinAlgError when M is not positive definite.
    """
    L = np.linalg.cholesky(M)
    if not L.size:
        return L
    inv, info = dtrtri(L, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtri info {info}")
    return inv


@dataclass
class ActiveSetSolution:
    x: np.ndarray
    mu: np.ndarray      # one multiplier per row of G
    working: list       # final working set, in the order rows joined it
    iterations: int     # KKT solves made


# termination tolerances for the active-set loop; FEAS_TOL also bounds
# the residuals a solution may keep
FEAS_TOL = 1e-8
_DUAL_TOL = 1e-10


def _kkt_solve(factor: np.ndarray, G_W: np.ndarray, h_W: np.ndarray):
    """Minimiser x of x^T H x subject to G_W x = h_W, and the multipliers
    mu of the stationarity condition 2 H x + G_W^T mu = 0, by the
    range-space method (Nocedal & Wright, Numerical Optimization, 16.2).

    factor is L^-1 for the lower Cholesky factor L L^T = 2 H.  With V =
    L^-1 G_W^T = Q R, the multipliers are -R^-1 R^-T h_W and x = L^-T Q
    R^-T h_W.  R^T R = G_W (2 H)^-1 G_W^T is the Schur complement, so a
    diagonal entry of R at or below 1e-6 of the largest, a relative Schur
    pivot of 1e-12, marks a dependent row and raises RankDeficient.
    """
    n, r = factor.shape[0], G_W.shape[0]
    if r > n:
        raise RankDeficient(f"{r} rows on {n} variables")
    if r == 0:
        return np.zeros(n), np.zeros(0)
    Q, R = np.linalg.qr(factor @ G_W.T)
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-6 * diag.max():
        k = int(diag.argmin())
        raise RankDeficient(f"|R_kk| {diag[k]:.3e} at row {k} of {r}")
    w, _ = dtrtrs(R, h_W, trans=1)
    mu, _ = dtrtrs(R, w)
    return factor.T @ (Q @ w), -mu


def _dual_step(G: np.ndarray, working: list, mu: np.ndarray):
    """Make room for the last row of working, a combination sum r_j g_j
    of the rows before it, whose multipliers are mu (Goldfarb & Idnani,
    Math. Programming 27, 1983).

    Of the rows with r_j > 0 the one with the smallest mu_j / r_j leaves,
    and the others' multipliers move by that ratio t to mu - t r.  With
    no r_j > 0 no point meets the new row and the working rows (Farkas'
    lemma).  Returns the new working set and the multipliers of all its
    rows but the last.
    """
    g, rows = working[-1], working[:-1]
    r = np.linalg.lstsq(G[rows].T, G[g], rcond=None)[0]
    up = np.flatnonzero(r > _DUAL_TOL * np.abs(r).max(initial=0.0))
    if not up.size:
        raise Infeasible("active inequality row dependent on existing "
                         "constraints; no feasible point")
    ratios = mu[up] / r[up]
    j = int(up[np.argmin(ratios)])
    mu = np.delete(mu - ratios.min() * r, j)
    return rows[:j] + rows[j + 1:] + [g], mu


def solve_qp(factor: np.ndarray, G: np.ndarray, h: np.ndarray,
             working: list | None = None) -> ActiveSetSolution:
    """Minimise x^T H x subject to G x <= h, where factor is the inverse
    lower Cholesky factor of 2 H.

    An active-set loop: solve with the working rows as equalities, drop
    the row with the most negative multiplier, else add the most violated
    row, and repeat, at most 100 times per variable.  An added row that
    depends on the working rows takes the place of one (``_dual_step``).
    working optionally names rows to start from (a warm start); a warm
    set whose rows are dependent is dropped for the empty set, so a stale
    warm set is never reported as Infeasible.
    """
    budget = 100 * max(factor.shape[0], 1)
    working = list(working or [])
    added = False           # whether the last change added a row
    iterations = 0
    for _ in range(budget):
        iterations += 1
        try:
            x, mu = _kkt_solve(factor, G[working], h[working])
        except RankDeficient:
            if added:
                working, mu = _dual_step(G, working, mu)
            else:
                working = []
            continue
        if mu.size and mu.min() < -_DUAL_TOL:
            working.pop(int(np.argmin(mu)))
            added = False
            continue
        res = G @ x - h
        res[working] = 0.0
        if res.size and res.max() > FEAS_TOL:
            working.append(int(np.argmax(res)))
            added = True
            continue
        break
    else:
        raise MaxIterations(f"active set did not settle in {budget} steps")
    violation = float((G @ x - h).max(initial=0.0))
    if violation > FEAS_TOL:
        raise Infeasible(f"inequality violation {violation:.3e} after solve")
    full = np.zeros(G.shape[0])
    full[working] = mu
    return ActiveSetSolution(x, full, working, iterations)


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
