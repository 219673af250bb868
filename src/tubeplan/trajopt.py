"""Minimum-energy piecewise-polynomial trajectories and their QPs.

A trajectory with m segments in d dimensions stacks its coefficients into
one vector x of length (order + 1) * m * d, segment-major.  Segment j spans
the knots [u_j, u_j + h_j], and its block holds monomial coefficients in
the local time tau = (t - u_j) / h_j in [0, 1]; a derivative of order p in
t is the tau-derivative times h_j^-p.  Local time keeps the coefficients
near the size of the positions they describe (per-segment
parameterization; Richter, Bry & Roy, ISRR 2013).  The planning problem
minimises the integral of the squared k_r-th derivative, x^T H x, subject
to interpolation/continuity equalities A x = b and the corridor
inequalities G x <= h, which ``corridor_constraints`` derives from all of
a tube's paths at once so that every basis problem shares them.

``solve_qp`` takes one form, min y^T H y subject to G y <= h with H
positive definite, or a stack of them that share H.  A planning problem
reaches it through ``reduce_equalities``: x = x_u + Z y, with x_u its
minimiser on A x = b and Z a basis of null(A), leaves y^T (Z^T H Z) y
over (G Z) y <= h - G x_u.
"""

import math
from dataclasses import dataclass

import numpy as np

from .knots import KnotVector


class RankDeficient(RuntimeError):
    """A linear system lost rank (duplicate constraints or singular KKT)."""


class QpFailure(RuntimeError):
    """A QP without a solution; in a stack of QPs, index names the
    problem."""

    def __init__(self, reason: str, index: int | None = None):
        prefix = "" if index is None else f"problem {index}: "
        super().__init__(prefix + reason)
        self.reason, self.index = reason, index


class Infeasible(QpFailure):
    """The constraint set admits no solution."""


class MaxIterations(QpFailure):
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
                  dim: int) -> np.ndarray:
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
    return np.kron(np.diag(scale), np.kron(S0, np.eye(dim)))


def corridor_constraints(waypoints, width: float, samples: int,
                         order: int) -> AffineInequalities:
    """Rows G x <= h that every basis problem of the (q, m + 1, d) paths
    shares: a corridor around their mean polyline.

    At tau = s / (1 + samples), s = 1 .. samples, strictly inside each
    segment, the component of h(tau) minus the segment's first mean
    waypoint perpendicular to its mean chord must satisfy an
    infinity-norm bound; each sample contributes 2 * dim affine rows, the
    upper and then the lower bound of each coordinate.  A segment's bound
    is width plus the largest perpendicular offset of any path's
    waypoints at its ends from the mean, so each path's own problem stays
    feasible.  Local time gives every segment the same sample monomials,
    so the knots do not enter.
    """
    paths = np.asarray(waypoints, dtype=float)
    mean = paths.mean(axis=0)
    m = mean.shape[0] - 1
    dim = mean.shape[1]
    monos = np.array([basis_row(s / (1.0 + samples), 0, order)
                      for s in range(1, samples + 1)])
    w = _coef_width(order, dim)
    rows = 2 * samples * dim
    G = np.zeros((m * rows, m * w))
    h = np.empty(m * rows)
    for seg in range(m):
        chord = mean[seg + 1] - mean[seg]
        norm = np.linalg.norm(chord)
        if norm < 1e-12:
            raise ValueError(f"segment {seg} has zero chord")
        tangent = chord / norm
        P = np.eye(dim) - np.outer(tangent, tangent)
        spread = 0.0
        for e in (seg, seg + 1):
            deltas = paths[:, e, :] - mean[e]       # (q, d)
            spread = max(spread, np.abs(deltas @ P.T).max())
        bound = width + spread
        # row (s, r) of the Kronecker product samples coordinate r at s
        upper = np.kron(monos, P)
        G[seg * rows:(seg + 1) * rows, seg * w:(seg + 1) * w] = np.stack(
            [upper, -upper], axis=1).reshape(rows, w)
        offset = np.tile(P @ mean[seg], samples)
        h[seg * rows:(seg + 1) * rows] = np.stack(
            [bound + offset, bound - offset], axis=1).ravel()
    return AffineInequalities(G, h)


@dataclass(frozen=True)
class ReducedEqualities:
    """Equality rows A x = b removed once for every b (the null-space
    method; Nocedal & Wright, Numerical Optimization, 16.2)."""

    A: np.ndarray
    H: np.ndarray
    Q1: np.ndarray         # A^T = Q1 R, a QR without pivoting
    R_inv: np.ndarray      # R^-1, once for every b
    Z: np.ndarray          # orthonormal basis of null(A)
    factor: np.ndarray     # inverse lower Cholesky factor of Z^T (2 H) Z

    def minimiser(self, b: np.ndarray) -> np.ndarray:
        """The minimiser x_u of x^T H x subject to A x = b."""
        x = self.Q1 @ (self.R_inv.T @ b)
        F = self.factor
        return x - self.Z @ (F.T @ (F @ (self.Z.T @ (2.0 * self.H @ x))))

    def multipliers(self, grad: np.ndarray) -> np.ndarray:
        """lam with A^T lam = -grad."""
        return -self.R_inv @ (self.Q1.T @ grad)


def reduce_equalities(A: np.ndarray, H: np.ndarray) -> ReducedEqualities:
    """Remove the rows A x = b of min x^T H x once for every b.

    H need only be positive definite on null(A).  A diagonal entry of R
    at or below 1e-12 of the largest marks a dependent row, and a reduced
    Hessian that is not positive definite, or whose Cholesky diagonal
    falls to 1e-6 of its largest, a singular KKT system; both raise
    RankDeficient.  Without pivoting R's diagonal does not reveal every
    rank loss, so ``assemble_equality`` tests the rank of the rows a
    tube reduces.
    """
    r, n = A.shape
    if r > n:
        raise RankDeficient(f"{r} rows on {n} variables")
    Q, R = np.linalg.qr(A.T, mode="complete")
    R = R[:r]
    diag = np.abs(np.diag(R))
    if r and diag.min() <= 1e-12 * diag.max():
        k = int(diag.argmin())
        raise RankDeficient(f"|R_kk| {diag[k]:.3e} at row {k} of {r}")
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
    return ReducedEqualities(A, H, Q[:, :r], np.linalg.inv(R), Z, factor)


def inverse_cholesky(M: np.ndarray) -> np.ndarray:
    """Inverse of the lower Cholesky factor of M, exactly lower
    triangular.

    Raises numpy.linalg.LinAlgError when M is not positive definite.
    """
    return np.tril(np.linalg.inv(np.linalg.cholesky(M)))


@dataclass
class ActiveSetSolution:
    """One QP's solution; a stack's has a leading problem axis on x and
    mu, and one working set and iteration count per problem."""

    x: np.ndarray
    mu: np.ndarray      # one multiplier per row of G
    working: list       # final working set, in the order rows joined it
    iterations: int | list  # KKT solves made


# termination tolerances for the active-set loop; FEAS_TOL also bounds
# the residuals a solution may keep
FEAS_TOL = 1e-8
_DUAL_TOL = 1e-10


def _kkt_solve(factor: np.ndarray, G_W: np.ndarray, h_W: np.ndarray):
    """Minimisers x of x^T H x subject to G_W x = h_W, and the multipliers
    mu of the stationarity condition 2 H x + G_W^T mu = 0, for k problems
    that share H and have r working rows each: G_W is (k, r, n) and h_W
    (k, r).  The range-space method (Nocedal & Wright, Numerical
    Optimization, 16.2).

    factor is L^-1 for the lower Cholesky factor L L^T = 2 H.  With V =
    L^-1 G_W^T = Q R, the multipliers are -R^-1 R^-T h_W and x = L^-T Q
    R^-T h_W.  R^T R = G_W (2 H)^-1 G_W^T is the Schur complement, so a
    diagonal entry of R at or below 1e-6 of the largest, a relative Schur
    pivot of 1e-12, marks a problem's rows dependent, as do more rows
    than variables.  Returns x (k, n), mu (k, r) and that mask (k,); a
    dependent problem's x and mu mean nothing.  The factorisations and
    products run matrix by matrix, so each problem gets the numbers it
    would get alone.
    """
    k, r, n = G_W.shape
    if r > n or r == 0:
        return np.zeros((k, n)), np.zeros((k, r)), np.full(k, r > n)
    Q, R = np.linalg.qr(factor @ G_W.transpose(0, 2, 1))
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    dependent = diag.min(axis=1) <= 1e-6 * diag.max(axis=1)
    if dependent.any():
        R[dependent] = np.eye(r)      # a stand-in that inverts
    R_inv = np.linalg.inv(R)
    w = R_inv.transpose(0, 2, 1) @ h_W[..., None]     # R^-T h_W
    return (factor.T @ (Q @ w))[..., 0], -(R_inv @ w)[..., 0], dependent


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
             working=None) -> ActiveSetSolution:
    """Minimise x^T H x subject to G x <= h, where factor is the inverse
    lower Cholesky factor of 2 H; or solve a stack of M such QPs that
    share H, with G (M, rows, n), h (M, rows) and one working set per
    problem.

    An active-set loop: solve with the working rows as equalities, drop
    the row with the most negative multiplier, else add the most violated
    row, and repeat, at most 100 times per variable.  An added row that
    depends on the working rows takes the place of one (``_dual_step``).
    working optionally names rows to start from (a warm start), or for a
    stack a warm set or None per problem; a warm set whose rows are
    dependent is dropped for the empty set, so a stale warm set is never
    reported as Infeasible.

    A stack runs its problems' loops in lockstep.  Each step groups the
    unsettled problems by working-set size and solves a group's KKT
    systems in one call, so every problem takes the steps it would take
    alone.  Once the others have settled, the failure of the lowest
    failed index is raised, naming that index.
    """
    single = G.ndim == 2
    if single:
        G, h, working = G[None], h[None], [working]
    M, rows, n = G.shape
    budget = 100 * max(n, 1)
    working = [list(w or []) for w in (working or [None] * M)]
    added = [False] * M     # whether the last change added a row
    mus = [np.zeros(0)] * M     # multipliers of the last solve or dual step
    iterations = [0] * M
    x = np.zeros((M, n))
    failed = {}             # problem -> (exception type, reason)
    pending = list(range(M))
    while pending:
        groups = {}
        for i in pending:
            groups.setdefault(len(working[i]), []).append(i)
        pending = []
        for r, members in groups.items():
            k = len(members)
            idx = np.array(members)
            W = np.array([working[i] for i in members], dtype=np.intp)
            x_W, mu_W, dependent = _kkt_solve(
                factor, G[idx[:, None], W], h[idx[:, None], W])
            x[idx] = x_W
            # a problem drops the row of its most negative multiplier, if
            # there is one, else adds its most violated row, if any
            dropping = mu_W.min(axis=1, initial=0.0) < -_DUAL_TOL
            keep = np.flatnonzero(~(dependent | dropping))
            res = np.empty((keep.size, rows))
            for c, j in enumerate(keep.tolist()):
                # one product per problem: a gathered stack of G would
                # copy every row of every problem
                np.matmul(G[members[j]], x_W[j], out=res[c])
            res -= h[idx[keep]]
            on_W = (np.arange(keep.size)[:, None], W[keep])
            # how far each x leaves its working rows, where the loop does
            # not look for violations
            slip = res[on_W].max(axis=1, initial=0.0)
            res[on_W] = 0.0
            worst = res.argmax(axis=1) if rows else np.zeros(keep.size, int)
            violated = res.max(axis=1, initial=-np.inf) > FEAS_TOL
            # the problems in keep, in order
            checks = zip(worst.tolist(), violated.tolist(), slip.tolist())
            for j, i, dep, out in zip(range(k), members, dependent.tolist(),
                                      dropping.tolist()):
                iterations[i] += 1
                if dep:
                    if not added[i]:
                        working[i] = []
                    else:
                        try:
                            working[i], mus[i] = _dual_step(
                                G[i], working[i], mus[i])
                        except Infeasible as err:
                            failed[i] = Infeasible, err.reason
                            continue
                else:
                    mus[i] = mu_W[j]
                    if out:
                        working[i].pop(int(mu_W[j].argmin()))
                    else:
                        row, adding, off = next(checks)
                        if not adding:
                            if off > FEAS_TOL:
                                failed[i] = Infeasible, (
                                    f"inequality violation {off:.3e} after "
                                    f"solve")
                            continue        # settled
                        working[i].append(row)
                    added[i] = not out
                if iterations[i] < budget:
                    pending.append(i)
                else:
                    failed[i] = MaxIterations, (
                        f"active set did not settle in {budget} steps")
    if failed:
        i = min(failed)
        error, reason = failed[i]
        raise error(reason, None if single else i)
    full = np.zeros((M, rows))
    for i in range(M):
        full[i, working[i]] = mus[i]
    if single:
        return ActiveSetSolution(x[0], full[0], working[0], iterations[0])
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
