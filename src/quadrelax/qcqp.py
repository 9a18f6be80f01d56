"""Dense primal-dual interior-point solver for convex QPs and QCQPs.

Solves

    min  1/2 z^T P0 z + c0^T z + r0
    s.t. g_j(z) = 1/2 z^T P_j z + a_j^T z + r_j <= 0,   j = 1..q,
         (S z + s)**2 + F z + f <= 0                    (elementwise),
         G z + h <= 0,

with P0 and every P_j symmetric positive semidefinite.  Each dense
quadratic row is a QuadConstraint; the rank-one rows are one SquareBlock
(S, s, F, f), evaluated with two matrix products; the linear rows are one
matrix block (G, h).  Multipliers come back in that order: quadratic rows
first, then the square block, then the rows of G.  A Mehrotra
predictor-corrector scheme with an infeasible start, s = max(1, |g(z0)| + 0.1);
with linear rows only, lam = max(1, mu0 / s) for mu0 = max(1, |P0 z0 + c0|_inf)
centres every s_i lam_i near mu0 (from lam = 1, node QPs spent iterations
re-balancing and some fell into a limit cycle).  Curved rows keep lam = 1,
which certifies epigraph QCPs that the centred start leaves uncertified.
The Newton systems eliminate the slack and multiplier blocks down to a
single symmetric positive definite solve per iteration, factored by
``linalg``'s Cholesky pair.  Non-optimal exits return the best iterate seen,
so callers can still certify it against their own residual thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import cholesky_factor, cholesky_solve

__all__ = [
    "QuadConstraint",
    "SquareBlock",
    "IpmResult",
    "solve_qcqp",
]


@dataclass(frozen=True)
class QuadConstraint:
    """One quadratic row 1/2 z^T P z + a^T z + r <= 0 (P symmetric PSD)."""

    P: np.ndarray
    a: np.ndarray
    r: float


@dataclass(frozen=True)
class SquareBlock:
    """Rank-one rows (S z + s)**2 + F z + f <= 0, one per row of S.

    S and F are (k, n) arrays, s and f length-k vectors.  Row j is the
    QuadConstraint with P = 2 S_j^T S_j, a = 2 s_j S_j + F_j and
    r = s_j**2 + f_j, stored without the dense P.
    """

    S: np.ndarray
    s: np.ndarray
    F: np.ndarray
    f: np.ndarray


@dataclass
class IpmResult:
    z: np.ndarray
    lam: np.ndarray
    obj: float
    status: str  # "optimal", "max_iter", "stalled", or "degenerate"
    iterations: int
    r_dual: float
    r_primal: float
    gap: float


def _eval_rows(cons, sq, G, h, z, J):
    """Row values at z, in multiplier order; writes the rows' gradients into J.

    J holds the rows of G already, and they do not depend on z.
    """
    q = len(cons)
    nb = 0 if sq is None else sq.S.shape[0]
    g = np.empty(J.shape[0])
    for j, c in enumerate(cons):
        Pz = c.P @ z
        g[j] = 0.5 * (z @ Pz) + c.a @ z + c.r
        J[j] = Pz + c.a
    if nb:
        u = sq.S @ z + sq.s
        g[q:q + nb] = u * u + (sq.F @ z + sq.f)
        J[q:q + nb] = 2.0 * u[:, None] * sq.S + sq.F
    g[q + nb:] = G @ z + h
    return g


def _factor_with_reg(K):
    """Cholesky factor of K with escalating diagonal regularization.

    Returns (factor, K_used) or (None, None) when no level in the ladder
    succeeds; callers treat that as a stall, not an exception.
    """
    fac = cholesky_factor(K, lower=True)
    if fac is not None:
        return fac, K
    reg = 1e-14 * max(1.0, np.abs(K).max())
    eye = np.eye(K.shape[0])
    for _ in range(15):
        K_r = K + reg * eye
        fac = cholesky_factor(K_r, lower=True)
        if fac is not None:
            return fac, K_r
        reg *= 100.0
    return None, None


def _refined_solve(fac, K_used, K, rhs):
    """Solve K x = rhs through the regularized factor plus refinement.

    Two residual-correction rounds against the unregularized K recover the
    accuracy the diagonal shift gave up (the shift is tiny relative to K).
    """
    x = cholesky_solve(fac, True, rhs)
    if K_used is not K:
        for _ in range(2):
            x += cholesky_solve(fac, True, rhs - K @ x)
    return x


def _fraction_to_boundary(x, dx, frac=0.995):
    neg = dx < 0
    if not neg.any():
        return 1.0
    return min(1.0, frac * (-x[neg] / dx[neg]).min())


def solve_qcqp(P0, c0, r0, constraints, G=None, h=None, squares=None, z0=None,
               tol_gap=1e-11, tol_feas=1e-10, max_iter=150) -> IpmResult:
    """Minimize a convex quadratic objective under convex quadratic rows.

    Parameters
    ----------
    P0, c0, r0 : objective data (P0 symmetric PSD; r0 a constant offset).
    constraints : sequence of QuadConstraint
        The dense quadratic rows; each must be convex (P_j PSD).
    G, h : array_like, optional
        The linear rows G z + h <= 0 as an (m, n) block; None for none.
    squares : SquareBlock, optional
        Rank-one rows (S z + s)**2 + F z + f <= 0; None for none.
    z0 : array_like, optional
        Initial point (need not be feasible).
    tol_gap, tol_feas : float
        Relative complementarity-gap and residual targets.
    max_iter : int
        Iteration cap; hitting it yields status "max_iter" with the last
        iterate and its achieved residuals.

    Returns
    -------
    IpmResult
        Final point, multipliers (one per quadratic row in order, then one
        per row of the square block, then one per row of G), objective
        value, convergence status, and achieved residuals.
    """
    P0 = np.asarray(P0, dtype=float)
    c0 = np.asarray(c0, dtype=float).reshape(-1)
    n = c0.shape[0]
    cons = list(constraints)
    G = np.zeros((0, n)) if G is None else np.asarray(G, dtype=float)
    h = np.zeros(0) if h is None else np.asarray(h, dtype=float).reshape(-1)
    if G.shape != (h.shape[0], n):
        raise ValueError(f"G has shape {G.shape}; expected ({h.shape[0]}, {n})")
    sq = squares if squares is not None and squares.S.shape[0] else None
    q = len(cons)
    nb = 0 if sq is None else sq.S.shape[0]
    if sq is not None and not (sq.S.shape == sq.F.shape == (nb, n)
                               and sq.s.shape == sq.f.shape == (nb,)):
        raise ValueError(f"square block S {sq.S.shape}, s {sq.s.shape}, "
                         f"F {sq.F.shape}, f {sq.f.shape}; expected ({nb}, {n})")
    p = q + nb + G.shape[0]
    linear = q == 0 and sq is None    # no row curves: J and H are fixed

    if p == 0:
        z = np.linalg.lstsq(P0, -c0, rcond=None)[0] if n else np.zeros(0)
        rd = float(np.abs(P0 @ z + c0).max(initial=0.0))
        obj = float(0.5 * z @ P0 @ z + c0 @ z + r0)
        status = "optimal" if rd <= tol_feas * max(1.0, np.abs(c0).max(initial=0.0)) \
            else "degenerate"
        return IpmResult(z=z, lam=np.zeros(0), obj=obj, status=status,
                         iterations=0, r_dual=rd, r_primal=0.0, gap=0.0)

    # J holds the row gradients in multiplier order; only the quadratic and
    # square rows change with z
    J = np.empty((p, n))
    J[q + nb:] = G

    def residuals(z, s, lam):
        """(r_d, r_p, |r_d|_max, |r_p|_max, mu) at (z, s, lam); updates J."""
        r_p = _eval_rows(cons, sq, G, h, z, J) + s
        r_d = P0 @ z + c0 + J.T @ lam
        return (r_d, r_p, float(np.abs(r_d).max(initial=0.0)),
                float(np.abs(r_p).max(initial=0.0)), float(s @ lam) / p)

    z = np.zeros(n) if z0 is None else np.array(z0, dtype=float).reshape(-1)
    # s and lam are the two halves of sl, so one fraction-to-boundary test
    # covers both
    sl = np.ones(2 * p)
    sl[:p] = np.maximum(1.0, np.abs(_eval_rows(cons, sq, G, h, z, J)) + 0.1)
    s, lam = sl[:p], sl[p:]
    if linear:
        # centred start: every s_i lam_i begins near the dual residual's size
        mu0 = max(1.0, float(np.abs(P0 @ z + c0).max(initial=0.0)))
        lam[:] = np.maximum(1.0, mu0 / s)
    r_d, r_p, rd_norm, rp_norm, mu = residuals(z, s, lam)

    obj_scale = max(1.0, np.abs(c0).max(initial=0.0), np.abs(P0).max(initial=0.0))
    # each row's size is its value plus gradient at z = 0
    row_scale = max(1.0, *(abs(c.r) + np.abs(c.a).max(initial=0.0) for c in cons),
                    float(np.max(np.abs(h) + np.abs(G).max(axis=1, initial=0.0),
                                 initial=0.0)))
    if sq is not None:
        a_sq = 2.0 * sq.s[:, None] * sq.S + sq.F
        row_scale = max(row_scale, float(np.max(
            np.abs(sq.s * sq.s + sq.f) + np.abs(a_sq).max(axis=1))))

    best = None          # (z, lam, obj, rd, rp, mu, it)
    best_phi = np.inf
    last_improve = 0
    status = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        obj = float(0.5 * z @ P0 @ z + c0 @ z + r0)
        z_max = max(1.0, np.abs(z).max(initial=0.0))
        phi = (rd_norm / (obj_scale * z_max)
               + rp_norm / row_scale + mu / (1.0 + abs(obj)))
        if phi < 0.9 * best_phi:
            last_improve = it
        if phi < best_phi:
            best_phi = phi
            best = (z.copy(), lam.copy(), obj, rd_norm, rp_norm, mu, it - 1)
        if (rd_norm <= tol_feas * obj_scale * z_max
                and rp_norm <= tol_feas * row_scale
                and mu <= tol_gap * (1.0 + abs(obj))):
            return IpmResult(z=z, lam=lam.copy(), obj=obj, status="optimal",
                             iterations=it - 1, r_dual=rd_norm,
                             r_primal=rp_norm, gap=mu)
        if it - last_improve >= 20:
            status = "stalled"
            break

        if linear:
            H = P0
        else:
            H = P0.copy()
            for j, c in enumerate(cons):
                if lam[j] != 0.0:
                    H += lam[j] * c.P
            if sq is not None:
                H += (sq.S.T * (2.0 * lam[q:q + nb])) @ sq.S
        K = H + (J.T * (lam / s)) @ J
        fac, K_used = _factor_with_reg(K)
        if fac is None:
            status = "stalled"
            break

        # Predictor (affine scaling, sigma = 0).
        rc_aff = lam * s
        rhs_aff = -(r_d + J.T @ ((lam * r_p - rc_aff) / s))
        dz_aff = _refined_solve(fac, K_used, K, rhs_aff)
        d_aff = np.empty(2 * p)
        ds_aff, dl_aff = d_aff[:p], d_aff[p:]
        ds_aff[:] = -r_p - J @ dz_aff
        dl_aff[:] = (-rc_aff - lam * ds_aff) / s
        a_aff = _fraction_to_boundary(sl, d_aff)
        mu_aff = float((s + a_aff * ds_aff) @ (lam + a_aff * dl_aff)) / p
        sigma = min(1.0, max(1e-8, (mu_aff / mu) ** 3)) if mu > 0 else 0.1

        # Corrector: second-order terms for complementarity (ds*dl) and for
        # constraint curvature (the predictor step overshoots a curved
        # boundary by 1/2 dz'P dz, which untreated sustains limit cycles).
        rc = lam * s - sigma * mu + ds_aff * dl_aff
        r_p_c = r_p
        if not linear:
            r_p_c = r_p.copy()
            step_aff = a_aff * dz_aff
            for j, c in enumerate(cons):
                r_p_c[j] += 0.5 * step_aff @ (c.P @ step_aff)
            if sq is not None:
                r_p_c[q:q + nb] += (sq.S @ step_aff) ** 2
        rhs = -(r_d + J.T @ ((lam * r_p_c - rc) / s))
        dz = _refined_solve(fac, K_used, K, rhs)
        d_sl = np.empty(2 * p)
        ds, dl = d_sl[:p], d_sl[p:]
        ds[:] = -r_p_c - J @ dz
        dl[:] = (-rc - lam * ds) / s

        # Common primal-dual step length: with z-dependent Jacobians the
        # Newton direction cancels the dual residual only when z and lam
        # move together, so mismatched steps re-inject dual infeasibility.
        a = _fraction_to_boundary(sl, d_sl)

        # Merit safeguard: back off when a step blows up the residuals
        # (second-order constraint terms can defeat the linearization).
        # The residuals at the accepted point carry into the next iteration.
        phi_old = rd_norm + rp_norm + mu
        for _ in range(10):
            z_new = z + a * dz
            sl_new = sl + a * d_sl
            new = residuals(z_new, sl_new[:p], sl_new[p:])
            rd_new, rp_new, mu_new = new[2:]
            if rd_new + rp_new + mu_new <= 10.0 * phi_old or a < 1e-8:
                break
            a *= 0.5
        z, sl = z_new, sl_new
        s, lam = sl[:p], sl[p:]
        r_d, r_p, rd_norm, rp_norm, mu = new

    if best is not None:
        z_b, lam_b, obj_b, rd_b, rp_b, mu_b, it_b = best
        return IpmResult(z=z_b, lam=lam_b, obj=obj_b, status=status,
                         iterations=it, r_dual=rd_b, r_primal=rp_b, gap=mu_b)
    obj = float(0.5 * z @ P0 @ z + c0 @ z + r0)
    return IpmResult(z=z, lam=lam.copy(), obj=obj, status=status,
                     iterations=it, r_dual=rd_norm, r_primal=rp_norm, gap=mu)
