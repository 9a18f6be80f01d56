"""Dense primal-dual interior-point solver for convex QPs and QCQPs.

Solves

    min  1/2 z^T P0 z + c0^T z + r0
    s.t. g_j(z) = 1/2 z^T P_j z + a_j^T z + r_j <= 0,   j = 1..q,
         G z + h <= 0,

with P0 and every P_j symmetric positive semidefinite.  Each quadratic row
is a QuadConstraint; the linear rows are one matrix block (G, h).
Multipliers come back in that order: quadratic rows first, then the rows of
G.  A Mehrotra predictor-corrector scheme with an infeasible start; the
Newton systems eliminate the slack and multiplier blocks down to a single
symmetric positive definite solve per iteration.  Non-optimal exits return
the best iterate seen, so callers can still certify it against their own
residual thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "QuadConstraint",
    "IpmResult",
    "solve_qcqp",
]


@dataclass(frozen=True)
class QuadConstraint:
    """One quadratic row 1/2 z^T P z + a^T z + r <= 0 (P symmetric PSD)."""

    P: np.ndarray
    a: np.ndarray
    r: float


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


def _eval_constraints(cons, G, h, z):
    q = len(cons)
    g = np.empty(q + G.shape[0])
    J = np.empty((g.shape[0], z.shape[0]))
    for j, c in enumerate(cons):
        Pz = c.P @ z
        g[j] = 0.5 * (z @ Pz) + c.a @ z + c.r
        J[j] = Pz + c.a
    g[q:] = G @ z + h
    J[q:] = G
    return g, J


def _factor_with_reg(K):
    """Cholesky factor of K with escalating diagonal regularization.

    Returns (factor, K_used) or (None, None) when no level in the ladder
    succeeds; callers treat that as a stall, not an exception.
    """
    n = K.shape[0]
    scale = max(1.0, np.abs(K).max())
    reg = 0.0
    for _ in range(16):
        try:
            K_r = K + reg * np.eye(n) if reg else K
            return scipy.linalg.cho_factor(K_r, lower=True), K_r
        except scipy.linalg.LinAlgError:
            reg = max(reg * 100.0, 1e-14 * scale)
    return None, None


def _refined_solve(fac, K_used, K, rhs):
    """Solve K x = rhs through the regularized factor plus refinement.

    Two residual-correction rounds against the unregularized K recover the
    accuracy the diagonal shift gave up (the shift is tiny relative to K).
    """
    x = scipy.linalg.cho_solve(fac, rhs)
    if K_used is not K:
        for _ in range(2):
            x += scipy.linalg.cho_solve(fac, rhs - K @ x)
    return x


def _fraction_to_boundary(x, dx, frac=0.995):
    neg = dx < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, frac * np.min(-x[neg] / dx[neg]))


def solve_qcqp(P0, c0, r0, constraints, G=None, h=None, z0=None,
               tol_gap=1e-11, tol_feas=1e-10, max_iter=150) -> IpmResult:
    """Minimize a convex quadratic objective under convex quadratic rows.

    Parameters
    ----------
    P0, c0, r0 : objective data (P0 symmetric PSD; r0 a constant offset).
    constraints : sequence of QuadConstraint
        The quadratic rows; each must be convex (P_j PSD).
    G, h : array_like, optional
        The linear rows G z + h <= 0 as an (m, n) block; None for none.
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
        per row of G), objective value, convergence status, and achieved
        residuals.
    """
    P0 = np.asarray(P0, dtype=float)
    c0 = np.asarray(c0, dtype=float).reshape(-1)
    n = c0.shape[0]
    cons = list(constraints)
    G = np.zeros((0, n)) if G is None else np.asarray(G, dtype=float)
    h = np.zeros(0) if h is None else np.asarray(h, dtype=float).reshape(-1)
    if G.shape != (h.shape[0], n):
        raise ValueError(f"G has shape {G.shape}; expected ({h.shape[0]}, {n})")
    p = len(cons) + G.shape[0]

    if p == 0:
        z = np.linalg.lstsq(P0, -c0, rcond=None)[0] if n else np.zeros(0)
        rd = float(np.abs(P0 @ z + c0).max(initial=0.0))
        obj = float(0.5 * z @ P0 @ z + c0 @ z + r0)
        status = "optimal" if rd <= tol_feas * max(1.0, np.abs(c0).max(initial=0.0)) \
            else "degenerate"
        return IpmResult(z=z, lam=np.zeros(0), obj=obj, status=status,
                         iterations=0, r_dual=rd, r_primal=0.0, gap=0.0)

    z = np.zeros(n) if z0 is None else np.array(z0, dtype=float).reshape(-1)
    g, J = _eval_constraints(cons, G, h, z)
    s = np.maximum(1.0, np.abs(g) + 0.1)
    lam = np.ones(p)

    obj_scale = max(1.0, np.abs(c0).max(initial=0.0), np.abs(P0).max(initial=0.0))
    row_scale = max(1.0, *(abs(c.r) + np.abs(c.a).max(initial=0.0) for c in cons),
                    float(np.max(np.abs(h) + np.abs(G).max(axis=1, initial=0.0),
                                 initial=0.0)))

    best = None          # (phi, z, lam, obj, rd, rp, mu, it)
    best_phi = np.inf
    last_improve = 0
    status = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        g, J = _eval_constraints(cons, G, h, z)
        r_d = P0 @ z + c0 + J.T @ lam
        r_p = g + s
        mu = float(s @ lam) / p
        rd_norm = float(np.abs(r_d).max(initial=0.0))
        rp_norm = float(np.abs(r_p).max(initial=0.0))
        obj = float(0.5 * z @ P0 @ z + c0 @ z + r0)
        phi = (rd_norm / (obj_scale * max(1.0, np.abs(z).max(initial=0.0)))
               + rp_norm / row_scale + mu / (1.0 + abs(obj)))
        if phi < 0.9 * best_phi:
            last_improve = it
        if phi < best_phi:
            best_phi = phi
            best = (z.copy(), lam.copy(), obj, rd_norm, rp_norm, mu, it - 1)
        if (rd_norm <= tol_feas * obj_scale * max(1.0, np.abs(z).max(initial=0.0))
                and rp_norm <= tol_feas * row_scale
                and mu <= tol_gap * (1.0 + abs(obj))):
            return IpmResult(z=z, lam=lam.copy(), obj=obj, status="optimal",
                             iterations=it - 1, r_dual=rd_norm,
                             r_primal=rp_norm, gap=mu)
        if it - last_improve >= 20:
            status = "stalled"
            break

        H = P0.copy()
        for j, c in enumerate(cons):
            if lam[j] != 0.0:
                H += lam[j] * c.P
        K = H + (J.T * (lam / s)) @ J
        fac, K_used = _factor_with_reg(K)
        if fac is None:
            status = "stalled"
            break

        # Predictor (affine scaling, sigma = 0).
        rc_aff = lam * s
        rhs_aff = -(r_d + J.T @ ((lam * r_p - rc_aff) / s))
        dz_aff = _refined_solve(fac, K_used, K, rhs_aff)
        ds_aff = -r_p - J @ dz_aff
        dl_aff = (-rc_aff - lam * ds_aff) / s
        a_aff = min(_fraction_to_boundary(s, ds_aff),
                    _fraction_to_boundary(lam, dl_aff))
        mu_aff = float((s + a_aff * ds_aff) @ (lam + a_aff * dl_aff)) / p
        sigma = min(1.0, max(1e-8, (mu_aff / mu) ** 3)) if mu > 0 else 0.1

        # Corrector: second-order terms for complementarity (ds*dl) and for
        # constraint curvature (the predictor step overshoots a curved
        # boundary by 1/2 dz'P dz, which untreated sustains limit cycles).
        rc = lam * s - sigma * mu + ds_aff * dl_aff
        r_p_c = r_p.copy()
        step_aff = a_aff * dz_aff
        for j, c in enumerate(cons):
            r_p_c[j] += 0.5 * step_aff @ (c.P @ step_aff)
        rhs = -(r_d + J.T @ ((lam * r_p_c - rc) / s))
        dz = _refined_solve(fac, K_used, K, rhs)
        ds = -r_p_c - J @ dz
        dl = (-rc - lam * ds) / s

        # Common primal-dual step length: with z-dependent Jacobians the
        # Newton direction cancels the dual residual only when z and lam
        # move together, so mismatched steps re-inject dual infeasibility.
        a = min(_fraction_to_boundary(s, ds), _fraction_to_boundary(lam, dl))

        # Merit safeguard: back off when a step blows up the residuals
        # (second-order constraint terms can defeat the linearization).
        phi_old = rd_norm + rp_norm + mu
        for _ in range(10):
            z_new = z + a * dz
            s_new = s + a * ds
            lam_new = lam + a * dl
            g_new, J_new = _eval_constraints(cons, G, h, z_new)
            phi_new = (np.abs(P0 @ z_new + c0 + J_new.T @ lam_new).max(initial=0.0)
                       + np.abs(g_new + s_new).max(initial=0.0)
                       + float(s_new @ lam_new) / p)
            if phi_new <= 10.0 * phi_old or a < 1e-8:
                break
            a *= 0.5
        z, s, lam = z_new, s_new, lam_new

    if best is not None:
        z_b, lam_b, obj_b, rd_b, rp_b, mu_b, it_b = best
        return IpmResult(z=z_b, lam=lam_b, obj=obj_b, status=status,
                         iterations=it, r_dual=rd_b, r_primal=rp_b, gap=mu_b)
    g, J = _eval_constraints(cons, G, h, z)
    r_d = P0 @ z + c0 + J.T @ lam
    r_p = g + s
    mu = float(s @ lam) / p
    obj = float(0.5 * z @ P0 @ z + c0 @ z + r0)
    return IpmResult(z=z, lam=lam.copy(), obj=obj, status=status,
                     iterations=it, r_dual=float(np.abs(r_d).max(initial=0.0)),
                     r_primal=float(np.abs(r_p).max(initial=0.0)), gap=mu)
