"""The interior-point solver against a verbatim copy of its earlier form.

``reference_solve_qcqp`` factors through ``scipy.linalg.cho_factor`` and
``cho_solve``, evaluates every row again at the top of each iteration,
takes two fraction-to-boundary tests, and knows no square block: the lower
hulls reach it as dense rank-one QuadConstraints.  ``qcqp.solve_qcqp``
calls LAPACK's Cholesky pair directly and carries the residuals of the
accepted step into the next iteration with the same floating-point
operations, so without a square block every result field must match bit
for bit.  The square block changes the order of sums, so with one the
results agree within tolerances fixed beforehand.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from quadrelax import bnb, qcqp, relax
from quadrelax.cli import generate_instance
from quadrelax.qcqp import IpmResult, QuadConstraint, SquareBlock, solve_qcqp


# ---------------------------------------------------------------------------
# reference: the earlier solver, verbatim but for its name


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


def reference_solve_qcqp(P0, c0, r0, constraints, G=None, h=None, z0=None,
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


# ---------------------------------------------------------------------------
# inputs


def box_block(lo, hi):
    n = lo.shape[0]
    return np.vstack((np.eye(n), -np.eye(n))), np.concatenate((-hi, lo))


def psd(rng, n, rank=None):
    B = rng.normal(size=(n, rank or n))
    return B @ B.T


def box_qp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    G, h = box_block(-np.ones(n), np.ones(n))
    return (psd(rng, n) + 0.1 * np.eye(n), rng.normal(size=n) * 4.0, 0.5,
            [], G, h), {}


def quad_rows(seed):
    """Dense convex rows (an ellipse, a ball) under a box and a half-space."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    cons = [QuadConstraint(2.0 * np.eye(n), np.zeros(n), -0.25),
            QuadConstraint(psd(rng, n, 2) + np.diag(rng.uniform(0.5, 2.0, n)),
                           rng.normal(size=n) * 0.1, -2.0)]
    G, h = box_block(-np.ones(n), np.ones(n))
    w = rng.normal(size=n)
    G = np.vstack((G, w))
    h = np.append(h, 0.1 * np.linalg.norm(w))
    return (psd(rng, n) + 0.1 * np.eye(n), rng.normal(size=n) * 5.0, 0.0,
            cons, G, h), {"z0": np.zeros(n)}


def singular_k(seed):
    """No objective curvature and no row on the last two coordinates.

    K is singular in every iteration, so each factorization walks the
    regularization ladder and each solve takes the refinement rounds.
    """
    rng = np.random.default_rng(seed)
    n = 5
    P0 = np.zeros((n, n))
    P0[:3, :3] = psd(rng, 3) + 0.1 * np.eye(3)
    c0 = np.append(rng.normal(size=3) * 3.0, [0.0, 0.0])
    G, h = box_block(-np.ones(3), np.ones(3))
    G = np.hstack((G, np.zeros((G.shape[0], 2))))
    return (P0, c0, 0.0, [], G, h), {}


def iteration_cap(seed):
    args, kwargs = quad_rows(seed)
    return args, dict(kwargs, max_iter=4)


def infeasible(seed):
    """z_0 <= -1 and z_0 >= 1: no iterate improves enough, the solve stalls."""
    rng = np.random.default_rng(seed)
    n = 3
    G = np.zeros((2, n))
    G[0, 0], G[1, 0] = 1.0, -1.0
    return (psd(rng, n) + np.eye(n), rng.normal(size=n), 0.0, [], G,
            np.array([1.0, 1.0])), {}


CASES = {"box": box_qp, "quad_rows": quad_rows, "singular": singular_k,
         "max_iter": iteration_cap, "stalled": infeasible}


def captured_calls(run):
    """(args, kwargs) of every solve_qcqp call that ``run()`` makes."""
    calls = []
    solve = qcqp.solve_qcqp

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    with mock.patch.object(qcqp, "solve_qcqp", record):
        run()
    return calls


def cut_loop_calls(family, n, seed):
    inst = generate_instance(family, n, 0.8, seed)
    alpha = relax.select_alpha(inst).alpha
    return captured_calls(lambda: relax.cutting_surface(inst, alpha,
                                                        max_cuts=3))


def node_qp_calls(family, n, seed):
    """Interior-point calls made while bounding the nodes of a search."""
    inst = generate_instance(family, n, 0.8, seed)
    calls = []
    bound = bnb.bound_node

    def recording_bound_node(*args, **kwargs):
        out = []
        calls.extend(captured_calls(lambda: out.append(bound(*args,
                                                             **kwargs))))
        return out[0]

    with mock.patch.object(bnb, "bound_node", recording_bound_node):
        bnb.solve(inst, bnb.BnbConfig(node_limit=40, max_nc=3))
    return calls


def spectral_stall_calls():
    """The spectral QP of eq_integer n=20 seed 32200, a known IPM stall."""
    inst = generate_instance("eq_integer", 20, 0.8, 32200)
    mu = max(0.0, relax.select_alpha(inst).mu)
    return captured_calls(lambda: pytest.raises(
        relax.SolveFailure, relax.solve_eigenvalue_relaxation, inst, mu))


def dense_rows(sq):
    """The square block's rows as the QuadConstraints it stands for."""
    return [QuadConstraint(2.0 * np.outer(S_j, S_j), 2.0 * s_j * S_j + F_j,
                           float(s_j * s_j + f_j))
            for S_j, s_j, F_j, f_j in zip(sq.S, sq.s, sq.F, sq.f)]


def without_block(args, kwargs):
    """The reference's form of a call: square rows after the dense rows."""
    kwargs = dict(kwargs)
    sq = kwargs.pop("squares", None)
    if sq is None:
        return args, kwargs
    P0, c0, r0, cons, G, h = args
    return (P0, c0, r0, list(cons) + dense_rows(sq), G, h), kwargs


# ---------------------------------------------------------------------------
# tests


def assert_bitwise_equal(new, ref):
    assert new.z.tobytes() == ref.z.tobytes()
    assert new.lam.tobytes() == ref.lam.tobytes()
    assert (new.obj, new.status, new.iterations) == \
        (ref.obj, ref.status, ref.iterations)
    assert (new.r_dual, new.r_primal, new.gap) == \
        (ref.r_dual, ref.r_primal, ref.gap)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_reference(case, seed):
    args, kwargs = CASES[case](seed)
    assert_bitwise_equal(solve_qcqp(*args, **kwargs),
                         reference_solve_qcqp(*args, **kwargs))


def test_cases_cover_every_exit(monkeypatch):
    ladder = [0]
    factor = qcqp.cholesky_factor

    def counting_factor(K, lower):
        c = factor(K, lower)
        ladder[0] += c is None
        return c

    monkeypatch.setattr(qcqp, "cholesky_factor", counting_factor)
    statuses = {}
    for case, build in CASES.items():
        args, kwargs = build(0)
        before = ladder[0]
        statuses[case] = solve_qcqp(*args, **kwargs).status
        if case == "singular":
            assert ladder[0] > before
    assert statuses == {"box": "optimal", "quad_rows": "optimal",
                        "singular": "optimal", "max_iter": "max_iter",
                        "stalled": "stalled"}


@pytest.mark.parametrize("family, n, seed", [("boxqp", 12, 3),
                                             ("binary_card", 16, 4),
                                             ("eq_integer", 8, 5)])
def test_cut_loop_linear_solves_match_reference(family, n, seed):
    calls = [c for c in cut_loop_calls(family, n, seed)
             if c[1].get("squares") is None]
    assert calls
    for args, kwargs in calls:
        assert_bitwise_equal(solve_qcqp(*args, **kwargs),
                             reference_solve_qcqp(*args, **kwargs))


@pytest.mark.parametrize("family, n, seed", [("eq_integer", 8, 5),
                                             ("binary_card", 16, 4)])
def test_node_qps_match_reference(family, n, seed):
    calls = node_qp_calls(family, n, seed)
    assert len(calls) >= 20
    for args, kwargs in calls:
        # no quadratic row and no square block: the linear-row iteration
        assert not args[3] and kwargs.get("squares") is None
        assert_bitwise_equal(solve_qcqp(*args, **kwargs),
                             reference_solve_qcqp(*args, **kwargs))


def test_spectral_stall_matches_reference():
    (args, kwargs), = spectral_stall_calls()
    new = solve_qcqp(*args, **kwargs)
    assert new.status == "stalled"
    assert_bitwise_equal(new, reference_solve_qcqp(*args, **kwargs))


@pytest.mark.parametrize("family, n, seed", [("boxqp", 12, 3),
                                             ("boxqp", 20, 8),
                                             ("eq_integer", 8, 5)])
def test_square_block_matches_dense_rows(family, n, seed):
    calls = [c for c in cut_loop_calls(family, n, seed)
             if c[1].get("squares") is not None]
    assert calls
    for args, kwargs in calls:
        new = solve_qcqp(*args, **kwargs)
        ref_args, ref_kwargs = without_block(args, kwargs)
        ref = reference_solve_qcqp(*ref_args, **ref_kwargs)
        assert new.status == ref.status
        assert abs(new.obj - ref.obj) <= 1e-9 * max(1.0, abs(ref.obj))
        assert np.abs(new.z - ref.z).max() <= 1e-7
        # multipliers: cut rows, then the square rows, then the rows of G
        q, nb = len(args[3]), kwargs["squares"].S.shape[0]
        assert new.lam.shape == ref.lam.shape == (q + nb + args[4].shape[0],)
        scale = max(1.0, np.abs(ref.lam).max())
        assert np.abs(new.lam - ref.lam).max() <= 1e-6 * scale


def test_square_block_multiplier_order():
    """A hull row and a G row, both active, report in their own slots."""
    # min y - 2 z  s.t.  z**2 - y <= 0 (the block), y <= 5, z <= 0.8
    sq = SquareBlock(np.array([[1.0, 0.0]]), np.zeros(1),
                     np.array([[0.0, -1.0]]), np.zeros(1))
    G = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = np.array([-5.0, -0.8])
    P0, c0 = np.zeros((2, 2)), np.array([-2.0, 1.0])
    new = solve_qcqp(P0, c0, 0.0, [], G, h, squares=sq)
    ref = reference_solve_qcqp(P0, c0, 0.0, dense_rows(sq), G, h)
    assert new.status == ref.status == "optimal"
    # at z = 0.8, y = 0.64: stationarity in y gives lam_hull = 1, in z
    # -2 + 2 lam_hull z + lam_z = 0 gives lam_z = 0.4; y <= 5 is slack
    assert np.abs(new.z - [0.8, 0.64]).max() <= 1e-7
    assert np.abs(new.lam - [1.0, 0.0, 0.4]).max() <= 1e-7
    assert np.abs(new.lam - ref.lam).max() <= 1e-7


def test_empty_square_block_is_no_block():
    args, kwargs = box_qp(0)
    n = args[1].shape[0]
    empty = SquareBlock(np.zeros((0, n)), np.zeros(0), np.zeros((0, n)),
                        np.zeros(0))
    assert_bitwise_equal(solve_qcqp(*args, squares=empty, **kwargs),
                         reference_solve_qcqp(*args, **kwargs))


def test_square_block_shape_checked():
    args, _ = box_qp(0)
    n = args[1].shape[0]
    bad = SquareBlock(np.zeros((2, n)), np.zeros(2), np.zeros((2, n + 1)),
                      np.zeros(2))
    with pytest.raises(ValueError, match="square block"):
        solve_qcqp(*args, squares=bad)


@pytest.mark.parametrize("where", ["c0", "P0"])
def test_non_finite_input_raises(where):
    args, kwargs = quad_rows(0)
    P0, c0 = args[0].copy(), args[1].copy()
    if where == "c0":
        c0[1] = np.nan
    else:
        P0[1, 2] = P0[2, 1] = np.nan  # reaches K, the factored matrix
    args = (P0, c0) + args[2:]
    with pytest.raises(ValueError):
        reference_solve_qcqp(*args, **kwargs)
    with pytest.raises(ValueError):
        solve_qcqp(*args, **kwargs)
