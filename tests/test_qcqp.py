"""Interior-point solver: quadratic rows, the linear (G, h) block, multipliers."""

import numpy as np
import pytest

from quadrelax.qcqp import QuadConstraint, solve_qcqp


def box_block(lo, hi):
    """lo <= z <= hi as G z + h <= 0, upper rows first."""
    n = lo.shape[0]
    return np.vstack((np.eye(n), -np.eye(n))), np.concatenate((-hi, lo))


def jacobian(cons, G, z):
    """Row gradients in the solver's multiplier order: quadratic rows, then G."""
    return np.vstack([c.P @ z + c.a for c in cons] + [G])


def row_values(cons, G, h, z):
    return np.concatenate(([0.5 * z @ c.P @ z + c.a @ z + c.r for c in cons],
                           G @ z + h))


def test_box_qp_from_linear_block():
    rng = np.random.default_rng(3)
    n = 6
    p = rng.uniform(0.5, 3.0, n)
    c0 = rng.uniform(-4.0, 4.0, n)
    lo, hi = -np.ones(n), np.ones(n)
    G, h = box_block(lo, hi)
    res = solve_qcqp(np.diag(p), c0, 0.5, [], G, h)
    z_star = np.clip(-c0 / p, lo, hi)
    assert res.status == "optimal"
    assert np.abs(res.z - z_star).max() <= 1e-7
    assert res.lam.shape == (2 * n,)
    assert abs(res.obj - (0.5 * z_star @ (p * z_star) + c0 @ z_star + 0.5)) <= 1e-8
    # the bound is active exactly where the unconstrained minimiser is clipped
    clipped = np.abs(-c0 / p) > 1.0
    assert np.all(np.maximum(res.lam[:n], res.lam[n:])[clipped] > 1e-6)
    assert np.all(np.maximum(res.lam[:n], res.lam[n:])[~clipped] <= 1e-8)


def test_ball_row_solution_and_multiplier():
    c = np.array([3.0, -4.0, 12.0])
    n = c.shape[0]
    ball = QuadConstraint(2.0 * np.eye(n), np.zeros(n), -1.0)  # |z|^2 <= 1
    res = solve_qcqp(np.zeros((n, n)), c, 0.0, [ball])
    norm = np.linalg.norm(c)
    assert res.status == "optimal"
    assert np.abs(res.z + c / norm).max() <= 1e-7
    assert abs(res.obj + norm) <= 1e-7
    # stationarity c + lam * 2 z = 0 at z = -c/|c| gives lam = |c| / 2
    assert res.lam.shape == (1,)
    assert abs(res.lam[0] - norm / 2.0) <= 1e-6


def test_mixed_rows_multiplier_order_and_kkt():
    rng = np.random.default_rng(7)
    n = 5
    B = rng.normal(size=(n, n))
    P0 = B @ B.T + 0.1 * np.eye(n)
    c0 = rng.normal(size=n) * 5.0
    # a ball of radius 0.5 around the origin and an ellipse through it
    ball = QuadConstraint(2.0 * np.eye(n), np.zeros(n), -0.25)
    D = np.diag(rng.uniform(0.5, 2.0, n))
    ellipse = QuadConstraint(D, rng.normal(size=n) * 0.1, -2.0)
    cons = [ball, ellipse]
    # a box the ball lies inside, plus one half-space that cuts the ball
    G, h = box_block(-np.ones(n), np.ones(n))
    w = rng.normal(size=n)
    G = np.vstack((G, w))
    h = np.append(h, 0.1 * np.linalg.norm(w))
    res = solve_qcqp(P0, c0, 0.0, cons, G, h, z0=np.zeros(n))
    assert res.status == "optimal"
    assert len(res.lam) == len(cons) + G.shape[0]
    assert np.all(res.lam >= 0.0)

    J = jacobian(cons, G, res.z)
    stationarity = P0 @ res.z + c0 + J.T @ res.lam
    assert np.abs(stationarity).max() <= 1e-8 * max(1.0, np.abs(c0).max())

    g = row_values(cons, G, h, res.z)
    assert g.max() <= 1e-9
    assert np.abs(res.lam * g).max() <= 1e-8
    # quadratic rows first: the ball is active, every box row slack
    assert res.lam[0] > 1e-6
    assert np.all(res.lam[len(cons):len(cons) + 2 * n] <= 1e-8)


@pytest.mark.parametrize("G, h", [(None, None),
                                  (np.zeros((0, 3)), np.zeros(0))])
def test_no_rows_is_unconstrained_minimiser(G, h):
    P0 = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    c0 = np.array([1.0, -2.0, 0.5])
    res = solve_qcqp(P0, c0, 1.0, [], G, h)
    z_star = np.linalg.solve(P0, -c0)
    assert res.status == "optimal"
    assert res.iterations == 0
    assert res.lam.shape == (0,)
    assert np.abs(res.z - z_star).max() <= 1e-10
    assert abs(res.obj - (0.5 * z_star @ P0 @ z_star + c0 @ z_star + 1.0)) <= 1e-10


def test_block_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        solve_qcqp(np.eye(2), np.zeros(2), 0.0, [], np.ones((3, 2)), np.zeros(2))
