"""Separation: the barrier epigraph, seeds, restarts, and full solves."""

import numpy as np
import pytest
from test_separation_reference import SEEDS, coordinate_step_smooth, seeded_case

from quadrelax import separation
from quadrelax.linalg import min_eigenvalue, nullspace_basis, projected_min_eigenvalue
from quadrelax.separation import (
    _EPS_CHECK,
    _SIGMA_MIN,
    SeparationConfig,
    eta_from_relaxation,
    positive_part_epigraph,
    rho_init,
    sigma_init,
    solve_nonsmooth,
    solve_smooth,
)

# Worked 2x2 problem: one equality row, indefinite Q, alpha = 1.
Q2 = np.array([[0.0, 2.0], [2.0, -1.0]])
A2 = np.array([[0.0, 1.0]])
B2 = Q2 + 1.0 * A2.T @ A2


def random_indefinite_input(rng, n, with_rows=True):
    B = rng.normal(size=(n, n))
    Q = 0.5 * (B + B.T)
    Q -= (min_eigenvalue(Q) + 1.0) * np.eye(n) * 0  # keep as drawn
    A = rng.normal(size=(max(1, n // 3), n)) if with_rows else np.zeros((0, n))
    alpha = 1.0 if with_rows else 0.0
    base = Q + alpha * A.T @ A
    if min_eigenvalue(base) >= -1e-6:
        Q = Q - (abs(min_eigenvalue(base)) + 1.0) * np.eye(n)
    eta = np.abs(rng.normal(size=n))
    return Q, A, Q + alpha * A.T @ A, eta


class TestEta:
    def test_basic_and_clamp(self):
        eta = eta_from_relaxation([0.5, 1.0], [0.3, 1.0 - 5e-11])
        assert eta[0] == pytest.approx(0.05)
        assert eta[1] == 0.0  # clamped tiny negative

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            eta_from_relaxation([1.0], [0.9])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            eta_from_relaxation([1.0, 2.0], [1.0])


class TestSeeds:
    def test_rho_init_unit_scale(self):
        assert rho_init(np.eye(2), [0, 0], [1, 1]) == pytest.approx(1e-4)

    def test_rho_init_large_entries(self):
        Q = np.array([[250.0, 0.0], [0.0, 1.0]])
        # floor(250/100) * 250 = 500
        assert rho_init(Q, [0, 0], [1, 1]) == pytest.approx(2e-7)

    def test_rho_init_wide_box(self):
        assert rho_init(np.eye(2), [0, 0], [100, 100]) == pytest.approx(1e4)

    def test_rho_init_fixed_box_rejected(self):
        with pytest.raises(ValueError, match="fixed"):
            rho_init(np.eye(2), [1, 1], [1, 1])

    def test_sigma_init_anchor(self):
        # slopes at d = (3,3), rho = 1e-4, eta = 0.25: 0.2506 / 0.6
        slopes = np.array([0.2506, 0.2506])
        v_diag = np.array([0.6, 0.6])
        assert sigma_init(slopes, v_diag) == pytest.approx(0.2506 / 0.6)

    def test_sigma_init_validates(self):
        with pytest.raises(ValueError):
            sigma_init([1.0], [0.0])
        with pytest.raises(ValueError):
            sigma_init([], [])


class TestStepPieces:
    # the closed-form coordinate step is the reference solver's kernel
    def test_step_stationarity(self):
        # Residual of the stationarity equation in cleared form: multiply
        # through by the (positive) denominator 1 + Delta V_ii, which keeps
        # the measurement well conditioned next to the barrier pole.
        # Ranges mirror states the solver can actually visit: |d| inside
        # the restart trust region, sigma above its floor, moderate rho.
        rng = np.random.default_rng(23)
        for _ in range(500):
            v = 10.0 ** rng.uniform(-2, 2)
            eta_i = 0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(-4, 1)
            rho = 10.0 ** rng.uniform(-8, 0)
            d_i = rng.uniform(-20.0, 20.0)
            sigma = 10.0 ** rng.uniform(-5, 1)
            step = coordinate_step_smooth(0, d_i, eta_i, v, rho, sigma)
            t = 1.0 + step.delta * v
            s_lin = eta_i + 2 * rho * (d_i + step.delta)
            scale = max(1.0, abs(s_lin) * abs(t), sigma * v)
            assert t > 0.0
            assert abs(s_lin * t - sigma * v) <= 1e-10 * scale

    def test_step_validates(self):
        with pytest.raises(ValueError):
            coordinate_step_smooth(0, 1.0, 1.0, -0.5, 1e-4, 0.1)
        with pytest.raises(ValueError):
            coordinate_step_smooth(0, 1.0, 1.0, 0.5, 0.0, 0.1)


class TestSolveSmooth:
    def test_worked_case_symmetric_slack(self):
        eta = np.array([0.25, 0.25])
        res = solve_smooth(B2, eta, SeparationConfig(rho0=1e-4))
        assert res.status == "converged"
        # membership boundary for this data is d1*d2 = 4, d >= 0
        assert np.abs(res.d - 2.0).max() < 0.2
        assert eta @ res.d == pytest.approx(1.0, abs=0.05)
        assert res.d[0] * res.d[1] >= 4.0 * (1 - 1e-6)

    def test_weak_regularization_restarts(self):
        res = solve_smooth(B2, [0.24, 0.0], SeparationConfig(rho0=1e-8))
        assert res.status == "converged"
        assert res.restarts >= 1
        assert res.rho > 1e-8
        assert res.d[0] * res.d[1] >= 4.0 * (1 - 1e-6)

    def test_rho0_required(self):
        with pytest.raises(ValueError, match="rho0"):
            solve_smooth(B2, [0.25, 0.25], SeparationConfig())

    def test_psd_input_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            solve_smooth(np.eye(2), [1.0, 1.0], SeparationConfig(rho0=1e-4))

    def test_returned_d_always_in_membership_set(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            Q, _, B, eta = random_indefinite_input(
                rng, n, with_rows=bool(rng.integers(2)))
            cfg = SeparationConfig(rho0=float(10.0 ** rng.uniform(-8, -2)))
            res = solve_smooth(B, eta, cfg)
            lam = min_eigenvalue(B + np.diag(res.d))
            assert lam >= -1e-8 * max(1.0, np.abs(Q).max())

    def test_projected_psd_on_nullspace(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            Q, A, B, eta = random_indefinite_input(rng, n, with_rows=True)
            res = solve_smooth(B, eta, SeparationConfig(rho0=1e-4))
            basis = nullspace_basis(A)
            lam = projected_min_eigenvalue(Q + np.diag(res.d), basis)
            assert lam >= -1e-6

    def test_trace_rows(self):
        res = solve_smooth(B2, [0.25, 0.25],
                           SeparationConfig(rho0=1e-4, trace=True))
        # one row per Newton step, naming its largest coordinate move
        assert res.trace and len(res.trace) == res.iterations
        assert all(len(row) == 6 for row in res.trace)
        assert [row[0] for row in res.trace] == list(range(1, len(res.trace) + 1))
        k, i, delta, sigma, rho, obj = res.trace[0]
        assert k == 1 and i in (0, 1) and rho == pytest.approx(1e-4)
        assert res.trace[-1][5] == res.objective


class TestSolveNonsmooth:
    def test_worked_case(self):
        res = solve_nonsmooth(B2, [0.25, 0.25], SeparationConfig())
        assert res.status == "converged"
        assert np.abs(res.d - 2.0).max() < 0.2
        assert res.d[0] * res.d[1] >= 4.0 * (1 - 1e-6)

    def test_membership_preserved(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            Q, _, B, eta = random_indefinite_input(
                rng, n, with_rows=bool(rng.integers(2)))
            res = solve_nonsmooth(B, eta, SeparationConfig())
            lam = min_eigenvalue(B + np.diag(res.d))
            assert lam >= -1e-8 * max(1.0, np.abs(Q).max())

    def test_zero_slack_early_return(self):
        res = solve_nonsmooth(B2, [0.0, 0.0], SeparationConfig())
        assert res.status == "converged"
        assert res.iterations == 0
        lam = min_eigenvalue(B2 + np.diag(res.d))
        assert lam >= 0.0

    def test_negative_coordinates_allowed(self):
        # A diagonally dominant column lets d_i go negative while staying
        # in the membership set; the one-sided regularizer exploits that.
        Q = np.array([[5.0, 0.0, 0.0],
                      [0.0, -1.0, 2.0],
                      [0.0, 2.0, -1.0]])
        res = solve_nonsmooth(Q, [5.0, 0.1, 0.1], SeparationConfig())
        assert res.d[0] < 0.0
        lam = min_eigenvalue(Q + np.diag(res.d))
        assert lam >= -1e-8


    def test_one_variable_limit(self):
        # Q = [[-1]] admits exactly d >= 1, and lambda = eta, so the
        # regularizer is 2 eta d on d > 0: the minimum is d = 1, 2 eta.
        for eta in (0.5, 3.0):
            res = solve_nonsmooth([[-1.0]], [eta], SeparationConfig())
            assert res.status == "converged"
            assert 1.0 < res.d[0] < 1.0 + 1e-3
            assert res.objective == pytest.approx(2.0 * eta, rel=1e-3)
            assert res.objective == pytest.approx(2.0 * eta * res.d[0],
                                                  rel=1e-14)


class TestStopRule:
    SOLVES = {"smooth": (solve_smooth, separation._Quadratic),
              "nonsmooth": (solve_nonsmooth, separation._PositivePart)}

    @pytest.mark.parametrize("mode", ["smooth", "nonsmooth"])
    def test_no_failed_trial_factorization(self, mode, monkeypatch):
        # every line search starts inside the Dikin ellipsoid, so every
        # barrier matrix Newton factors is positive definite
        factors = []
        factor = separation._barrier_factor

        def record(base, d):
            factors.append(factor(base, d))
            return factors[-1]

        monkeypatch.setattr(separation, "_barrier_factor", record)
        solve = self.SOLVES[mode][0]
        for seed in SEEDS:
            solve(*seeded_case(seed)[:3])
        assert factors
        assert all(c is not None for c, _ in factors)

    @pytest.mark.parametrize("mode", ["smooth", "nonsmooth"])
    def test_converged_run_meets_gap_rule(self, mode):
        solve, reg = self.SOLVES[mode]
        converged = 0
        for seed in SEEDS:
            B, eta, cfg, _ = seeded_case(seed)
            res = solve(B, eta, cfg)
            if res.status != "converged" or res.iterations == 0:
                continue
            converged += 1
            gap = reg.logs_per_coordinate * eta.size * res.sigma
            assert (res.sigma == _SIGMA_MIN
                    or gap <= _EPS_CHECK * max(1.0, abs(res.objective)))
        assert converged >= 5

    def test_tiny_slacks_converge(self):
        # With |eta| ~ 1e-10 the gradient test sits below roundoff, and the
        # line search would go on accepting steps that move d by roundoff
        # only; such a step must end its sigma level.
        for seed in range(20, 27):
            B, eta, _, _ = seeded_case(seed)
            tiny = 1e-10 * np.abs(np.random.default_rng(seed).normal(size=eta.size))
            res = solve_smooth(B, tiny, SeparationConfig(rho0=1e-4))
            assert res.status == "converged"


class TestPositivePartEpigraph:
    D = np.array([-1e3, -7.0, -0.3, -1e-9, 0.0, 1e-9, 0.3, 7.0, 1e3])

    @pytest.mark.parametrize("lam", [0.3, 2.0, 50.0])
    @pytest.mark.parametrize("sigma", [1e-6, 1e-2, 1.0])
    def test_minimizer_is_stationary(self, lam, sigma):
        d = self.D
        p, _, slope, _ = positive_part_epigraph(d, lam, sigma)
        assert np.all(p > np.maximum(d, 0.0))
        # lam - sigma / p - sigma / (p - d) = 0, the slope being the last term
        assert np.abs(lam - sigma / p - slope).max() <= 1e-12 * lam
        # the same condition cleared of denominators, a statement about p alone
        resid = lam * p * p - (lam * d + 2.0 * sigma) * p + sigma * d
        scale = np.maximum.reduce([lam * p * p,
                                   np.abs(lam * d + 2.0 * sigma) * p,
                                   sigma * np.abs(d)])
        assert np.all(np.abs(resid) <= 1e-12 * scale)

    @pytest.mark.parametrize("sigma", [0.05, 1.0])
    def test_slope_and_curvature_match_differences(self, sigma):
        lam = 2.0
        d = np.array([-7.0, -0.3, 0.0, 0.3, 7.0])
        h = 1e-5
        _, _, slope, curvature = positive_part_epigraph(d, lam, sigma)
        _, up, slope_up, _ = positive_part_epigraph(d + h, lam, sigma)
        _, down, slope_down, _ = positive_part_epigraph(d - h, lam, sigma)
        assert np.allclose((up - down) / (2 * h), slope, rtol=1e-7, atol=1e-9)
        assert np.allclose((slope_up - slope_down) / (2 * h), curvature,
                           rtol=1e-6, atol=1e-9)
        assert np.all(curvature > 0.0)

    def test_tends_to_positive_part(self):
        lam = 2.0
        d = np.array([-0.7, 0.0, 0.7])
        gaps = [np.abs(positive_part_epigraph(d, lam, sigma)[1]
                       - lam * np.maximum(d, 0.0))
                for sigma in (1e-2, 1e-4, 1e-6)]
        for wide, narrow in zip(gaps, gaps[1:]):
            assert np.all(narrow < wide)
        assert gaps[-1].max() < 1e-4


class TestInputValidation:
    # both solvers check their arguments in one prologue
    SOLVES = [(solve_smooth, SeparationConfig(rho0=1e-4)),
              (solve_nonsmooth, SeparationConfig())]

    def test_eta_below_floor_rejected(self):
        for solve, cfg in self.SOLVES:
            with pytest.raises(ValueError, match="eta"):
                solve(B2, [-1e-6, 0.0], cfg)

    def test_asymmetric_q_rejected(self):
        for solve, cfg in self.SOLVES:
            with pytest.raises(ValueError, match="symmetric"):
                solve([[0.0, 1.0], [0.0, 0.0]], [0.1, 0.1], cfg)
