"""Tests for the relaxation chain: alpha, spectral bound, QCP, cut loop."""

from dataclasses import replace

import numpy as np
import pytest

from quadrelax import bnb, qcqp, relax
from quadrelax.cli import generate_instance
from quadrelax.linalg import nullspace_basis, projected_min_eigenvalue
from quadrelax.model import MiqpInstance, VariableDomain
from quadrelax.relax import (
    CutPool,
    InfeasibleRelaxation,
    ReducedProblem,
    RelaxationSolution,
    SolveFailure,
    assemble_qcp,
    cut_violation,
    cutting_surface,
    initial_perturbation,
    next_cut,
    select_alpha,
    solve_eigenvalue_relaxation,
    solve_qcp,
    solve_qp_child,
    surrogate_root_perturbation,
)
from quadrelax.separation import (
    SeparationConfig,
    eta_from_relaxation,
    rho_init,
    solve_smooth,
)

Q_SADDLE = np.array([[0.0, 2.0], [2.0, -1.0]])


def interval_box(n, lo=0.0, hi=1.0):
    return [VariableDomain("interval", lo, hi) for _ in range(n)]


def saddle_instance():
    return MiqpInstance.from_arrays(Q_SADDLE, np.zeros(2),
                                    np.array([[1.0, 1.0]]), np.array([1.0]),
                                    interval_box(2))


def diag_instance():
    return MiqpInstance.from_arrays(np.diag([-1.0, 2.0]), np.zeros(2),
                                    None, None, interval_box(2))


def random_instance(seed, n_lo=3, n_hi=12, kinds=None, max_m=2):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    Q = rng.uniform(-5, 5, (n, n))
    Q = 0.5 * (Q + Q.T)
    q = rng.uniform(-3, 3, n)
    m = int(rng.integers(0, max_m + 1))
    choices = kinds or ["interval", "binary", "integer_range", "two_point"]
    doms = []
    for k in rng.choice(choices, n):
        if k == "interval":
            doms.append(VariableDomain("interval", 0.0, 1.0))
        elif k == "binary":
            doms.append(VariableDomain("binary", 0.0, 1.0))
        elif k == "two_point":
            doms.append(VariableDomain("two_point", -1.0, 2.0))
        else:
            doms.append(VariableDomain("integer_range", -2.0, 2.0))
    if m:
        A = rng.uniform(-2, 2, (m, n))
        b = A @ np.array([rng.uniform(d.L, d.U) for d in doms])
    else:
        A = b = None
    return MiqpInstance.from_arrays(Q, q, A, b, doms)


def sample_feasible(inst, rng, count):
    """Random admissible points; equality rows by nullspace projection."""
    pts = []
    Z = nullspace_basis(inst.A, inst.n).Z
    x_hat = (np.linalg.lstsq(inst.A, inst.b, rcond=None)[0]
             if inst.m else np.zeros(inst.n))
    tries = 0
    while len(pts) < count and tries < count * 200:
        tries += 1
        raw = np.array([rng.uniform(d.L, d.U) for d in inst.domains])
        x = x_hat + Z @ (Z.T @ (raw - x_hat)) if inst.m else raw
        if np.any(x < inst.lower - 1e-9) or np.any(x > inst.upper + 1e-9):
            continue
        pts.append(x)
    return pts


class TestAlphaSelection:
    def test_saddle_anchor(self):
        sel = select_alpha(saddle_instance())
        assert abs(sel.mu - 2.5) <= 5e-3
        assert sel.alpha > 0 and not sel.capped
        assert len(sel.trace) >= 1

    def test_unconstrained_is_plain_eigenvalue(self):
        sel = select_alpha(diag_instance())
        assert sel.alpha == 0.0
        assert abs(sel.mu - 1.0) <= 1e-12
        assert sel.trace == ()

    def test_alpha_zero_iff_no_rows(self):
        for seed in range(6):
            inst = random_instance(seed)
            sel = select_alpha(inst)
            assert (sel.alpha == 0.0) == (inst.m == 0)

    def test_escalation_cap(self, monkeypatch):
        # a mu sequence that keeps drifting forces the t=8 cap
        import quadrelax.relax as relax_mod
        inst = saddle_instance()
        AtA = inst.A.T @ inst.A

        def slow_mu(M, B):
            alpha = (B - np.eye(2))[0, 0] / AtA[0, 0]
            return -(1.0 + 1.0 / (1.0 + np.log10(alpha)))

        monkeypatch.setattr(relax_mod, "min_generalized_eigenvalue", slow_mu)
        sel = relax_mod.select_alpha(inst)
        assert sel.capped
        assert len(sel.trace) == 9

    def test_large_alpha_approaches_nullspace_eigenvalue(self):
        inst = saddle_instance()
        from quadrelax.linalg import min_generalized_eigenvalue
        mu_inf = -min_generalized_eigenvalue(
            inst.Q, np.eye(2) + 1e8 * (inst.A.T @ inst.A))
        Z = nullspace_basis(inst.A, 2)
        proj = projected_min_eigenvalue(inst.Q, Z)
        assert abs(mu_inf - max(0.0, -proj)) <= 1e-4 * max(1.0, abs(proj))


class TestInitialPerturbation:
    def test_unconstrained_seed(self):
        d = initial_perturbation(diag_instance(), 0.0)
        np.testing.assert_allclose(d, np.ones(2), atol=1e-12)

    def test_constrained_seed(self):
        inst = saddle_instance()
        sel = select_alpha(inst)
        d = initial_perturbation(inst, sel.alpha)
        assert d.shape == (2,)
        assert abs(d[0] - d[1]) <= 1e-12
        assert abs(d[0] - 2.5) <= 5e-3

    def test_convex_returns_none(self):
        inst = MiqpInstance.from_arrays(np.eye(2), np.zeros(2), None, None,
                                        interval_box(2))
        assert initial_perturbation(inst, 0.0) is None

    def test_convex_on_nullspace_returns_none(self):
        # Q indefinite overall but PSD on the nullspace of A
        inst = MiqpInstance.from_arrays(np.diag([-1.0, 2.0]), np.zeros(2),
                                        np.array([[1.0, 0.0]]),
                                        np.array([0.5]), interval_box(2))
        assert initial_perturbation(inst, 10.0) is None


class TestEigenvalueRelaxation:
    def test_diagonal_anchor(self):
        sol = solve_eigenvalue_relaxation(diag_instance(), 1.0)
        assert abs(sol.value - (-13.0 / 12.0)) <= 1e-9
        assert sol.feasibility_error(diag_instance()) <= 1e-8

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_eigenvalue_relaxation(diag_instance(), -0.5)

    def test_infeasible_box(self):
        inst = MiqpInstance.from_arrays(Q_SADDLE, np.zeros(2),
                                        np.array([[1.0, 1.0]]),
                                        np.array([5.0]), interval_box(2))
        with pytest.raises(InfeasibleRelaxation):
            solve_eigenvalue_relaxation(inst, 3.0)

    def test_smaller_mu_gives_tighter_bound(self):
        inst = saddle_instance()
        sel = select_alpha(inst)
        mu_plain = 2.5615528128088303  # (1 + sqrt(17)) / 2
        lo = solve_eigenvalue_relaxation(inst, mu_plain).value
        hi = solve_eigenvalue_relaxation(inst, sel.mu).value
        assert hi >= lo - 1e-9 * max(1.0, abs(lo))


class TestQpChild:
    def test_binary_elimination_hand_case(self):
        # Q=diag(2,-1), d=(-1,1.5): y=x on both binary coords, bound -1
        inst = MiqpInstance.from_arrays(
            np.diag([2.0, -1.0]), np.zeros(2), None, None,
            [VariableDomain("binary", 0.0, 1.0)] * 2)
        sol = solve_qp_child(inst, np.array([-1.0, 1.5]),
                             (inst.lower, inst.upper))
        assert abs(sol.value - (-1.0)) <= 1e-8
        np.testing.assert_allclose(sol.y, sol.x, atol=1e-9)

    def test_negative_d_uses_square_branch(self):
        # interval coord with d<0 keeps y = x^2 exactly
        inst = MiqpInstance.from_arrays(
            np.diag([3.0, 1.0]), np.array([1.0, -1.0]), None, None,
            interval_box(2, -1.0, 1.0))
        d = np.array([-2.0, 0.5])
        sol = solve_qp_child(inst, d, (inst.lower, inst.upper))
        assert abs(sol.y[0] - sol.x[0] ** 2) <= 1e-10
        # second coord sits on the secant of [-1, 1]: y = 0*x + 1 -> 1... no,
        # slope L+U = 0, intercept -LU = 1
        assert abs(sol.y[1] - 1.0) <= 1e-10

    def test_bound_below_enumeration(self):
        for seed in range(5):
            inst = random_instance(seed + 40, n_lo=3, n_hi=7,
                                   kinds=["binary", "two_point"], max_m=0)
            d0 = initial_perturbation(inst, 0.0)
            if d0 is None:
                continue
            sol = solve_qp_child(inst, d0, (inst.lower, inst.upper))
            best = np.inf
            import itertools
            for pt in itertools.product(*[d.admissible(d.L, d.U)
                                           for d in inst.domains]):
                x = np.array(pt)
                best = min(best, float(x @ inst.Q @ x + inst.q @ x))
            assert sol.value <= best + 1e-7 * max(1.0, abs(best))

    def test_tighter_box_tightens_bound(self):
        inst = diag_instance()
        d = np.array([1.0, 1.0])
        wide = solve_qp_child(inst, d, (inst.lower, inst.upper))
        tight = solve_qp_child(inst, d, (np.array([0.5, 0.0]),
                                         np.array([1.0, 0.5])))
        assert tight.value >= wide.value - 1e-9

    def test_infeasible_node_prunes(self):
        inst = MiqpInstance.from_arrays(
            np.diag([2.0, -1.0]), np.zeros(2), None, None,
            [VariableDomain("binary", 0.0, 1.0)] * 2)
        with pytest.raises(InfeasibleRelaxation):
            solve_qp_child(inst, np.ones(2),
                           (np.array([0.2, 0.0]), np.array([0.8, 1.0])))


class TestQcp:
    def test_empty_pool_rejected(self):
        inst = diag_instance()
        pool = CutPool(Q=inst.Q, basis=nullspace_basis(None, 2))
        with pytest.raises(ValueError, match="empty"):
            assemble_qcp(inst, pool)

    def test_single_cut_matches_spectral_bound(self):
        for inst in (diag_instance(), saddle_instance()):
            sel = select_alpha(inst)
            d0 = initial_perturbation(inst, sel.alpha)
            pool = CutPool(Q=inst.Q, basis=nullspace_basis(inst.A, inst.n))
            pool.add(d0)
            qcp = solve_qcp(assemble_qcp(inst, pool))
            spectral = solve_qp_child(inst, d0, (inst.lower, inst.upper))
            assert abs(qcp.value - spectral.value) <= 1e-6 * max(
                1.0, abs(spectral.value))

    def test_pure_binary_has_no_lifted_variables(self):
        inst = MiqpInstance.from_arrays(
            np.array([[0.0, 3.0], [3.0, -2.0]]), np.zeros(2), None, None,
            [VariableDomain("binary", 0.0, 1.0)] * 2)
        pool = CutPool(Q=inst.Q, basis=nullspace_basis(None, 2))
        pool.add(initial_perturbation(inst, 0.0))
        model = assemble_qcp(inst, pool)
        assert model.sq_idx.size == 0
        assert model.nz == model.red.basis.dim + 1

    def test_multipliers_sum_to_one(self):
        inst = random_instance(3, kinds=["interval"])
        sel = select_alpha(inst)
        res = cutting_surface(inst, sel.alpha, max_cuts=4)
        nu = res.pool.multipliers
        assert nu is not None and np.all(nu >= 0)
        assert abs(nu.sum() - 1.0) <= 1e-6

    def test_duplicate_cut_multipliers_sum_consistently(self):
        inst = diag_instance()
        d0 = initial_perturbation(inst, 0.0)
        pool = CutPool(Q=inst.Q, basis=nullspace_basis(None, 2))
        pool.add(d0)
        single = solve_qcp(assemble_qcp(inst, pool))
        pool.add(d0)
        doubled = solve_qcp(assemble_qcp(inst, pool))
        assert abs(doubled.value - single.value) <= 1e-7
        assert abs(doubled.cut_multipliers.sum()
                   - single.cut_multipliers.sum()) <= 1e-6

    def test_disjoint_box_and_rows(self):
        inst = MiqpInstance.from_arrays(Q_SADDLE, np.zeros(2),
                                        np.array([[1.0, 1.0]]),
                                        np.array([5.0]), interval_box(2))
        pool = CutPool(Q=inst.Q, basis=nullspace_basis(inst.A, 2))
        pool.add(np.full(2, 4.0))
        with pytest.raises(InfeasibleRelaxation):
            assemble_qcp(inst, pool)

    def test_solution_feasibility_and_kkt(self):
        inst = random_instance(8, kinds=["interval", "integer_range"])
        sel = select_alpha(inst)
        res = cutting_surface(inst, sel.alpha, max_cuts=6)
        sol = res.solution
        assert sol.feasibility_error(inst) <= 1e-8
        assert sol.kkt_residual <= 1e-8 * max(1.0, abs(sol.value))


class TestIpmContract:
    def test_quadratic_rows_are_positional_argument_3(self, monkeypatch):
        # perfbench/tracer.py tells linear-row from quadratic-row IPM solves
        # by the rows passed as the 4th positional argument
        calls = []
        solve = qcqp.solve_qcqp

        def record(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(qcqp, "solve_qcqp", record)
        inst = diag_instance()
        d0 = initial_perturbation(inst, 0.0)
        solve_qp_child(inst, d0, (inst.lower, inst.upper))
        assert len(calls) == 1 and list(calls[0][3]) == []

        calls.clear()
        pool = CutPool(Q=inst.Q, basis=nullspace_basis(None, 2))
        pool.add(d0)
        solve_qcp(assemble_qcp(inst, pool))
        assert len(calls) == 1
        rows = calls[0][3]
        assert len(rows) > 0 and all(c.P is not None for c in rows)


class TestCutViolation:
    def test_hand_values(self):
        sol = RelaxationSolution(x=np.array([1.0, 2.0]),
                                 y=np.array([0.5, 4.0]),
                                 value=0.0, v=4.0, quad_value=5.0)
        assert abs(cut_violation(np.array([2.0, 0.0]), sol) - 2.0) <= 1e-12
        assert abs(cut_violation(np.zeros(2), sol) - 1.0) <= 1e-12

    def test_spectral_qp_is_one_cut_qcp(self):
        # d0 = mu * ones with mu > 0 puts every y of the one-cut QCP on its
        # secant, so the cut loop may start from the spectral QP instead
        checked = 0
        for family in ("boxqp", "binary_card", "eq_integer"):
            for seed in range(3):
                inst = generate_instance(family, 8, 0.8, 2201000 + seed)
                d0 = initial_perturbation(inst, select_alpha(inst).alpha)
                if d0 is None:
                    continue
                assert np.all(d0 > 0.0)
                pool = CutPool(Q=inst.Q, basis=nullspace_basis(inst.A, inst.n))
                pool.add(d0)
                qcp = solve_qcp(assemble_qcp(inst, pool))
                qp = solve_qp_child(inst, d0, (inst.lower, inst.upper))
                assert abs(qcp.value - qp.value) <= 1e-8 * max(1.0,
                                                               abs(qp.value))
                checked += 1
        assert checked >= 6


def _never_called(base, eta, config):
    raise AssertionError("the round separated")


class TestNextCut:
    @staticmethod
    def saddle_round(slack, gap):
        # a point at (0.5, 0.5) whose epigraph value sits gap below x'Qx
        inst = saddle_instance()
        red = ReducedProblem.build(inst, inst.lower, inst.upper)
        x = np.array([0.5, 0.5])
        quad = float(x @ inst.Q @ x)
        sol = RelaxationSolution(x=x, y=x ** 2 + np.asarray(slack), value=0.0,
                                 v=quad - gap, quad_value=quad)
        return red, select_alpha(inst).alpha, sol

    def test_near_exact_round_skips_the_solver(self):
        red, alpha, sol = self.saddle_round([1e-9, 0.0], 0.0)
        assert next_cut(red, alpha, sol, np.zeros(2), _never_called,
                        SeparationConfig()) is None

    def test_round_above_the_bound_separates(self):
        red, alpha, sol = self.saddle_round([0.3, 0.2], 1.0)
        calls = []

        def solver(base, eta, config):
            calls.append(base)
            return solve_smooth(base, eta, config)

        d = next_cut(red, alpha, sol, np.zeros(2), solver, SeparationConfig())
        assert d is not None and len(calls) == 1
        assert cut_violation(d, sol) > 1e-6

    @pytest.mark.parametrize("family,n,seed", [("eq_integer", 5, 4),
                                               ("boxqp", 8, 4)])
    def test_bound_covers_every_recorded_round(self, family, n, seed,
                                               monkeypatch):
        rounds = []
        real = relax.next_cut

        def record(*args):
            rounds.append(args)
            return real(*args)

        monkeypatch.setattr(relax, "next_cut", record)
        monkeypatch.setattr(bnb, "next_cut", record)
        bnb.solve(generate_instance(family, n, 0.8, seed),
                  bnb.BnbConfig(node_limit=150, max_nc=3))
        skipped = 0
        for red, alpha, sol, d_fill, solver, config in rounds:
            eta = eta_from_relaxation(sol.x[red.free], sol.y[red.free])
            if not eta.any():
                continue
            # what any d of {d : B + diag d psd} can violate sol by
            B = red.Qr + alpha * (red.Ar.T @ red.Ar)
            bound = sol.quad_value - sol.v + float(B.diagonal() @ eta)
            cfg = replace(config, rho0=rho_init(red.Qr, red.lower, red.upper))
            d = np.array(d_fill, dtype=float)
            d[red.free] = solver(B, eta, cfg).d
            scale = max(1.0, abs(sol.v))
            assert cut_violation(d, sol) <= bound + 1e-12 * scale
            skipped += bound <= 1e-6 * scale
        # some rounds had nonzero slacks but no cut to give
        assert skipped


class TestSurrogate:
    def test_weighted_average(self):
        pool = CutPool(Q=np.zeros((2, 2)), basis=nullspace_basis(None, 2))
        pool.add(np.zeros(2))
        pool.add(np.full(2, 4.0))
        pool.multipliers = np.array([1.0, 3.0])
        np.testing.assert_allclose(surrogate_root_perturbation(pool),
                                   np.full(2, 3.0), atol=1e-12)

    def test_degenerate_multipliers_take_largest(self):
        pool = CutPool(Q=np.zeros((2, 2)), basis=nullspace_basis(None, 2))
        pool.add(np.full(2, 1.0))
        pool.add(np.full(2, 7.0))
        pool.multipliers = np.array([1e-14, 5e-14])
        np.testing.assert_allclose(surrogate_root_perturbation(pool),
                                   np.full(2, 7.0))

    def test_no_multipliers_take_first(self):
        pool = CutPool(Q=np.zeros((2, 2)), basis=nullspace_basis(None, 2))
        pool.add(np.full(2, 2.0))
        pool.add(np.full(2, 9.0))
        np.testing.assert_allclose(surrogate_root_perturbation(pool),
                                   np.full(2, 2.0))

    def test_empty_pool_rejected(self):
        pool = CutPool(Q=np.zeros((2, 2)), basis=nullspace_basis(None, 2))
        with pytest.raises(ValueError, match="empty"):
            surrogate_root_perturbation(pool)

    def test_average_stays_certified(self):
        inst = random_instance(5, kinds=["interval"])
        sel = select_alpha(inst)
        res = cutting_surface(inst, sel.alpha, max_cuts=8)
        d = surrogate_root_perturbation(res.pool)
        Z = nullspace_basis(inst.A, inst.n)
        assert projected_min_eigenvalue(inst.Q + np.diag(d), Z) >= -1e-6


class TestCuttingSurface:
    def test_bound_chain_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            inst = random_instance(seed + 60)
            sel = select_alpha(inst)
            if initial_perturbation(inst, sel.alpha) is None:
                continue
            res = cutting_surface(inst, sel.alpha, max_cuts=10)
            h = res.bound_history
            assert len(h) == res.cuts_added + 1
            for a, b in zip(h, h[1:]):
                assert b >= a - 1e-9 * max(1.0, abs(a))
            assert res.bound >= res.initial_bound - 1e-9 * max(
                1.0, abs(res.initial_bound))
            # pool cuts stay convex on the nullspace
            Z = nullspace_basis(inst.A, inst.n)
            for d in res.pool.cuts:
                assert projected_min_eigenvalue(inst.Q + np.diag(d),
                                                Z) >= -1e-6
            # cuts never exclude admissible points
            for x in sample_feasible(inst, rng, 200):
                fx = float(x @ inst.Q @ x)
                y = x ** 2
                for d in res.pool.cuts:
                    lhs = float(x @ (inst.Q + np.diag(d)) @ x - d @ y)
                    assert fx >= lhs - 1e-8 * max(1.0, abs(fx))

    def test_secant_coordinates_stay_above_parabola(self, monkeypatch):
        # IPM roundoff puts some binary x a hair outside [0, 1], where the
        # secant y = x dips below x**2; the next separation then saw a
        # negative slack and raised.  Here the first epigraph solve has
        # x_18 = -1e-13, and the loop must separate at that point.
        solves = []
        solve = relax.solve_qcp

        def record(model):
            solves.append(solve(model))
            return solves[-1]

        monkeypatch.setattr(relax, "solve_qcp", record)
        inst = generate_instance("binary_card", 20, 0.8, 15046)
        res = cutting_surface(inst, select_alpha(inst).alpha, max_cuts=10,
                              mode="smooth")
        outside = [k for k, sol in enumerate(solves)
                   if np.any((sol.x < inst.lower) | (sol.x > inst.upper))]
        assert outside and outside[0] < res.cuts_added - 1
        for sol in solves:
            assert np.all(sol.y >= sol.x ** 2)

    def test_root_reduction_built_once(self, monkeypatch):
        builds = []
        build = ReducedProblem.build

        def record(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(ReducedProblem, "build", staticmethod(record))
        inst = random_instance(3, kinds=["interval"], max_m=0)
        res = cutting_surface(inst, 0.0, max_cuts=4)
        assert res.cuts_added >= 1
        assert len(builds) == 1

    def test_dropped_cut_keeps_last_multipliers(self, monkeypatch):
        # a cut whose epigraph QCP misses certification is dropped; the pool
        # must keep the last certified multipliers, or the surrogate falls
        # back to d0 unannounced (seen on binary_card n=20 seed 2106300,
        # whose third cut's QCP stalls)
        certified = []
        solve = relax.solve_qcp

        def stall_at_three_cuts(model):
            if len(model.constraints) == 3:
                raise SolveFailure("forced")
            certified.append(solve(model))
            return certified[-1]

        monkeypatch.setattr(relax, "solve_qcp", stall_at_three_cuts)
        inst = generate_instance("binary_card", 12, 0.8, 7)
        with pytest.warns(UserWarning, match="not certified"):
            res = cutting_surface(inst, select_alpha(inst).alpha, max_cuts=4)
        assert res.cuts_added == 1 and len(res.pool) == 2
        assert res.solution is certified[-1]
        nu = certified[-1].cut_multipliers
        np.testing.assert_array_equal(res.pool.multipliers, nu)
        np.testing.assert_allclose(
            surrogate_root_perturbation(res.pool),
            (nu[0] * res.pool.cuts[0] + nu[1] * res.pool.cuts[1]) / nu.sum())

    def test_zero_budget_returns_initial_bound(self):
        inst = saddle_instance()
        sel = select_alpha(inst)
        res = cutting_surface(inst, sel.alpha, max_cuts=0)
        assert res.cuts_added == 0
        assert abs(res.bound - res.initial_bound) <= 1e-6 * max(
            1.0, abs(res.initial_bound))

    def test_convex_instance_rejected(self):
        inst = MiqpInstance.from_arrays(np.eye(2), np.zeros(2), None, None,
                                        interval_box(2))
        with pytest.raises(ValueError, match="convex"):
            cutting_surface(inst, 0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            cutting_surface(saddle_instance(), 1.0, mode="steepest")

    def test_nonsmooth_mode_runs(self):
        inst = random_instance(2, kinds=["interval"], max_m=0)
        res = cutting_surface(inst, 0.0, max_cuts=6, mode="nonsmooth")
        assert res.bound >= res.initial_bound - 1e-9 * max(
            1.0, abs(res.initial_bound))


class TestReducedProblem:
    def test_integer_tightening(self):
        inst = MiqpInstance.from_arrays(
            np.eye(2), np.zeros(2), None, None,
            [VariableDomain("integer_range", -2.0, 3.0),
             VariableDomain("interval", 0.0, 1.0)])
        red = ReducedProblem.build(inst, np.array([-0.5, 0.0]),
                                   np.array([2.2, 1.0]))
        assert red.lower[0] == 0.0 and red.upper[0] == 2.0

    def test_two_point_collapse_fixes_variable(self):
        inst = MiqpInstance.from_arrays(
            np.eye(2), np.zeros(2), None, None,
            [VariableDomain("two_point", -1.0, 2.0),
             VariableDomain("interval", 0.0, 1.0)])
        red = ReducedProblem.build(inst, np.array([0.0, 0.0]),
                                   np.array([3.0, 1.0]))
        assert red.fixed.tolist() == [0]
        assert red.fixed_values[0] == 2.0

    def test_fixed_elimination_preserves_objective(self):
        rng = np.random.default_rng(4)
        inst = random_instance(31, kinds=["interval", "binary"], max_m=0)
        lower = inst.lower.copy()
        upper = inst.upper.copy()
        # pin the first binary coordinate if any, else shrink an interval
        fix_at = None
        for i, dom in enumerate(inst.domains):
            if dom.kind == "binary":
                lower[i] = upper[i] = 1.0
                fix_at = i
                break
        if fix_at is None:
            lower[0] = upper[0] = 0.5
            fix_at = 0
        red = ReducedProblem.build(inst, lower, upper)
        assert fix_at in red.fixed.tolist()
        xf = rng.uniform(red.lower, red.upper)
        x = red.expand_x(xf)
        direct = float(x @ inst.Q @ x + inst.q @ x)
        reduced = float(xf @ red.Qr @ xf + red.qr @ xf) + red.const
        assert abs(direct - reduced) <= 1e-10 * max(1.0, abs(direct))

    def test_empty_binary_slice(self):
        inst = MiqpInstance.from_arrays(
            np.eye(1), np.zeros(1), None, None,
            [VariableDomain("binary", 0.0, 1.0)])
        with pytest.raises(InfeasibleRelaxation):
            ReducedProblem.build(inst, np.array([0.2]), np.array([0.8]))

    def test_equality_pinned_outside_box(self):
        inst = MiqpInstance.from_arrays(
            np.eye(2), np.zeros(2),
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([5.0, 5.0]),
            interval_box(2))
        # all variables fixed with Ax != b: every row reduces to 0 = b_r
        fixed = MiqpInstance.from_arrays(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]),
            [VariableDomain("binary", 0.0, 1.0)] * 2)
        for inst, lower, upper in ((inst, inst.lower, inst.upper),
                                   (fixed, np.ones(2), np.ones(2))):
            with pytest.raises(InfeasibleRelaxation):
                ReducedProblem.build(inst, lower, upper)


def recorded_node_boxes(family, n, seed, monkeypatch):
    """The instance and every node box a short search reduces."""
    inst = generate_instance(family, n, 0.8, seed)
    boxes = []
    build = ReducedProblem.build

    def record(instance, lower, upper, **kwargs):
        boxes.append((np.array(lower, dtype=float),
                      np.array(upper, dtype=float)))
        return build(instance, lower, upper, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(ReducedProblem, "build", staticmethod(record))
        bnb.solve(inst, bnb.BnbConfig(node_limit=40, max_nc=3))
    return inst, boxes


def build_outcome(inst, lower, upper, structures=None):
    """The reduction's fields as bytes, or the InfeasibleRelaxation message."""
    try:
        red = ReducedProblem.build(inst, lower, upper, structures=structures)
    except InfeasibleRelaxation as exc:
        return str(exc)
    arrays = (red.free, red.fixed, red.fixed_values, red.lower, red.upper,
              red.Qr, red.qr, red.Ar, red.br, red.basis.Z, red.x_hat,
              *relax._box_rows(red, red.basis.dim))
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            red.const, red.quad_fixed)


class TestFreeSetStructures:
    @pytest.mark.parametrize("family,n,seed", [("eq_integer", 8, 1001),
                                               ("binary_card", 16, 1002)])
    def test_cached_build_matches_fresh(self, family, n, seed, monkeypatch):
        inst, boxes = recorded_node_boxes(family, n, seed, monkeypatch)
        structures = {}
        for lower, upper in boxes:
            assert build_outcome(inst, lower, upper, structures) \
                == build_outcome(inst, lower, upper)
        # many nodes share a free set, so most builds read a cached entry
        assert len(structures) < len(boxes)

    def test_second_box_reuses_the_entry(self):
        # x0 fixed at -3 and at 2: one free set, different fixed terms
        inst = generate_instance("eq_integer", 8, 0.8, 1001)
        structures = {}
        reds = []
        for value in (-3.0, 2.0):
            lower, upper = inst.lower.copy(), inst.upper.copy()
            lower[0] = upper[0] = value
            assert build_outcome(inst, lower, upper, structures) \
                == build_outcome(inst, lower, upper)
            reds.append(ReducedProblem.build(inst, lower, upper,
                                             structures=structures))
        (entry,) = structures.values()
        assert reds[0].structure is entry and reds[1].structure is entry
        assert reds[0].br.tobytes() != reds[1].br.tobytes()

    @pytest.mark.parametrize("A,b,fix,message", [
        # x0 fixed at 2: row 0 reads 0 = -1
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 2.0], (0, 2.0),
         "equality row 0 reduces to 0 = -1.000e+00"),
        # x2 fixed at 2: both rows read x0 + x1, with right sides 2 and 1
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]], [2.0, 3.0], (2, 2.0),
         "dependent equality rows are inconsistent"),
        # rows independent to 1e-10 but too close for a 1e-8 residual
        ([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-9, 0.0]], [0.0, 1.0], (2, 0.0),
         "equality system has no solution"),
    ])
    def test_infeasible_paths_raise_alike(self, A, b, fix, message):
        inst = MiqpInstance.from_arrays(
            -np.eye(3), np.zeros(3), np.array(A), np.array(b),
            [VariableDomain("integer_range", 0.0, 3.0)] * 3)
        lower, upper = inst.lower.copy(), inst.upper.copy()
        i, value = fix
        lower[i] = upper[i] = value
        fresh = build_outcome(inst, lower, upper)
        assert isinstance(fresh, str) and fresh.startswith(message)
        structures = {}
        # the first cached build derives the entry, the second reads it
        assert build_outcome(inst, lower, upper, structures) == fresh
        assert build_outcome(inst, lower, upper, structures) == fresh
        assert len(structures) == 1

    def test_shared_arrays_are_read_only(self):
        inst = generate_instance("eq_integer", 8, 0.8, 1001)
        red = ReducedProblem.build(inst, inst.lower, inst.upper,
                                   structures={})
        for arr in (red.Qr, red.Ar, red.structure.A_kept, red.basis.Z,
                    red.structure.box_G):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_gate_eigenvalue_is_computed_once(self, monkeypatch):
        calls = []
        eig = relax.projected_min_eigenvalue

        def counting(M, basis):
            calls.append(1)
            return eig(M, basis)

        monkeypatch.setattr(relax, "projected_min_eigenvalue", counting)
        inst = generate_instance("eq_integer", 8, 0.8, 1001)
        structures = {}
        values = [ReducedProblem.build(inst, inst.lower, inst.upper,
                                       structures=structures)
                  .structure.nullspace_min_eigenvalue for _ in range(3)]
        assert len(calls) == 1 and len(set(values)) == 1
        red = ReducedProblem.build(inst, inst.lower, inst.upper)
        assert values[0] == eig(red.Qr, red.basis)
