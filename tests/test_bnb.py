"""Branch-and-bound: examples, oracle agreement, and node mechanics."""

import numpy as np
import pytest
from scipy import optimize

from quadrelax import bnb
from quadrelax.bnb import (
    BnbConfig,
    Node,
    _repair,
    bound_node,
    branch,
    brute_force_oracle,
    solve,
)
from quadrelax.cli import generate_instance, main
from quadrelax.model import (
    MiqpInstance,
    VariableDomain,
    evaluate_objective,
    is_feasible,
    save_instance,
)
from quadrelax.relax import (
    InfeasibleRelaxation,
    RelaxationSolution,
    SolveFailure,
    select_alpha,
    solve_qp_child,
)


def make(Q, q, A, b, domains):
    return MiqpInstance.from_arrays(Q, q, A, b, domains)


def binaries(n):
    return [VariableDomain("binary", 0.0, 1.0) for _ in range(n)]


def intervals(n, lo=0.0, hi=1.0):
    return [VariableDomain("interval", lo, hi) for _ in range(n)]


def saddle_binary():
    # indefinite 2x2 with binary variables; optimum -1 at (1,0)/(0,1)
    return make([[0.0, 2.0], [2.0, 0.0]], [-1.0, -1.0], None, None,
                binaries(2))


def root_node(inst, d=None, lb=-np.inf):
    dd = np.zeros(inst.n) if d is None else np.asarray(d, dtype=float)
    return Node(inst.lower.copy(), inst.upper.copy(), dd, lb, 0)


def fake_sol(x, y):
    x = np.asarray(x, dtype=float)
    return RelaxationSolution(x=x, y=np.asarray(y, dtype=float), value=0.0,
                              v=0.0)


def rand_discrete(seed, n_lo=3, n_hi=9):
    """Feasible random instance over binary/two_point/integer_range vars.

    Draws whose admissible set exceeds the enumeration oracle's cap are
    redrawn from a shifted seed, deterministically.
    """
    for attempt in range(100):
        rng = np.random.default_rng(seed + 1_000_000 * attempt)
        n = int(rng.integers(n_lo, n_hi))
        Q = rng.uniform(-5.0, 5.0, (n, n))
        Q = 0.5 * (Q + Q.T)
        q = rng.uniform(-3.0, 3.0, n)
        doms = []
        for _ in range(n):
            kind = rng.choice(["binary", "two_point", "integer_range"])
            if kind == "binary":
                doms.append(VariableDomain("binary", 0.0, 1.0))
            elif kind == "two_point":
                doms.append(VariableDomain("two_point", -1.0, 2.0))
            else:
                doms.append(VariableDomain("integer_range", -2.0, 2.0))
        count = 1
        for d in doms:
            count *= 5 if d.kind == "integer_range" else 2
        if count > 1 << 20:
            continue
        m = int(rng.integers(0, 3))
        A = b = None
        if m:
            A = rng.uniform(-2.0, 2.0, (m, n))
            x0 = np.array([d.nearest_point(rng.uniform(d.L, d.U))
                           for d in doms])
            b = A @ x0
        return make(Q, q, A, b, doms)
    raise RuntimeError("sampler failed to produce an enumerable instance")


class TestExamples:
    def test_binary_saddle(self):
        rep = solve(saddle_binary())
        assert rep.status == "optimal"
        assert rep.upper_bound == pytest.approx(-1.0, abs=1e-8)
        assert rep.lower_bound == pytest.approx(-1.0, abs=1e-6)
        assert is_feasible(saddle_binary(), rep.best_point)
        assert rep.node_count >= 1

    def test_convex_single_node(self):
        inst = make(np.diag([2.0, 3.0]), [-2.0, -3.0], None, None,
                    intervals(2))
        rep = solve(inst)
        assert rep.status == "optimal"
        assert rep.node_count == 1
        assert rep.upper_bound == pytest.approx(-1.25, abs=1e-7)
        assert rep.root_cuts == 0

    def test_all_fixed_nonconvex(self):
        # point domains under a nonconvex Q: the root cut loop bounds the
        # point instead of calling the root empty
        inst = make([[0.0, 2.0], [2.0, -1.0]], [0.0, 0.0], None, None,
                    intervals(2, 1.0, 1.0))
        rep = solve(inst)
        assert rep.status == "optimal"
        assert rep.upper_bound == pytest.approx(3.0, abs=1e-12)
        assert rep.lower_bound == pytest.approx(3.0, abs=1e-12)

    def test_infeasible_rows(self):
        inst = make(np.eye(2), [0.0, 0.0], [[1.0, 1.0]], [5.0], binaries(2))
        rep = solve(inst)
        assert rep.status == "infeasible"
        assert rep.lower_bound == np.inf and rep.upper_bound == np.inf
        assert rep.best_point is None

    def test_cardinality(self):
        Q = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        inst = make(Q, [0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]], [1.0],
                    binaries(3))
        rep = solve(inst)
        assert rep.status == "optimal"
        assert rep.upper_bound == pytest.approx(-1.0, abs=1e-8)
        assert rep.best_point[2] == pytest.approx(1.0, abs=1e-9)

    def test_report_invariants(self):
        rep = solve(saddle_binary())
        assert rep.lower_bound <= rep.upper_bound + 1e-9
        assert rep.relative_gap >= 0.0
        assert rep.max_stored >= 0
        assert rep.wall_time >= 0.0
        assert rep.root_bound is not None
        assert rep.root_bound <= rep.upper_bound + 1e-9


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(25))
    def test_discrete_families(self, seed):
        inst = rand_discrete(seed)
        opt = brute_force_oracle(inst)
        rep = solve(inst, BnbConfig(time_limit=60.0))
        scale = max(1.0, abs(opt))
        assert rep.status == "optimal"
        assert abs(rep.upper_bound - opt) <= 1e-6 * scale
        assert rep.lower_bound <= opt + 1e-6 * scale
        assert is_feasible(inst, rep.best_point)
        assert evaluate_objective(inst, rep.best_point) == pytest.approx(
            rep.upper_bound, abs=1e-9)

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_continuous_nonconvex(self, seed):
        rng = np.random.default_rng(seed)
        Q = rng.uniform(-4.0, 4.0, (3, 3))
        Q = 0.5 * (Q + Q.T)
        Q = Q - (np.linalg.eigvalsh(Q)[0] + 1.0) * np.eye(3)  # force indefinite
        q = rng.uniform(-2.0, 2.0, 3)
        inst = make(Q, q, None, None, intervals(3, -1.0, 1.0))
        opt = brute_force_oracle(inst)
        rep = solve(inst, BnbConfig(time_limit=60.0, rel_tol=1e-7))
        assert rep.status == "optimal"
        assert rep.upper_bound <= opt + 1e-5 * max(1.0, abs(opt))
        assert rep.lower_bound <= rep.upper_bound + 1e-9


def with_point_domain(inst, dom, b=None):
    """inst with domain 0 replaced by dom (and b, when given)."""
    doms = list(inst.domains)
    doms[0] = dom
    return make(inst.Q, inst.q, inst.A, inst.b if b is None else b, doms)


def pinned_boxqp():
    # the point domain keeps Q nonconvex only off the free variables' space:
    # the root cut pool must be certified on the root reduction
    return with_point_domain(generate_instance("boxqp", 3, 0.8, 7),
                             VariableDomain("interval", 1.0, 1.0))


class TestPointDomains:
    # a domain with L == U fixes its variable at the root; the root gate and
    # the cut pool decide convexity on the reduced space, as every node does

    def test_root_cuts_on_the_reduction(self):
        inst = pinned_boxqp()
        rep = solve(inst)
        assert rep.status == "optimal"
        assert rep.root_cuts == 1
        assert rep.upper_bound == pytest.approx(-20.970816, abs=1e-6)
        assert rep.upper_bound == pytest.approx(brute_force_oracle(inst),
                                                abs=1e-6)
        assert rep.lower_bound <= rep.upper_bound

    def test_root_convex_on_the_reduction(self):
        inst = with_point_domain(generate_instance("boxqp", 2, 0.8, 3),
                                 VariableDomain("interval", 0.0, 0.0))
        rep = solve(inst)
        assert rep.status == "optimal"
        assert rep.root_cuts == 0
        assert rep.upper_bound == pytest.approx(-0.384293, abs=1e-6)
        assert rep.upper_bound == pytest.approx(brute_force_oracle(inst),
                                                abs=1e-6)

    def test_fixed_integer_with_rows(self):
        base = generate_instance("eq_integer", 6, 0.8, 1)
        inst = with_point_domain(base,
                                 VariableDomain("integer_range", 0.0, 0.0),
                                 b=np.zeros(base.m))
        rep = solve(inst)
        opt = brute_force_oracle(inst)
        assert rep.status == "optimal"
        assert rep.upper_bound == pytest.approx(opt, abs=1e-9)
        assert is_feasible(inst, rep.best_point)

    def test_cli_solve_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "pinned.json"
        save_instance(pinned_boxqp(), f)
        assert main(["solve", str(f)]) == 0
        assert "status        optimal" in capsys.readouterr().out


class TestUncertifiedRoot:
    def test_search_continues_to_oracle_optimum(self, monkeypatch):
        # an uncertified root cut loop leaves an infinite lower bound, which
        # must not close the gap before any incumbent exists
        inst = generate_instance("eq_integer", 5, 0.8, 101003)
        cfg = BnbConfig(max_nc=3, node_limit=150)
        # unpatched, the root certifies; the failure below is forced
        assert np.isfinite(solve(inst, cfg).root_bound)

        def uncertified(*args, **kwargs):
            raise SolveFailure("forced")

        monkeypatch.setattr(bnb, "cutting_surface", uncertified)
        rep = solve(inst, cfg)
        opt = brute_force_oracle(inst)
        assert rep.root_bound is None
        assert rep.status == "optimal"
        assert rep.upper_bound == pytest.approx(opt, rel=1e-9)
        assert is_feasible(inst, rep.best_point)


class TestLimits:
    def test_node_limit(self):
        inst = saddle_binary()
        rep = solve(inst, BnbConfig(node_limit=1))
        assert rep.status == "node_limit"
        assert rep.node_count == 1
        assert rep.lower_bound <= -1.0 + 1e-6  # root bound is still valid

    def test_time_limit(self):
        inst = rand_discrete(7, n_lo=8, n_hi=9)
        rep = solve(inst, BnbConfig(time_limit=0.0))
        assert rep.status == "time_limit"
        assert rep.lower_bound <= rep.upper_bound + 1e-9


class TestConfig:
    def test_unknown_sep_mode_rejected(self):
        # rejected before any solve, even where no cut loop would run
        with pytest.raises(ValueError, match="smoth"):
            BnbConfig(sep_mode="smoth")
        assert BnbConfig(sep_mode="nonsmooth").sep_mode == "nonsmooth"


class TestBranch:
    def test_eta_tie_lowest_index(self):
        inst = saddle_binary()
        kids = branch(inst, root_node(inst), fake_sol([0.5, 0.5], [0.5, 0.5]))
        assert len(kids) == 2
        fixed = sorted((k.lower[0], k.upper[0]) for k in kids)
        assert fixed == [(0.0, 0.0), (1.0, 1.0)]
        for k in kids:
            assert k.lower[1] == 0.0 and k.upper[1] == 1.0
            assert k.depth == 1

    def test_interval_clamp(self):
        inst = make(np.eye(1), [0.0], None, None, intervals(1))
        x = np.array([0.99])
        kids = branch(inst, root_node(inst), fake_sol(x, x ** 2 + 1.0))
        split = sorted((k.lower[0], k.upper[0]) for k in kids)
        assert split == [(0.0, pytest.approx(0.9)),
                         (pytest.approx(0.9), 1.0)]

    def test_integer_split(self):
        dom = [VariableDomain("integer_range", -2.0, 2.0)]
        inst = make(np.eye(1), [0.0], None, None, dom)
        kids = branch(inst, root_node(inst),
                      fake_sol([0.4], [0.4 ** 2 + 1.0]))
        split = sorted((k.lower[0], k.upper[0]) for k in kids)
        assert split == [(-2.0, 0.0), (1.0, 2.0)]

    def test_integer_split_clamped_at_edge(self):
        dom = [VariableDomain("integer_range", -2.0, 2.0)]
        inst = make(np.eye(1), [0.0], None, None, dom)
        kids = branch(inst, root_node(inst), fake_sol([2.0], [5.0]))
        split = sorted((k.lower[0], k.upper[0]) for k in kids)
        assert split == [(-2.0, 1.0), (2.0, 2.0)]

    def test_two_point_fixing(self):
        dom = [VariableDomain("two_point", -1.0, 2.0)]
        inst = make(np.eye(1), [0.0], None, None, dom)
        kids = branch(inst, root_node(inst), fake_sol([0.5], [1.25]))
        assert sorted((k.lower[0], k.upper[0]) for k in kids) == [
            (-1.0, -1.0), (2.0, 2.0)]

    def test_off_point_discrete_branch(self):
        # hull gaps are zero but the binary sits at 0.4: still branch it
        inst = saddle_binary()
        kids = branch(inst, root_node(inst),
                      fake_sol([0.4, 0.0], [0.16, 0.0]))
        assert len(kids) == 2
        assert {(k.lower[0], k.upper[0]) for k in kids} == {(0.0, 0.0),
                                                            (1.0, 1.0)}

    def test_fathom_when_exact(self):
        inst = saddle_binary()
        assert branch(inst, root_node(inst),
                      fake_sol([1.0, 0.0], [1.0, 0.0])) == []

    def test_fixed_vars_not_rebranched(self):
        inst = saddle_binary()
        node = root_node(inst)
        node.lower[0] = node.upper[0] = 1.0
        kids = branch(inst, node, fake_sol([1.0, 0.5], [1.0, 0.5]))
        for k in kids:
            assert k.lower[0] == k.upper[0] == 1.0


class TestBoundNode:
    def test_fold_small_slice_is_exact(self):
        Q = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        inst = make(Q, [0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]], [1.0],
                    binaries(3))
        sel = select_alpha(inst)
        nb = bound_node(inst, root_node(inst), sel.alpha, separate=False)
        assert nb.exact
        assert nb.lb == pytest.approx(brute_force_oracle(inst), abs=1e-12)
        assert nb.solution is not None
        assert is_feasible(inst, nb.solution.x)

    def test_fully_fixed_node(self):
        inst = saddle_binary()
        node = root_node(inst)
        node.lower[:] = [1.0, 0.0]
        node.upper[:] = [1.0, 0.0]
        nb = bound_node(inst, node, 0.0, separate=False)
        assert nb.exact
        assert nb.lb == pytest.approx(-1.0, abs=1e-10)

    def test_rows_pin_every_free_coordinate(self):
        # x2 is fixed by the node box and the two rows pin x0 and x1, so the
        # node is the one point x_hat and its bound is the objective there
        inst = make([[0.0, 2.0, 1.0], [2.0, -1.0, 0.0], [1.0, 0.0, -2.0]],
                    [0.5, -1.0, 0.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                    [1.2, -0.2], intervals(3))
        lower, upper = inst.lower.copy(), inst.upper.copy()
        lower[2] = upper[2] = 0.4
        sol = solve_qp_child(inst, np.zeros(3), (lower, upper))
        np.testing.assert_allclose(sol.x, [0.3, 0.5, 0.4], atol=1e-12)
        assert sol.value == pytest.approx(evaluate_objective(inst, sol.x),
                                          abs=1e-12)

    def test_convex_shortcut(self):
        inst = make(np.diag([2.0, 3.0]), [-2.0, -3.0], None, None,
                    intervals(2))
        node = root_node(inst, d=[5.0, 5.0])
        nb = bound_node(inst, node, 0.0, separate=True)
        assert nb.convex
        assert nb.lb == pytest.approx(-1.25, abs=1e-7)
        # children keep the inherited perturbation even on the d=0 solve
        assert np.array_equal(nb.d_pass, node.d)

    def test_prune_at_skips_separation(self):
        # a bound past the cutoff is good enough as-is: d must not change
        inst = make(np.array([[0.0, 3.0], [3.0, -1.0]]), [0.5, -0.5],
                    None, None,
                    intervals(2, -1.0, 1.0))
        mu = -np.linalg.eigvalsh(inst.Q)[0]
        node = root_node(inst, d=np.full(2, mu))
        nb = bound_node(inst, node, 0.0, separate=True, prune_at=-np.inf)
        assert np.array_equal(nb.d_pass, node.d)

    def test_bound_below_optimum(self):
        for seed in range(5):
            inst = rand_discrete(seed, n_lo=3, n_hi=6)
            sel = select_alpha(inst)
            d = np.full(inst.n, max(0.0, -np.linalg.eigvalsh(inst.Q)[0]))
            nb = bound_node(inst, root_node(inst, d=d), sel.alpha,
                            separate=False)
            assert nb.lb <= brute_force_oracle(inst) + 1e-7


class TestRepair:
    # x0 integer in [-3, 3], x1 continuous in [0, 5] and x0 + x1 = 2.5: a
    # snapped point misses the row, so the completion LP runs
    @staticmethod
    def mixed():
        return make([[1.0, 0.5], [0.5, -1.0]], [0.0, 0.0], [[1.0, 1.0]],
                    [2.5], [VariableDomain("integer_range", -3.0, 3.0),
                            VariableDomain("interval", 0.0, 5.0)])

    def test_completion_restores_the_row(self):
        inst = self.mixed()
        assert _repair(inst, np.array([0.0, 2.1])) == pytest.approx(
            [0.0, 2.5], abs=1e-12)
        # x1 would have to be -0.5
        assert _repair(inst, np.array([3.0, 2.1])) is None

    def test_search_reaches_the_completion(self, monkeypatch):
        calls = []
        linprog = optimize.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(optimize, "linprog", counting)
        rep = solve(self.mixed())
        # on the row, f = -x0**2 + 7.5 x0 - 6.25 over x0 in {-2, ..., 2}
        assert rep.status == "optimal"
        assert rep.upper_bound == pytest.approx(-25.25, abs=1e-9)
        assert rep.best_point == pytest.approx([-2.0, 4.5], abs=1e-9)
        assert calls


class TestBruteForce:
    def test_single_point(self):
        inst = make([[3.0]], [2.0], [[1.0]], [1.0], binaries(1))
        assert brute_force_oracle(inst) == pytest.approx(5.0)

    def test_cardinality_filter(self):
        Q = np.diag([1.0, 2.0, 3.0])
        inst = make(Q, [0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]], [2.0],
                    binaries(3))
        assert brute_force_oracle(inst) == pytest.approx(3.0)  # x=(1,1,0)

    def test_enumeration_cap(self):
        n = 21
        inst = make(np.eye(n), np.zeros(n), None, None, binaries(n))
        with pytest.raises(ValueError):
            brute_force_oracle(inst)

    def test_continuous_grid(self):
        inst = make(np.eye(2), [-1.0, -1.0], None, None, intervals(2))
        assert brute_force_oracle(inst) == pytest.approx(-0.5, abs=1e-6)

    def test_mixed_rejected(self):
        doms = [VariableDomain("binary", 0.0, 1.0),
                VariableDomain("interval", 0.0, 1.0)]
        inst = make(np.eye(2), [0.0, 0.0], None, None, doms)
        with pytest.raises(ValueError):
            brute_force_oracle(inst)

    def test_constrained_continuous_rejected(self):
        inst = make(np.eye(2), [0.0, 0.0], [[1.0, 1.0]], [1.0],
                    intervals(2))
        with pytest.raises(ValueError):
            brute_force_oracle(inst)

    def test_infeasible_filter(self):
        inst = make(np.eye(2), [0.0, 0.0], [[1.0, 1.0]], [5.0], binaries(2))
        with pytest.raises(ValueError):
            brute_force_oracle(inst)


class TestMonotonicity:
    def test_child_bounds_dominate_parent(self):
        inst = rand_discrete(3, n_lo=4, n_hi=7)
        sel = select_alpha(inst)
        d = np.full(inst.n, max(0.0, -np.linalg.eigvalsh(inst.Q)[0]))
        parent = root_node(inst, d=d)
        nb = bound_node(inst, parent, sel.alpha, separate=False)
        parent.lb = nb.lb
        parent.d = nb.d_pass
        if nb.solution is None or nb.exact:
            pytest.skip("parent folded or uncertified")
        for child in branch(inst, parent, nb.solution):
            try:
                cb = bound_node(inst, child, sel.alpha, separate=False)
            except InfeasibleRelaxation:
                continue  # empty slice: fathomed, trivially consistent
            assert max(cb.lb, parent.lb) >= parent.lb
