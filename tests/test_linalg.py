"""Eigenvalue, nullspace, feasibility, and Cholesky kernels."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from quadrelax import linalg
from quadrelax.linalg import (
    box_rows_disjoint,
    cholesky_factor,
    cholesky_solve,
    independent_rows,
    min_eigenvalue,
    min_generalized_eigenvalue,
    nullspace_basis,
    projected_min_eigenvalue,
)


class TestNullspace:
    def test_empty_system_gives_identity(self):
        basis = nullspace_basis(None, n=3)
        assert np.array_equal(basis.Z, np.eye(3))
        assert basis.dim == 3

    def test_single_row(self):
        basis = nullspace_basis([[1.0, 1.0]])
        assert basis.dim == 1
        z = basis.Z[:, 0]
        assert abs(z @ [1.0, 1.0]) < 1e-12
        assert abs(np.linalg.norm(z) - 1.0) < 1e-12

    def test_invariants_on_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, n = rng.integers(1, 5), rng.integers(5, 12)
            A = rng.normal(size=(m, n)) * rng.choice([1.0, 1e3, 1e-3])
            basis = nullspace_basis(A)
            assert basis.dim >= n - m
            if basis.dim:
                assert np.abs(A @ basis.Z).max() <= 1e-10 * max(1.0, np.abs(A).max())
                assert np.abs(basis.Z.T @ basis.Z - np.eye(basis.dim)).max() <= 1e-10

    def test_full_column_rank_gives_empty_basis(self):
        basis = nullspace_basis(np.eye(3))
        assert basis.dim == 0


class TestIndependentRows:
    def test_full_rank_keeps_every_row(self):
        kept, dropped = independent_rows(np.array([[1.0, 0.0, 1.0],
                                                   [0.0, 1.0, 1.0]]), 1e-10)
        assert (kept, dropped) == ([0, 1], [])

    def test_dependent_row_dropped(self):
        A = np.array([[1.0, 2.0, 0.0],
                      [2.0, 4.0, 0.0],
                      [0.0, 1.0, 1.0]])
        kept, dropped = independent_rows(A, 1e-10)
        assert len(kept) == 2 and len(dropped) == 1
        assert sorted(kept + dropped) == [0, 1, 2]
        assert dropped[0] in (0, 1)
        assert np.linalg.matrix_rank(A[kept]) == 2

    def test_more_rows_than_columns(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        kept, dropped = independent_rows(A, 1e-10)
        assert len(kept) == 2 and len(dropped) == 1

    def test_threshold_scales_with_leading_pivot(self):
        # a second row off the first by 1e-9 counts at tol 1e-12 only
        A = np.array([[1.0, 0.0], [1.0, 1e-9]])
        assert independent_rows(A, 1e-12)[1] == []
        assert len(independent_rows(A, 1e-8)[1]) == 1


def highs_disjoint(A, b, lower, upper):
    """The feasibility LP the node reduction used to solve with HiGHS."""
    res = scipy.optimize.linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b,
                                 bounds=list(zip(lower, upper)),
                                 method="highs")
    assert res.status in (0, 2)
    return res.status == 2


def random_system(rng, m, n, kind):
    """A seeded (A, b, lower, upper) of the given kind, and whether it is
    known to be non-empty (False), empty (True) or neither (None)."""
    A = rng.normal(size=(m, n))
    lower = rng.uniform(-3.0, 1.0, n)
    upper = lower + rng.uniform(0.1, 4.0, n)
    if kind == "interior":
        return A, A @ rng.uniform(lower, upper), lower, upper, False
    if kind == "vertex":
        v = np.where(rng.random(n) < 0.5, lower, upper)
        return A, A @ v, lower, upper, False
    if kind == "parallel":
        if n >= 3:
            A[:, 1] = 2.5 * A[:, 0]
            A[:, 2] = 0.0
        return A, A @ rng.uniform(lower - 2.0, upper + 2.0), lower, upper, None
    if kind == "wide":
        return A, A @ rng.uniform(lower - 2.0, upper + 2.0), lower, upper, None
    # b pushed outside A(box) along w: w'b exceeds max w'Ax over the box
    rel = {"outside_1e-6": 1e-6, "outside_1e-2": 1e-2}[kind]
    w = rng.normal(size=m)
    v = np.where(A.T @ w > 0.0, upper, lower)
    Av = A @ v
    b = Av + rel * max(1.0, np.abs(Av).max()) * w / np.linalg.norm(w)
    return A, b, lower, upper, True


class TestBoxRowsDisjoint:
    KINDS = ("interior", "vertex", "parallel", "wide", "outside_1e-6",
             "outside_1e-2")

    def test_agrees_with_highs_on_seeded_systems(self):
        rng = np.random.default_rng(20260)
        decided = {True: 0, False: 0}
        for m in range(1, 8):
            for _ in range(12):
                n = int(rng.integers(1, 31))
                for kind in self.KINDS:
                    A, b, lower, upper, known = random_system(rng, m, n, kind)
                    empty = box_rows_disjoint(A, b, lower, upper)
                    assert empty == highs_disjoint(A, b, lower, upper), \
                        (m, n, kind)
                    assert known is None or empty == known, (m, n, kind)
                    decided[empty] += 1
        assert min(decided.values()) > 100

    def test_square_touching_line_at_a_corner(self):
        # x1 + x2 = 2, x3 = 1 meets the unit cube only at (1, 1, 1)
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        lower, upper = np.zeros(3), np.ones(3)
        assert not box_rows_disjoint(A, [2.0, 1.0], lower, upper)
        assert box_rows_disjoint(A, [2.0 + 1e-6, 1.0], lower, upper)
        assert not box_rows_disjoint(A, [2.0 - 1e-6, 1.0], lower, upper)

    def test_row_at_row_hi(self):
        # row 1 sits at row_hi = 3, reached only at (1, 1, 1); there row 2
        # reads 0, so each row passes the interval test alone
        A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        lower, upper = np.zeros(3), np.ones(3)
        assert box_rows_disjoint(A, [3.0, 0.5], lower, upper)
        assert not box_rows_disjoint(A, [3.0, 0.0], lower, upper)
        assert not box_rows_disjoint(A, [2.5, 0.5], lower, upper)

    def test_no_rows_and_fixed_columns(self):
        assert not box_rows_disjoint(np.zeros((0, 2)), [], [0.0, 0.0],
                                     [1.0, 1.0])
        A = np.array([[1.0, 1.0]])
        assert not box_rows_disjoint(A, [1.5], [1.0, 0.5], [1.0, 0.5])
        assert box_rows_disjoint(A, [1.6], [1.0, 0.5], [1.0, 0.5])

    @pytest.mark.parametrize("bad", ["A", "b", "lower", "upper"])
    def test_non_finite_input_raises(self, bad):
        args = {"A": np.eye(2), "b": np.ones(2), "lower": np.zeros(2),
                "upper": np.full(2, 2.0)}
        args[bad] = args[bad].copy()
        args[bad].flat[0] = np.nan if bad in ("A", "lower") else np.inf
        with pytest.raises(ValueError, match="finite"):
            box_rows_disjoint(**args)

    def test_shape_and_bound_order_checked(self):
        with pytest.raises(ValueError, match="shape"):
            box_rows_disjoint(np.eye(2), np.ones(3), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="above"):
            box_rows_disjoint(np.eye(2), np.ones(2), np.ones(2), np.zeros(2))

    def test_guard_exit_is_not_proven_empty(self, monkeypatch):
        # a simplex stopped by its pivot cap never reports an empty set
        A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        lower, upper = np.zeros(3), np.ones(3)
        assert box_rows_disjoint(A, [3.0, 0.5], lower, upper)
        monkeypatch.setattr(linalg, "_PHASE1_PIVOTS", 0)
        assert not box_rows_disjoint(A, [3.0, 0.5], lower, upper)
        rng = np.random.default_rng(7)
        for m in range(1, 8):
            A, b, lower, upper, _ = random_system(rng, m, 6, "outside_1e-2")
            assert not box_rows_disjoint(A, b, lower, upper)


class TestEigenvalues:
    def test_min_eigenvalue_anchor(self):
        # eigenvalues of [[0,2],[2,-1]] are (-1 +- sqrt(17))/2
        lam = min_eigenvalue([[0.0, 2.0], [2.0, -1.0]])
        assert lam == pytest.approx((-1 - np.sqrt(17)) / 2, abs=1e-12)

    def test_min_eigenvalue_psd_matrix(self):
        assert min_eigenvalue([[2.0, 2.0], [2.0, 2.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_generalized_anchor(self):
        # diag(2,3) vs diag(1,2): eigenvalues are 2 and 1.5
        lam = min_generalized_eigenvalue(np.diag([2.0, 3.0]), np.diag([1.0, 2.0]))
        assert lam == pytest.approx(1.5, abs=1e-12)

    def test_generalized_reduces_to_ordinary(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5))
        M = M + M.T
        assert min_generalized_eigenvalue(M, np.eye(5)) == pytest.approx(
            min_eigenvalue(M), abs=1e-10)

    def test_generalized_rejects_indefinite_b(self):
        with pytest.raises(ValueError, match="positive definite"):
            min_generalized_eigenvalue(np.eye(2), np.diag([1.0, -1.0]))

    def test_generalized_matches_dense_solve(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = rng.integers(2, 8)
            M = rng.normal(size=(n, n))
            M = M + M.T
            C = rng.normal(size=(n, n))
            B = C @ C.T + n * np.eye(n)
            lam = min_generalized_eigenvalue(M, B)
            # independent check: roots of det(M - lam B) via inv(B) M
            ref = np.linalg.eigvals(np.linalg.solve(B, M)).real.min()
            assert lam == pytest.approx(ref, abs=1e-8 * max(1, abs(ref)))

    def test_projected_anchor(self):
        # Q restricted to the nullspace of [1, 1]: value -2.5
        basis = nullspace_basis([[1.0, 1.0]])
        lam = projected_min_eigenvalue([[0.0, 2.0], [2.0, -1.0]], basis)
        assert lam == pytest.approx(-2.5, abs=1e-12)

    def test_projected_trivial_nullspace(self):
        basis = nullspace_basis(np.eye(2))
        assert projected_min_eigenvalue(np.eye(2), basis) == np.inf

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            min_eigenvalue([[0.0, 1.0], [0.0, 0.0]])


class TestCholesky:
    @pytest.mark.parametrize("lower", [True, False])
    def test_bitwise_equal_to_scipy_pair(self, lower):
        rng = np.random.default_rng(4)
        for n in (1, 3, 8, 31):
            C = rng.normal(size=(n, n))
            M = C @ C.T + 0.1 * np.eye(n)
            c = cholesky_factor(M, lower)
            ref = scipy.linalg.cho_factor(M, lower=lower)
            assert c.tobytes() == ref[0].tobytes()
            for rhs in (rng.normal(size=n), np.eye(n)):
                assert cholesky_solve(c, lower, rhs).tobytes() == \
                    scipy.linalg.cho_solve(ref, rhs).tobytes()

    def test_not_positive_definite_gives_none(self):
        assert cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), True) is None
        assert cholesky_factor(np.zeros((2, 2)), False) is None

    def test_non_finite_input_raises(self):
        M = 4.0 * np.eye(3)
        M[2, 0] = M[0, 2] = np.nan  # LAPACK alone would not notice this one
        with pytest.raises(ValueError, match="finite"):
            cholesky_factor(M, True)
        c = cholesky_factor(4.0 * np.eye(3), True)
        with pytest.raises(ValueError, match="finite"):
            cholesky_solve(c, True, np.array([1.0, np.inf, 0.0]))

    def test_empty(self):
        c = cholesky_factor(np.zeros((0, 0)), False)
        assert cholesky_solve(c, False, np.eye(0)).shape == (0, 0)
