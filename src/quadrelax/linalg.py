"""Dense linear algebra kernels shared by the relaxation, separation and IPM code.

Thin wrappers around LAPACK (via numpy/scipy) that pin down the exact
conventions the rest of the package relies on: orthonormal nullspace bases,
independent row subsets, smallest (generalized/projected) eigenvalues and
one Cholesky factor/solve pair.

``box_rows_disjoint`` decides whether a box meets {Ax = b}.  Node boxes
have a handful of rows and columns, so a dense numpy phase-1 simplex
decides one in about a tenth of the time of a ``scipy.optimize.linprog``
(HiGHS) call, most of which is set-up.

The Cholesky pair calls LAPACK ``dpotrf``/``dpotrs`` directly with the
flags ``scipy.linalg.cho_factor``/``cho_solve`` pass, so its factors and
solutions are byte-identical to theirs, without their per-call dispatch:
the interior-point method factors and solves thousands of small systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "NullspaceBasis",
    "nullspace_basis",
    "independent_rows",
    "box_rows_disjoint",
    "min_eigenvalue",
    "min_generalized_eigenvalue",
    "projected_min_eigenvalue",
    "cholesky_factor",
    "cholesky_solve",
]

# Orthogonality / annihilation tolerance for nullspace bases.
_NULL_TOL = 1e-10

# Relative row miss that box_rows_disjoint must prove before it reports an
# empty set, and its pivot cap per row and column.
_FEAS_TOL = 1e-9
_PHASE1_PIVOTS = 50


def _as_symmetric_matrix(M, name="M"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    asym = np.abs(M - M.T).max(initial=0.0)
    if asym > 1e-8 * max(1.0, np.abs(M).max(initial=0.0)):
        raise ValueError(f"{name} must be symmetric (asymmetry {asym:.3e})")
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class NullspaceBasis:
    """Orthonormal basis Z of the nullspace of A.

    Satisfies ||A @ Z||_max <= 1e-10 * max(1, ||A||_max) and
    ||Z.T @ Z - I||_max <= 1e-10.  For a system with no equality rows Z is
    the identity.  ``dim`` is the nullspace dimension (columns of Z).
    """

    Z: np.ndarray

    @property
    def dim(self) -> int:
        return self.Z.shape[1]


def nullspace_basis(A, n: int | None = None) -> NullspaceBasis:
    """Orthonormal nullspace basis of A (the identity when A has no rows).

    Parameters
    ----------
    A : (m, n) array_like or None
        Equality coefficient matrix.  None or zero rows means free space.
    n : int, optional
        Number of variables; required when A is None or empty.

    Returns
    -------
    NullspaceBasis
        Basis with verified annihilation and orthonormality.
    """
    if A is None or np.size(A) == 0:
        if n is None:
            raise ValueError("n is required when A is empty")
        return NullspaceBasis(Z=np.eye(n))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if n is not None and A.shape[1] != n:
        raise ValueError(f"A has {A.shape[1]} columns, expected {n}")
    Z = scipy.linalg.null_space(A)
    if Z.size:
        resid = np.abs(A @ Z).max()
        if resid > _NULL_TOL * max(1.0, np.abs(A).max()):
            raise ValueError(f"nullspace residual {resid:.3e} too large")
        ortho = np.abs(Z.T @ Z - np.eye(Z.shape[1])).max()
        if ortho > _NULL_TOL:
            raise ValueError(f"nullspace basis not orthonormal ({ortho:.3e})")
    return NullspaceBasis(Z=Z)


def independent_rows(A, tol: float):
    """Split the rows of A into a linearly independent subset and the rest.

    Rank-revealing pivoted QR on A^T (its pivoted columns are rows of A); a
    pivot counts when |R_kk| > tol * max(1, |R_00|).  Returns (kept,
    dropped), each a sorted list of row indices.  Checking that the dropped
    rows are consistent is left to the caller.
    """
    _, R, piv = scipy.linalg.qr(A.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > tol * max(1.0, diag[0] if diag.size else 1.0)))
    return sorted(piv[:rank]), sorted(piv[rank:])


def box_rows_disjoint(A, b, lower, upper) -> bool:
    """Whether {x : A x = b, lower <= x <= upper} is proven empty.

    A dense bounded-variable phase-1 primal simplex.  Structurals start at
    their lower bounds with one signed artificial per row, so the starting
    basis is diag(sign) and its m x m inverse is updated by each pivot.
    Entering and leaving variables are chosen by Bland's rule (lowest
    index; bound flips win ratio ties), so the method terminates; an
    artificial that leaves the basis never re-enters.

    The answer is True only when the phase-1 duals y prove it: y'b exceeds
    max y'Ax over the box by more than 1e-9 * scale * ||y||_1, so every box
    point misses some row by more than 1e-9 * scale, where scale bounds
    |b| and the row activities |A| max(|lower|, |upper|).  At a phase-1
    optimum that excess is the remaining artificial sum; it is recomputed
    from the data, so an inaccurate basis inverse can only weaken it.
    Every other exit is safe-side False ("not proven empty"): the
    artificial sum falling to 1e-9 * scale (feasible), and the guards, a
    cap of 50 (m + n) pivots and a non-finite iterate.  A caller that
    keeps a node on False never prunes a non-empty one.

    Non-finite input, mismatched shapes and lower > upper raise ValueError.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    m, n = A.shape
    if b.shape[0] != m or lower.shape[0] != n or upper.shape[0] != n:
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}, "
                         f"bounds {lower.shape} and {upper.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()
            and np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("system must contain only finite numbers")
    if np.any(lower > upper):
        raise ValueError("lower bound above upper bound")
    if m == 0:
        return False
    width = np.maximum(np.abs(lower), np.abs(upper))
    scale = max(1.0, float(np.abs(b).max()), float((np.abs(A) @ width).max()))
    tol = _FEAS_TOL * scale
    a_max = float(np.abs(A).max())

    resid = b - A @ lower             # structurals start at their lower bounds
    basis = np.arange(n, n + m)       # basic variable per row; n + i: artificial
    Binv = np.diag(np.where(resid < 0.0, -1.0, 1.0))
    xB = np.abs(resid)
    cost = np.ones(m)                 # phase-1 cost of each basic
    move = np.ones(n)                 # +1 at lower, -1 at upper, 0 basic
    lo_B = np.zeros(m)                # bounds of the basics (artificial: [0, inf))
    up_B = np.full(m, np.inf)
    for _ in range(_PHASE1_PIVOTS * (m + n)):
        # a non-finite iterate fails this test too and exits here
        if not cost @ xB > tol:
            return False
        y = cost @ Binv               # phase-1 duals
        g = y @ A                     # minus the reduced costs
        y_norm = float(np.abs(y).sum())
        eligible = move * g > 1e-11 * a_max * y_norm
        if not eligible.any():
            gap = float(y @ b) - float(np.maximum(g * lower, g * upper).sum())
            return gap > tol * y_norm
        j = int(eligible.argmax())
        step = move[j]
        alpha = Binv @ A[:, j]
        delta = step * alpha          # xB(t) = xB - t * delta
        ratio = np.divide(xB - np.where(delta > 0.0, lo_B, up_B), delta,
                          out=np.full(m, np.inf),
                          where=np.abs(delta) > 1e-9 * np.abs(alpha).max())
        np.maximum(ratio, 0.0, out=ratio)
        t = float(ratio.min())
        if upper[j] - lower[j] <= t:  # bound flip
            xB -= (upper[j] - lower[j]) * delta
            move[j] = -step
            continue
        ties = np.flatnonzero(ratio <= t)
        r = int(ties[basis[ties].argmin()])
        if basis[r] < n:
            move[basis[r]] = 1.0 if delta[r] > 0.0 else -1.0
        xB -= t * delta
        xB[r] = (lower[j] if step > 0.0 else upper[j]) + step * t
        basis[r] = j
        move[j] = 0.0
        cost[r] = 0.0
        lo_B[r], up_B[r] = lower[j], upper[j]
        pivot_row = Binv[r] / alpha[r]
        Binv -= np.multiply.outer(alpha, pivot_row)
        Binv[r] = pivot_row
    return False


def min_eigenvalue(M) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    M = _as_symmetric_matrix(M)
    if M.shape[0] == 0:
        raise ValueError("empty matrix has no eigenvalues")
    return float(scipy.linalg.eigh(M, eigvals_only=True,
                                   subset_by_index=[0, 0])[0])


def min_generalized_eigenvalue(M, B) -> float:
    """Smallest lambda with M v = lambda B v, for symmetric M and SPD B.

    Computed by Cholesky reduction of the pencil (B = R^T R, then the
    ordinary smallest eigenvalue of R^-T M R^-1).
    """
    M = _as_symmetric_matrix(M)
    B = _as_symmetric_matrix(B, name="B")
    if M.shape != B.shape:
        raise ValueError(f"shape mismatch: {M.shape} vs {B.shape}")
    try:
        R = scipy.linalg.cholesky(B)  # upper: B = R^T R
    except scipy.linalg.LinAlgError as e:
        raise ValueError("B must be positive definite") from e
    W = scipy.linalg.solve_triangular(R.T, M, lower=True)
    C = scipy.linalg.solve_triangular(R.T, W.T, lower=True)
    return min_eigenvalue(0.5 * (C + C.T))


def projected_min_eigenvalue(M, basis: NullspaceBasis) -> float:
    """Smallest eigenvalue of Z^T M Z for a nullspace basis Z.

    +inf when the nullspace is trivial (every direction is annihilated).
    """
    Z = basis.Z if isinstance(basis, NullspaceBasis) else np.asarray(basis, float)
    if Z.ndim != 2:
        raise ValueError("basis must be a matrix")
    if Z.shape[1] == 0:
        return float("inf")
    M = _as_symmetric_matrix(M)
    C = Z.T @ M @ Z
    return min_eigenvalue(0.5 * (C + C.T))


def cholesky_factor(M, lower: bool):
    """Cholesky factor of a symmetric matrix, or None if it is not positive definite.

    M is a float64 matrix; only the ``lower`` (or upper) triangle is read.
    The other triangle of the returned factor keeps M's entries, as with
    ``scipy.linalg.cho_factor``.  Non-finite entries raise ValueError.
    """
    if not np.isfinite(M).all():
        raise ValueError("matrix must contain only finite numbers")
    c, info = dpotrf(M, lower=lower, clean=0)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def cholesky_solve(c, lower: bool, rhs):
    """Solve M x = rhs from M's ``cholesky_factor`` c (same ``lower``).

    rhs is a float64 vector or matrix; non-finite entries raise ValueError.
    """
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side must contain only finite numbers")
    if rhs.size == 0:
        return np.empty_like(rhs)
    x, info = dpotrs(c, rhs, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x

