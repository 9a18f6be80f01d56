"""Convex relaxations: alpha selection, spectral bounds, and the cutting loop.

The relaxation chain for min x^T Q x + q^T x over F = {Ax=b, l_i <= y_i <=
u_i}:

* a single uniform perturbation d = mu * ones gives the spectral (QP)
  relaxation, solvable after eliminating y;
* a pool of perturbations d, each certified convex on the nullspace of A,
  gives the epigraph QCP  min v + q^T x,  v >= x^T (Q + diag d) x - d^T y;
* the cutting-surface loop starts from the spectral QP's solution (the
  one-cut QCP over d = mu * ones, since mu > 0 puts every y on its
  secant) and alternates separation rounds with QCP solves; each round
  (``next_cut``) mints the pool member most violated by the current
  relaxation point.

All subproblem solutions pass a KKT certification filter before their
bounds are trusted; failures degrade to the best previously certified
bound.

``ReducedProblem`` restricts the instance to a node: it eliminates fixed
variables and dependent rows and raises ``InfeasibleRelaxation`` for an
empty node.  What depends on the free set alone is one read-only
``FreeSetStructure``, which a caller's ``structures`` dict shares across
the nodes of a search.  Whether the node box meets {Ax = b} is decided by a
projected-midpoint witness and then exactly by ``linalg.box_rows_disjoint``,
a dense phase-1 simplex, so no LP solver is called here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import qcqp
from .linalg import (
    NullspaceBasis,
    box_rows_disjoint,
    independent_rows,
    min_eigenvalue,
    min_generalized_eigenvalue,
    nullspace_basis,
    projected_min_eigenvalue,
)
from .model import MiqpInstance
from .separation import (
    SeparationConfig,
    eta_from_relaxation,
    rho_init,
    solve_nonsmooth,
    solve_smooth,
)

__all__ = [
    "AlphaSelection",
    "CutPool",
    "RelaxationSolution",
    "CuttingSurfaceResult",
    "InfeasibleRelaxation",
    "SolveFailure",
    "FreeSetStructure",
    "ReducedProblem",
    "select_alpha",
    "initial_perturbation",
    "solve_eigenvalue_relaxation",
    "assemble_qcp",
    "solve_qcp",
    "solve_qp_child",
    "cutting_surface",
    "cut_violation",
    "next_cut",
    "surrogate_root_perturbation",
]

# A matrix is treated as convex on the nullspace above this eigenvalue level.
_GATE_TOL = 1e-9

# Pool membership certificate (projected form) must clear this level.
_POOL_TOL = 1e-6

# KKT residual acceptance threshold (relative).
_KKT_TOL = 1e-8

# A new cut must beat the incumbent relaxation point by this much.
_VIOLATION_TOL = 1e-6


class InfeasibleRelaxation(Exception):
    """The (node) feasible set is empty; callers prune."""


class SolveFailure(Exception):
    """A subproblem solve did not reach KKT certification.

    Carries the uncertified iterate in ``best`` so callers can degrade
    gracefully.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class AlphaSelection:
    """Chosen equality-penalty weight alpha with its mu value.

    mu is -lambda_min(Q, I + alpha A^T A); trace holds the escalation
    sequence [(alpha_t, mu_t), ...]; capped marks hitting the escalation
    limit without stabilization.  alpha = 0 exactly when there are no
    equality rows.
    """

    alpha: float
    mu: float
    trace: tuple = ()
    capped: bool = False


@dataclass
class CutPool:
    """Finite set of certified diagonal perturbations plus last multipliers.

    Each stored cut keeps the projected matrix Z^T (Q + diag d) Z above
    -1e-6, which is the operative convexity requirement for the assembled
    QCP.  ``multipliers`` are the per-cut values from the last certified
    relaxation solve (None until the cut loop sets them).
    """

    Q: np.ndarray
    basis: NullspaceBasis
    cuts: list = field(default_factory=list)
    multipliers: np.ndarray | None = None

    def add(self, d) -> None:
        d = np.asarray(d, dtype=float).reshape(-1)
        if d.shape[0] != self.Q.shape[0]:
            raise ValueError(f"cut length {d.shape[0]} != n={self.Q.shape[0]}")
        lam = projected_min_eigenvalue(self.Q + np.diag(d), self.basis)
        if lam < -_POOL_TOL:
            raise ValueError(f"cut fails the convexity certificate ({lam:.3e})")
        self.cuts.append(d)
        self.multipliers = None  # stale after a pool change

    def __len__(self) -> int:
        return len(self.cuts)


@dataclass
class RelaxationSolution:
    """KKT-certified solution of one convex relaxation, in full variables.

    v is the epigraph value, value - q^T x (QP-type relaxations eliminate
    y and v, and recover it this way).  quad_value caches x^T Q x for
    cheap cut-violation tests.  cut_multipliers holds one value per pool
    cut for QCP solves.
    """

    x: np.ndarray
    y: np.ndarray
    value: float
    v: float
    quad_value: float = 0.0
    cut_multipliers: np.ndarray | None = None
    kkt_residual: float = 0.0

    def feasibility_error(self, inst: MiqpInstance) -> float:
        """Max violation of Ax=b, box, and hull membership (for tests)."""
        err = 0.0
        if inst.m:
            err = float(np.abs(inst.A @ self.x - inst.b).max())
        for dom, x, y in zip(inst.domains, self.x, self.y):
            u = (dom.L + dom.U) * x - dom.L * dom.U
            lo = u if dom.two_point else x ** 2
            err = max(err, dom.L - x, x - dom.U, y - u, lo - y)
        return float(err)


def select_alpha(instance: MiqpInstance) -> AlphaSelection:
    """Pick the equality-penalty weight by escalating until mu stabilizes.

    Starting from alpha_0 = max(1, ||Q||_F / max(1, ||A^T A||_F)), try
    alpha_0 * 10^t for t = 0..8 and return the first alpha whose mu value
    changes by at most 1e-3 (relative) when alpha grows tenfold.  The
    returned alpha is frozen for the whole solve.  With no equality rows,
    alpha is 0 and mu is -lambda_min(Q).
    """
    if instance.m == 0:
        return AlphaSelection(alpha=0.0, mu=-min_eigenvalue(instance.Q))
    AtA = instance.A.T @ instance.A
    alpha0 = max(1.0, float(np.linalg.norm(instance.Q, "fro"))
                 / max(1.0, float(np.linalg.norm(AtA, "fro"))))
    eye = np.eye(instance.n)
    trace = []
    mu_t = -min_generalized_eigenvalue(instance.Q, eye + alpha0 * AtA)
    for t in range(9):
        alpha_t = alpha0 * 10.0 ** t
        trace.append((alpha_t, mu_t))
        if t == 8:
            return AlphaSelection(alpha=alpha_t, mu=mu_t, trace=tuple(trace),
                                  capped=True)
        mu_next = -min_generalized_eigenvalue(
            instance.Q, eye + (alpha_t * 10.0) * AtA)
        if abs(mu_next - mu_t) <= 1e-3 * max(1.0, abs(mu_t)):
            return AlphaSelection(alpha=alpha_t, mu=mu_t, trace=tuple(trace))
        mu_t = mu_next


def initial_perturbation(instance: MiqpInstance, alpha: float):
    """Uniform seed perturbation d0 = mu * ones, or None when unneeded.

    mu is -lambda_min(Q) without equality rows, else
    -lambda_min(Q, I + alpha A^T A).  Returns None when the relevant
    restriction of Q is already positive semidefinite (the caller should
    solve the continuous convex relaxation directly).
    """
    scale = max(1.0, float(np.abs(instance.Q).max(initial=0.0)))
    if instance.m == 0:
        lam = min_eigenvalue(instance.Q)
        if lam >= -_GATE_TOL * scale:
            return None
        return np.full(instance.n, -lam)
    basis = nullspace_basis(instance.A, instance.n)
    if projected_min_eigenvalue(instance.Q, basis) >= -_GATE_TOL * scale:
        return None
    mu = -min_generalized_eigenvalue(
        instance.Q, np.eye(instance.n) + alpha * (instance.A.T @ instance.A))
    return np.full(instance.n, mu)


# ---------------------------------------------------------------------------
# node reduction


@dataclass(eq=False)
class FreeSetStructure:
    """What a node reduction derives from its free-variable set alone.

    Qr = Q[free, free]; the columns of A at the free variables, split into
    the rows that vanish there (``zero_rows``) and the rest (``kept``, with
    their slice ``A_kept``); the independent subset ``rows`` of A_kept and
    the ``dropped`` remainder; Ar = A_kept[rows]; the nullspace basis of
    Ar; and the mask and G block of ``_box_rows`` at width ``basis.dim``.
    The arrays are read-only, since every node of the set shares them.
    """

    Qr: np.ndarray
    kept: list
    zero_rows: list
    A_kept: np.ndarray
    rows: list
    dropped: list
    Ar: np.ndarray
    basis: NullspaceBasis
    box_keep: np.ndarray       # free coordinates that get box rows
    box_G: np.ndarray

    @staticmethod
    def derive(inst: MiqpInstance, free: np.ndarray) -> "FreeSetStructure":
        Qr = inst.Q[np.ix_(free, free)] if free.size else np.zeros((0, 0))
        kept, zero_rows = [], []    # positions in A's rows
        if inst.m:
            cols = inst.A[:, free] if free.size else np.zeros((inst.m, 0))
            a_scale = max(1.0, float(np.abs(inst.A).max()))
            vanish = np.abs(cols).max(axis=1, initial=0.0) <= 1e-12 * a_scale
            zero_rows = np.flatnonzero(vanish).tolist()
            kept = np.flatnonzero(~vanish).tolist()
            A_kept = cols[kept]
        else:
            A_kept = np.zeros((0, free.size))
        rows, dropped = list(range(A_kept.shape[0])), []
        if A_kept.shape[0] and free.size:
            rows, dropped = independent_rows(A_kept, 1e-10)
        Ar = A_kept[rows] if dropped else A_kept
        basis = nullspace_basis(Ar, free.size) if free.size \
            else NullspaceBasis(Z=np.zeros((0, 0)))
        Z = basis.Z
        box_keep = np.abs(Z).max(axis=1, initial=0.0) > 1e-12
        Zk = Z[box_keep]
        box_G = np.zeros((2 * Zk.shape[0], Z.shape[1]))
        box_G[0::2] = Zk
        box_G[1::2] = -Zk
        for a in (Qr, A_kept, Ar, Z, box_G):
            a.flags.writeable = False
        return FreeSetStructure(Qr=Qr, kept=kept, zero_rows=zero_rows,
                                A_kept=A_kept, rows=rows, dropped=dropped,
                                Ar=Ar, basis=basis, box_keep=box_keep,
                                box_G=box_G)

    @cached_property
    def nullspace_min_eigenvalue(self) -> float:
        """Smallest eigenvalue of Z^T Qr Z, computed on first use."""
        return projected_min_eigenvalue(self.Qr, self.basis)

    @cached_property
    def convex(self) -> bool:
        """The node gate: Z^T Qr Z >= -_GATE_TOL * max(1, max |Qr_ij|)."""
        scale = max(1.0, float(np.abs(self.Qr).max(initial=0.0)))
        return self.nullspace_min_eigenvalue >= -_GATE_TOL * scale


@dataclass
class ReducedProblem:
    """Instance restricted to node bounds with fixed variables eliminated.

    Carries the free-variable data (Qr, qr, Ar, br, bounds), the constant
    objective offset from fixed variables, the nullspace basis of Ar, and a
    least-norm particular solution x_hat of Ar x = br.  Qr, Ar and the
    basis come from ``structure``, which depends on the free set alone.
    Construction raises InfeasibleRelaxation when emptiness is detected.
    """

    inst: MiqpInstance
    free: np.ndarray           # indices of free variables
    fixed: np.ndarray          # indices of fixed variables
    fixed_values: np.ndarray
    lower: np.ndarray          # node bounds of free variables
    upper: np.ndarray
    qr: np.ndarray             # q_free + 2 Q[free, fixed] x_fixed
    br: np.ndarray
    const: float               # objective contribution of fixed variables
    quad_fixed: float          # x_fixed^T Q_ff x_fixed (cut-row offset)
    x_hat: np.ndarray
    structure: FreeSetStructure

    @property
    def Qr(self) -> np.ndarray:
        return self.structure.Qr

    @property
    def Ar(self) -> np.ndarray:
        return self.structure.Ar

    @property
    def basis(self) -> NullspaceBasis:
        return self.structure.basis

    @property
    def n_free(self) -> int:
        return self.free.shape[0]

    @staticmethod
    def build(inst: MiqpInstance, lower, upper, *,
              structures: dict | None = None) -> "ReducedProblem":
        """Reduce the instance to the node box [lower, upper].

        structures, when given, is a dict the caller keeps for one instance
        (``bnb.solve`` keeps one per solve): the ``FreeSetStructure`` of
        each free set is derived on the first node with that set and
        reused by the later ones.  Every node still computes its own
        fixed-value terms (qr, const, br), checks its zero and dependent
        rows against br, solves for x_hat and tests the box against the
        rows, so the result is the same with or without the dict.
        """
        lower = np.asarray(lower, dtype=float).reshape(-1)
        upper = np.asarray(upper, dtype=float).reshape(-1)
        if lower.shape[0] != inst.n or upper.shape[0] != inst.n:
            raise ValueError("node bounds must have length n")
        free, fixed, fixed_vals = [], [], []
        lo_f, up_f = [], []
        for i, dom in enumerate(inst.domains):
            box = dom.slice(lower[i], upper[i])
            if box is None:
                raise InfeasibleRelaxation(f"variable {i}: empty domain slice")
            if box[0] == box[1]:
                fixed.append(i)
                fixed_vals.append(box[0])
            else:
                free.append(i)
                lo_f.append(box[0])
                up_f.append(box[1])
        free = np.array(free, dtype=int)
        fixed = np.array(fixed, dtype=int)
        xf = np.array(fixed_vals, dtype=float)
        lo_f = np.array(lo_f, dtype=float)
        up_f = np.array(up_f, dtype=float)

        key = free.tobytes()
        structure = None if structures is None else structures.get(key)
        if structure is None:
            structure = FreeSetStructure.derive(inst, free)
            if structures is not None:
                structures[key] = structure

        Qff = inst.Q[np.ix_(fixed, fixed)] if fixed.size else np.zeros((0, 0))
        quad_fixed = float(xf @ Qff @ xf) if fixed.size else 0.0
        const = quad_fixed + (float(inst.q[fixed] @ xf) if fixed.size else 0.0)
        qr = inst.q[free].copy() if free.size else np.zeros(0)
        if fixed.size and free.size:
            qr = qr + 2.0 * (inst.Q[np.ix_(free, fixed)] @ xf)

        if inst.m:
            br = inst.b - (inst.A[:, fixed] @ xf if fixed.size else 0.0)
            b_scale = max(1.0, float(np.abs(inst.b).max(initial=0.0)))
            for r in structure.zero_rows:
                if abs(br[r]) > 1e-8 * b_scale:
                    raise InfeasibleRelaxation(
                        f"equality row {r} reduces to 0 = {br[r]:.3e}")
            br = br[structure.kept]
            if structure.dropped:
                # rows made dependent by the fixing; inconsistency means
                # the node is empty
                sol, *_ = np.linalg.lstsq(structure.A_kept, br, rcond=None)
                resid = np.abs(structure.A_kept @ sol - br).max(initial=0.0)
                a_scale = max(1.0, float(np.abs(inst.A).max()))
                if resid > 1e-8 * max(b_scale, a_scale):
                    raise InfeasibleRelaxation("dependent equality rows "
                                               "are inconsistent")
                br = br[structure.rows]
        else:
            br = np.zeros(0)

        Ar = structure.Ar
        if free.size and Ar.shape[0]:
            x_hat, *_ = np.linalg.lstsq(Ar, br, rcond=None)
            resid = float(np.abs(Ar @ x_hat - br).max(initial=0.0))
            if resid > 1e-8 * max(1.0, float(np.abs(br).max(initial=0.0))):
                raise InfeasibleRelaxation("equality system has no solution "
                                           f"(residual {resid:.3e})")
        else:
            x_hat = np.zeros(free.size)

        red = ReducedProblem(inst=inst, free=free, fixed=fixed,
                             fixed_values=xf, lower=lo_f, upper=up_f,
                             qr=qr, br=br, const=const,
                             quad_fixed=quad_fixed, x_hat=x_hat,
                             structure=structure)
        red._check_box_consistency()
        return red

    def _check_box_consistency(self):
        """Raise InfeasibleRelaxation when {Ar x = br} misses the box.

        The projected box midpoint, when it lands in the box, proves the
        node non-empty (it settles most wide boxes, roots included).
        Otherwise ``linalg.box_rows_disjoint`` decides exactly, by a dense
        phase-1 simplex; its guard exits answer "not proven empty", so a
        node is kept, and left to the IPM, whenever emptiness is unproven.
        """
        if not self.n_free or not self.Ar.shape[0]:
            return
        mid = 0.5 * (self.lower + self.upper)
        w = self.x_hat + self.basis.Z @ (self.basis.Z.T @ (mid - self.x_hat))
        if np.all(w >= self.lower - 1e-9) and np.all(w <= self.upper + 1e-9):
            return
        if box_rows_disjoint(self.Ar, self.br, self.lower, self.upper):
            raise InfeasibleRelaxation("box and equality rows are disjoint")

    def hull_coeffs(self):
        """Node-level secant coefficients (slope, intercept) per free var.

        A free two-point slice spans its original (L, U), so its secant is
        the domain's own.
        """
        return self.lower + self.upper, -self.lower * self.upper

    def square_mask(self):
        """Free variables whose lower hull is x**2 (explicit y needed)."""
        return np.array([not self.inst.domains[i].two_point
                         for i in self.free], dtype=bool)

    def expand_x(self, x_free) -> np.ndarray:
        x = np.empty(self.inst.n)
        if self.free.size:
            x[self.free] = x_free
        if self.fixed.size:
            x[self.fixed] = self.fixed_values
        return x

    def expand_y(self, y_free) -> np.ndarray:
        y = np.empty(self.inst.n)
        if self.free.size:
            y[self.free] = y_free
        if self.fixed.size:
            y[self.fixed] = self.fixed_values ** 2
        return y

    def restrict(self, d) -> np.ndarray:
        return np.asarray(d, dtype=float).reshape(-1)[self.free]


def _all_fixed_solution(red: ReducedProblem) -> RelaxationSolution:
    x = red.expand_x(np.zeros(0))
    y = red.expand_y(np.zeros(0))
    quad = float(x @ red.inst.Q @ x)
    return RelaxationSolution(x=x, y=y, value=quad + float(red.inst.q @ x),
                              v=quad, quad_value=quad)


# ---------------------------------------------------------------------------
# QP-type relaxations (y eliminated)


def solve_qp_child(instance: MiqpInstance, d, node_bounds,
                   ipm_opts=None, red=None) -> RelaxationSolution:
    """Bound min x^T (Q + diag d) x + q^T x - d^T y over the node's hulls.

    y is eliminated coordinatewise: the secant u_i when d_i >= 0 or the
    hull is two-point/binary (l = u there), and x_i**2 otherwise, which
    cancels the d_i term.  The result is a box-and-equality QP on the
    nullspace, convex whenever d is certified for the parent space.
    ipm_opts, if given, overrides interior-point keyword defaults; red may
    carry a reduction already built for these exact node bounds.

    Raises InfeasibleRelaxation for empty nodes and SolveFailure when the
    subproblem solve misses KKT certification.
    """
    if red is None:
        red = ReducedProblem.build(instance, *node_bounds)
    d_f = red.restrict(d)
    if red.n_free == 0:
        return _all_fixed_solution(red)

    slope, intercept = red.hull_coeffs()
    square = red.square_mask()
    use_u = (d_f >= 0.0) | ~square
    dhat = np.where(use_u, d_f, 0.0)

    H = red.Qr + np.diag(dhat)
    lin = red.qr - np.where(use_u, d_f * slope, 0.0)
    const = red.const - float(np.sum(np.where(use_u, d_f * intercept, 0.0)))

    Z = red.basis.Z
    if Z.shape[1] == 0:
        # every coordinate is pinned: x_hat is the node's one point, which
        # the build found in the box to tolerance
        x_f = red.x_hat
        value = float(x_f @ H @ x_f + lin @ x_f) + const
        result = None
    else:
        P0 = 2.0 * (Z.T @ H @ Z)
        c0 = Z.T @ (2.0 * (H @ red.x_hat) + lin)
        r0 = float(red.x_hat @ H @ red.x_hat + lin @ red.x_hat) + const
        G, h = _box_rows(red, Z.shape[1])
        mid = 0.5 * (red.lower + red.upper)
        z0 = Z.T @ (mid - red.x_hat)
        result = qcqp.solve_qcqp(P0, c0, r0, [], G, h, z0=z0,
                                 **(ipm_opts or {}))
        _require_kkt(result, c0)
        x_f = red.x_hat + Z @ result.z
        value = result.obj

    # same roundoff guard as the epigraph path: x can sit ~1e-10 outside
    # the box, where the secant dips below the parabola
    y_f = np.maximum(np.where(use_u, slope * x_f + intercept, x_f ** 2),
                     x_f ** 2)
    x = red.expand_x(x_f)
    y = red.expand_y(y_f)
    quad = float(x @ instance.Q @ x)
    return RelaxationSolution(
        x=x, y=y, value=value, v=value - float(instance.q @ x),
        quad_value=quad,
        kkt_residual=0.0 if result is None else max(result.r_dual,
                                                    result.r_primal))


def solve_eigenvalue_relaxation(instance: MiqpInstance, mu: float) -> RelaxationSolution:
    """Spectral relaxation: uniform perturbation mu >= 0 over root bounds.

    Equivalent to minimizing x^T (Q + mu I) x + q^T x - mu * sum_i u_i(x_i)
    over {Ax=b, L <= x <= U}; the returned value lower-bounds the mixed
    problem whenever Q + mu I is convex on the nullspace of A.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    d = np.full(instance.n, float(mu))
    return solve_qp_child(instance, d, (instance.lower, instance.upper))


def _box_rows(red: ReducedProblem, width: int):
    """Box rows lower <= x_hat + Z z <= upper as one block G w + h <= 0.

    w has `width` entries, z first.  Coordinates the equalities pin (zero
    row of Z) get no rows; the build already checked them.  G is the free
    set's shared block when width is the nullspace dimension.
    """
    keep, G = red.structure.box_keep, red.structure.box_G
    if width != G.shape[1]:
        G = np.zeros((G.shape[0], width))
        G[:, :red.basis.dim] = red.structure.box_G
    h = np.empty(G.shape[0])
    h[0::2] = red.x_hat[keep] - red.upper[keep]
    h[1::2] = red.lower[keep] - red.x_hat[keep]
    return G, h


def _require_kkt(result: qcqp.IpmResult, c0) -> None:
    scale = max(1.0, float(np.abs(c0).max(initial=0.0)), abs(result.obj))
    resid = max(result.r_dual, result.r_primal, result.gap)
    if result.status != "optimal" and resid > _KKT_TOL * scale:
        raise SolveFailure(
            f"subproblem not certified (status {result.status}, "
            f"residual {resid:.3e})", best=result)


# ---------------------------------------------------------------------------
# QCP relaxation (explicit y and epigraph v)


@dataclass
class QcpModel:
    """Assembled epigraph model over nullspace coordinates.

    Variables z = (x_z, y_square, v).  The quadratic rows are the pool
    cuts, one per cut in pool order (multiplier extraction relies on that
    order).  The lower hulls x_f**2 <= y_f are not quadratic rows but one
    rank-one block ``squares``; the upper hulls and the box rows form the
    block G z + h <= 0.
    """

    red: ReducedProblem
    c0: np.ndarray
    r0: float
    constraints: list
    squares: qcqp.SquareBlock
    G: np.ndarray
    h: np.ndarray
    nz: int
    sq_idx: np.ndarray      # positions (in free order) with explicit y
    z0: np.ndarray


def assemble_qcp(instance: MiqpInstance, cut_pool: CutPool,
                 red: ReducedProblem | None = None) -> QcpModel:
    """Build the epigraph relaxation of a certified cut pool.

    min v + q^T x  s.t.  v >= x^T (Q + diag d) x - d^T y for each pool d,
    x = x_hat + Z x_z, hull rows for y, box rows for x.  y variables of
    binary/two-point coordinates are eliminated through their (equal)
    hulls.  red may carry the root reduction already built; otherwise it
    is built here.
    """
    if len(cut_pool) == 0:
        raise ValueError("cut pool is empty")
    if red is None:
        red = ReducedProblem.build(instance, instance.lower, instance.upper)
    if red.n_free == 0:
        raise InfeasibleRelaxation("no free variables; relaxation is a point")
    Z = red.basis.Z
    k = Z.shape[1]
    slope, intercept = red.hull_coeffs()
    square = red.square_mask()
    sq_idx = np.flatnonzero(square)
    ny = sq_idx.shape[0]
    nz = k + ny + 1
    iv = nz - 1  # position of v

    # objective: v + q_free^T x + const (cross terms with fixed variables
    # live inside the cut rows, not the objective)
    q_f = instance.q[red.free]
    c0 = np.zeros(nz)
    c0[:k] = Z.T @ q_f
    c0[iv] = 1.0
    r0 = float(q_f @ red.x_hat) + (red.const - red.quad_fixed)

    cross = red.qr - q_f  # 2 Q[free, fixed] x_fixed

    cons = []
    for d_full in cut_pool.cuts:
        d_f = red.restrict(d_full)
        M = red.Qr + np.diag(d_f)
        w = cross - np.where(square, 0.0, d_f * slope)
        cj = float(red.quad_fixed
                   - np.sum(np.where(square, 0.0, d_f * intercept)))
        P = np.zeros((nz, nz))
        P[:k, :k] = 2.0 * (Z.T @ M @ Z)
        a = np.zeros(nz)
        a[:k] = Z.T @ (2.0 * (M @ red.x_hat) + w)
        a[k:iv] = -d_f[sq_idx]
        a[iv] = -1.0
        r = float(red.x_hat @ M @ red.x_hat + w @ red.x_hat) + cj
        cons.append(qcqp.QuadConstraint(P, a, r))

    # lower hulls (x_hat_f + Z_f x_z)**2 - y_f <= 0
    y_pos = (np.arange(ny), k + np.arange(ny))
    S = np.zeros((ny, nz))
    S[:, :k] = Z[sq_idx]
    F = np.zeros((ny, nz))
    F[y_pos] = -1.0
    squares = qcqp.SquareBlock(S, red.x_hat[sq_idx], F, np.zeros(ny))

    # upper hulls y_f <= slope x_f + intercept, then the box rows
    G_hull = np.zeros((ny, nz))
    G_hull[:, :k] = -slope[sq_idx, None] * Z[sq_idx]
    G_hull[y_pos] = 1.0
    G_box, h_box = _box_rows(red, nz)
    G = np.vstack((G_hull, G_box))
    h = np.concatenate((-slope[sq_idx] * red.x_hat[sq_idx] - intercept[sq_idx],
                        h_box))

    # strictly interior-ish start
    mid = 0.5 * (red.lower + red.upper)
    z0 = np.zeros(nz)
    z0[:k] = Z.T @ (mid - red.x_hat)
    x0 = red.x_hat + Z @ z0[:k]
    x0s = x0[sq_idx]
    u0 = slope[sq_idx] * x0s + intercept[sq_idx]
    z0[k:iv] = 0.5 * (x0s ** 2 + np.maximum(u0, x0s ** 2 + 0.1))
    # v starts above every cut value (z0[iv] is still 0 here)
    z0[iv] = 1.0 + max(0.5 * z0 @ c.P @ z0 + c.a @ z0 + c.r for c in cons)

    return QcpModel(red=red, c0=c0, r0=r0, constraints=cons, squares=squares,
                    G=G, h=h, nz=nz, sq_idx=sq_idx, z0=z0)


def solve_qcp(model: QcpModel) -> RelaxationSolution:
    """Solve an assembled epigraph model to KKT certification.

    Returns the full-space solution with per-cut multipliers (needed by the
    surrogate root perturbation).  Raises SolveFailure with the best
    iterate when certification fails.
    """
    nz = model.nz
    result = qcqp.solve_qcqp(np.zeros((nz, nz)), model.c0, model.r0,
                             model.constraints, model.G, model.h,
                             squares=model.squares, z0=model.z0)
    _require_kkt(result, model.c0)
    red = model.red
    Z = red.basis.Z
    k = Z.shape[1]
    x_f = red.x_hat + Z @ result.z[:k]
    slope, intercept = red.hull_coeffs()
    y_f = slope * x_f + intercept
    y_f[model.sq_idx] = result.z[k:-1]
    # keep y_f >= x_f**2 exact against roundoff: binary and two-point
    # coordinates sit on the secant, which dips below the parabola when x
    # lands a hair outside its box
    y_f = np.maximum(y_f, x_f ** 2)
    # cut rows carry the fixed-block quadratic offset, so z[-1] is already
    # the full-space epigraph value
    v = float(result.z[-1])
    x = red.expand_x(x_f)
    y = red.expand_y(y_f)
    quad = float(x @ red.inst.Q @ x)
    nu = np.maximum(result.lam[:len(model.constraints)], 0.0)
    return RelaxationSolution(
        x=x, y=y, value=float(v + red.inst.q @ x), v=v, quad_value=quad,
        cut_multipliers=nu,
        kkt_residual=max(result.r_dual, result.r_primal))


def cut_violation(d, solution: RelaxationSolution) -> float:
    """Amount by which perturbation d cuts off the relaxation point.

    Returns x^T (Q + diag d) x - d^T y - v; the point is considered
    violated when this exceeds 1e-6 * max(1, |v|).
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    return float(solution.quad_value
                 + d @ (solution.x ** 2 - solution.y) - solution.v)


def next_cut(red: ReducedProblem, alpha: float, sol: RelaxationSolution,
             d_fill, solver, config: SeparationConfig):
    """One separation round at the relaxation point sol.

    The one place that forms the penalty matrix B = Qr + alpha Ar^T Ar (Qr
    without rows).  solver (solve_smooth or solve_nonsmooth) separates the
    free slacks eta_f over {d : B + diag d psd}, with config's other fields
    and rho0 = ``rho_init`` of the reduced problem; its d, embedded into a
    copy of d_fill for the fixed coordinates, is returned when it violates
    sol by more than 1e-6 * max(1, |v|), else None.  Such a d has d_i >=
    -B_ii, lifts keep y >= x**2 and fixed slacks are 0, so no cut violates
    sol by more than quad_value - v + diag(B)^T eta_f; when that is within
    the tolerance the solver is not run.
    """
    eta_f = eta_from_relaxation(sol.x[red.free], sol.y[red.free])
    B = red.Qr + alpha * (red.Ar.T @ red.Ar) if red.Ar.shape[0] else red.Qr
    tol = _VIOLATION_TOL * max(1.0, abs(sol.v))
    if sol.quad_value - sol.v + float(B.diagonal() @ eta_f) <= tol:
        return None
    config = replace(config, rho0=rho_init(red.Qr, red.lower, red.upper))
    d = np.array(d_fill, dtype=float)
    d[red.free] = solver(B, eta_f, config).d
    if cut_violation(d, sol) <= tol:
        return None
    return d


def surrogate_root_perturbation(pool: CutPool) -> np.ndarray:
    """Multiplier-weighted average of the pool, for child-node inheritance.

    d_root = sum_i nu_i d_i / sum_i nu_i using the last QCP multipliers.
    Degenerate multipliers (sum <= 1e-12) fall back to the member with the
    largest multiplier, or to the first pool member when no multipliers
    exist.
    """
    if len(pool) == 0:
        raise ValueError("cut pool is empty")
    nu = pool.multipliers
    if nu is None:
        return pool.cuts[0].copy()
    nu = np.maximum(np.asarray(nu, dtype=float).reshape(-1), 0.0)
    if nu.shape[0] != len(pool):
        raise ValueError("multiplier count does not match pool size")
    total = float(nu.sum())
    if total <= 1e-12:
        return pool.cuts[int(np.argmax(nu))].copy()
    d = np.zeros_like(pool.cuts[0])
    for w, dd in zip(nu, pool.cuts):
        d += w * dd
    return d / total


@dataclass
class CuttingSurfaceResult:
    """Outcome of the cutting-surface loop at one node."""

    bound: float
    pool: CutPool
    solution: RelaxationSolution
    initial_bound: float        # single-perturbation (spectral) bound
    bound_history: list
    cuts_added: int


def cutting_surface(instance: MiqpInstance, alpha: float, max_cuts: int = 20,
                    mode: str = "smooth") -> CuttingSurfaceResult:
    """Cutting-surface loop: grow a cut pool until violation dries up.

    Starts from the spectral QP of the uniform perturbation d0 = mu * ones.
    mu > 0 puts every y of the one-cut epigraph QCP over [d0] on its
    secant, so that QP is the one-cut QCP, with multiplier 1.  The loop
    then alternates separation rounds (damped Newton with the smooth or
    the nonsmooth regularizer, see ``next_cut``) with QCP solves, adding
    each new cut only when it violates the incumbent relaxation point by
    more than 1e-6 * max(1, |v|).  A cut whose QCP misses certification is
    dropped and the loop stops, keeping the last certified solution and
    its multipliers, so the bound sequence is non-decreasing.
    """
    if mode not in ("smooth", "nonsmooth"):
        raise ValueError(f"unknown separation mode {mode!r}")
    d0 = initial_perturbation(instance, alpha)
    if d0 is None:
        raise ValueError("instance is convex on the nullspace; "
                         "solve the continuous relaxation instead")
    red = ReducedProblem.build(instance, instance.lower, instance.upper)
    pool = CutPool(Q=instance.Q, basis=nullspace_basis(instance.A, instance.n))
    pool.add(d0)
    sol = solve_qp_child(instance, d0, (instance.lower, instance.upper),
                         red=red)
    nu = np.ones(1)
    history = [sol.value]
    solver = solve_smooth if mode == "smooth" else solve_nonsmooth
    for _ in range(max_cuts):
        d_new = next_cut(red, alpha, sol, d0, solver, SeparationConfig())
        if d_new is None:
            break
        pool.add(d_new)
        try:
            sol = solve_qcp(assemble_qcp(instance, pool, red))
        except SolveFailure:
            warnings.warn("epigraph re-solve not certified; stopping "
                          "with the best prior bound")
            pool.cuts.pop()
            break
        nu = sol.cut_multipliers
        history.append(max(history[-1], sol.value))
    pool.multipliers = nu

    return CuttingSurfaceResult(bound=history[-1], pool=pool, solution=sol,
                                initial_bound=history[0],
                                bound_history=history,
                                cuts_added=len(history) - 1)
