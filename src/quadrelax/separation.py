"""Coordinate-descent separation of diagonal perturbations.

Given a relaxation point with slacks eta_i = y_i - x_i**2 >= 0, a deeper
cut is a diagonal d in the set D = {d : Q + diag(d) + alpha A^T A psd} that
minimizes eta^T d.  Both solvers below run coordinate descent on a log-det
barrier formulation

    min  reg(d) - sigma * log det(Q + alpha A^T A + diag(d)),

where reg is either the smooth quadratic eta^T d + rho ||d||^2 or the
nonsmooth eta^T d + lambda sum(max(d_i, 0)) with lambda = sum(eta).  Every
iterate keeps the barrier matrix positive definite, so any returned d is a
member of D regardless of how early the iteration stops.

Each coordinate step has a closed form: the best coordinate is the one
with the largest gradient (or minimum-norm subgradient) component, and the
exact one-dimensional minimizer along it is available analytically.  Both
solvers run one loop that updates its state instead of rebuilding it: V =
(Q + alpha A^T A + diag d)^-1 and its diagonal take one in-place
Sherman-Morrison update per step, the regularizer's slopes a <= b change in
entry i only, s = max(a - sigma diag V, min(b - sigma diag V, 0)) is both
the smooth gradient and the minimum-norm subgradient, and the objective is
evaluated only at convergence checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import factor_inverse, min_eigenvalue, sherman_morrison_update

__all__ = [
    "SeparationInput",
    "SeparationConfig",
    "StepQuantities",
    "SeparationResult",
    "eta_from_relaxation",
    "rho_init",
    "sigma_init",
    "select_index_smooth",
    "coordinate_step_smooth",
    "check_restart",
    "update_sigma",
    "solve_smooth",
    "solve_nonsmooth",
]

# Slacks below this are treated as exact zeros; anything lower is an error.
_ETA_FLOOR = -1e-10


def eta_from_relaxation(x, y) -> np.ndarray:
    """Slack vector eta_i = y_i - x_i**2 of a relaxation point.

    Valid relaxation points satisfy y_i >= x_i**2; roundoff slightly below
    zero (>= -1e-10) is clamped, anything worse raises ValueError.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"x and y must match, got {x.shape} vs {y.shape}")
    eta = y - x * x
    low = eta.min(initial=0.0)
    if low < _ETA_FLOOR:
        raise ValueError(f"negative slack {low:.3e} below tolerance; "
                         "point is not a relaxation point")
    return np.maximum(eta, 0.0)


@dataclass(frozen=True)
class SeparationInput:
    """Data of one separation problem.

    Q : symmetric objective matrix (restricted to free variables).
    A : equality rows (may have zero rows).
    alpha : nonnegative multiplier of A^T A in the barrier matrix.
    eta : relaxation slacks, elementwise >= 0 after clamping.
    """

    Q: np.ndarray
    A: np.ndarray
    alpha: float
    eta: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        n = Q.shape[0]
        if Q.shape != (n, n):
            raise ValueError(f"Q must be square, got {Q.shape}")
        if np.abs(Q - Q.T).max(initial=0.0) > 1e-8 * max(1.0, np.abs(Q).max(initial=0.0)):
            raise ValueError("Q must be symmetric")
        A = self.A
        A = np.zeros((0, n)) if A is None or np.size(A) == 0 \
            else np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape[1] != n:
            raise ValueError(f"A must have {n} columns, got {A.shape}")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        eta = np.asarray(self.eta, dtype=float).reshape(-1)
        if eta.shape[0] != n:
            raise ValueError(f"eta must have length {n}")
        if eta.min(initial=0.0) < _ETA_FLOOR:
            raise ValueError(f"eta has component {eta.min():.3e} below tolerance")
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "eta", np.maximum(eta, 0.0))

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def barrier_base(self) -> np.ndarray:
        """Q + alpha A^T A, the matrix the diagonal perturbation is added to."""
        if self.A.shape[0] == 0 or self.alpha == 0.0:
            return self.Q.copy()
        return self.Q + self.alpha * (self.A.T @ self.A)


@dataclass
class SeparationConfig:
    """Tuning constants of the coordinate-descent solvers.

    rho0 seeds the quadratic regularization weight of the smooth solver and
    must be set (``rho_init`` computes the standard seed from the problem
    data).  The remaining fields default to the reference values.
    """

    rho0: float | None = None
    max_iter_per_var: int = 500     # iteration cap is this times n
    sigma_min: float = 1e-5
    sigma_update: float = 0.8
    eps_update: float = 0.03        # gradient-norm ratio enabling a sigma cut
    check_every: int = 10           # objective check every this times n steps
    eps_check: float = 1e-4         # relative improvement below this stops
    rho_update: float = 10.0        # regularization growth on restart
    max_restarts: int = 12
    restart_factor: float = 10.0    # restart when max(d) exceeds this times mu
    trace: bool = False


@dataclass(frozen=True)
class StepQuantities:
    """One smooth coordinate step: minimizer of

        (eta_i + 2 rho d_i) Delta + rho Delta^2 - sigma log(1 + Delta V_ii)

    via the positive root of its stationarity condition.  phi, tau, kappa
    are the combined coefficients; delta is the step.
    """

    index: int
    phi: float
    tau: float
    kappa: float
    delta: float


@dataclass
class SeparationResult:
    """Outcome of a separation run.

    d is a member of D whatever the status; objective is the final
    regularized value (without the barrier term).
    """

    d: np.ndarray
    objective: float
    iterations: int
    restarts: int
    rho: float
    sigma: float
    status: str  # "converged", "max_iter", or "restart_limit"
    trace: list | None = field(default=None, repr=False)


def rho_init(Q, lower, upper) -> float:
    """Seed for the quadratic regularization weight.

    Scales inversely with the objective magnitude Q_max = max |Q_ij| and
    grows with the box diameter delta_max = max(U_i - L_i):

        1e-4 * 10**(4 * floor(log10 delta_max)) / max(1, floor(Q_max/100) * Q_max)

    Raises ValueError when all variables are fixed (delta_max = 0).
    """
    Q = np.asarray(Q, dtype=float)
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    delta_max = float((upper - lower).max(initial=0.0))
    if delta_max <= 0.0:
        raise ValueError("all variables fixed; no regularization scale")
    q_max = float(np.abs(np.triu(Q)).max(initial=0.0))
    denom = max(1.0, math.floor(q_max / 100.0) * q_max)
    return 1e-4 * 10.0 ** (4 * math.floor(math.log10(delta_max))) / denom


def sigma_init(slopes, v_diag) -> float:
    """Initial barrier weight: median of |slope_i| / V_ii.

    ``slopes`` is the gradient of the regularizer at the starting point
    (eta + 2 rho d for the smooth solver, the branch slopes for the
    nonsmooth one); balancing it against the barrier diagonal puts the
    first iterations at a meaningful scale.
    """
    slopes = np.asarray(slopes, dtype=float).reshape(-1)
    v_diag = np.asarray(v_diag, dtype=float).reshape(-1)
    if slopes.shape != v_diag.shape or slopes.size == 0:
        raise ValueError("slopes and v_diag must be matching nonempty vectors")
    if v_diag.min() <= 0.0:
        raise ValueError("V diagonal must be positive")
    return float(np.median(np.abs(slopes) / v_diag))


def select_index_smooth(grad) -> int:
    """Coordinate with the largest absolute gradient (ties: lowest index)."""
    grad = np.asarray(grad, dtype=float)
    return int(np.argmax(np.abs(grad)))


def coordinate_step_smooth(i, d_i, eta_i, v_ii, rho, sigma) -> StepQuantities:
    """Exact minimizer of the smooth objective along coordinate i.

    Solves eta_i + 2 rho (d_i + Delta) = sigma V_ii / (1 + Delta V_ii) for
    the root with 1 + Delta V_ii > 0.  With phi = 1/(2 V_ii),
    tau = (eta_i + 2 rho d_i)/(4 rho) and kappa = sigma/(2 rho):

        Delta = -(phi + tau) + sqrt((phi - tau)**2 + kappa),

    evaluated in the cancellation-free form
    (kappa - 4 phi tau) / (sqrt(...) + phi + tau) when phi + tau > 0.
    """
    return StepQuantities(int(i), *_smooth_step(d_i, eta_i, v_ii, rho, sigma))


def _smooth_step(d_i, eta_i, v_ii, rho, sigma):
    """(phi, tau, kappa, delta) of ``coordinate_step_smooth``."""
    if v_ii <= 0.0 or rho <= 0.0 or sigma <= 0.0:
        raise ValueError("v_ii, rho, sigma must be positive")
    phi = 1.0 / (2.0 * v_ii)
    tau = (eta_i + 2.0 * rho * d_i) / (4.0 * rho)
    kappa = sigma / (2.0 * rho)
    root = math.sqrt((phi - tau) ** 2 + kappa)
    if phi + tau > 0.0:
        delta = (kappa - 4.0 * phi * tau) / (root + phi + tau)
    else:
        delta = -(phi + tau) + root
    # Newton cleanup against the cleared form of the stationarity equation,
    # (eta_i + 2 rho (d_i+Delta)) (1 + Delta V_ii) - sigma V_ii = 0, which
    # stays well conditioned when the root sits next to the barrier pole.
    for _ in range(2):
        t = 1.0 + delta * v_ii
        s_lin = eta_i + 2.0 * rho * (d_i + delta)
        resid = s_lin * t - sigma * v_ii
        if abs(resid) <= 1e-13 * max(1.0, abs(s_lin) * abs(t), sigma * v_ii):
            break
        slope = s_lin * v_ii + 2.0 * rho * t
        if slope <= 0.0:
            break
        candidate = delta - resid / slope
        if 1.0 + candidate * v_ii <= 0.0:
            break
        delta = candidate
    return phi, tau, kappa, delta


def check_restart(d_max: float, mu: float, factor: float = 10.0) -> bool:
    """Whether the iterates have outgrown the trust region.

    True iff max_j |d_j| (passed as d_max) exceeds factor * mu, signalling
    that the current regularization is too weak to keep d bounded.
    """
    return d_max > factor * mu


def update_sigma(sigma, grad_norm, ref_norm, config: SeparationConfig) -> float:
    """Shrink the barrier weight once the current subproblem is nearly solved.

    When the (sub)gradient norm has dropped to eps_update times the
    regularizer's own norm, multiply sigma by sigma_update, never below
    sigma_min.
    """
    if grad_norm <= config.eps_update * ref_norm:
        return max(config.sigma_min, config.sigma_update * sigma)
    return sigma


def _barrier_mu(base: np.ndarray) -> float:
    mu = -min_eigenvalue(base)
    if mu <= 0.0:
        raise ValueError("matrix is already positive semidefinite; "
                         "there is nothing to separate")
    return mu


def _min_norm_subgradient(a, b, sigma, v_diag, out, sv, work):
    """Minimum-norm element of [a_i, b_i] - sigma V_ii per coordinate, a <= b.

    Written into ``out`` through the buffers ``sv`` and ``work``.  When a is
    b (the smooth solver) it is the gradient a - sigma V_ii itself, since
    max(x, min(x, 0)) == x.
    """
    np.multiply(v_diag, sigma, out=sv)
    np.subtract(a, sv, out=out)
    if b is not a:
        np.subtract(b, sv, out=work)
        np.minimum(work, 0.0, out=work)
        np.maximum(out, work, out=out)


def _descend(inverse, d, a, b, sigma, step, objective, ref_norm, config,
             trace, done=0, rho=0.0, mu=None):
    """Coordinate descent from d, updating d, a, b and ``inverse`` in place.

    a, b are the regularizer's left and right slopes at d (the same array
    for the smooth solver).  ``step(i, d_i, v_ii, sigma)`` returns the step
    along i and the new d_i, and refreshes a[i], b[i].  With ``mu`` given,
    |d_i| > restart_factor * mu stops the run before the inverse update.
    Trace rows are numbered from ``done``.  Returns (status, steps, sigma):
    "converged", "max_iter" or "restart".
    """
    max_iter = config.max_iter_per_var * d.size
    check_every = config.check_every * d.size
    s, sv, work = np.empty(d.size), np.empty(d.size), np.empty(d.size)
    _min_norm_subgradient(a, b, sigma, inverse.diag, s, sv, work)
    g_prev = objective(d)
    d_max = float(np.abs(d).max())
    k = 0
    while k < max_iter:
        k += 1
        np.abs(s, out=work)
        i = int(work.argmax())
        delta, d_i = step(i, d.item(i), inverse.diag.item(i), sigma)
        d[i] = d_i
        d_max = max(d_max, abs(d_i))
        if mu is not None and check_restart(d_max, mu, config.restart_factor):
            return "restart", k, sigma
        sherman_morrison_update(inverse, i, delta)
        _min_norm_subgradient(a, b, sigma, inverse.diag, s, sv, work)
        new_sigma = update_sigma(sigma, math.sqrt(s.dot(s)), ref_norm, config)
        if new_sigma != sigma:
            sigma = new_sigma
            _min_norm_subgradient(a, b, sigma, inverse.diag, s, sv, work)
        if trace is not None:
            trace.append((done + k, i, delta, sigma, rho, objective(d)))
        if k % check_every == 0:
            g_now = objective(d)
            if g_prev - g_now < config.eps_check * max(1.0, abs(g_prev)):
                return "converged", k, sigma
            g_prev = g_now
    return "max_iter", k, sigma


def solve_smooth(inp: SeparationInput, config: SeparationConfig) -> SeparationResult:
    """Coordinate descent on the quadratically regularized separation problem.

    Implements the restart strategy: whenever some component of d exceeds
    restart_factor * mu the regularization was too weak, so rho grows by
    rho_update and the iteration restarts from scratch (d = 1.5 mu, fresh
    factorization, fresh sigma).  Returns the final d, which lies in D at
    any stopping status.
    """
    if config.rho0 is None or config.rho0 <= 0.0:
        raise ValueError("config.rho0 must be a positive regularization seed")
    n = inp.n
    eta = inp.eta
    base = inp.barrier_base()
    mu = _barrier_mu(base)
    eta_norm = float(np.linalg.norm(eta))
    if eta_norm == 0.0:
        # exact relaxation point: every d separates equally, keep the seed
        d0 = np.full(n, 1.5 * mu)
        return SeparationResult(d=d0, objective=float(config.rho0) * float(d0 @ d0),
                                iterations=0, restarts=0, rho=float(config.rho0),
                                sigma=0.0, status="converged",
                                trace=[] if config.trace else None)
    rho = float(config.rho0)
    trace = [] if config.trace else None
    eta_l = eta.tolist()
    total_steps = restarts = 0

    def step(i, d_i, v_ii, sigma):
        delta = _smooth_step(d_i, eta_l[i], v_ii, rho, sigma)[3]
        d_i += delta
        a[i] = eta_l[i] + 2.0 * rho * d_i
        return delta, d_i

    def objective(dv):
        return float(eta @ dv + rho * (dv @ dv))

    while True:
        d = np.full(n, 1.5 * mu)
        inverse = factor_inverse(base + np.diag(d))
        a = eta + 2.0 * rho * d
        sigma = sigma_init(a, inverse.diagonal())
        status, k, sigma = _descend(inverse, d, a, a, sigma, step, objective,
                                    eta_norm, config, trace, total_steps,
                                    rho, mu)
        total_steps += k
        if status == "restart":
            if restarts < config.max_restarts:
                restarts += 1
                rho *= config.rho_update
                continue
            status = "restart_limit"  # d is still in D; report it
        return SeparationResult(d=d, objective=objective(d),
                                iterations=total_steps, restarts=restarts,
                                rho=rho, sigma=sigma, status=status,
                                trace=trace)


def _nonsmooth_step(d_i, eta_i, beta_i, sigma, v_ii):
    """Exact minimizer along one coordinate of the nonsmooth objective.

    The one-dimensional function r(d_i + Delta) - sigma log(1 + Delta V_ii)
    has slope beta_i right of the kink d_i + Delta = 0 and eta_i left of
    it; the barrier derivative at the kink is sigma V_ii / t with
    t = 1 - d_i V_ii.  Three cases: stationary point on the positive
    branch, exactly at the kink, or on the negative branch.
    """
    t = 1.0 - d_i * v_ii
    if t <= 0.0:
        return sigma / beta_i - 1.0 / v_ii, False
    ratio = sigma * v_ii / t
    if ratio > beta_i:
        return sigma / beta_i - 1.0 / v_ii, False
    if ratio >= eta_i:
        return -d_i, True
    return sigma / eta_i - 1.0 / v_ii, False


def solve_nonsmooth(inp: SeparationInput, config: SeparationConfig) -> SeparationResult:
    """Coordinate descent with the one-sided regularizer lambda sum(max(d,0)).

    lambda = sum(eta).  No restarts: the regularizer grows linearly, so the
    iterates cannot run away the way the quadratic solver's can.  The index
    choice uses the minimum-norm subgradient, and the coordinate step lands
    exactly on the kink when the subdifferential there contains zero.
    """
    n = inp.n
    eta = inp.eta
    base = inp.barrier_base()
    mu = _barrier_mu(base)
    lam = float(eta.sum())
    d = np.full(n, 1.5 * mu)
    if lam <= 1e-14:
        # zero slack vector: every d has the same objective, keep the seed
        return SeparationResult(d=d, objective=0.0, iterations=0, restarts=0,
                                rho=0.0, sigma=0.0, status="converged",
                                trace=[] if config.trace else None)
    beta = eta + lam
    eta_l, beta_l = eta.tolist(), beta.tolist()
    inverse = factor_inverse(base + np.diag(d))
    a, b = beta.copy(), beta.copy()  # left and right slopes; d starts > 0
    sigma = sigma_init(a, inverse.diagonal())
    trace = [] if config.trace else None

    def step(i, d_i, v_ii, sigma):
        delta, at_kink = _nonsmooth_step(d_i, eta_l[i], beta_l[i], sigma, v_ii)
        d_i = 0.0 if at_kink else d_i + delta
        a[i] = beta_l[i] if d_i > 0.0 else eta_l[i]
        b[i] = eta_l[i] if d_i < 0.0 else beta_l[i]
        return delta, d_i

    def objective(dv):
        return float(eta @ dv + lam * np.maximum(dv, 0.0).sum())

    status, k, sigma = _descend(inverse, d, a, b, sigma, step, objective,
                                float(np.linalg.norm(beta)), config, trace)
    return SeparationResult(d=d, objective=objective(d), iterations=k,
                            restarts=0, rho=0.0, sigma=sigma, status=status,
                            trace=trace)
