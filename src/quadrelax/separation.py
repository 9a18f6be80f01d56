"""Separation of diagonal perturbations on a log-det barrier.

Given a relaxation point with slacks eta_i = y_i - x_i**2 >= 0, a deeper
cut is a diagonal d in the set D = {d : Q + diag(d) + alpha A^T A psd} that
minimizes eta^T d.  Both solvers minimize the barrier formulation

    min  reg(d) - sigma * log det(Q + alpha A^T A + diag(d))

along a decreasing path of sigma.  Every iterate keeps the barrier matrix
positive definite, so any returned d is a member of D regardless of how
early the iteration stops.

``solve_smooth`` takes reg = eta^T d + rho ||d||^2 and runs damped Newton:
with V = (Q + alpha A^T A + diag d)^-1 the gradient is eta + 2 rho d -
sigma diag V and the Hessian 2 rho I + sigma V o V (elementwise product).

``solve_nonsmooth`` takes reg = eta^T d + lambda sum(max(d_i, 0)) with
lambda = sum(eta) and runs coordinate descent: each step moves the
coordinate with the largest minimum-norm subgradient component to its
exact one-dimensional minimizer, and V takes one in-place Sherman-Morrison
update per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    cholesky_factor,
    cholesky_solve,
    factor_inverse,
    min_eigenvalue,
    sherman_morrison_update,
)

__all__ = [
    "SeparationInput",
    "SeparationConfig",
    "StepQuantities",
    "SeparationResult",
    "eta_from_relaxation",
    "rho_init",
    "sigma_init",
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
    """Tuning constants of the separation solvers.

    rho0 seeds the quadratic regularization weight of the smooth solver and
    must be set (``rho_init`` computes the standard seed from the problem
    data).  max_iter_per_var caps the moves of each variable: n times that
    many coordinate steps (nonsmooth), or that many Newton steps per restart
    round (smooth).  check_every is for the nonsmooth solver only.
    """

    rho0: float | None = None
    max_iter_per_var: int = 500     # moves of each variable, see above
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


def coordinate_step_smooth(i, d_i, eta_i, v_ii, rho, sigma) -> StepQuantities:
    """Exact minimizer of the smooth objective along coordinate i.

    Solves eta_i + 2 rho (d_i + Delta) = sigma V_ii / (1 + Delta V_ii) for
    the root with 1 + Delta V_ii > 0.  With phi = 1/(2 V_ii),
    tau = (eta_i + 2 rho d_i)/(4 rho) and kappa = sigma/(2 rho):

        Delta = -(phi + tau) + sqrt((phi - tau)**2 + kappa),

    evaluated in the cancellation-free form
    (kappa - 4 phi tau) / (sqrt(...) + phi + tau) when phi + tau > 0.
    """
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
    return StepQuantities(int(i), phi, tau, kappa, delta)


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

    Written into ``out`` through the buffers ``sv`` and ``work``.
    """
    np.multiply(v_diag, sigma, out=sv)
    np.subtract(a, sv, out=out)
    np.subtract(b, sv, out=work)
    np.minimum(work, 0.0, out=work)
    np.maximum(out, work, out=out)


# Armijo fraction of the predicted decrease a Newton step must achieve, and
# the smallest step length the backtracking line search tries.
_ARMIJO = 1e-4
_MIN_STEP = 1e-10


def _barrier_factor(base, d):
    """Upper Cholesky factor of base + diag d and its log det, or Nones."""
    c = cholesky_factor(base + np.diag(d), lower=False)
    return (None, None) if c is None else (c, 2.0 * np.log(c.diagonal()).sum())


def _newton(base, eta, rho, mu, ref_norm, config, trace, done):
    """Damped Newton on the smooth objective at fixed rho, from d = 1.5 mu.

    sigma is cut when the gradient norm reaches eps_update * ref_norm (or
    the line search stalls); the run converges once the regularizer
    improves by less than eps_check (relative) between two cuts.  Trace rows
    are numbered from ``done`` and name the largest coordinate move.
    Returns (status, d, steps, sigma): "converged", "max_iter" or "restart".
    """
    n = eta.size
    d = np.full(n, 1.5 * mu)
    c, logdet = _barrier_factor(base, d)
    if c is None:
        raise ValueError("barrier matrix not positive definite at d = 1.5 mu")
    V = cholesky_solve(c, False, np.eye(n))
    reg = float(eta @ d + rho * (d @ d))
    sigma = sigma_init(eta + 2.0 * rho * d, V.diagonal())
    level = math.inf  # regularizer at the previous cut of sigma
    stalled, k = False, 0
    while True:
        g = eta + 2.0 * rho * d - sigma * V.diagonal()
        if stalled or math.sqrt(g @ g) <= config.eps_update * ref_norm:
            if level - reg < config.eps_check * max(1.0, abs(level)):
                return "converged", d, k, sigma
            level = reg
            sigma = update_sigma(sigma, 0.0, ref_norm, config)
            stalled = False
            continue
        if k == config.max_iter_per_var:
            return "max_iter", d, k, sigma
        H = sigma * V * V
        H.flat[::n + 1] += 2.0 * rho
        c_h = cholesky_factor(H, lower=False)
        if c_h is None:
            stalled = True
            continue
        p = -cholesky_solve(c_h, False, g)
        f, slope = reg - sigma * logdet, _ARMIJO * float(g @ p)
        t = 1.0
        while t >= _MIN_STEP:  # only positive definite trials can pass
            trial = d + t * p
            c, logdet_t = _barrier_factor(base, trial)
            if c is not None:
                reg_t = float(eta @ trial + rho * (trial @ trial))
                if reg_t - sigma * logdet_t <= f + t * slope:
                    break
            t *= 0.5
        else:
            stalled = True
            continue
        k += 1
        d, reg, logdet = trial, reg_t, logdet_t
        V = cholesky_solve(c, False, np.eye(n))
        if trace is not None:
            i = int(np.abs(p).argmax())
            trace.append((done + k, i, t * p.item(i), sigma, rho, reg))
        if check_restart(float(np.abs(d).max()), mu, config.restart_factor):
            return "restart", d, k, sigma


def solve_smooth(inp: SeparationInput, config: SeparationConfig) -> SeparationResult:
    """Damped Newton on the quadratically regularized separation problem.

    Implements the restart strategy: whenever an accepted iterate has a
    component of d above restart_factor * mu the regularization was too
    weak, so rho grows by rho_update and the iteration restarts from
    scratch (d = 1.5 mu, fresh factorization, fresh sigma).  Returns the
    final d, which lies in D at any stopping status.
    """
    if config.rho0 is None or config.rho0 <= 0.0:
        raise ValueError("config.rho0 must be a positive regularization seed")
    n = inp.n
    eta = inp.eta
    base = inp.barrier_base()
    mu = _barrier_mu(base)
    eta_norm = float(np.linalg.norm(eta))
    rho = float(config.rho0)
    trace = [] if config.trace else None
    if eta_norm == 0.0:
        # exact relaxation point: every d separates equally, keep the seed
        d0 = np.full(n, 1.5 * mu)
        return SeparationResult(d=d0, objective=rho * float(d0 @ d0),
                                iterations=0, restarts=0, rho=rho, sigma=0.0,
                                status="converged", trace=trace)
    total_steps = restarts = 0
    while True:
        status, d, k, sigma = _newton(base, eta, rho, mu, eta_norm, config,
                                      trace, total_steps)
        total_steps += k
        if status == "restart":
            if restarts < config.max_restarts:
                restarts += 1
                rho *= config.rho_update
                continue
            status = "restart_limit"  # d is still in D; report it
        return SeparationResult(d=d, objective=float(eta @ d + rho * (d @ d)),
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
    beta_norm = float(np.linalg.norm(beta))
    inverse = factor_inverse(base + np.diag(d))
    a, b = beta.copy(), beta.copy()  # left and right slopes; d starts > 0
    sigma = sigma_init(a, inverse.diagonal())
    trace = [] if config.trace else None

    def objective(dv):
        return float(eta @ dv + lam * np.maximum(dv, 0.0).sum())

    max_iter = config.max_iter_per_var * n
    check_every = config.check_every * n
    s, sv, work = np.empty(n), np.empty(n), np.empty(n)
    _min_norm_subgradient(a, b, sigma, inverse.diag, s, sv, work)
    g_prev = objective(d)
    status, k = "max_iter", 0
    while k < max_iter:
        k += 1
        np.abs(s, out=work)
        i = int(work.argmax())
        d_i = d.item(i)
        delta, at_kink = _nonsmooth_step(d_i, eta_l[i], beta_l[i], sigma,
                                         inverse.diag.item(i))
        d[i] = d_i = 0.0 if at_kink else d_i + delta
        a[i] = beta_l[i] if d_i > 0.0 else eta_l[i]
        b[i] = eta_l[i] if d_i < 0.0 else beta_l[i]
        sherman_morrison_update(inverse, i, delta)
        _min_norm_subgradient(a, b, sigma, inverse.diag, s, sv, work)
        new_sigma = update_sigma(sigma, math.sqrt(s.dot(s)), beta_norm, config)
        if new_sigma != sigma:
            sigma = new_sigma
            _min_norm_subgradient(a, b, sigma, inverse.diag, s, sv, work)
        if trace is not None:
            trace.append((k, i, delta, sigma, 0.0, objective(d)))
        if k % check_every == 0:
            g_now = objective(d)
            if g_prev - g_now < config.eps_check * max(1.0, abs(g_prev)):
                status = "converged"
                break
            g_prev = g_now
    return SeparationResult(d=d, objective=objective(d), iterations=k,
                            restarts=0, rho=0.0, sigma=sigma, status=status,
                            trace=trace)
