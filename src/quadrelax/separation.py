"""Separation of diagonal perturbations on a log-det barrier.

Given a relaxation point with slacks eta_i = y_i - x_i**2 >= 0 and a
symmetric matrix B, a deeper cut is a diagonal d in the set
D = {d : B + diag(d) psd} that minimizes eta^T d.  The caller forms B
(``relax.next_cut`` passes its penalty form); this module only sees the
LMI.  Both solvers run damped Newton on the barrier formulation

    min  reg(d) - sigma * log det(B + diag(d))

along a decreasing path of sigma.  With V = (B + diag d)^-1 the barrier
adds -sigma diag V to the gradient and sigma V o V (elementwise product)
to the Hessian; the regularizer adds its own gradient and a diagonal.
Every iterate keeps the barrier matrix positive definite, so any
returned d is a member of D regardless of how early the iteration stops.

``solve_smooth`` takes reg = eta^T d + rho ||d||^2, with gradient
eta + 2 rho d and Hessian 2 rho I.

``solve_nonsmooth`` takes reg = eta^T d + lambda sum(max(d_i, 0)) with
lambda = sum(eta).  Newton sees each lambda max(d_i, 0) through its
barrier epigraph psi_sigma(d_i), the minimum over p > max(0, d_i) of
lambda p - sigma log p - sigma log(p - d_i), which has a closed form
(``positive_part_epigraph``) and tends to lambda max(d_i, 0) as sigma
falls.

The path and stop rule are module constants.  Newton centres each sigma
level until the gradient norm falls to _EPS_UPDATE (0.03) times the
regularizer's slope norm.  A round converges once the central-path gap,
sigma times the number of log terms, is at most _EPS_CHECK (1e-4) of the
true regularizer or sigma is _SIGMA_MIN (1e-5); else sigma is cut by
_SIGMA_UPDATE (0.1).  The smooth solver restarts with rho grown by
_RHO_UPDATE (10) once d exceeds _RESTART_FACTOR (10) times mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import cholesky_factor, cholesky_solve, min_eigenvalue

__all__ = [
    "SeparationConfig",
    "SeparationResult",
    "eta_from_relaxation",
    "rho_init",
    "sigma_init",
    "positive_part_epigraph",
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


@dataclass
class SeparationConfig:
    """The separation settings callers vary.

    rho0 seeds the quadratic regularization weight of the smooth solver and
    must be set (``rho_init`` computes the standard seed from the problem
    data); the nonsmooth solver ignores it.  max_steps caps the Newton
    steps of each round: each restart round of the smooth solver, the one
    round of the nonsmooth solver.  max_restarts caps the smooth
    solver's restarts.  trace records one row per accepted Newton step.
    The sigma path, the stop rule and the restart rule are the module
    constants (see the module docstring).
    """

    rho0: float | None = None
    max_steps: int = 500            # Newton steps per round, see above
    max_restarts: int = 12
    trace: bool = False


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
    (eta + 2 rho d for the smooth solver, eta + lambda for the nonsmooth
    one, whose start d is positive); balancing it against the barrier
    diagonal puts the first iterations at a meaningful scale.
    """
    slopes = np.asarray(slopes, dtype=float).reshape(-1)
    v_diag = np.asarray(v_diag, dtype=float).reshape(-1)
    if slopes.shape != v_diag.shape or slopes.size == 0:
        raise ValueError("slopes and v_diag must be matching nonempty vectors")
    if v_diag.min() <= 0.0:
        raise ValueError("V diagonal must be positive")
    return float(np.median(np.abs(slopes) / v_diag))


def _barrier_start(base, eta):
    """Checked (B, eta), mu = -lambda_min(B) and the start d = 1.5 mu.

    B must be square and symmetric to 1e-8 (it is symmetrized), eta one
    slack per row, none below _ETA_FLOOR (clamped at 0), and B not psd;
    else ValueError.
    """
    B = np.asarray(base, dtype=float)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ValueError(f"B must be square, got {B.shape}")
    if np.abs(B - B.T).max(initial=0.0) > 1e-8 * max(1.0, np.abs(B).max(initial=0.0)):
        raise ValueError("B must be symmetric")
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if eta.shape[0] != n:
        raise ValueError(f"eta must have length {n}")
    if eta.min(initial=0.0) < _ETA_FLOOR:
        raise ValueError(f"eta has component {eta.min():.3e} below tolerance")
    B = 0.5 * (B + B.T)
    mu = -min_eigenvalue(B)
    if mu <= 0.0:
        raise ValueError("matrix is already positive semidefinite; "
                         "there is nothing to separate")
    return B, np.maximum(eta, 0.0), mu, np.full(n, 1.5 * mu)


def positive_part_epigraph(d, lam, sigma):
    """Barrier epigraph psi_sigma of lam * max(d, 0), elementwise.

        psi_sigma(d) = min over p > max(0, d) of lam p - sigma log p - sigma log(p - d)

    The minimizer is the positive root of lam p^2 - (lam d + 2 sigma) p +
    sigma d = 0,

        p = (lam d + 2 sigma + sqrt(lam^2 d^2 + 4 sigma^2)) / (2 lam),

    evaluated together with q = p - d so that neither loses digits to
    cancellation.  By the envelope theorem the slope is sigma / q, and
    differentiating the stationarity condition gives the curvature
    sigma / (p^2 + q^2).  psi_sigma tends to lam max(d, 0) as sigma falls.
    Returns (p, psi, slope, curvature), arrays shaped like d.
    """
    two_sigma = 2.0 * sigma
    ld = lam * d
    far = np.hypot(ld, two_sigma) + np.abs(ld)   # sqrt(...) + lam |d|
    near = two_sigma * two_sigma / far           # sqrt(...) - lam |d|
    pos = d >= 0.0
    p = (two_sigma + np.where(pos, far, near)) / (2.0 * lam)
    q = (two_sigma + np.where(pos, near, far)) / (2.0 * lam)
    psi = lam * p - sigma * np.log(p * q)
    return p, psi, sigma / q, sigma / (p * p + q * q)


class _Quadratic:
    """Smooth regularizer eta'd + rho |d|^2; Newton sees it unchanged."""

    moves_with_sigma = False
    logs_per_coordinate = 1   # the log det alone

    def __init__(self, eta, rho):
        self.eta, self.rho = eta, rho

    def __call__(self, d, sigma):
        """Newton's value, the true value, gradient and Hessian diagonal."""
        value = float(self.eta @ d + self.rho * (d @ d))
        return value, value, self.eta + 2.0 * self.rho * d, 2.0 * self.rho


class _PositivePart:
    """Nonsmooth regularizer eta'd + lam sum(max(d, 0)); Newton sees its
    barrier epigraph at the current sigma."""

    moves_with_sigma = True
    logs_per_coordinate = 3   # log det, log p and log(p - d)
    rho = 0.0

    def __init__(self, eta, lam):
        self.eta, self.lam = eta, lam

    def __call__(self, d, sigma):
        """Newton's value, the true value, gradient and Hessian diagonal."""
        _, psi, slope, curvature = positive_part_epigraph(d, self.lam, sigma)
        linear = float(self.eta @ d)
        return (linear + float(psi.sum()),
                linear + self.lam * float(np.maximum(d, 0.0).sum()),
                self.eta + slope, curvature)


# Armijo fraction of the predicted decrease a Newton step must achieve, the
# smallest step length the backtracking line search tries, and the relative
# move of d below which an accepted step ends its sigma level.  Then the
# sigma path, the stop rule and the restart rule (module docstring).
_ARMIJO = 1e-4
_MIN_STEP = 1e-10
_ROUNDOFF = 1e-12
_SIGMA_MIN = 1e-5
_SIGMA_UPDATE = 0.1
_EPS_UPDATE = 0.03
_EPS_CHECK = 1e-4
_RHO_UPDATE = 10.0
_RESTART_FACTOR = 10.0


def _barrier_factor(base, d):
    """Upper Cholesky factor of base + diag d and its log det, or Nones."""
    c = cholesky_factor(base + np.diag(d), lower=False)
    return (None, None) if c is None else (c, 2.0 * np.log(c.diagonal()).sum())


def _newton(base, d, reg, slopes, ref_norm, restart_mu, max_steps, trace, done):
    """Damped Newton on reg - sigma logdet(base + diag d), starting from d.

    reg(d, sigma) gives the regularizer's value as Newton sees it at the
    current sigma, its true value, and Newton's gradient and Hessian
    diagonal; reg.moves_with_sigma says whether a cut of sigma changes
    them.  The first sigma balances ``slopes`` against diag V.  A level is
    centred when the gradient norm reaches _EPS_UPDATE * ref_norm, the line
    search stalls or a step moves d by roundoff; the gap rule (module
    docstring) is tested there.  Line searches start at the Dikin radius
    1 / sqrt(p'(V o V)p), inside which every trial is positive definite.
    The run stops after max_steps steps, or with restart_mu set, at an
    iterate above _RESTART_FACTOR * restart_mu.  Trace rows are numbered
    from ``done`` and name the largest coordinate move.  Returns (status,
    d, steps, sigma, true value); status is converged, max_iter or restart.
    """
    n = d.size
    c, logdet = _barrier_factor(base, d)
    if c is None:
        raise ValueError("barrier matrix not positive definite at d = 1.5 mu")
    V = cholesky_solve(c, False, np.eye(n))
    sigma = sigma_init(slopes, V.diagonal())
    value, true, grad, curvature = reg(d, sigma)
    m = reg.logs_per_coordinate * n  # the barrier parameter
    stalled, k = False, 0
    while True:
        g = grad - sigma * V.diagonal()
        if stalled or math.sqrt(g @ g) <= _EPS_UPDATE * ref_norm:
            if sigma == _SIGMA_MIN or m * sigma <= _EPS_CHECK * max(1.0, abs(true)):
                return "converged", d, k, sigma, true
            sigma = max(_SIGMA_MIN, _SIGMA_UPDATE * sigma)
            if reg.moves_with_sigma:
                value, true, grad, curvature = reg(d, sigma)
            stalled = False
            continue
        if k == max_steps:
            return "max_iter", d, k, sigma, true
        VV = V * V
        H = sigma * VV
        H.flat[::n + 1] += curvature
        c_h = cholesky_factor(H, lower=False)
        if c_h is None:
            stalled = True
            continue
        p = -cholesky_solve(c_h, False, g)
        f, slope = value - sigma * logdet, _ARMIJO * float(g @ p)
        t = min(1.0, 1.0 / math.sqrt(float(p @ VV @ p)))
        while t >= _MIN_STEP:  # only positive definite trials can pass
            trial = d + t * p
            c, logdet_t = _barrier_factor(base, trial)
            if c is not None:
                at_trial = reg(trial, sigma)
                if at_trial[0] - sigma * logdet_t <= f + t * slope:
                    break
            t *= 0.5
        else:
            stalled = True
            continue
        k += 1
        stalled = t * np.abs(p).max() <= _ROUNDOFF * max(1.0, np.abs(d).max())
        d, logdet = trial, logdet_t
        value, true, grad, curvature = at_trial
        V = cholesky_solve(c, False, np.eye(n))
        if trace is not None:
            i = int(np.abs(p).argmax())
            trace.append((done + k, i, t * p.item(i), sigma, reg.rho, true))
        if (restart_mu is not None
                and float(np.abs(d).max()) > _RESTART_FACTOR * restart_mu):
            return "restart", d, k, sigma, true


def solve_smooth(base, eta, config: SeparationConfig) -> SeparationResult:
    """Damped Newton on the quadratically regularized separation problem.

    base is the matrix B and eta the slacks.  Restart strategy: whenever
    an accepted iterate has a component of d above _RESTART_FACTOR * mu
    the regularization was too weak, so rho grows by _RHO_UPDATE and the
    iteration restarts from scratch (d = 1.5 mu, fresh factorization,
    fresh sigma).  Returns the final d, which lies in D at any stopping
    status.
    """
    if config.rho0 is None or config.rho0 <= 0.0:
        raise ValueError("config.rho0 must be a positive regularization seed")
    base, eta, mu, d0 = _barrier_start(base, eta)
    eta_norm = float(np.linalg.norm(eta))
    rho = float(config.rho0)
    trace = [] if config.trace else None
    if eta_norm == 0.0:
        # exact relaxation point: every d separates equally, keep the seed
        return SeparationResult(d=d0, objective=rho * float(d0 @ d0),
                                iterations=0, restarts=0, rho=rho, sigma=0.0,
                                status="converged", trace=trace)
    total_steps = restarts = 0
    while True:
        status, d, k, sigma, objective = _newton(
            base, d0, _Quadratic(eta, rho), eta + 2.0 * rho * d0, eta_norm,
            mu, config.max_steps, trace, total_steps)
        total_steps += k
        if status == "restart":
            if restarts < config.max_restarts:
                restarts += 1
                rho *= _RHO_UPDATE
                continue
            status = "restart_limit"  # d is still in D; report it
        return SeparationResult(d=d, objective=objective,
                                iterations=total_steps, restarts=restarts,
                                rho=rho, sigma=sigma, status=status,
                                trace=trace)


def solve_nonsmooth(base, eta, config: SeparationConfig) -> SeparationResult:
    """Damped Newton with the one-sided regularizer lambda sum(max(d, 0)).

    base and eta are as for ``solve_smooth``; lambda = sum(eta).  Newton
    runs on the regularizer's barrier epigraph (``positive_part_epigraph``)
    and stops on, and reports, its true value.  No restarts: the
    regularizer grows linearly, so the iterates cannot run away the way
    the quadratic solver's can.
    """
    base, eta, _, d = _barrier_start(base, eta)
    lam = float(eta.sum())
    trace = [] if config.trace else None
    if lam <= 1e-14:
        # zero slack vector: every d has the same objective, keep the seed
        return SeparationResult(d=d, objective=0.0, iterations=0, restarts=0,
                                rho=0.0, sigma=0.0, status="converged",
                                trace=trace)
    beta = eta + lam  # slopes of the regularizer at the start d > 0
    status, d, k, sigma, objective = _newton(
        base, d, _PositivePart(eta, lam), beta, float(np.linalg.norm(beta)),
        None, config.max_steps, trace, 0)
    return SeparationResult(d=d, objective=objective, iterations=k,
                            restarts=0, rho=0.0, sigma=sigma, status=status,
                            trace=trace)
