"""The separation solvers against verbatim copies of coordinate descent.

``reference_smooth`` and ``reference_nonsmooth`` rebuild diag(V), the
gradient and the objective anew every coordinate step; they run on
test-local copies of the tracked inverse, the closed-form smooth and
nonsmooth coordinate steps and the gradient-gated sigma rule that the
solvers used before both became damped Newton, with the package's own
path constants.  Acceptance test 03 checks the smooth step.  The solvers
are held to a contract instead of bit identity: their d passes a Cholesky
test for D on every seed, a zero slack vector returns the seed untouched,
tracing does not change the run, the iteration cap counts Newton steps,
and wherever the reference converges (for ``solve_smooth``, at the final
rho its Newton run ends at too) the Newton run converges with an
objective at most ``SMOOTH_OBJ_TOL`` or ``NONSMOOTH_OBJ_TOL`` (relative)
above the reference's.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from quadrelax import linalg
from quadrelax.separation import (
    _EPS_CHECK,
    _EPS_UPDATE,
    _RESTART_FACTOR,
    _RHO_UPDATE,
    _SIGMA_MIN,
    _SIGMA_UPDATE,
    SeparationConfig,
    SeparationResult,
    _barrier_start,
    sigma_init,
    solve_nonsmooth,
    solve_smooth,
)

# The references check their objective every this many times n steps, and
# by default take at most STEPS_PER_VAR times n coordinate steps per round.
CHECK_EVERY = 10
STEPS_PER_VAR = 500

# Relative residual of M @ V - I above which a tracked inverse is refactored.
_DRIFT_TOL = 1e-8


@dataclass
class InverseState:
    """Tracked inverse V of a positive definite matrix M.

    ``sherman_morrison_update`` applies rank-one diagonal modifications
    M <- M + delta e_i e_i^T cheaply to V, in place, while keeping M itself
    exact.  Every n updates the product M @ V is checked against the
    identity and V is refactored from M if the accumulated drift exceeds
    tolerance.  ``diag`` is a read-only view of V's diagonal, so it carries
    every update bit for bit at no cost; it is re-bound when a refactor
    replaces V.  ``work`` is scratch space for the rank-one term.
    """

    M: np.ndarray
    V: np.ndarray
    update_count: int = 0
    refactor_count: int = field(default=0, compare=False)
    diag: np.ndarray = field(init=False, repr=False, compare=False)
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.diag = self.V.diagonal()
        self.work = np.empty_like(self.V)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def diagonal(self) -> np.ndarray:
        """The tracked diagonal of V (read-only)."""
        return self.diag


def factor_inverse(M) -> InverseState:
    """Factor a symmetric positive definite matrix and return its inverse state.

    Raises ValueError if M is not positive definite.
    """
    M = linalg._as_symmetric_matrix(M)
    c = linalg.cholesky_factor(M, lower=False)
    if c is None:
        raise ValueError("matrix is not positive definite")
    V = linalg.cholesky_solve(c, False, np.eye(M.shape[0]))
    V = 0.5 * (V + V.T)
    return InverseState(M=M.copy(), V=V)


def sherman_morrison_update(state: InverseState, i: int, delta: float) -> None:
    """Apply M <- M + delta e_i e_i^T to a tracked inverse, in place.

    Requires 1 + delta * V[i, i] > 0, which keeps the updated matrix
    positive definite; violating it raises ValueError and leaves the state
    untouched.  Every n-th update triggers a drift check of M @ V against
    the identity, refactoring V from the exactly tracked M if needed.
    """
    n = state.n
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range for n={n}")
    denom = 1.0 + delta * state.V[i, i]
    if denom <= 0.0:
        raise ValueError(
            f"update would lose positive definiteness (1 + delta*V_ii = {denom:.3e})")
    # row i is column i: V stays exactly symmetric (it is symmetrised when
    # factored and every update subtracts a symmetric outer product)
    vi = state.V[i]
    outer = np.multiply.outer(vi, vi, out=state.work)
    outer *= delta / denom
    state.V -= outer
    state.M[i, i] += delta
    state.update_count += 1
    if state.update_count % n == 0:
        scale = max(1.0, np.abs(state.M).max())
        drift = np.abs(state.M @ state.V - np.eye(n)).max()
        if drift > _DRIFT_TOL * scale:
            state.V = factor_inverse(state.M).V
            state.diag = state.V.diagonal()
            state.refactor_count += 1


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


def update_sigma(sigma, grad_norm, ref_norm):
    """Cut sigma once the gradient norm has dropped to _EPS_UPDATE times
    the regularizer's own norm: multiply it by _SIGMA_UPDATE, never below
    _SIGMA_MIN."""
    if grad_norm <= _EPS_UPDATE * ref_norm:
        return max(_SIGMA_MIN, _SIGMA_UPDATE * sigma)
    return sigma


def reference_smooth(base, eta, config: SeparationConfig,
                     steps_per_var=STEPS_PER_VAR) -> SeparationResult:
    if config.rho0 is None or config.rho0 <= 0.0:
        raise ValueError("config.rho0 must be a positive regularization seed")
    base, eta, mu, _ = _barrier_start(base, eta)
    n = eta.size
    eta_norm = float(np.linalg.norm(eta))
    if eta_norm == 0.0:
        # exact relaxation point: every d separates equally, keep the seed
        d0 = np.full(n, 1.5 * mu)
        return SeparationResult(d=d0, objective=float(config.rho0) * float(d0 @ d0),
                                iterations=0, restarts=0, rho=float(config.rho0),
                                sigma=0.0, status="converged",
                                trace=[] if config.trace else None)
    rho = float(config.rho0)
    max_iter = steps_per_var * n
    check_every = CHECK_EVERY * n
    trace = [] if config.trace else None
    total_steps = 0
    restarts = 0

    while True:
        d = np.full(n, 1.5 * mu)
        d_max = float(np.abs(d).max())
        inverse = factor_inverse(base + np.diag(d))
        sigma = sigma_init(eta + 2.0 * rho * d, inverse.diagonal())
        g_prev = float(eta @ d + rho * (d @ d))
        k = 0
        restarted = False
        while k < max_iter:
            k += 1
            total_steps += 1
            v_diag = np.diag(inverse.V)
            grad = eta + 2.0 * rho * d - sigma * v_diag
            i = int(np.argmax(np.abs(grad)))
            step = coordinate_step_smooth(i, d[i], eta[i], v_diag[i], rho, sigma)
            d[i] += step.delta
            d_max = max(d_max, float(abs(d[i])))
            if d_max > _RESTART_FACTOR * mu:
                restarts += 1
                if restarts > config.max_restarts:
                    # d is still in D; report it rather than fail.
                    return SeparationResult(
                        d=d, objective=float(eta @ d + rho * (d @ d)),
                        iterations=total_steps, restarts=restarts - 1,
                        rho=rho, sigma=sigma, status="restart_limit",
                        trace=trace)
                rho *= _RHO_UPDATE
                restarted = True
                break
            sherman_morrison_update(inverse, i, step.delta)
            grad_now = eta + 2.0 * rho * d - sigma * np.diag(inverse.V)
            sigma = update_sigma(sigma, float(np.linalg.norm(grad_now)),
                                 eta_norm)
            g_now = float(eta @ d + rho * (d @ d))
            if trace is not None:
                trace.append((total_steps, i, step.delta, sigma, rho, g_now))
            if k % check_every == 0:
                if g_prev - g_now < _EPS_CHECK * max(1.0, abs(g_prev)):
                    return SeparationResult(
                        d=d, objective=g_now, iterations=total_steps,
                        restarts=restarts, rho=rho, sigma=sigma,
                        status="converged", trace=trace)
                g_prev = g_now
        if not restarted:
            return SeparationResult(
                d=d, objective=float(eta @ d + rho * (d @ d)),
                iterations=total_steps, restarts=restarts, rho=rho,
                sigma=sigma, status="max_iter", trace=trace)


def _min_norm_subgradient(d, eta, beta, sigma, v_diag):
    s = np.where(d > 0.0, beta - sigma * v_diag, eta - sigma * v_diag)
    at_zero = d == 0.0
    if np.any(at_zero):
        lo = eta[at_zero] - sigma * v_diag[at_zero]
        hi = beta[at_zero] - sigma * v_diag[at_zero]
        s[at_zero] = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
    return s


def reference_nonsmooth(base, eta, config: SeparationConfig,
                        steps_per_var=STEPS_PER_VAR) -> SeparationResult:
    base, eta, mu, _ = _barrier_start(base, eta)
    n = eta.size
    lam = float(eta.sum())
    d = np.full(n, 1.5 * mu)
    if lam <= 1e-14:
        # zero slack vector: every d has the same objective, keep the seed
        return SeparationResult(d=d, objective=0.0, iterations=0, restarts=0,
                                rho=0.0, sigma=0.0, status="converged",
                                trace=[] if config.trace else None)
    beta = eta + lam
    inverse = factor_inverse(base + np.diag(d))
    sigma = sigma_init(np.where(d > 0.0, beta, eta), inverse.diagonal())
    beta_norm = float(np.linalg.norm(beta))
    max_iter = steps_per_var * n
    check_every = CHECK_EVERY * n
    trace = [] if config.trace else None

    def g_value(dv):
        return float(eta @ dv + lam * np.maximum(dv, 0.0).sum())

    g_prev = g_value(d)
    k = 0
    while k < max_iter:
        k += 1
        v_diag = np.diag(inverse.V)
        s = _min_norm_subgradient(d, eta, beta, sigma, v_diag)
        i = int(np.argmax(np.abs(s)))
        delta, at_kink = _nonsmooth_step(d[i], eta[i], beta[i], sigma, v_diag[i])
        d[i] = 0.0 if at_kink else d[i] + delta
        sherman_morrison_update(inverse, i, delta)
        s_now = _min_norm_subgradient(d, eta, beta, sigma, np.diag(inverse.V))
        sigma = update_sigma(sigma, float(np.linalg.norm(s_now)), beta_norm)
        g_now = g_value(d)
        if trace is not None:
            trace.append((k, i, delta, sigma, 0.0, g_now))
        if k % check_every == 0:
            if g_prev - g_now < _EPS_CHECK * max(1.0, abs(g_prev)):
                return SeparationResult(d=d, objective=g_now, iterations=k,
                                        restarts=0, rho=0.0, sigma=sigma,
                                        status="converged", trace=trace)
            g_prev = g_now
    return SeparationResult(d=d, objective=g_value(d), iterations=k,
                            restarts=0, rho=0.0, sigma=sigma,
                            status="max_iter", trace=trace)


def seeded_case(seed):
    """Barrier matrix Q + alpha A'A, slacks, config and whether rows were
    drawn, from one seed.

    Q is scaled over four decades, a third of the instances have no rows,
    some slacks are exactly zero, rho0 spans 1e-10..1e-2 (tiny values force
    restarts) and max_restarts is small enough to hit the restart limit.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    rows = int(rng.integers(0, 3))
    B = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-1, 3)
    A = rng.normal(size=(rows, n)) if rows else np.zeros((0, n))
    alpha = float(rng.uniform(0.5, 2.0)) if rows else 0.0
    eta = np.abs(rng.normal(size=n))
    eta[rng.random(n) < 0.3] = 0.0
    base = 0.5 * (B + B.T) + alpha * (A.T @ A)
    cfg = SeparationConfig(rho0=float(10.0 ** rng.uniform(-10, -2)),
                           max_restarts=int(rng.integers(0, 4)))
    return base, eta, cfg, bool(rows)


# Seeds of ``seeded_case`` that between them take every path of the
# smooth solver and both branch signs of the nonsmooth one (332 was added
# for a refactor of the coordinate-descent solver's tracked inverse);
# ``test_seeds_cover_every_path`` keeps the list honest.
SEEDS = [0, 1, 2, 4, 5, 6, 9, 10, 11, 61, 97, 101, 191, 332]

SOLVERS = {"smooth": (solve_smooth, reference_smooth),
           "nonsmooth": (solve_nonsmooth, reference_nonsmooth)}


# Of the SEEDS and seeds 200-229 (less 212, whose base matrix is psd), the
# Newton run converges at or below the reference on every comparable case:
# 21 smooth ones, the closest 3.2e-4 (relative) below it (seed 226), and
# 43 nonsmooth ones, the closest 2.4e-5 below it (seed 207).  Only seed
# 200, whose slacks are all zero, ties in both modes.  Newton stops once
# the central-path gap is at most _EPS_CHECK relative, while the reference
# stops when its objective improves by less than that between checks.
SMOOTH_OBJ_TOL = 0.0
NONSMOOTH_OBJ_TOL = 0.0

OBJ_TOL = {"smooth": SMOOTH_OBJ_TOL, "nonsmooth": NONSMOOTH_OBJ_TOL}


def assert_bitwise_equal(new, ref):
    assert new.d.tobytes() == ref.d.tobytes()
    assert (new.iterations, new.restarts, new.status) == \
        (ref.iterations, ref.restarts, ref.status)
    assert (new.sigma, new.rho, new.objective) == \
        (ref.sigma, ref.rho, ref.objective)
    assert new.trace == ref.trace


def assert_contract(mode, base, cfg, new, ref):
    barrier = base + np.diag(new.d)
    assert linalg.cholesky_factor(barrier, lower=False) is not None
    if cfg.trace:
        assert len(new.trace) == new.iterations
        assert all(len(row) == 6 for row in new.trace)
    else:
        assert new.trace is None
    if ref.status == "converged" and new.rho == ref.rho:
        assert new.status == "converged"
        assert new.objective <= ref.objective \
            + OBJ_TOL[mode] * max(1.0, abs(ref.objective))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", ["smooth", "nonsmooth"])
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_reference(seed, mode, trace):
    base, eta, cfg, _ = seeded_case(seed)
    cfg.trace = trace
    solve, reference = SOLVERS[mode]
    new, ref = solve(base, eta, cfg), reference(base, eta, cfg)
    assert_contract(mode, base, cfg, new, ref)
    cfg.trace = not trace  # tracing must not change the run
    other = solve(base, eta, cfg)
    assert other.d.tobytes() == new.d.tobytes()
    assert (other.iterations, other.status) == (new.iterations, new.status)


@pytest.mark.parametrize("mode", ["smooth", "nonsmooth"])
@pytest.mark.parametrize("seed", [4, 10])
def test_iteration_budget_matches_reference(seed, mode):
    base, eta, cfg, _ = seeded_case(seed)
    cfg.max_steps = 2
    cfg.trace = True
    solve, reference = SOLVERS[mode]
    new = solve(base, eta, cfg)
    assert new.status == "max_iter"
    # the cap counts Newton steps per round; nonsmooth runs one round
    assert new.iterations <= 2 * (new.restarts + 1)
    assert_contract(mode, base, cfg, new,
                    reference(base, eta, cfg, steps_per_var=2))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", ["smooth", "nonsmooth"])
def test_zero_slack_matches_reference(mode, trace):
    base, eta, cfg, _ = seeded_case(4)
    eta = np.zeros(eta.size)
    cfg.trace = trace
    solve, reference = SOLVERS[mode]
    new = solve(base, eta, cfg)
    assert new.iterations == 0
    assert_bitwise_equal(new, reference(base, eta, cfg))


def test_seeds_cover_every_path():
    seen = set()
    for seed in SEEDS:
        base, eta, cfg, rows = seeded_case(seed)
        if rows:
            seen.add("rows")
        res = solve_smooth(base, eta, cfg)
        seen.add(res.status)
        if res.restarts and res.status == "converged":
            seen.add("restarted")
        if solve_nonsmooth(base, eta, cfg).d.min() < 0.0:
            seen.add("negative")
    assert {"rows", "converged", "max_iter", "restart_limit", "restarted",
            "negative"} <= seen
