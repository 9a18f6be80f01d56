"""Best-bound branch-and-bound on top of the relaxation chain.

The root node is bounded by the cutting-surface loop; every descendant
solves one convex QP with the perturbation inherited from its parent,
optionally followed by a single separation run and a second QP when the
fresh cut is violated at the first solution.  Upper bounds come from
snapped relaxation points repaired by a feasibility LP; no local NLP
solver is involved.  The scalar weight on the equality rows and the root
surrogate perturbation are fixed once at the root and reused unchanged in
every node.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .model import MiqpInstance, evaluate_objective, is_feasible
from .relax import (
    InfeasibleRelaxation,
    ReducedProblem,
    RelaxationSolution,
    SolveFailure,
    cutting_surface,
    initial_perturbation,
    next_cut,
    select_alpha,
    solve_qp_child,
    surrogate_root_perturbation,
)
from .separation import SeparationConfig, solve_smooth

__all__ = [
    "BnbConfig",
    "Node",
    "NodeBound",
    "SolveReport",
    "bound_node",
    "branch",
    "brute_force_oracle",
    "solve",
]

# separation at nodes runs on a reduced budget; one adequate cut is all a
# node gets to use.  On the first passes of the benchmark's seeds 777-779,
# node rounds take a median of 28 Newton steps (p99 83) and 1 of 1,699
# reaches the 100-step cap; root rounds, on the default 500, take at most
# 100 steps and 2 restarts
_NODE_SEP = SeparationConfig(max_steps=100, max_restarts=2)

# slices with at most this many remaining discrete combinations are
# enumerated exactly instead of relaxed
_FOLD_CAP = 512

# absolute gap that closes the tree and fathoms a node
_ABS_TOL = 1e-9


@dataclass
class BnbConfig:
    """Search controls.

    rel_tol closes the tree when the gap falls below
    max(_ABS_TOL, rel_tol * max(|lower bound|, 1e-3)); a node is fathomed
    once its bound comes within _ABS_TOL (1e-9) of the incumbent.  max_nc
    caps the root cutting-surface loop; sep_mode ("smooth" or "nonsmooth")
    picks its separation variant, and anything else raises ValueError.
    Nodes always separate with the smooth solver on the ``_NODE_SEP``
    budget (100 Newton steps per round, 2 restarts); the sigma path and
    stop rule are the separation module's constants.
    """

    time_limit: float | None = None
    rel_tol: float = 1e-6
    max_nc: int = 20
    sep_mode: str = "smooth"
    node_limit: int = 200_000

    def __post_init__(self):
        if self.sep_mode not in ("smooth", "nonsmooth"):
            raise ValueError(f"unknown separation mode {self.sep_mode!r}")


@dataclass
class Node:
    """A box slice of the root domain.

    Remaining discrete sets are encoded by the bound slice itself (the
    reduction's domain tightening recovers them); d is the perturbation
    that produced the accepted bound of the parent.
    """

    lower: np.ndarray
    upper: np.ndarray
    d: np.ndarray
    lb: float
    depth: int


@dataclass
class NodeBound:
    """Outcome of bounding one node: the bound and what children inherit."""

    lb: float
    d_pass: np.ndarray
    solution: RelaxationSolution | None
    certified: bool = True
    convex: bool = False
    exact: bool = False  # lb is the exact minimum of the slice


@dataclass
class SolveReport:
    """Search summary; bounds are clipped so lower <= upper when finite."""

    lower_bound: float
    upper_bound: float
    relative_gap: float  # percent, denominator floored at 1e-3
    node_count: int
    max_stored: int
    wall_time: float
    status: str  # optimal | infeasible | time_limit | node_limit
    best_point: np.ndarray | None = None
    root_bound: float | None = None
    root_cuts: int = 0


def _solve_child(instance, d, bounds, red=None):
    """QP child; None when it misses KKT certification."""
    try:
        return solve_qp_child(instance, d, bounds, red=red)
    except SolveFailure:
        return None


def _fold_slice(instance, node, red) -> NodeBound | None:
    """Enumerate a small all-discrete slice exactly; None when too big.

    An all-fixed slice is the one combination of no free variables.
    """
    lists = []
    total = 1
    for k, i in enumerate(red.free):
        pts = instance.domains[i].admissible(red.lower[k], red.upper[k])
        if pts is None:
            return None
        total *= len(pts)
        if total > _FOLD_CAP or total == 0:
            return None
        lists.append(pts)
    X = np.array(list(itertools.product(*lists)))
    if red.Ar.shape[0]:
        scale = max(1.0, float(np.abs(red.br).max(initial=0.0)))
        ok = np.abs(X @ red.Ar.T - red.br).max(axis=1) <= 1e-8 * scale
        X = X[ok]
        if X.shape[0] == 0:
            raise InfeasibleRelaxation("no admissible point in the slice")
    vals = np.einsum("ij,jk,ik->i", X, red.Qr, X) + X @ red.qr + red.const
    k = int(np.argmin(vals))
    value = float(vals[k])
    sol = red.solution(X[k], X[k] ** 2, value)
    return NodeBound(value, node.d, sol, convex=True, exact=True)


def bound_node(instance: MiqpInstance, node: Node, alpha: float,
               separate: bool = True, prune_at: float = np.inf, *,
               structures: dict | None = None) -> NodeBound:
    """Bound one node: inherited-d QP, then a conditional separation pass.

    Slices with at most 512 remaining discrete combinations are enumerated
    exactly, all-fixed slices included.  Convex slices (reduced Q PSD on
    the reduced nullspace) skip the perturbation machinery and solve the
    plain continuous relaxation.
    Otherwise the first QP uses the inherited d; one smooth separation
    round (``relax.next_cut``, on a reduced budget) then proposes d_new,
    and a second QP is solved only if the new cut is violated at the first
    solution.  The larger bound wins and its perturbation is what
    descendants inherit.  A first bound at or above prune_at already
    fathoms the node, so the separation pass is skipped there.

    structures is passed to ``ReducedProblem.build``: a dict kept across
    the nodes of one search lets each free set derive its structure, and
    the convexity gate its eigenvalue, once.

    Raises InfeasibleRelaxation when the slice is empty.  A node whose
    QP misses KKT certification keeps the inherited bound (certified=False,
    no solution).
    """
    red = ReducedProblem.build(instance, node.lower, node.upper,
                               structures=structures)
    bounds = (node.lower, node.upper)
    folded = _fold_slice(instance, node, red)
    if folded is not None:
        return folded

    if red.structure.convex:
        sol = _solve_child(instance, np.zeros(instance.n), bounds, red=red)
        if sol is None:
            return NodeBound(node.lb, node.d, None, certified=False)
        return NodeBound(sol.value, node.d, sol, convex=True)

    sol1 = _solve_child(instance, node.d, bounds, red=red)
    if sol1 is None:
        return NodeBound(node.lb, node.d, None, certified=False)
    if not separate or sol1.value >= prune_at:
        return NodeBound(sol1.value, node.d, sol1)

    # second solve only if the new cut is violated at the first solution
    d_new = next_cut(red, alpha, sol1, node.d, solve_smooth, _NODE_SEP)
    if d_new is not None:
        sol2 = _solve_child(instance, d_new, bounds, red=red)
        if sol2 is not None and sol2.value >= sol1.value:
            return NodeBound(sol2.value, d_new, sol2)
    return NodeBound(sol1.value, node.d, sol1)


# ---------------------------------------------------------------------------
# Branching


def _split(instance: MiqpInstance, node: Node, i: int, xi: float) -> list:
    """Children of node that split variable i at xi, as its domain rules."""
    children = []
    for lo, hi in instance.domains[i].split(node.lower[i], node.upper[i], xi):
        lower = node.lower.copy()
        upper = node.upper.copy()
        lower[i], upper[i] = lo, hi
        children.append(Node(lower, upper, node.d, node.lb, node.depth + 1))
    return children


def branch(instance: MiqpInstance, node: Node,
           solution: RelaxationSolution) -> list:
    """Children after splitting on the largest hull gap eta_i = y_i - x_i^2.

    Ties go to the lowest index.  When every gap is below 1e-9 the
    relaxation is exact in the lifted variables; a discrete coordinate
    still off its admissible set (beyond 1e-6) is branched instead, and
    with none left the node is fathomed (empty list).
    """
    x, y = solution.x, solution.y
    width = node.upper - node.lower
    unfixed = width > 1e-12
    eta = np.where(unfixed, np.maximum(y - x ** 2, 0.0), 0.0)
    i = int(np.argmax(eta))
    if eta[i] > 1e-9:
        return _split(instance, node, i, float(x[i]))
    for j in range(instance.n):
        dom = instance.domains[j]
        if not unfixed[j] or not dom.is_discrete:
            continue
        if abs(x[j] - dom.nearest_point(float(x[j]))) > 1e-6:
            return _split(instance, node, j, float(x[j]))
    return []


def _fallback_split(instance: MiqpInstance, node: Node) -> list:
    """Split without a relaxation point (uncertified node): widest wins."""
    width = node.upper - node.lower
    disc = [i for i in range(instance.n)
            if width[i] > 1e-12 and instance.domains[i].is_discrete]
    if disc:
        i = max(disc, key=lambda j: width[j])
    else:
        i = int(np.argmax(width))
        if width[i] <= 1e-12:
            return []
    return _split(instance, node, i, 0.5 * (node.lower[i] + node.upper[i]))


# ---------------------------------------------------------------------------
# Incumbents


def _repair(instance: MiqpInstance, z):
    """Fix the discrete coordinates of z, restore Ax=b with the others.

    The LP objective is the objective gradient in the continuous block at
    the snapped point, so among feasible completions a descent-flavored
    vertex is preferred.  Returns None when no completion exists.
    """
    if instance.m == 0:
        return z
    scale = max(1.0, float(np.abs(instance.b).max(initial=0.0)))
    if float(np.abs(instance.A @ z - instance.b).max()) <= 1e-9 * scale:
        return z
    cont = [i for i, dom in enumerate(instance.domains) if not dom.is_discrete]
    if not cont:
        return None
    disc = [i for i in range(instance.n) if instance.domains[i].is_discrete]
    rhs = instance.b - instance.A[:, disc] @ z[disc]
    grad = instance.q[cont] + 2.0 * (instance.Q[np.ix_(cont, disc)] @ z[disc])
    res = optimize.linprog(
        grad, A_eq=instance.A[:, cont], b_eq=rhs,
        bounds=[(instance.domains[i].L, instance.domains[i].U) for i in cont],
        method="highs")
    if not res.success:
        return None
    out = z.copy()
    out[cont] = res.x
    return out


def _update_incumbent(instance, sol, ubd, best_x):
    """Probe candidates derived from a relaxation point; keep the best."""
    if sol is None:
        return ubd, best_x
    snapped = np.array([dom.nearest_point(float(v))
                        for dom, v in zip(instance.domains, sol.x)])
    cands = [snapped]
    if float(np.abs(snapped - sol.x).max()) > 1e-12:
        cands.append(sol.x)
        repaired = _repair(instance, snapped)
        if repaired is not None:
            cands.append(repaired)
    for cand in cands:
        if not is_feasible(instance, cand):
            continue
        val = evaluate_objective(instance, cand)
        if val < ubd:
            ubd, best_x = val, np.asarray(cand, dtype=float).copy()
    return ubd, best_x


# ---------------------------------------------------------------------------
# Search


def _gap_tol(lbd: float, cfg: BnbConfig) -> float:
    # an infinite lower bound (uncertified root) must not close the gap
    if not np.isfinite(lbd):
        return _ABS_TOL
    return max(_ABS_TOL, cfg.rel_tol * max(abs(lbd), 1e-3))


def solve(instance: MiqpInstance, config: BnbConfig | None = None) -> SolveReport:
    """Globally minimize the instance by best-bound branch-and-bound.

    The root is bounded by the cutting-surface loop (or the plain
    continuous relaxation when the problem is already convex on the
    nullspace).  Child QPs inherit the root surrogate perturbation; the
    per-node separation pass runs only when cutting actually improved the
    root bound.  Terminates on gap closure, tree exhaustion, the time
    limit, or the node limit.
    """
    cfg = config or BnbConfig()
    t0 = time.perf_counter()
    n = instance.n
    ubd = np.inf
    best_x = None
    root_cuts = 0
    separate = False

    sel = select_alpha(instance)
    try:
        d0 = initial_perturbation(instance, sel.alpha)
        if d0 is None:
            root_sol = solve_qp_child(instance, np.zeros(n),
                                      (instance.lower, instance.upper))
            root_lb, d_root = root_sol.value, np.zeros(n)
        else:
            root = cutting_surface(instance, sel.alpha, max_cuts=cfg.max_nc,
                                   mode=cfg.sep_mode)
            root_lb, root_sol = root.bound, root.solution
            root_cuts = root.cuts_added
            # child QPs keep the surrogate only when cutting helped;
            # otherwise every node reuses the spectral seed unchanged
            separate = root.bound > root.initial_bound + 1e-9
            d_root = (surrogate_root_perturbation(root.pool) if separate
                      else root.pool.cuts[0].copy())
    except InfeasibleRelaxation:
        dt = time.perf_counter() - t0
        return SolveReport(np.inf, np.inf, 0.0, 1, 0, dt, "infeasible")
    except SolveFailure:
        root_lb, root_sol = -np.inf, None
        d_root = d0 if d0 is not None else np.zeros(n)

    nodes = 1
    max_stored = 0
    structures = {}     # free-set structure, shared by the nodes of a set
    ubd, best_x = _update_incumbent(instance, root_sol, ubd, best_x)
    root_node = Node(instance.lower.copy(), instance.upper.copy(),
                     d_root, root_lb, 0)

    # open nodes (lb, seq, node, sol): a stack drives depth-first plunging
    # while no incumbent exists (otherwise nothing ever prunes); the first
    # incumbent heapifies it for best-bound selection
    open_nodes = []
    heaped = False
    seq = itertools.count()
    lbd = root_lb
    status = None
    if ubd - root_lb > _ABS_TOL:
        open_nodes.append((root_lb, next(seq), root_node, root_sol))
        max_stored = 1

    while open_nodes:
        if cfg.time_limit is not None and time.perf_counter() - t0 > cfg.time_limit:
            status = "time_limit"
            break
        if nodes >= cfg.node_limit:
            status = "node_limit"
            break
        if not heaped and np.isfinite(ubd):
            heapq.heapify(open_nodes)
            heaped = True
        lbd = max(lbd, (open_nodes[0] if heaped else min(open_nodes))[0])
        if ubd - lbd <= _gap_tol(lbd, cfg):
            status = "optimal"
            break
        lb, _, node, sol = (heapq.heappop(open_nodes) if heaped
                            else open_nodes.pop())
        if lb >= ubd - _ABS_TOL:
            continue
        children = (branch(instance, node, sol) if sol is not None
                    else _fallback_split(instance, node))
        opened = []
        for child in children:
            if node.lb >= ubd - _ABS_TOL:
                break  # the inherited bound now fathoms the rest
            try:
                # bound quality only matters once something can be pruned
                nb = bound_node(instance, child, sel.alpha,
                                separate=separate and np.isfinite(ubd),
                                prune_at=ubd - _ABS_TOL,
                                structures=structures)
            except InfeasibleRelaxation:
                nodes += 1
                continue
            nodes += 1
            child.lb = max(nb.lb, node.lb)  # parent bound is valid here too
            child.d = nb.d_pass
            ubd, best_x = _update_incumbent(instance, nb.solution, ubd, best_x)
            if child.lb >= ubd - _ABS_TOL:
                continue
            opened.append((child, nb.solution))
        # plunge order: push the most promising child last
        for child, csol in sorted(opened, key=lambda t: -t[0].lb):
            entry = (child.lb, next(seq), child, csol)
            if heaped:
                heapq.heappush(open_nodes, entry)
            else:
                open_nodes.append(entry)
        max_stored = max(max_stored, len(open_nodes))

    if status is None:
        if np.isfinite(ubd):
            status = "optimal"
            lbd = ubd  # tree exhausted: the incumbent is the optimum
        else:
            status = "infeasible"
            lbd = ubd = np.inf

    lbd = min(lbd, ubd)
    if np.isfinite(lbd) and np.isfinite(ubd):
        rel = max(0.0, 100.0 * (ubd - lbd) / max(abs(lbd), 1e-3))
    elif lbd == ubd:
        rel = 0.0
    else:
        rel = np.inf
    return SolveReport(
        lower_bound=float(lbd), upper_bound=float(ubd), relative_gap=rel,
        node_count=nodes, max_stored=max_stored,
        wall_time=time.perf_counter() - t0, status=status,
        best_point=best_x, root_bound=None if root_lb == -np.inf else root_lb,
        root_cuts=root_cuts)


# ---------------------------------------------------------------------------
# Enumeration oracle


def _best_in_chunk(instance, chunk, scale, best, best_x):
    X = np.array(chunk)
    if instance.m:
        ok = np.abs(X @ instance.A.T - instance.b).max(axis=1) <= 1e-8 * scale
        X = X[ok]
        if X.shape[0] == 0:
            return best, best_x
    vals = np.einsum("ij,jk,ik->i", X, instance.Q, X) + X @ instance.q
    k = int(np.argmin(vals))
    if vals[k] < best:
        return float(vals[k]), X[k].copy()
    return best, best_x


def brute_force_oracle(instance: MiqpInstance) -> float:
    """Global optimum by exhaustive search, for verification at desk scale.

    All-discrete instances are enumerated exactly (at most 2**20
    combinations, equality rows filtered at 1e-8 relative); box-only
    continuous instances with n <= 4 use a dense grid (41 points per axis
    up to n=3, 21 at n=4) plus a local polish from the best grid point.
    Anything else is out of range and raises ValueError.
    """
    doms = instance.domains
    if all(d.is_discrete for d in doms):
        lists = [d.admissible(d.L, d.U) for d in doms]
        total = 1
        for pts in lists:
            total *= len(pts)
        if total > 1 << 20:
            raise ValueError(f"{total} combinations exceed the 2**20 cap")
        scale = (max(1.0, float(np.abs(instance.b).max(initial=0.0)))
                 if instance.m else 1.0)
        best, best_x = np.inf, None
        chunk = []
        for combo in itertools.product(*lists):
            chunk.append(combo)
            if len(chunk) == 65536:
                best, best_x = _best_in_chunk(instance, chunk, scale,
                                              best, best_x)
                chunk = []
        if chunk:
            best, best_x = _best_in_chunk(instance, chunk, scale, best, best_x)
        if best_x is None:
            raise ValueError("no admissible point satisfies the equality rows")
        return best

    if not any(d.is_discrete for d in doms) and instance.m == 0:
        if instance.n > 4:
            raise ValueError("continuous oracle is limited to n <= 4")
        k = 41 if instance.n <= 3 else 21
        axes = [np.linspace(d.L, d.U, k) for d in doms]
        X = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, instance.n)
        vals = np.einsum("ij,jk,ik->i", X, instance.Q, X) + X @ instance.q
        x0 = X[int(np.argmin(vals))]
        res = optimize.minimize(
            lambda x: float(x @ instance.Q @ x + instance.q @ x), x0,
            jac=lambda x: 2.0 * (instance.Q @ x) + instance.q,
            method="L-BFGS-B",
            bounds=list(zip(instance.lower, instance.upper)))
        return float(min(vals.min(), res.fun))

    raise ValueError("oracle needs all-discrete variables or a small "
                     "unconstrained box")
