"""The node pass against a verbatim copy of its former inline round.

``reference_bound_node`` spells out the separation round that
``bnb.bound_node`` now takes from ``relax.next_cut``: slacks, the exact
point exit, the rho seed, the smooth solve on the node budget, the
embedding into the inherited d, and the violation test against
v = value - q^T x computed by hand.  The bound and the perturbation that
children inherit must match bit for bit, and an unused cut must hand down
the node's own d object.
"""

from dataclasses import replace

import numpy as np
import pytest

from quadrelax import bnb
from quadrelax.bnb import Node, NodeBound, bound_node, branch
from quadrelax.cli import generate_instance
from quadrelax.linalg import projected_min_eigenvalue
from quadrelax.relax import (
    InfeasibleRelaxation,
    ReducedProblem,
    cutting_surface,
    select_alpha,
    solve_qp_child,
    surrogate_root_perturbation,
)
from quadrelax.separation import (
    SeparationConfig,
    eta_from_relaxation,
    rho_init,
    solve_smooth,
)

NODE_SEP = SeparationConfig(max_steps=100, max_restarts=2)


def reference_bound_node(instance, node, alpha, prune_at=np.inf):
    red = ReducedProblem.build(instance, node.lower, node.upper)
    bounds = (node.lower, node.upper)
    if red.n_free == 0:
        sol = solve_qp_child(instance, node.d, bounds, red=red)
        return NodeBound(sol.value, node.d, sol, convex=True, exact=True)

    folded = bnb._fold_slice(instance, node, red)
    if folded is not None:
        return folded

    scale = max(1.0, float(np.abs(red.Qr).max(initial=0.0)))
    if projected_min_eigenvalue(red.Qr, red.basis) >= -1e-9 * scale:
        sol = bnb._solve_child(instance, np.zeros(instance.n), bounds, red=red)
        if sol is None:
            return NodeBound(node.lb, node.d, None, certified=False)
        return NodeBound(sol.value, node.d, sol, convex=True)

    sol1 = bnb._solve_child(instance, node.d, bounds, red=red)
    if sol1 is None:
        return NodeBound(node.lb, node.d, None, certified=False)
    if sol1.value >= prune_at:
        return NodeBound(sol1.value, node.d, sol1)

    eta_f = eta_from_relaxation(sol1.x[red.free], sol1.y[red.free])
    if float(eta_f.max(initial=0.0)) <= 1e-12:
        return NodeBound(sol1.value, node.d, sol1)

    cfg = replace(NODE_SEP, rho0=rho_init(red.Qr, red.lower, red.upper))
    sep = solve_smooth(red.Qr + alpha * (red.Ar.T @ red.Ar), eta_f, cfg)
    d_new = node.d.copy()
    d_new[red.free] = sep.d

    # second solve only if the new cut is violated at the first solution
    v_bar = sol1.value - float(instance.q @ sol1.x)
    gain = sol1.quad_value + float(d_new @ (sol1.x ** 2 - sol1.y)) - v_bar
    if gain > 1e-6 * max(1.0, abs(v_bar)):
        sol2 = bnb._solve_child(instance, d_new, (node.lower, node.upper),
                                red=red)
        if sol2 is not None and sol2.value >= sol1.value:
            return NodeBound(sol2.value, d_new, sol2)
    return NodeBound(sol1.value, node.d, sol1)


def search_nodes(inst, alpha, limit):
    """Nodes of a breadth-first descent from the root, with inherited d."""
    root = cutting_surface(inst, alpha, max_cuts=3)
    d = surrogate_root_perturbation(root.pool)
    frontier = [(Node(inst.lower.copy(), inst.upper.copy(), d, root.bound, 0),
                 root.solution)]
    nodes = []
    while frontier and len(nodes) < limit:
        parent, sol = frontier.pop(0)
        for child in branch(inst, parent, sol):
            try:
                nb = reference_bound_node(inst, child, alpha)
            except InfeasibleRelaxation:
                continue
            nodes.append(child)
            if nb.solution is not None and not nb.exact:
                frontier.append((Node(child.lower, child.upper, nb.d_pass,
                                      nb.lb, child.depth + 1), nb.solution))
    return nodes


@pytest.mark.parametrize("family,n,seed", [
    ("boxqp", 8, 2201001),
    ("binary_card", 14, 2201002),
    ("eq_integer", 6, 2201001),
])
def test_node_pass_matches_reference(family, n, seed):
    inst = generate_instance(family, n, 0.8, seed)
    alpha = select_alpha(inst).alpha
    used = 0
    for node in search_nodes(inst, alpha, 12):
        ref = reference_bound_node(inst, node, alpha)
        nb = bound_node(inst, node, alpha, separate=True)
        assert nb.lb == ref.lb
        assert np.array_equal(nb.d_pass, ref.d_pass)
        assert (nb.d_pass is node.d) == (ref.d_pass is node.d)
        used += nb.d_pass is not node.d
    assert used


SEARCH = bnb.BnbConfig(node_limit=150, max_nc=3)


def reference_as_bound_node(instance, node, alpha, separate=True,
                            prune_at=np.inf, *, structures=None):
    """``reference_bound_node`` under ``bnb.bound_node``'s signature.

    Without separation the first bound is final, which is the reference's
    fathoming exit at prune_at = -inf.
    """
    return reference_bound_node(instance, node, alpha,
                                prune_at if separate else -np.inf)


def recorded_search(inst, monkeypatch):
    """The report of ``bnb.solve`` and every bound_node call it made."""
    calls = []
    bound = bnb.bound_node

    def record(instance, node, alpha, separate=True, prune_at=np.inf, *,
               structures=None):
        calls.append((Node(node.lower.copy(), node.upper.copy(), node.d,
                           node.lb, node.depth), alpha, separate, prune_at))
        return bound(instance, node, alpha, separate, prune_at,
                     structures=structures)

    with monkeypatch.context() as mp:
        mp.setattr(bnb, "bound_node", record)
        report = bnb.solve(inst, SEARCH)
    return report, calls


def report_fields(rep):
    return (rep.status, rep.node_count, rep.max_stored, rep.lower_bound,
            rep.upper_bound, rep.relative_gap, rep.root_bound, rep.root_cuts,
            None if rep.best_point is None else rep.best_point.tobytes())


# 2201011 finds no incumbent within the node limit, so its nodes never
# separate; 2201032 separates at most nodes
@pytest.mark.parametrize("seed,separates", [(2201011, False),
                                            (2201032, True)])
def test_shared_structures_match_reference_over_a_search(seed, separates,
                                                         monkeypatch):
    inst = generate_instance("eq_integer", 8, 0.8, seed)
    report, calls = recorded_search(inst, monkeypatch)
    assert len(calls) == report.node_count - 1
    structures = {}
    used = empty = 0
    for node, alpha, separate, prune_at in calls:
        try:
            ref = reference_as_bound_node(inst, node, alpha, separate,
                                          prune_at)
        except InfeasibleRelaxation as exc:
            with pytest.raises(InfeasibleRelaxation, match=str(exc)):
                bound_node(inst, node, alpha, separate, prune_at,
                           structures=structures)
            empty += 1
            continue
        nb = bound_node(inst, node, alpha, separate, prune_at,
                        structures=structures)
        assert nb.lb == ref.lb
        assert np.array_equal(nb.d_pass, ref.d_pass)
        assert (nb.d_pass is node.d) == (ref.d_pass is node.d)
        assert (nb.certified, nb.convex, nb.exact) == \
            (ref.certified, ref.convex, ref.exact)
        used += nb.d_pass is not node.d
    assert empty and bool(used) == separates
    assert len(structures) < len(calls)

    with monkeypatch.context() as mp:
        mp.setattr(bnb, "bound_node", reference_as_bound_node)
        ref_report = bnb.solve(inst, SEARCH)
    assert report_fields(report) == report_fields(ref_report)
