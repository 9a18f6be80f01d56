"""Workload definitions: seeded instance sets, the timed operations, checks.

A workload is a list of strata (family, n, count).  From a run seed every
stratum yields `count` instances through ``generate_instance``; they are
written with ``save_instance`` and read back with ``load_instance``, so the
solver only ever sees generated files.  One operation is either one
``bnb.solve`` under the workload's node budget (no time limit) or one
root-bound set, the per-instance work of ``quadrelax batch`` without
``--bnb``.

Callees are imported by name so the tracer can patch them here, where this
module looks them up, exactly as it does inside the package.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from quadrelax import bnb
from quadrelax.cli import generate_instance
from quadrelax.linalg import min_eigenvalue
from quadrelax.model import (
    evaluate_objective,
    is_feasible,
    load_instance,
    save_instance,
)
from quadrelax.relax import (
    cutting_surface,
    initial_perturbation,
    select_alpha,
    solve_eigenvalue_relaxation,
)

DENSITY = 0.8

# Instances whose discrete enumeration is this small get the oracle check.
ORACLE_CAP = 7 ** 6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "search" or "root"
    strata: tuple         # ((family, n, count), ...)
    node_limit: int = 0   # search only; 0 for root-bound workloads
    max_nc: int = 20      # cap of the root cut loop


# Each workload's purpose is its `why` in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        "search-box-card", "search",
        (("boxqp", 12, 12), ("boxqp", 16, 12), ("binary_card", 16, 12),
         ("binary_card", 20, 12)),
        node_limit=10, max_nc=3),
    Workload(
        "search-eq-int", "search",
        (("eq_integer", 5, 12), ("eq_integer", 8, 12),
         ("eq_integer", 10, 12)),
        node_limit=150, max_nc=3),
    Workload(
        "root-bounds", "root",
        (("boxqp", 20, 5), ("binary_card", 20, 5), ("eq_integer", 20, 5),
         ("boxqp", 30, 5), ("binary_card", 30, 5), ("eq_integer", 30, 5)),
        max_nc=6),
)}

# The warm-up solve pays HiGHS and LAPACK first-call costs before timing.
WARMUP = ("eq_integer", 5, 1)


@dataclass
class Case:
    """One generated instance, as loaded back from its file."""

    name: str
    family: str
    n: int
    instance: object
    oracle: float | None = None


def instance_seed(seed: int, stratum: int, j: int) -> int:
    return seed * 1000 + 100 * stratum + j


def generate_files(workload: Workload, seed: int, workdir: str) -> list:
    """Write the workload's instance files; returns [(name, family, n, path)].

    The order interleaves the strata, so every prefix of the set, such as
    a pass cut short by the deadline, mixes them evenly.
    """
    os.makedirs(workdir, exist_ok=True)
    out = []
    for j in range(max(count for _, _, count in workload.strata)):
        for k, (family, n, count) in enumerate(workload.strata):
            if j >= count:
                continue
            iseed = instance_seed(seed, k, j)
            name = f"{family}-n{n}-s{iseed}"
            path = os.path.join(workdir, name + ".json")
            save_instance(generate_instance(family, n, DENSITY, iseed), path)
            out.append((name, family, n, path))
    return out


def setup(workload: Workload, seed: int, workdir: str) -> list:
    """Generate, save and load the instance set, then one warm-up solve."""
    cases = [Case(name, family, n, load_instance(path))
             for name, family, n, path in generate_files(workload, seed,
                                                         workdir)]
    family, n, wseed = WARMUP
    path = os.path.join(workdir, "warmup.json")
    save_instance(generate_instance(family, n, DENSITY, wseed), path)
    bnb.solve(load_instance(path), bnb.BnbConfig(node_limit=20))
    return cases


# ---------------------------------------------------------------------------
# Operations.  Each returns a plain dict; `key` holds the deterministic
# outcome that must repeat bit for bit on every pass and under tracing.


def search_op(case: Case, workload: Workload) -> dict:
    rep = bnb.solve(case.instance,
                    bnb.BnbConfig(node_limit=workload.node_limit,
                                  max_nc=workload.max_nc))
    return {"report": rep,
            "key": (rep.status, rep.node_count, rep.max_stored,
                    rep.lower_bound, rep.upper_bound, rep.root_bound)}


def root_op(case: Case, workload: Workload) -> dict:
    inst = case.instance
    sel = select_alpha(inst)
    eig = solve_eigenvalue_relaxation(
        inst, max(0.0, -min_eigenvalue(inst.Q))).value
    eigns = solve_eigenvalue_relaxation(inst, max(0.0, sel.mu)).value
    if initial_perturbation(inst, sel.alpha) is None:
        smooth = nonsmooth = eigns
        cuts = (0, 0)
    else:
        rs = cutting_surface(inst, sel.alpha, max_cuts=workload.max_nc,
                             mode="smooth")
        rn = cutting_surface(inst, sel.alpha, max_cuts=workload.max_nc,
                             mode="nonsmooth")
        smooth, nonsmooth = rs.bound, rn.bound
        cuts = (rs.cuts_added, rn.cuts_added)
    bounds = {"eig": eig, "eigns": eigns, "qcp_smooth": smooth,
              "qcp_nonsmooth": nonsmooth}
    return {"bounds": bounds,
            "key": (sel.alpha, eig, eigns, smooth, nonsmooth) + cuts}


def run_op(case: Case, workload: Workload) -> dict:
    if workload.kind == "search":
        return search_op(case, workload)
    return root_op(case, workload)


# ---------------------------------------------------------------------------
# Correctness checks (outside the timed region).  Each returns a list of
# problems; an empty list means the result passed.


def _rel_tol(*vals) -> float:
    return 1e-9 * max([1.0] + [abs(v) for v in vals if math.isfinite(v)])


def _discrete_count(inst) -> int | None:
    total = 1
    for dom in inst.domains:
        if not dom.is_discrete:
            return None
        total *= 2 if dom.kind in ("binary", "two_point") \
            else int(dom.U - dom.L) + 1
    return total


def prepare_references(cases) -> None:
    """Enumeration optimum of the small all-discrete instances.

    Runs once, untimed and untraced, before the measured loop.
    """
    for case in cases:
        count = _discrete_count(case.instance)
        if count is not None and count <= ORACLE_CAP:
            case.oracle = bnb.brute_force_oracle(case.instance)


def check_search(case: Case, rep) -> list:
    inst = case.instance
    lb, ub = rep.lower_bound, rep.upper_bound
    problems = []
    # every generated instance is feasible by construction
    if rep.status == "infeasible":
        problems.append("feasible instance reported infeasible")
    if rep.best_point is None:
        if math.isfinite(ub):
            problems.append("finite upper bound without a point")
        if rep.status == "optimal":
            problems.append("optimal without an incumbent")
    else:
        if not is_feasible(inst, rep.best_point):
            problems.append("best point is infeasible")
        val = evaluate_objective(inst, rep.best_point)
        if abs(val - ub) > _rel_tol(val, ub):
            problems.append(f"objective {val!r} != upper bound {ub!r}")
    if not lb <= ub + _rel_tol(lb, ub):
        problems.append(f"lower bound {lb!r} above upper bound {ub!r}")
    opt = case.oracle
    if opt is not None:
        tol = 1e-6 * max(1.0, abs(opt))
        if rep.status == "optimal" and abs(opt - ub) > tol:
            problems.append(f"optimal {ub!r} != oracle {opt!r}")
        if opt < lb - tol:
            problems.append(f"oracle {opt!r} below lower bound {lb!r}")
    return problems


def check_root(bounds: dict) -> list:
    eig, eigns = bounds["eig"], bounds["eigns"]
    problems = [f"{k} not finite" for k, v in bounds.items()
                if not math.isfinite(v)]
    if problems:
        return problems
    if eigns < eig - _rel_tol(eig, eigns):
        problems.append("eigns below eig")
    for k in ("qcp_smooth", "qcp_nonsmooth"):
        if bounds[k] < eigns - _rel_tol(eigns, bounds[k]):
            problems.append(f"{k} below eigns")
    return problems


def check(case: Case, workload: Workload, result: dict) -> list:
    if workload.kind == "search":
        return check_search(case, result["report"])
    return check_root(result["bounds"])


# ---------------------------------------------------------------------------
# Deterministic outcome measures


def bounded_gap(lb: float, ub: float) -> float:
    """Berthold's primal-dual gap in [0, 1] (ORL 2013)."""
    if not math.isfinite(ub) or not math.isfinite(lb):
        return 1.0
    if ub == lb:
        return 0.0
    if lb * ub < 0:
        return 1.0
    return abs(ub - lb) / max(abs(ub), abs(lb))


def lift_pct(bound: float, eigns: float) -> float:
    """How far a bound lifts the nullspace spectral bound, in percent."""
    return 100.0 * (bound - eigns) / max(abs(eigns), 1e-3)


def outcome_means(workload: Workload, results: list) -> dict:
    """Quality measures over one whole pass: means of per-instance values.

    Measures that do not apply to the workload's kind read 0.
    """
    out = {"solved_frac": 0.0, "final_gap.mean": 0.0,
           "no_incumbent_frac": 0.0, "root_lift_pct.smooth": 0.0,
           "root_lift_pct.nonsmooth": 0.0}
    results = [r for r in results if r is not None]
    if not results:
        return out
    if workload.kind == "search":
        reps = [r["report"] for r in results]
        out["solved_frac"] = float(np.mean([r.status == "optimal"
                                            for r in reps]))
        out["final_gap.mean"] = float(np.mean(
            [bounded_gap(r.lower_bound, r.upper_bound) for r in reps]))
        out["no_incumbent_frac"] = float(np.mean([r.best_point is None
                                                  for r in reps]))
    else:
        for mode in ("smooth", "nonsmooth"):
            out[f"root_lift_pct.{mode}"] = float(np.mean(
                [lift_pct(r["bounds"][f"qcp_{mode}"], r["bounds"]["eigns"])
                 for r in results]))
    return out

