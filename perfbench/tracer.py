"""Span tracer that wraps the package's layer entry points from outside.

Every wrapped name is patched where its consumer looks it up: ``bnb``,
``relax``, ``separation`` and ``cli`` import their callees by name, the
benchmark's own ``workloads`` module does the same, and
``qcqp.solve_qcqp`` and ``scipy.optimize.linprog`` are reached through
module attributes.  ``restore`` puts every original back.

Per-step kernels (``sherman_morrison_update``, ``coordinate_step_smooth``,
``_nonsmooth_step``) are never wrapped; step and iteration counts come from
the returned ``SeparationResult`` and ``IpmResult``.

Spans live in memory as [name, start, end, parent, instance] lists and are
written out once the run ends.  Each operation is one root span named
``op``.  A span's self time is its duration minus the part covered by its
child spans; its layer is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from time import perf_counter

import scipy.optimize

from quadrelax import bnb, cli, qcqp, relax, separation
from quadrelax.relax import InfeasibleRelaxation, SolveFailure

import workloads

NAME, START, END, PARENT, INSTANCE = range(5)

EIG_FUNCTIONS = ("min_eigenvalue", "min_generalized_eigenvalue",
                 "projected_min_eigenvalue", "nullspace_basis",
                 "factor_inverse")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.instance = None
        self._stack = []
        self._patches = []
        self._separated = set()   # bound_node spans that ran a separation

    def call(self, name, fn, args, kwargs=None, after=None, on_error=None):
        """Run fn(*args, **kwargs) inside a span; hooks see the outcome."""
        stack = self._stack
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
        self.spans.append(rec)
        self.counts[name + ".calls"] += 1
        stack.append(idx)
        rec[START] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except Exception as exc:
            rec[END] = perf_counter()
            stack.pop()
            if on_error is not None:
                on_error(self, exc)
            raise
        rec[END] = perf_counter()
        stack.pop()
        if after is not None:
            after(self, idx, result, args)
        return result

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def span(self, name, consumers, attr, after=None, on_error=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, after, on_error)
            return wrapper
        for owner in consumers:
            self._patch(owner, attr, make)

    def count(self, key, consumers, attr):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        for owner in consumers:
            self._patch(owner, attr, make)

    def install(self):
        """Patch every layer entry point; call ``restore`` when done."""
        self.span("bnb.solve", [bnb], "solve", after=_after_solve)
        self.span("bnb.bound_node", [bnb], "bound_node",
                  after=_after_bound_node, on_error=_bound_node_error)
        self.count("bnb.branch.calls", [bnb], "branch")
        self.count("bnb.incumbent_probes", [bnb], "is_feasible")

        self.span("relax.reduce", [relax.ReducedProblem], "build")
        self.span("relax.node_qp", [bnb, relax], "solve_qp_child",
                  on_error=_node_qp_error)
        self.span("relax.epigraph", [relax], "solve_qcp",
                  on_error=_epigraph_error)
        self.span("relax.assemble", [relax], "assemble_qcp")
        self.span("relax.cut_loop", [bnb, relax, cli, workloads],
                  "cutting_surface", after=_after_cut_loop)
        self.span("relax.alpha", [bnb, relax, cli, workloads], "select_alpha")

        self.span("separation.smooth", [bnb, relax], "solve_smooth",
                  after=_after_separation)
        self.span("separation.nonsmooth", [relax], "solve_nonsmooth",
                  after=_after_separation)

        self.span("qcqp.solve", [qcqp], "solve_qcqp", after=_after_qcqp)
        self.span("highs.linprog", [scipy.optimize], "linprog",
                  after=_after_linprog)

        for owner in (bnb, relax, separation, cli, workloads):
            for attr in EIG_FUNCTIONS:
                if attr in owner.__dict__:
                    self.span("linalg.eig", [owner], attr)

        self.span("model.load", [cli, workloads], "load_instance")

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self, instance=None):
        """Spans are recorded inside the block, tagged with `instance`."""
        self.install()
        self.instance = instance
        try:
            yield self
        finally:
            self.restore()
            self.instance = None

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT],
                                     "instance": rec[INSTANCE]}) + "\n")


# ---------------------------------------------------------------------------
# hooks: after(tracer, span index, result, positional args)


def _after_solve(tracer, idx, rep, args):
    tracer.counts["bnb.nodes"] += rep.node_count


def _after_bound_node(tracer, idx, nb, args):
    c = tracer.counts
    if nb.exact:
        c["bnb.nodes.folded"] += 1
    elif nb.convex:
        c["bnb.nodes.convex"] += 1
    if not nb.certified:
        c["bnb.nodes.uncertified"] += 1
    if idx in tracer._separated:
        tracer._separated.discard(idx)
        c["bnb.node_sep.calls"] += 1
        if nb.d_pass is not args[1].d:   # args[1] is the node
            c["bnb.node_sep.useful"] += 1


def _bound_node_error(tracer, exc):
    if isinstance(exc, InfeasibleRelaxation):
        tracer.counts["bnb.nodes.infeasible"] += 1


def _node_qp_error(tracer, exc):
    if isinstance(exc, SolveFailure):
        tracer.counts["relax.node_qp.failures"] += 1


def _epigraph_error(tracer, exc):
    if isinstance(exc, SolveFailure):
        tracer.counts["relax.epigraph.failures"] += 1


def _after_cut_loop(tracer, idx, res, args):
    tracer.counts["relax.cuts_added"] += res.cuts_added


def _after_separation(tracer, idx, res, args):
    c = tracer.counts
    c["separation.steps"] += res.iterations
    c["separation.restarts"] += res.restarts
    c[f"separation.status.{res.status}"] += 1
    parent = tracer.spans[idx][PARENT]
    if parent >= 0 and tracer.spans[parent][NAME] == "bnb.bound_node":
        tracer._separated.add(parent)


def _after_qcqp(tracer, idx, res, args):
    kind = "quad" if any(c.P is not None for c in args[3]) else "lin"
    tracer.spans[idx][NAME] = f"qcqp.{kind}"
    tracer.counts[f"qcqp.{kind}.calls"] += 1
    tracer.counts[f"qcqp.{kind}.iters"] += res.iterations
    if res.status != "optimal":
        tracer.counts["qcqp.nonoptimal"] += 1


def _after_linprog(tracer, idx, res, args):
    parent = tracer.spans[idx][PARENT]
    pname = tracer.spans[parent][NAME] if parent >= 0 else ""
    if pname == "relax.reduce":
        tracer.spans[idx][NAME] = "highs.feas_lp"
        tracer.counts["relax.feas_lp.calls"] += 1
    elif pname == "bnb.solve":
        tracer.spans[idx][NAME] = "highs.repair_lp"
        tracer.counts["bnb.repair_lp.calls"] += 1


def self_times(spans, lo=0, hi=None) -> Counter:
    """Self time per span name over spans[lo:hi]; parents precede children."""
    hi = len(spans) if hi is None else hi
    covered = [0.0] * (hi - lo)
    for k in range(lo, hi):
        rec = spans[k]
        if rec[PARENT] >= lo:
            covered[rec[PARENT] - lo] += rec[END] - rec[START]
    out = Counter()
    for k in range(lo, hi):
        rec = spans[k]
        out[rec[NAME]] += rec[END] - rec[START] - covered[k - lo]
    return out
