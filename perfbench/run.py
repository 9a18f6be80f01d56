#!/usr/bin/env python3
"""Seeded benchmark of the quadrelax solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs a closed loop: one operation at a time, the next starting
when the previous one returns.  The first pass over the workload's instance
set always completes; further passes repeat it until S seconds of operation
time have been measured.  Every result is checked and every repeat must
reproduce the first outcome bit for bit.  Times are scaled to a nominal
machine speed (see Calibrator).  With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 passes alternate untraced
and traced and it carries the per-layer metrics.  BLAS is pinned to one
thread.  Instance files, reports and spans go under .perfbench/ at the
repository root.
"""

from __future__ import annotations

import os

# before numpy loads: its BLAS reads these once
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 3   # set-ups timed in fresh interpreters

# BENCHMARK.json is the one list of workload and metric names and units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def metric_units(key) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in order."""
    return {m["name"]: m["unit"] for m in SPEC[key]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", metavar="DIR",
                   help="time one set-up in DIR and print the seconds "
                        "(used for the set-up samples)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS, read through its own API."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so")):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    out[pkg.__name__] = int(fn())
                    break
    return out


def environment(workload, seed, seconds) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "workload": workload.name,
        "node_budget": workload.node_limit,
        "root_max_cuts": workload.max_nc,
        "seed": seed,
        "seconds": seconds,
    }


# ---------------------------------------------------------------------------
# measurement


class Calibrator:
    """Speed of the machine right now, from a fixed reference kernel.

    On a shared two-core host, core speed was seen to change by up to 1.7x
    for seconds at a time.  Each measured interval is therefore bracketed
    by two runs of a kernel with the solver's mix of interpreter work and
    small dense linear algebra, and scaled by the kernel's nominal over its
    measured time: the result is seconds at nominal speed.  The raw wall
    times are kept in the report.
    """

    NOMINAL_S = 0.01
    WARM, REPS = 20, 200

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((24, 24))
        self._m = a + a.T
        self._eigvalsh = np.linalg.eigvalsh

    def _kernel(self, reps):
        m = self._m
        s = 0.0
        for _ in range(reps):
            v = m @ self._eigvalsh(m)
            s += float(v @ v)
            for i in range(40):
                s += i * 0.5
        return s

    def seconds(self) -> float:
        gc.collect()
        self._kernel(self.WARM)   # re-warm what the measured work evicted
        t = perf_counter()
        self._kernel(self.REPS)
        return perf_counter() - t

    def scale(self, before, after) -> float:
        return self.NOMINAL_S / (0.5 * (before + after))


class Pass:
    """Outcome of one pass over the instance set."""

    def __init__(self, traced):
        self.traced = traced
        self.results = []      # per case, None when the op raised
        self.seconds = 0.0     # summed calibrated op time
        self.span_range = (0, 0)
        self.counts = Counter()


def tail_stat(samples):
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile); with ten samples or fewer it is the max.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))   # nearest-rank percentile
    return xs[rank - 1], pct


class Runner:
    def __init__(self, workloads, workload, cases, tracer=None):
        self.wl = workloads
        self.workload = workload
        self.cases = cases
        self.tracer = tracer
        self.calibrator = Calibrator()
        self.samples = []      # calibrated op seconds
        self.wall = []         # raw op wall seconds
        self.times = {}        # case name -> calibrated op seconds per pass
        self.spent = 0.0       # calibrated op seconds, raised ops raw
        self.attempted = 0
        self.failed = 0        # ops that raised or returned a wrong result
        self.wrong = 0         # ops whose result failed a check
        self.errors = []
        self.first = {}        # case name -> deterministic outcome key

    def op(self, case, traced):
        """Run, time and check one operation; returns (result, seconds).

        A raised exception counts as a failed operation and yields None; a
        result that fails a check, or differs from the first pass, counts
        as failed and wrong.
        """
        self.attempted += 1
        before = self.calibrator.seconds()
        try:
            t = perf_counter()
            if traced:
                self.tracer.instance = case.name
                result = self.tracer.call("op", self.wl.run_op,
                                          (case, self.workload))
            else:
                result = self.wl.run_op(case, self.workload)
            dt = perf_counter() - t
        except Exception:  # noqa: BLE001 - the loop records and goes on
            self.spent += perf_counter() - t
            self.failed += 1
            self.errors.append({"case": case.name,
                                "error": traceback.format_exc()})
            return None, 0.0
        seconds = dt * self.calibrator.scale(before,
                                             self.calibrator.seconds())
        self.spent += seconds
        problems = self.wl.check(case, self.workload, result)
        key = self.first.setdefault(case.name, result["key"])
        if key != result["key"]:
            problems.append("outcome differs from the first pass")
        if problems:
            self.failed += 1
            self.wrong += 1
            self.errors.append({"case": case.name, "error": problems})
        self.samples.append(seconds)
        self.wall.append(dt)
        self.times.setdefault(case.name, []).append(seconds)
        return result, seconds

    def run_pass(self, traced, stop=None):
        """One pass; `stop()`, when given, is asked before each operation."""
        p = Pass(traced)
        if traced:
            before = Counter(self.tracer.counts)
            lo = len(self.tracer.spans)
        with self.tracer.active() if traced else contextlib.nullcontext():
            for case in self.cases:
                if stop is not None and stop():
                    break
                result, seconds = self.op(case, traced)
                p.results.append(result)
                p.seconds += seconds
        if traced:
            p.span_range = (lo, len(self.tracer.spans))
            p.counts = self.tracer.counts - before
        return p

    def measure(self, seconds):
        """Closed loop; the first pass always completes.

        Untraced runs keep cycling, mid-pass if need be, until `seconds`
        of calibrated operation time are measured, so the sample count
        does not follow the host's speed; 1.2 times `seconds` of wall time
        caps the loop on a slow host.  Traced runs alternate whole untraced and
        traced passes, at least one of each, until `seconds` of wall time
        have passed.
        """
        start = perf_counter()
        passes = []
        if self.tracer is None:
            cap = start + 1.2 * seconds

            def stop():
                return self.spent >= seconds or perf_counter() >= cap

            passes.append(self.run_pass(False))
            while not stop():
                passes.append(self.run_pass(False, stop))
        else:
            while not passes or perf_counter() < start + seconds:
                passes.append(self.run_pass(False))
                passes.append(self.run_pass(True))
        return passes, perf_counter() - start


def setup_seconds(calibrator, workload_name, seed, workdir) -> float:
    """Calibrated time of one set-up in a fresh interpreter, with import."""
    before = calibrator.seconds()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
         "--seed", str(seed), "--seconds", "0", "--trace", "0",
         "--setup-only", str(workdir)],
        check=True, capture_output=True, text=True, timeout=120)
    raw = float(out.stdout.strip().splitlines()[-1])
    return raw * calibrator.scale(before, calibrator.seconds())


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(setup_samples, runner) -> dict:
    tail, _ = tail_stat(runner.samples)
    return {"setup_s": statistics.median(setup_samples),
            "op_s.p50": statistics.median(runner.samples),
            "op_s.tail": tail}


def per_layer_metrics(wl, workload, tracer, passes, setup_range) -> dict:
    from tracer import END, NAME, START, self_times

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    k = len(traced)
    own = Counter()
    incl = Counter()
    for p in traced:
        own.update(self_times(tracer.spans, *p.span_range))
        lo, hi = p.span_range
        for rec in tracer.spans[lo:hi]:
            incl[rec[NAME]] += rec[END] - rec[START]
    own = Counter({name: v / k for name, v in own.items()})
    incl = Counter({name: v / k for name, v in incl.items()})
    c = traced[0].counts
    setup_own = self_times(tracer.spans, *setup_range)

    def ratio(a, b):
        return a / b if b else 0.0

    sep_s = own["separation.smooth"] + own["separation.nonsmooth"]
    m = {
        "separation.calls.smooth": c["separation.smooth.calls"],
        "separation.calls.nonsmooth": c["separation.nonsmooth.calls"],
        "separation.s": sep_s,
        "separation.steps": c["separation.steps"],
        "separation.steps_per_s": ratio(c["separation.steps"], sep_s),
        "separation.restarts": c["separation.restarts"],
        "separation.status.max_iter": c["separation.status.max_iter"],
        "separation.status.restart_limit":
            c["separation.status.restart_limit"],
    }
    for kind in ("lin", "quad"):
        s = own[f"qcqp.{kind}"]
        m[f"qcqp.{kind}.calls"] = c[f"qcqp.{kind}.calls"]
        m[f"qcqp.{kind}.s"] = s
        m[f"qcqp.{kind}.iters"] = c[f"qcqp.{kind}.iters"]
        m[f"qcqp.{kind}.s_per_iter"] = ratio(s, c[f"qcqp.{kind}.iters"])
    m["qcqp.nonoptimal"] = c["qcqp.nonoptimal"]
    m.update({
        "relax.reduce.calls": c["relax.reduce.calls"],
        "relax.reduce.s": own["relax.reduce"],
        "relax.feas_lp.calls": c["relax.feas_lp.calls"],
        "relax.feas_lp.s": own["highs.feas_lp"],
        "relax.node_qp.calls": c["relax.node_qp.calls"],
        "relax.node_qp.s": own["relax.node_qp"],
        "relax.node_qp.failures": c["relax.node_qp.failures"],
        "relax.cut_loop.s": own["relax.cut_loop"],
        "relax.cuts_added": c["relax.cuts_added"],
        "relax.epigraph.calls": c["relax.epigraph.calls"],
        "relax.epigraph.failures": c["relax.epigraph.failures"],
        "relax.assemble.s": own["relax.assemble"],
        "relax.alpha.s": own["relax.alpha"],
        "bnb.nodes": c["bnb.nodes"],
        "bnb.nodes_per_s": ratio(c["bnb.nodes"], incl["bnb.solve"]),
        "bnb.peak_open": max((r["report"].max_stored
                              for r in traced[0].results
                              if r is not None and "report" in r),
                             default=0),
        "bnb.nodes.infeasible": c["bnb.nodes.infeasible"],
        "bnb.nodes.folded": c["bnb.nodes.folded"],
        "bnb.nodes.convex": c["bnb.nodes.convex"],
        "bnb.nodes.uncertified": c["bnb.nodes.uncertified"],
        "bnb.branch.calls": c["bnb.branch.calls"],
        "bnb.node_sep.useful_ratio": ratio(c["bnb.node_sep.useful"],
                                           c["bnb.node_sep.calls"]),
        "bnb.incumbent_probes": c["bnb.incumbent_probes"],
        "bnb.repair_lp.calls": c["bnb.repair_lp.calls"],
        "linalg.eig.calls": c["linalg.eig.calls"],
        "linalg.eig.s": own["linalg.eig"],
        "model.load.s": setup_own["model.load"],
    })
    layers = Counter()
    for name, v in own.items():
        layers[name.split(".")[0]] += v
    for layer in ("bnb", "relax", "separation", "qcqp", "linalg", "highs"):
        m[f"self_s.{layer}"] = layers[layer]
    m["self_s.unattributed"] = layers["op"]
    m["traced_wall_s"] = incl["op"]
    base = statistics.fmean(p.seconds for p in untraced)
    m["trace_overhead_pct"] = 100.0 * (statistics.fmean(
        p.seconds for p in traced) / base - 1.0)
    m.update(wl.outcome_means(workload, traced[0].results))
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadrelax" / "__init__.py").is_file():
        print(f"perfbench: no quadrelax package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = Path(args.setup_only or OUT / "work" / run_id)
    try:
        return run(args, run_id, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_lines(metrics, units, runner, tail_pct, report_path) -> list:
    """Human-readable metric lines, then the one-line JSON result."""
    lines = [f"{name:34s} {metrics[name]:.6g} {unit}"
             for name, unit in units.items()]
    lines.append(f"ops {runner.attempted} failed {runner.failed} (wrong "
                 f"results {runner.wrong}); tail is p{tail_pct} of "
                 f"{len(runner.samples)} samples; report {report_path}")
    lines.append(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return lines


def run(args, run_id, workdir) -> int:
    t0 = perf_counter()
    import workloads as wl
    workload = wl.WORKLOADS[args.workload]
    tracer = None
    setup_dir = str(workdir / "setup")
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        with tracer.active("setup"):
            cases = wl.setup(workload, args.seed, setup_dir)
    else:
        cases = wl.setup(workload, args.seed, setup_dir)
    if args.setup_only:
        print(f"{perf_counter() - t0!r}")
        return 0
    setup_range = (0, len(tracer.spans) if tracer else 0)

    wl.prepare_references(cases)
    runner = Runner(wl, workload, cases, tracer)
    setup_samples = []
    if not args.trace:
        setup_samples = [setup_seconds(runner.calibrator, args.workload,
                                       args.seed, workdir / f"setup{i}")
                         for i in range(SETUP_SAMPLES)]
    passes, elapsed = runner.measure(args.seconds)

    if args.trace:
        metrics = per_layer_metrics(wl, workload, tracer, passes, setup_range)
        units = metric_units("per_layer")
    else:
        metrics = end_to_end_metrics(setup_samples, runner)
        units = metric_units("end_to_end")

    tail, tail_pct = tail_stat(runner.samples)
    report = {
        "environment": environment(workload, args.seed, args.seconds),
        "passes": len(passes),
        "measured_s": elapsed,
        "op_samples": len(runner.samples),
        "op_s.tail_percentile": tail_pct,
        "wall_op_s.p50": statistics.median(runner.wall),
        "wall_op_s.tail": tail_stat(runner.wall)[0],
        "setup_samples_s": setup_samples,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "wrong": runner.wrong,
        "outcomes": wl.outcome_means(workload, passes[0].results),
        "errors": runner.errors,
        "instances": {c.name: {"outcome": repr(runner.first.get(c.name)),
                               "op_s": runner.times.get(c.name, [])}
                      for c in cases},
        "metrics": metrics,
    }
    (OUT / "out").mkdir(parents=True, exist_ok=True)
    report_path = OUT / "out" / f"{run_id}.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(OUT / "out" / f"{run_id}.spans.jsonl")
    for line in result_lines(metrics, units, runner, tail_pct,
                             report_path.relative_to(ROOT)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
