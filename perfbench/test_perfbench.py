"""Self-test of the benchmark on a tiny instance set (seconds, not minutes).

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS before numpy loads)
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402
import scipy.optimize  # noqa: E402
from quadrelax import bnb, cli, qcqp, relax, separation  # noqa: E402

TINY_SEARCH = wl.Workload(
    "tiny-search", "search",
    (("eq_integer", 4, 1), ("boxqp", 6, 1), ("binary_card", 6, 1)),
    node_limit=25)
TINY_ROOT = wl.Workload(
    "tiny-root", "root", (("boxqp", 6, 1), ("eq_integer", 6, 1)), max_nc=6)


def make_runner(workload, tmp_path, tracer=None):
    cases = wl.setup(workload, 7, str(tmp_path / workload.name))
    wl.prepare_references(cases)
    return run.Runner(wl, workload, cases, tracer)


def final_json(lines):
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [TINY_SEARCH, TINY_ROOT],
                         ids=lambda w: w.name)
def test_every_metric_prints_with_unit(workload, tmp_path):
    runner = make_runner(workload, tmp_path)
    runner.measure(0)
    e2e = run.end_to_end_metrics([1.0, 2.0, 3.0], runner)
    units = run.metric_units("end_to_end")
    assert set(e2e) == set(units)
    out = final_json(run.result_lines(e2e, units, runner, 50, "r.json"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == set(units)
    assert all(m["unit"] and math.isfinite(m["value"]) and m["value"] > 0
               for m in out["metrics"].values())

    tracer = Tracer()
    traced = make_runner(workload, tmp_path / "t", tracer)
    passes, _ = traced.measure(0)
    layer = run.per_layer_metrics(wl, workload, tracer, passes, (0, 0))
    units = run.metric_units("per_layer")
    assert set(layer) == set(units)
    out = final_json(run.result_lines(layer, units, traced, 50, "r.json"))
    assert set(out["metrics"]) == set(units)
    assert all(m["unit"] and math.isfinite(m["value"])
               for m in out["metrics"].values())


def test_corrupted_result_counts_as_failed(tmp_path, monkeypatch):
    runner = make_runner(TINY_SEARCH, tmp_path)
    real = wl.search_op

    def corrupted(case, workload):
        out = real(case, workload)
        rep = out["report"]
        if case.family == "boxqp":
            rep.upper_bound -= 1.0   # no longer the best point's value
        return out

    monkeypatch.setattr(wl, "search_op", corrupted)
    runner.run_pass(False)
    assert runner.attempted == 3
    assert runner.failed == runner.wrong == 1
    out = final_json(run.result_lines({}, {}, runner, 50, "r.json"))
    assert out["failed"] / out["attempted"] == pytest.approx(1 / 3)
    assert out["correct"] is False


def test_raised_error_counts_as_failed_not_wrong(tmp_path, monkeypatch):
    runner = make_runner(TINY_ROOT, tmp_path)

    def broken(case, workload):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(wl, "root_op", broken)
    runner.run_pass(False)
    assert runner.failed == runner.attempted == 2
    assert runner.wrong == 0


@pytest.mark.parametrize("workload", [TINY_SEARCH, TINY_ROOT],
                         ids=lambda w: w.name)
def test_tracing_leaves_outcomes_and_counters_unchanged(workload, tmp_path):
    plain = make_runner(workload, tmp_path)
    untraced = plain.run_pass(False)
    nodes = sum(r["report"].node_count for r in untraced.results
                if "report" in r)

    counters = []
    for k in range(2):
        tracer = Tracer()
        runner = make_runner(workload, tmp_path / f"t{k}", tracer)
        passes, _ = runner.measure(0)
        assert runner.failed == 0   # traced passes repeat the untraced one
        assert runner.first == plain.first
        m = run.per_layer_metrics(wl, workload, tracer, passes, (0, 0))
        counters.append({k: m[k] for k in (
            "bnb.nodes", "separation.steps", "qcqp.lin.iters",
            "qcqp.quad.iters", "relax.cuts_added", "linalg.eig.calls")})
        assert m["bnb.nodes"] == nodes

        # self times of the layers and the remainder add up to the wall
        parts = sum(v for k, v in m.items() if k.startswith("self_s."))
        assert parts == pytest.approx(m["traced_wall_s"], rel=1e-9)
    assert counters[0] == counters[1]
    assert counters[0]["separation.steps"] > 0


def test_restore_puts_every_name_back():
    owners = (bnb, cli, relax, relax.ReducedProblem, separation, qcqp, wl,
              scipy.optimize)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    with tracer.active():
        assert bnb.solve is not before[0]["solve"]
    assert [dict(vars(o)) for o in owners] == before


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail_stat(list(range(40))) == (29, 75)
    assert run.tail_stat(list(range(100))) == (89, 90)
    assert run.tail_stat([3.0, 1.0]) == (3.0, 100)


def test_bounded_gap():
    assert wl.bounded_gap(-5.0, -5.0) == 0.0
    assert wl.bounded_gap(-5.0, math.inf) == 1.0
    assert wl.bounded_gap(-1.0, 1.0) == 1.0
    assert wl.bounded_gap(-10.0, -8.0) == pytest.approx(0.2)
