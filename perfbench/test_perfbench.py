"""Tests for the benchmark itself (not for the program it measures).

Run from the repository root:  python -m pytest perfbench -q
"""
import dataclasses
import json
import sys
from pathlib import Path

import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import ALGORITHM_METRIC, SHAPES, WORKLOADS, Shape  # noqa: E402

from repro.graph import datasets as ds  # noqa: E402
from repro.patterns import clique  # noqa: E402


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_seed0_reproduces_dataset(name):
    pd.testing.assert_frame_equal(SHAPES[name].edges_pandas(0), ds.dataset_pandas(name))


def test_other_seed_moves_only_the_background():
    a, b = SHAPES["netscience"].edges_pandas(0), SHAPES["netscience"].edges_pandas(1)
    assert not a.equals(b)
    block = SHAPES["netscience"].block_pandas()
    for pdf in (a, b):
        got = set(zip(pdf["src"], pdf["dst"]))
        assert set(zip(block["src"], block["dst"])) <= got


def test_seed0_expectations_match_committed_tables():
    t3 = pd.read_csv(ROOT / "results" / "table3.csv")
    t5 = pd.read_csv(ROOT / "results" / "table5.csv")
    committed = {(r.dataset, r.pattern): r.density for r in t3.itertuples()}
    for r in t5.itertuples():
        committed.setdefault((r.dataset, r.pattern), r.rho_opt)
    for key, want in checks.SEED0_EXACT.items():
        assert checks.close(committed[key], want), key


@pytest.mark.parametrize("h,want", [(2, 8.5), (3, 816 / 18), (5, 476.0)])
def test_planted_clique_closed_form(h, want):
    assert checks.close(checks.planted_density(18, clique(h)), want)


def test_planted_clique_recounted_from_edges():
    block = SHAPES["ca_hepth"].block_pandas()
    assert checks.close(checks.psi_density(block, range(18), clique(5)), 476.0)


def test_self_times_and_children_sum_to_parent():
    S = spans.Span
    tree = [
        S("core_exact", "q0", None, 0.0, 10.0),
        S("instances", "q0", 0, 1.0, 4.0),
        S("spark", "q0", 1, 2.0, 3.5, jobs=3, tasks=7),
        S("flow.dinic", "q0", 0, 5.0, 9.0, counts={"probes": 1, "nonempty": 1}),
    ]
    own = spans.self_times(tree)
    assert own == [10.0 - 3.0 - 4.0, 3.0 - 1.5, 1.5, 4.0]
    for i, sp in enumerate(tree):
        kids = sum(c.end - c.start for c in tree if c.parent == i)
        assert own[i] + kids == pytest.approx(sp.end - sp.start)
    assert sum(own) == pytest.approx(10.0)
    tot = spans.layer_totals(tree)
    # the spark span's jobs count for Spark and for the layer that caused them
    assert tot["spark"]["spark_jobs"] == tot["instances"]["spark_jobs"] == 3
    assert tot["core_exact"]["spark_jobs"] == 0
    m = spans.layer_metrics(tree, n_passes=1)
    assert m["flow.dinic.nonempty_ratio"] == 1.0
    assert m["kcore.peel.s"] == 0.0  # a layer never reached reads 0


def test_benchmark_json_matches_outputs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(1.0, {"pass_s": 1.0}))
    want = [n for n, _ in spans.LAYER_METRICS] + list(ALGORITHM_METRIC.values()) + list(
        run.TRACE_METRICS
    )
    assert [m["name"] for m in spec["per_layer"]] == want


def _tiny(shape: Shape) -> Shape:
    """Same name, a K7 in a background of 60 vertices."""
    return Shape(shape.name, 7, 60, 90, shape.bg_alpha, shape.bg_seed)


def _tiny_setup(spark, workload):
    graphs = run.build_graphs(spark, [_tiny(SHAPES[s]) for s in workload.shapes], 0)
    return graphs, run.checker_for(graphs, {})


# layers each workload must reach (per-layer table of the benchmark)
REACHED = {
    "exact-dense": ("instances.spark_jobs", "gather.rows", "clique_core.peel.calls",
                    "locate.calls", "network.lemma8.calls", "network.build.nodes",
                    "flow.dinic.probes", "spark.spark_jobs", "core_exact.calls",
                    "exact.calls"),
    "approx-topdown": ("instances.calls", "clique_core.peel.calls", "kcore.gamma.calls",
                       "kcore.peel.calls", "coreapp.rounds", "emcore.rounds",
                       "spark.spark_jobs", "core_app.calls", "peel_app.calls"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_checks_and_traces(spark, name):
    wl = WORKLOADS[name]
    graphs, checker = _tiny_setup(spark, wl)
    assert all(not o.errors for o in run.run_pass(spark, wl, graphs, checker))
    tracer = spans.Tracer(spark.sparkContext)
    tracer.install(spark)
    try:
        outs = run.run_pass(spark, wl, graphs, checker, tracer)
    finally:
        tracer.uninstall()
    tracer.read_spark_jobs()
    assert all(not o.errors for o in outs), [o.errors for o in outs]
    m = spans.layer_metrics(tracer.spans, 1)
    assert [k for k in REACHED[name] if not m[k] > 0] == []
    # every span belongs to a query, and the root spans are the algorithm calls
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == len(wl.queries) and all(s.query for s in tracer.spans)
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(
        sum(s.end - s.start for s in roots))


def test_wrong_density_counts_as_failed(spark, monkeypatch):
    import repro.densest.peel as peel

    wl = WORKLOADS["approx-topdown"]
    graphs, checker = _tiny_setup(spark, wl)
    real = peel.peel_app

    def off_by_one(*a, **kw):
        r = real(*a, **kw)
        return dataclasses.replace(r, density=r.density + 1.0)

    monkeypatch.setattr(peel, "peel_app", off_by_one)
    outs = run.run_pass(spark, wl, graphs, checker)
    failed = [o.query.algorithm for o in outs if o.errors]
    assert failed == ["peel_app"]
    assert run.failed_frac(outs) == pytest.approx(1 / len(wl.queries))
