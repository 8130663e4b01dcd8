"""h-clique enumeration vs closed forms, brute force, DuckDB."""
from itertools import combinations
from math import comb

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.densest.common import gather
from repro.graph import generators as gen
from repro.graph.ops import edge_array, edges_from_pandas
from repro.oracle import assert_equivalent
from repro.patterns import clique, diamond, star, two_triangle
from repro.patterns.instances import (
    clique_instances,
    clique_members,
    orient,
    pattern_instances,
)
from tests.test_patterns import member_degrees

# The Spark plan keeps each case's original test id; the driver lister
# runs the same case as ``driver-<h>``.
LISTERS = ("spark", "driver")


def lister_cases(hs):
    return [
        pytest.param(h, lister, id=str(h) if lister == "spark" else f"driver-{h}")
        for lister in LISTERS
        for h in hs
    ]


def list_cliques(spark, g, h: int, lister: str) -> np.ndarray:
    """(count, h) member matrix of g's h-cliques from either lister."""
    if lister == "driver":
        return clique_members(edge_array(g), h)
    return pattern_instances(spark, g, clique(h))


def count_cliques(spark, g, h: int, lister: str) -> int:
    return list_cliques(spark, g, h, lister).shape[0]


def brute_cliques(pdf: pd.DataFrame, h: int):
    es = set(zip(pdf["src"], pdf["dst"]))
    vs = sorted(set(pdf["src"]) | set(pdf["dst"]))
    out = []
    for sub in combinations(vs, h):
        if all((a, b) in es for a, b in combinations(sub, 2)):
            out.append(sub)
    return out


@pytest.fixture(scope="module")
def k7(spark):
    pdf = gen.clique_pandas(range(7))
    return edges_from_pandas(spark, pdf), pdf


@pytest.fixture(scope="module")
def rand_graph(spark):
    pdf = gen.erdos_renyi_pandas(25, 0.3, seed=42)
    return edges_from_pandas(spark, pdf), pdf


def test_oriented_edges_once_per_edge(rand_graph):
    _, pdf = rand_graph
    for off in (0, 1 << 40):
        arr = pdf[["src", "dst"]].to_numpy(dtype=np.int64) + off
        dag = orient(arr)
        assert dag.shape == arr.shape and dag.dtype == np.int64
        assert np.array_equal(np.sort(dag, axis=1), np.sort(arr, axis=1))


def test_oriented_edges_acyclic_rank(rand_graph):
    _, pdf = rand_graph
    for off in (0, 1 << 40):
        arr = pdf[["src", "dst"]].to_numpy(dtype=np.int64) + off
        deg = {}
        for v in arr.ravel().tolist():
            deg[v] = deg.get(v, 0) + 1
        for a, b in orient(arr).tolist():
            assert (deg[a], a) < (deg[b], b)


@pytest.mark.parametrize("h,lister", lister_cases([2, 3, 4, 5, 6, 7]))
def test_clique_counts_on_k7(spark, k7, h, lister):
    g, _ = k7
    assert count_cliques(spark, g, h, lister) == comb(7, h)


def test_no_triangles_in_bipartite(spark):
    g = edges_from_pandas(spark, gen.biclique_pandas(range(5), range(5, 11)))
    for lister in LISTERS:
        assert count_cliques(spark, g, 3, lister) == 0


def test_path_graph_has_only_edges(spark):
    pdf = pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 3, 4]})
    g = edges_from_pandas(spark, pdf)
    for lister in LISTERS:
        assert count_cliques(spark, g, 2, lister) == 4
        assert count_cliques(spark, g, 3, lister) == 0


def test_h_below_2_rejected(spark, rand_graph):
    g, pdf = rand_graph
    with pytest.raises(ValueError):
        clique_instances(spark, g, 1)
    with pytest.raises(ValueError):
        clique_members(pdf[["src", "dst"]].to_numpy(), 1)


def test_h2_is_edges(spark, rand_graph):
    g, pdf = rand_graph
    got = clique_instances(spark, g, 2).toPandas()
    got = set(map(tuple, got[["v1", "v2"]].to_numpy()))
    # oriented by (deg, id) — compare as unordered pairs
    want = {frozenset(t) for t in zip(pdf["src"], pdf["dst"])}
    assert {frozenset(t) for t in got} == want


@pytest.mark.parametrize("h,lister", lister_cases([3, 4, 5]))
def test_clique_instances_vs_bruteforce(spark, rand_graph, h, lister):
    g, pdf = rand_graph
    got = list_cliques(spark, g, h, lister)
    got_sets = {frozenset(r) for r in got}
    want_sets = {frozenset(c) for c in brute_cliques(pdf, h)}
    assert got_sets == want_sets
    assert len(got_sets) == len(got)  # no clique listed twice


@pytest.mark.parametrize("h", [3, 4, 5])
def test_clique_instances_same_rows_with_edge_array(spark, h):
    """Passing the edge array only saves a collect: same rows, same order."""
    g = edges_from_pandas(spark, gen.erdos_renyi_pandas(25, 0.45, seed=42))
    own = clique_instances(spark, g, h).collect()
    held = clique_instances(spark, g, h, edge_arr=edge_array(g)).collect()
    assert own == held and len(own) > 0


def gather_jobs(spark, g, pattern) -> tuple:
    """``gather(spark, g, pattern)``'s member matrix and its Spark job
    count, counted as the benchmark runs it: on a checkpointed graph, and
    with its broadcast threshold, under which the levels are broadcast
    joins (shuffle joins add a job per stage)."""
    g = g.localCheckpoint(eager=True)
    sc = spark.sparkContext
    group = f"test-gather-jobs-{pattern.name}"
    threshold = spark.conf.get("spark.sql.autoBroadcastJoinThreshold")
    spark.conf.set("spark.sql.autoBroadcastJoinThreshold", str(10 * 1024 * 1024))
    sc.setJobGroup(group, f"gather {pattern.name}")
    try:
        _, members = gather(spark, g, pattern)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        spark.conf.set("spark.sql.autoBroadcastJoinThreshold", threshold)
    return members, len(sc.statusTracker().getJobIdsForGroup(group))


def test_gather_clique_spark_jobs(spark, rand_graph):
    """A 5-clique gather is one edge collect, the DAG checkpoint and the
    levels' jobs: at most 5 Spark jobs (8 with a Spark SQL orientation)."""
    members, jobs = gather_jobs(spark, rand_graph[0], clique(5))
    assert members.shape[1] == 5
    assert 0 < jobs <= 5


def test_gather_edge_spark_jobs(spark, rand_graph):
    """For Psi = edge the collected edge array is the member matrix, and
    2-star, C4 and K4-e are listed from it on the driver: in each the edge
    collect is the one Spark job, with no listing after it."""
    g, pdf = rand_graph
    members, jobs = gather_jobs(spark, g, clique(2))
    assert jobs == 1
    assert sorted(map(tuple, members.tolist())) == sorted(zip(pdf["src"], pdf["dst"]))
    for pat in (star(2), diamond(), two_triangle()):
        members, jobs = gather_jobs(spark, g, pat)
        assert jobs == 1, pat.name
        assert members.shape[1] == pat.nv and len(members) > 0, pat.name


@pytest.mark.parametrize("h", [2, 3, 5])
def test_driver_cliques_of_empty_edge_array(h):
    got = clique_members(np.empty((0, 2), dtype=np.int64), h)
    assert got.shape == (0, h) and got.dtype == np.int64


@pytest.mark.parametrize("h", [3, 4, 5])
def test_driver_cliques_with_ids_beyond_int32(spark, rand_graph, h):
    """Ids offset by 2^40 give the same cliques, shifted, from both
    listers: the driver lister works in rank space, so its edge keys never
    see the raw ids, and the Spark plan keeps every id column a long."""
    _, pdf = rand_graph
    arr = pdf[["src", "dst"]].to_numpy(dtype=np.int64)
    off = 1 << 40
    driver = clique_members(arr + off, h)
    assert {frozenset(r) for r in driver} == {
        frozenset(v + off for v in c) for c in brute_cliques(pdf, h)
    }
    assert np.array_equal(driver, clique_members(arr, h) + off)
    # the Spark plan lists the same rows, each in the same rank order
    got = list_cliques(spark, edges_from_pandas(spark, pdf + off), h, "spark")
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, driver.tolist()))


@pytest.mark.parametrize("h", [3, 4])
def test_clique_degrees_vs_bruteforce(spark, rand_graph, h):
    g, pdf = rand_graph
    got = member_degrees(list_cliques(spark, g, h, "spark"))
    want = {}
    for c in brute_cliques(pdf, h):
        for v in c:
            want[v] = want.get(v, 0) + 1
    assert got == want


def test_triangle_count_oracle(spark, rand_graph):
    """DuckDB SQL triangle count == Spark enumeration count."""
    g, pdf = rand_graph
    got = clique_instances(spark, g, 3).agg(F.count("*").alias("n_tri"))
    sql = """
        SELECT COUNT(*) AS n_tri
        FROM e a JOIN e b ON a.dst = b.src JOIN e c
          ON a.src = c.src AND b.dst = c.dst
    """
    assert_equivalent(got, sql, e=pdf)


def test_clique_member_matrix_shape(spark, rand_graph):
    """One int64 row of three members per triangle, no two rows on the
    same vertex set."""
    g, pdf = rand_graph
    members = list_cliques(spark, g, 3, "spark")
    assert members.shape == (len(brute_cliques(pdf, 3)), 3)
    assert members.dtype == np.int64
    assert len({frozenset(r) for r in members.tolist()}) == len(members)


def test_embedded_clique_dominates(spark):
    pdf = gen.compose(
        gen.clique_pandas(range(10)), gen.erdos_renyi_pandas(50, 0.05, seed=1, offset=20)
    )
    g = edges_from_pandas(spark, pdf)
    assert count_cliques(spark, g, 5, "spark") >= comb(10, 5)
