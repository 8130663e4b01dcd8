"""Distributed h-clique enumeration vs closed forms, brute force, DuckDB."""
from itertools import combinations
from math import comb

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.cliques.enumerate import clique_instances, clique_members, oriented_edges
from repro.graph import generators as gen
from repro.graph.ops import edge_array, edges_from_pandas
from repro.oracle import assert_equivalent
from repro.patterns import clique
from repro.patterns.instances import (
    count_pattern,
    instances_long,
    pattern_degrees,
    pattern_instances,
)

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
    return clique_instances(spark, g, h).toPandas().to_numpy(dtype=np.int64).reshape(-1, h)


def count_cliques(spark, g, h: int, lister: str) -> int:
    if lister == "driver":
        return len(list_cliques(spark, g, h, lister))
    return count_pattern(spark, g, clique(h))


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
    g, pdf = rand_graph
    assert oriented_edges(g).count() == len(pdf)


def test_oriented_edges_acyclic_rank(rand_graph):
    g, _ = rand_graph
    from repro.graph.ops import degrees

    deg = {r["v"]: r["deg"] for r in degrees(g).collect()}
    for r in oriented_edges(g).collect():
        assert (deg[r["a"]], r["a"]) < (deg[r["b"]], r["b"])


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


def test_h1_is_vertices(spark, rand_graph):
    g, pdf = rand_graph
    n = len(set(pdf["src"]) | set(pdf["dst"]))
    assert clique_instances(spark, g, 1).count() == n


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


@pytest.mark.parametrize("h", [2, 3, 5])
def test_driver_cliques_of_empty_edge_array(h):
    got = clique_members(np.empty((0, 2), dtype=np.int64), h)
    assert got.shape == (0, h) and got.dtype == np.int64


@pytest.mark.parametrize("h", [3, 4, 5])
def test_driver_cliques_with_ids_beyond_int32(rand_graph, h):
    """Ids offset by 2^40 give the same cliques, shifted: the lister works
    in rank space, so its edge keys never see the raw ids."""
    _, pdf = rand_graph
    arr = pdf[["src", "dst"]].to_numpy(dtype=np.int64)
    off = 1 << 40
    got = clique_members(arr + off, h)
    assert {frozenset(r) for r in got} == {
        frozenset(v + off for v in c) for c in brute_cliques(pdf, h)
    }
    assert np.array_equal(got, clique_members(arr, h) + off)


@pytest.mark.parametrize("h", [3, 4])
def test_clique_degrees_vs_bruteforce(spark, rand_graph, h):
    g, pdf = rand_graph
    got = {r["v"]: r["cdeg"] for r in pattern_degrees(spark, g, clique(h)).collect()}
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


def test_instances_long_shape(spark, rand_graph):
    g, _ = rand_graph
    inst = pattern_instances(spark, g, clique(3))
    long = instances_long(inst, clique(3))
    assert long.count() == 3 * inst.count()
    assert long.select("iid").distinct().count() == inst.count()


def test_embedded_clique_dominates(spark):
    pdf = gen.compose(
        gen.clique_pandas(range(10)), gen.erdos_renyi_pandas(50, 0.05, seed=1, offset=20)
    )
    g = edges_from_pandas(spark, pdf)
    assert count_pattern(spark, g, clique(5)) >= comb(10, 5)
