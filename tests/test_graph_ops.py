"""Graph substrate: canonical edges, degrees, induced subgraphs, CCs."""
import networkx as nx
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph import generators as gen
from repro.graph.ops import (
    components_pandas,
    degrees,
    edges_from_pandas,
    induced_subgraph,
    normalize_edges,
    symmetrize,
    vertices,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tri_path(spark):
    # triangle {1,2,3} + path 3-4-5, plus isolated edge 10-11
    pdf = pd.DataFrame(
        {"src": [1, 2, 1, 3, 4, 10], "dst": [2, 3, 3, 4, 5, 11]}
    )
    return edges_from_pandas(spark, pdf), pdf


def test_normalize_dedupes_and_orients(spark):
    raw = spark.createDataFrame(
        pd.DataFrame({"src": [2, 1, 3, 3, 7], "dst": [1, 2, 3, 4, 8]})
    )
    out = normalize_edges(raw).toPandas().sort_values(["src", "dst"])
    assert out.values.tolist() == [[1, 2], [3, 4], [7, 8]]


def test_normalize_drops_self_loops(spark):
    raw = spark.createDataFrame(pd.DataFrame({"src": [1, 5], "dst": [1, 6]}))
    assert normalize_edges(raw).count() == 1


def test_vertices(tri_path):
    g, _ = tri_path
    vs = sorted(r["v"] for r in vertices(g).collect())
    assert vs == [1, 2, 3, 4, 5, 10, 11]


def test_degrees_values(tri_path):
    g, _ = tri_path
    d = {r["v"]: r["deg"] for r in degrees(g).collect()}
    assert d == {1: 2, 2: 2, 3: 3, 4: 2, 5: 1, 10: 1, 11: 1}


def test_degrees_oracle(spark, tri_path):
    g, pdf = tri_path
    got = degrees(g)
    sql = """
        SELECT v, COUNT(*) AS deg FROM (
          SELECT src AS v FROM e UNION ALL SELECT dst AS v FROM e
        ) GROUP BY v
    """
    assert_equivalent(got, sql, e=pdf)


def test_symmetrize_doubles(tri_path):
    g, _ = tri_path
    assert symmetrize(g).count() == 2 * g.count()


def test_induced_subgraph(tri_path, spark):
    g, _ = tri_path
    keep = spark.createDataFrame(pd.DataFrame({"v": [1, 2, 3, 4]}))
    sub = induced_subgraph(g, keep).toPandas().sort_values(["src", "dst"])
    assert sub.values.tolist() == [[1, 2], [1, 3], [2, 3], [3, 4]]


def test_counts(tri_path):
    g, _ = tri_path
    assert vertices(g).count() == 7
    assert g.count() == 6


def test_connected_components_two_comps(tri_path):
    _, pdf = tri_path
    comp = components_pandas(pdf)
    assert comp[1] == comp[2] == comp[3] == comp[4] == comp[5]
    assert comp[10] == comp[11] != comp[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_components_pandas_matches_networkx(seed):
    pdf = gen.erdos_renyi_pandas(40, 0.04, seed=seed)
    if len(pdf) == 0:
        pytest.skip("empty graph draw")
    roots = components_pandas(pdf)
    groups = {}
    for v, r in roots.items():
        groups.setdefault(r, set()).add(v)
    g = nx.Graph(list(zip(pdf["src"].tolist(), pdf["dst"].tolist())))
    assert set(roots) == set(g)
    for v, r in roots.items():
        assert groups[r] == nx.node_connected_component(g, v)


def test_components_pandas_chain():
    pdf = pd.DataFrame({"src": [1, 2, 3], "dst": [2, 3, 4]})
    roots = components_pandas(pdf, extra_vertices=[99])
    assert len({roots[v] for v in (1, 2, 3, 4)}) == 1
    assert roots[99] != roots[1]
