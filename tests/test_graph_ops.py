"""Graph substrate: canonical edges, degrees, CCs."""
import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.graph import generators as gen
from repro.graph.ops import (
    components,
    edge_array,
    edges_from_pandas,
    normalize_edges,
)
from repro.oracle import assert_equivalent
from repro.patterns.instances import clique_instances, collect_instances


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


def test_edges_from_empty_frame(spark):
    """An empty edge frame is a graph with no edges, not an error; the
    Spark clique plan ships and lists its empty DAG."""
    g = edges_from_pandas(spark, pd.DataFrame({"src": [], "dst": []}))
    assert g.count() == 0
    assert dict(g.dtypes) == {"src": "bigint", "dst": "bigint"}
    tri = collect_instances(clique_instances(spark, edge_array(g), 3))
    assert tri.shape == (0, 3) and tri.dtype == np.int64


def test_normalize_drops_self_loops(spark):
    raw = spark.createDataFrame(pd.DataFrame({"src": [1, 5], "dst": [1, 6]}))
    assert normalize_edges(raw).count() == 1


def test_degrees_values(tri_path):
    g, _ = tri_path
    vs, deg = np.unique(edge_array(g), return_counts=True)
    assert dict(zip(vs.tolist(), deg.tolist())) == {1: 2, 2: 2, 3: 3, 4: 2, 5: 1, 10: 1, 11: 1}


def test_degrees_oracle(spark, tri_path):
    g, pdf = tri_path
    vs, deg = np.unique(edge_array(g), return_counts=True)
    got = spark.createDataFrame(pd.DataFrame({"v": vs, "deg": deg}))
    sql = """
        SELECT v, COUNT(*) AS deg FROM (
          SELECT src AS v FROM e UNION ALL SELECT dst AS v FROM e
        ) GROUP BY v
    """
    assert_equivalent(got, sql, e=pdf)


def test_counts(tri_path):
    g, _ = tri_path
    assert g.count() == 6


def test_connected_components_two_comps(tri_path):
    _, pdf = tri_path
    arr = pdf.to_numpy(np.int64)
    verts, root = components(arr, np.unique(arr))
    comp = dict(zip(verts.tolist(), root.tolist()))
    assert comp[1] == comp[2] == comp[3] == comp[4] == comp[5] == 1
    assert comp[10] == comp[11] == 10


def _paths() -> tuple:
    """A 1,000-vertex path in edge order, a shuffled 1,000-vertex path,
    a path over ids >= 2^62 and one isolated vertex."""
    rng = np.random.default_rng(0)
    p = np.arange(1000)
    in_order = np.stack([p[:-1], p[1:]], axis=1)
    perm = rng.permutation(1000) + 1000
    shuffled = perm[rng.permutation(in_order)]
    big = np.array([[2**62 + 5, 2**62 + 1], [2**62 + 1, 2**62 + 3]])
    edges = np.concatenate([in_order, shuffled, big])
    return edges, np.append(np.unique(edges), 5000)


def _er(seed: int) -> tuple:
    pdf = gen.erdos_renyi_pandas(40, 0.04, seed=seed)
    if len(pdf) == 0:
        pytest.skip("empty graph draw")
    arr = pdf.to_numpy(np.int64)
    return arr, np.unique(arr)


@pytest.mark.parametrize("seed", [0, 1, 2, "paths"])
def test_components_pandas_matches_networkx(seed):
    """``components`` (imported by CoreExact as ``components_pandas``)
    gives networkx's partition, labelled by each component's smallest id.
    The in-order path is a chain of 999 hooks, as deep as Python's
    default recursion limit of 1,000 frames."""
    edges, allv = _paths() if seed == "paths" else _er(seed)
    verts, root = components(edges, allv)
    g = nx.Graph(edges.tolist())
    g.add_nodes_from(allv.tolist())
    assert verts.tolist() == sorted(g)
    groups = {}
    for v, r in zip(verts.tolist(), root.tolist()):
        groups.setdefault(r, set()).add(v)
    for v, r in zip(verts.tolist(), root.tolist()):
        assert groups[r] == nx.node_connected_component(g, v)
        assert r == min(groups[r])


def test_components_pandas_chain():
    """A vertex in no edge is its own component; an edge leaving the
    vertex set is ignored (the components of the induced subgraph)."""
    edges = np.array([[1, 2], [2, 3], [3, 4], [4, 7]])
    verts, root = components(edges, [1, 2, 3, 4, 99])
    assert verts.tolist() == [1, 2, 3, 4, 99]
    assert root.tolist() == [1, 1, 1, 1, 99]
    verts, root = components(edges, [])
    assert verts.size == root.size == 0
