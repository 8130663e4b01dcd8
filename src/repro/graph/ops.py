"""Core graph operations over canonical edge DataFrames.

A graph is a Spark DataFrame with two long columns ``src`` and ``dst``
holding each undirected edge exactly once in canonical order
(``src < dst``), with no self-loops and no duplicates. Vertex ids are
arbitrary longs; the vertex set is implicitly the set of edge endpoints
unless an explicit vertex DataFrame is supplied.

All transformations here are pure DataFrame dataflow (Catalyst); the
driver-side helpers are the edge collect used by the in-memory top-down
core searches and the array connected components that CoreExact and
Table 2 run once a graph or core is on the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

EDGE_COLS = ("src", "dst")


def edges_from_pandas(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Create a canonical edge DataFrame from a pandas frame with src/dst."""
    out = pdf[["src", "dst"]].astype("int64")
    # an explicit schema, since an empty frame leaves none to infer
    return normalize_edges(spark.createDataFrame(out, "src long, dst long"))


def normalize_edges(edges: DataFrame) -> DataFrame:
    """Canonicalize: undirected, simple — src<dst, no loops, distinct."""
    lo = F.least("src", "dst").alias("src")
    hi = F.greatest("src", "dst").alias("dst")
    return (
        edges.select(lo, hi)
        .where(F.col("src") != F.col("dst"))
        .distinct()
    )


def symmetrize(edges: DataFrame) -> DataFrame:
    """Both directions of every edge: columns (u, v)."""
    fwd = edges.select(F.col("src").alias("u"), F.col("dst").alias("v"))
    rev = edges.select(F.col("dst").alias("u"), F.col("src").alias("v"))
    return fwd.unionByName(rev)


def induced_subgraph(edges: DataFrame, verts: DataFrame) -> DataFrame:
    """Edges with BOTH endpoints in ``verts`` (a DataFrame with column v)."""
    v1 = verts.select(F.col("v").alias("src"))
    v2 = verts.select(F.col("v").alias("dst"))
    return edges.join(v1, "src", "left_semi").join(v2, "dst", "left_semi").select(
        "src", "dst"
    )


# ---------------------------------------------------------------------------
# Driver-side helpers (small, localized subgraphs only).
# ---------------------------------------------------------------------------


def edge_array(edges: DataFrame) -> np.ndarray:
    """The edge list collected to the driver as an (m, 2) int64 array."""
    return edges.select("src", "dst").toPandas().to_numpy(dtype=np.int64).reshape(-1, 2)


def components(edge_arr: np.ndarray, vertices) -> tuple:
    """Connected components of the subgraph induced on ``vertices``.

    ``edge_arr``: (m, 2) int64 edge array; an edge with an endpoint
    outside ``vertices`` (array-like of ids) is ignored. Returns
    ``(verts, root)``: the sorted distinct ids and, aligned with them, the
    smallest id of each vertex's component.

    Min-label hooking plus pointer jumping (Shiloach & Vishkin, "An
    O(log n) parallel connectivity algorithm", J. Algorithms 1982) over
    ranks: each round hooks every root to the smallest root across its
    edges, then jumps every label to its root, and drops the edges whose
    ends now share a root. A label never exceeds its rank, so the forest
    has no cycle and each root is the smallest rank of its tree.
    """
    verts = np.unique(np.asarray(vertices, dtype=np.int64))
    if not verts.size:
        return verts, verts
    e = np.asarray(edge_arr, dtype=np.int64).reshape(-1, 2)
    ends = np.minimum(np.searchsorted(verts, e), verts.size - 1)
    u, v = ends[(verts[ends] == e).all(axis=1)].T
    label = np.arange(verts.size)
    while u.size:
        lu, lv = label[u], label[v]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        live = label[u] != label[v]
        u, v = u[live], v[live]
    return verts, verts[label]
