"""Core graph operations over canonical edge DataFrames.

A graph is a Spark DataFrame with two long columns ``src`` and ``dst``
holding each undirected edge exactly once in canonical order
(``src < dst``), with no self-loops and no duplicates. Vertex ids are
arbitrary longs; the vertex set is implicitly the set of edge endpoints
unless an explicit vertex DataFrame is supplied.

All transformations here are pure DataFrame dataflow (Catalyst); the
driver-side helpers are the edge collect used by the in-memory top-down
core searches and the union-find connected components that CoreExact
and Table 2 run once a graph or core is on the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

EDGE_COLS = ("src", "dst")


def edges_from_pandas(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Create a canonical edge DataFrame from a pandas frame with src/dst."""
    out = pdf[["src", "dst"]].astype("int64")
    return normalize_edges(spark.createDataFrame(out))


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


def vertices(edges: DataFrame) -> DataFrame:
    """Distinct vertex ids appearing in the edge list — column ``v``."""
    return (
        edges.select(F.col("src").alias("v"))
        .unionByName(edges.select(F.col("dst").alias("v")))
        .distinct()
    )


def degrees(edges: DataFrame) -> DataFrame:
    """Vertex degrees — columns (v, deg)."""
    return symmetrize(edges).groupBy(F.col("u").alias("v")).agg(
        F.count("*").alias("deg")
    )


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


class UnionFind:
    """Plain union-find over arbitrary hashable ids, used on localized cores."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            self.parent[x] = p = self.find(p)
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def components_pandas(edge_pdf: pd.DataFrame, extra_vertices=()) -> dict:
    """Map vertex -> component root for a pandas edge list (src, dst)."""
    uf = UnionFind()
    for s, d in zip(edge_pdf["src"].to_numpy(), edge_pdf["dst"].to_numpy()):
        uf.union(int(s), int(d))
    for v in extra_vertices:
        uf.find(int(v))
    return {v: uf.find(v) for v in list(uf.parent)}
