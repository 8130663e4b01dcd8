"""h-clique enumeration: as Catalyst dataflow, and on the driver.

Both listers follow the kClist idea (Danisch et al., WWW'18, the paper's
clique enumerator [15]): orient every edge from the endpoint with the
smaller ``(degree, id)`` rank to the larger one. The result is a DAG
whose out-degrees are bounded by the graph degeneracy, and every
h-clique appears exactly once as an h-path-closed tuple
``v1 < v2 < ... < vh`` in rank order with all C(h,2) oriented edges
present. Level h is built from level h-1 by extending each tuple with
the out-neighbours of its last vertex, then testing the h-2 other
memberships.

* ``clique_instances`` is the Spark plan: one extension join plus h-2
  membership semi-joins per level, all equi-joins Catalyst can
  shuffle-plan. Only the DAG is checkpointed; the levels form one plan
  that runs when the caller collects or counts it.
* ``clique_members`` is the same listing over an edge array the driver
  already holds, for subgraphs small enough to collect (CoreApp's
  top-W rounds). Membership is a ``searchsorted`` on sorted edge keys.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.graph.ops import degrees, symmetrize


def oriented_edges(edges: DataFrame) -> DataFrame:
    """Degree-ordered orientation — columns (a, b), rank(a) < rank(b).

    rank(v) = (deg(v), v): ties broken by id, so the orientation is a
    total order and acyclic.
    """
    deg = degrees(edges)
    sym = symmetrize(edges)
    ranked = (
        sym.join(deg.withColumnRenamed("v", "u").withColumnRenamed("deg", "du"), "u")
        .join(deg.withColumnRenamed("deg", "dv"), "v")
        .where(
            (F.col("du") < F.col("dv"))
            | ((F.col("du") == F.col("dv")) & (F.col("u") < F.col("v")))
        )
    )
    return ranked.select(F.col("u").alias("a"), F.col("v").alias("b"))


def clique_instances(spark: SparkSession, edges: DataFrame, h: int) -> DataFrame:
    """All h-clique instances — columns v1..vh, one row each.

    h=1 returns the vertex set. h=2 returns the canonical edges as
    (v1, v2) = (src, dst), with no orientation. For h >= 3 the columns
    are in rank order, and each instance appears exactly once because
    tuples follow the orientation's total order.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if h == 1:
        from repro.graph.ops import vertices

        return vertices(edges).select(F.col("v").alias("v1"))
    if h == 2:
        return edges.select(F.col("src").alias("v1"), F.col("dst").alias("v2"))
    dag = oriented_edges(edges).localCheckpoint(eager=True)
    cur = dag.select(F.col("a").alias("v1"), F.col("b").alias("v2"))
    for k in range(3, h + 1):
        last = f"v{k - 1}"
        ext = dag.select(F.col("a").alias(last), F.col("b").alias(f"v{k}"))
        cur = cur.join(ext, last)
        # membership joins: (vi, vk) must be an oriented edge for i < k-1
        for i in range(1, k - 1):
            chk = dag.select(F.col("a").alias(f"v{i}"), F.col("b").alias(f"v{k}"))
            cur = cur.join(chk, [f"v{i}", f"v{k}"], "left_semi")
        cur = cur.select(*[f"v{j}" for j in range(1, k + 1)])
    return cur


def clique_members(edge_arr: np.ndarray, h: int) -> np.ndarray:
    """All h-cliques of an (m, 2) canonical edge array — (count, h) int64.

    The driver rendition of ``clique_instances``: h=2 returns the edges
    themselves; for h >= 3 each row lists one clique in (degree, id)
    rank order. Vertices are renumbered to their ranks 0..n-1 first, so
    edge keys ``a * n + b`` fit in int64 whatever the vertex ids are.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    edge_arr = np.asarray(edge_arr, dtype=np.int64).reshape(-1, 2)
    if h == 2:
        return edge_arr
    if len(edge_arr) == 0:
        return np.empty((0, h), dtype=np.int64)
    vs, inv = np.unique(edge_arr, return_inverse=True)
    n = len(vs)
    ends = inv.reshape(-1, 2)
    deg = np.bincount(inv.ravel(), minlength=n)
    by_rank = np.lexsort((vs, deg))  # rank -> vertex index
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    ab = np.sort(rank[ends], axis=1)  # oriented: rank(a) < rank(b)
    keys = np.sort(ab[:, 0] * n + ab[:, 1])
    # out-neighbour lists in CSR form, read off the sorted keys
    tail, out_nbr = keys // n, keys % n
    start = np.searchsorted(tail, np.arange(n + 1))
    cur = np.stack([tail, out_nbr], axis=1)
    for k in range(3, h + 1):
        last = cur[:, -1]
        cnt = start[last + 1] - start[last]
        row = np.repeat(np.arange(len(cur)), cnt)
        off = np.arange(len(row)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        nxt = out_nbr[np.repeat(start[last], cnt) + off]
        cur = cur[row]
        for i in range(k - 2):  # (v_i, v_k) must be an oriented edge
            want = cur[:, i] * n + nxt
            pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            hit = keys[pos] == want
            cur, nxt = cur[hit], nxt[hit]
        cur = np.concatenate([cur, nxt[:, None]], axis=1)
    return vs[by_rank[cur]]


def instances_long(instances: DataFrame) -> DataFrame:
    """(iid, v) long form of an instance DataFrame with columns v1..vh.

    iid is a deterministic 64-bit hash of the member tuple — stable
    across partitions, unique with overwhelming probability at the
    scales used here (xxhash64 over the sorted member array).
    """
    cols = [c for c in instances.columns if c.startswith("v")]
    with_id = instances.withColumn("iid", F.xxhash64(*cols))
    stacked = with_id.select(
        "iid", F.explode(F.array(*cols)).alias("v")
    )
    return stacked


def clique_degrees(spark: SparkSession, edges: DataFrame, h: int) -> DataFrame:
    """Clique-degree deg_G(v, Psi) per vertex — columns (v, cdeg).

    Vertices in no h-clique are absent (treat as 0).
    """
    inst = clique_instances(spark, edges, h)
    return instances_long(inst).groupBy("v").agg(F.count("*").alias("cdeg"))


def count_instances(spark: SparkSession, edges: DataFrame, h: int) -> int:
    """mu(G, Psi) for Psi = h-clique."""
    return clique_instances(spark, edges, h).count()
