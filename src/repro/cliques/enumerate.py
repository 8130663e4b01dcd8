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
  shuffle-plan. The orientation and the levels are each one Spark SQL
  statement, so each plan is parsed and analysed once rather than once
  per DataFrame call. Only the DAG is checkpointed; the levels form one
  plan that runs when the caller collects or counts it.
* ``clique_members`` is the same listing over an edge array the driver
  already holds, for subgraphs small enough to collect (CoreApp's
  top-W rounds). Membership is a ``searchsorted`` on sorted edge keys.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession, functions as F


def oriented_edges(edges: DataFrame) -> DataFrame:
    """Degree-ordered orientation — columns (a, b), rank(a) < rank(b).

    rank(v) = (deg(v), v): ties broken by id, so the orientation is a
    total order and acyclic. One SQL statement: each canonical edge
    (src < dst) keeps its direction when rank(src) < rank(dst) and is
    flipped otherwise.
    """
    return edges.sparkSession.sql(
        """
        WITH deg AS (
          SELECT v, COUNT(*) AS d
          FROM (SELECT src AS v FROM {e} UNION ALL SELECT dst AS v FROM {e})
          GROUP BY v
        ), ranked AS (
          SELECT e.src, e.dst, (ds.d < dd.d OR (ds.d = dd.d AND e.src < e.dst)) AS fwd
          FROM {e} e JOIN deg ds ON e.src = ds.v JOIN deg dd ON e.dst = dd.v
        )
        SELECT IF(fwd, src, dst) AS a, IF(fwd, dst, src) AS b FROM ranked
        """,
        e=edges,
    )


def _levels_sql(h: int) -> str:
    """kClist levels 3..h over the oriented DAG ``{dag}`` as one statement.

    Level k joins the out-neighbours ``xk`` of the last vertex, then
    semi-joins one oriented edge (v_i, v_k) per earlier vertex i < k-1.
    """
    v = ["x2.a", "x2.b"] + [f"x{k}.b" for k in range(3, h + 1)]
    joins = []
    for k in range(3, h + 1):
        joins.append(f"JOIN {{dag}} x{k} ON x{k}.a = {v[k - 2]}")
        joins += [
            f"LEFT SEMI JOIN {{dag}} m{k}_{i} "
            f"ON m{k}_{i}.a = {v[i - 1]} AND m{k}_{i}.b = {v[k - 1]}"
            for i in range(1, k - 1)
        ]
    cols = ", ".join(f"{c} AS v{j}" for j, c in enumerate(v, 1))
    return f"SELECT {cols} FROM {{dag}} x2 " + " ".join(joins)


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
    return spark.sql(_levels_sql(h), dag=dag)


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

