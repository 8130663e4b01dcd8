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

* ``orient`` computes that orientation on the driver, as an array
  kernel over the (m, 2) edge array. It is the one place the rank is
  decided; both listers read its DAG.
* ``clique_instances`` is the Spark plan: one extension join plus h-2
  membership semi-joins per level, all equi-joins Catalyst can
  shuffle-plan, written as one Spark SQL statement so the plan is parsed
  and analysed once. For h >= 3 it holds the edge array on the driver
  (collecting it unless the caller passes it), orients it there, and
  ships the DAG to Spark as one checkpointed DataFrame: the levels'
  broadcast joins build the whole DAG on the driver anyway, and four
  Spark jobs of a SQL orientation cost more than the array kernel. The
  levels form one plan that runs when the caller collects or counts it.
* ``clique_members`` is the same listing over an edge array the driver
  already holds, for subgraphs small enough to collect (CoreApp's
  top-W rounds). Membership is a ``searchsorted`` on sorted edge keys.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.graph.ops import edge_array


# DAG rows per partition: 64 MiB of (long, long), Spark's default advisory
# partition size, to which AQE coalesces a shuffled DAG. A small DAG is one
# partition, so each level job runs one task, not one per pandas slice.
_DAG_ROWS_PER_PARTITION = 1 << 22


def orient(edge_arr: np.ndarray) -> np.ndarray:
    """Degree-ordered orientation of an (m, 2) edge array — (m, 2) int64.

    rank(v) = (deg(v), v): ties broken by id, so the orientation is a
    total order and acyclic. Each row is flipped, where needed, so that
    rank(a) < rank(b). Row order is kept.
    """
    edge_arr = np.asarray(edge_arr, dtype=np.int64).reshape(-1, 2)
    vs, inv = np.unique(edge_arr, return_inverse=True)
    deg = np.bincount(inv.ravel(), minlength=len(vs))
    rank = np.empty(len(vs), dtype=np.int64)
    rank[np.lexsort((vs, deg))] = np.arange(len(vs))
    r = rank[inv.reshape(-1, 2)]
    return np.where((r[:, 0] > r[:, 1])[:, None], edge_arr[:, ::-1], edge_arr)


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


def clique_instances(
    spark: SparkSession, edges: DataFrame, h: int, edge_arr: np.ndarray | None = None
) -> DataFrame:
    """All h-clique instances, h >= 2 — columns v1..vh, one row each.

    h=2 returns the canonical edges as (v1, v2) = (src, dst), with no
    orientation. For h >= 3 the columns are in rank order, and each
    instance appears exactly once because tuples follow the
    orientation's total order. The orientation runs on
    ``edge_arr``, ``edges`` collected to the driver (pass it when the
    caller already holds it; either way the rows are the same).
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    if h == 2:
        return edges.select(F.col("src").alias("v1"), F.col("dst").alias("v2"))
    if edge_arr is None:
        edge_arr = edge_array(edges)
    arcs = orient(edge_arr)
    dag = spark.createDataFrame(pd.DataFrame(arcs, columns=["a", "b"]), "a long, b long")
    # checkpointed, or each level's broadcast re-reads the pandas rows
    parts = max(1, -(-len(arcs) // _DAG_ROWS_PER_PARTITION))
    dag = dag.coalesce(parts).localCheckpoint(eager=True)
    return spark.sql(_levels_sql(h), dag=dag)


def clique_members(edge_arr: np.ndarray, h: int) -> np.ndarray:
    """All h-cliques of an (m, 2) canonical edge array — (count, h) int64.

    The driver rendition of ``clique_instances``: h=2 returns the edges
    themselves; for h >= 3 each row lists one clique in (degree, id)
    rank order. Vertices are renumbered to 0..n-1 first, so edge keys
    ``a * n + b`` fit in int64 whatever the vertex ids are.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    edge_arr = np.asarray(edge_arr, dtype=np.int64).reshape(-1, 2)
    if h == 2:
        return edge_arr
    if len(edge_arr) == 0:
        return np.empty((0, h), dtype=np.int64)
    vs, inv = np.unique(orient(edge_arr), return_inverse=True)
    n = len(vs)
    ab = inv.reshape(-1, 2)  # the DAG's arcs, as indices into vs
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
    return vs[cur]

