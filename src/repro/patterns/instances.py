"""Pattern-instance enumeration: every lister of Psi's instances.

An instance frame has exactly the member columns ``v1..vp``, p = |V_Psi|,
one row per instance; ``collect_instances`` reads it into the driver
member matrix.

h-cliques follow kClist (Danisch et al., WWW'18, the paper's clique
enumerator [15]): ``orient`` turns every edge from the endpoint with the
smaller ``(degree, id)`` rank to the larger one. The result is a DAG whose
out-degrees are bounded by the degeneracy, and every h-clique appears
exactly once as a tuple ``v1 < ... < vh`` in rank order with all C(h,2)
oriented edges present. Level h extends each level-(h-1) tuple with the
out-neighbours of its last vertex, then tests the h-2 other memberships.

* ``clique_instances`` is the Spark plan. It orients the edge array on
  the driver (collecting it unless the caller passes it), ships the DAG
  as one checkpointed DataFrame, and runs the levels as one SQL
  statement: a join per extension, a semi-join per membership test.
* ``clique_members`` is the same listing over a driver edge array, with
  membership as a ``searchsorted`` on sorted edge keys.

Stars, diamond = C4 and 2-triangle = K4-e have Spark matchers that build
each instance exactly once in a canonical member order. Any other Psi
goes to the generic matcher: a join per pattern vertex, deduplicated on
the sorted edge set (the DataFrame rendition of the subgraph-matching
substrate the paper takes from [38]).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.graph.ops import edge_array, symmetrize
from repro.patterns.base import Pattern

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
    """All h-clique instances, h >= 2 — columns v1..vh in rank order.

    Each instance appears exactly once, because tuples follow the
    orientation's total order. The orientation runs on ``edge_arr``,
    ``edges`` collected to the driver (pass it when the caller already
    holds it; either way the rows are the same).
    """
    if h < 2:
        raise ValueError("h must be >= 2")
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


def _star_inst(edges: DataFrame, x: int) -> DataFrame:
    """x-star: center v1, tails v2 < ... < v_{x+1}. Unique by construction."""
    adj = symmetrize(edges)
    cur = adj.select(F.col("u").alias("c"), F.col("v").alias("t1"))
    for i in range(2, x + 1):
        nxt = adj.select(F.col("u").alias("c"), F.col("v").alias(f"t{i}"))
        cur = cur.join(nxt, "c").where(F.col(f"t{i - 1}") < F.col(f"t{i}"))
    return cur.select(
        F.col("c").alias("v1"), *[F.col(f"t{i}").alias(f"v{i + 1}") for i in range(1, x + 1)]
    )


def _diamond_inst(edges: DataFrame) -> DataFrame:
    """C4 cycles: pair two 2-paths with the same endpoints, then put the
    cycle in canonical form (min vertex, its two cycle-neighbours sorted,
    opposite vertex) and dedupe — each C4 arises once per diagonal."""
    adj = symmetrize(edges)
    paths = (
        adj.select(F.col("v").alias("mid"), F.col("u").alias("x"))
        .join(adj.select(F.col("u").alias("mid"), F.col("v").alias("y")), "mid")
        .where(F.col("x") < F.col("y"))
    )  # (x, mid, y) with x < y
    pairs = (
        paths.select("x", "y", F.col("mid").alias("m1"))
        .join(paths.select("x", "y", F.col("mid").alias("m2")), ["x", "y"])
        .where(F.col("m1") < F.col("m2"))
        .where((F.col("m2") != F.col("x")) & (F.col("m1") != F.col("x")))
        .where((F.col("m2") != F.col("y")) & (F.col("m1") != F.col("y")))
    )
    # canonical: vmin = min(x, m1); if vmin==x nbrs (m1, m2) opp y else nbrs (x, y) opp m2
    canon = pairs.select(
        F.when(F.col("x") < F.col("m1"), F.col("x")).otherwise(F.col("m1")).alias("v1"),
        F.when(F.col("x") < F.col("m1"), F.col("m1")).otherwise(F.col("x")).alias("v2"),
        F.when(F.col("x") < F.col("m1"), F.col("y")).otherwise(F.col("m2")).alias("v3"),
        F.when(F.col("x") < F.col("m1"), F.col("m2")).otherwise(F.col("y")).alias("v4"),
    )
    # v1 = min vertex, (v2, v4) its cycle-neighbours, v3 opposite; sort nbrs
    return canon.select(
        "v1",
        F.least("v2", "v4").alias("v2"),
        "v3",
        F.greatest("v2", "v4").alias("v4"),
    ).distinct()


def _two_triangle_inst(edges: DataFrame) -> DataFrame:
    """K4 minus an edge: shared edge (v1 < v2), apex pair (v3 < v4).

    The shared edge is the one between the two degree-3 vertices, so
    the (shared edge, apex set) encoding is already canonical.
    """
    adj = symmetrize(edges)
    base = edges.select(F.col("src").alias("e1"), F.col("dst").alias("e2"))
    cn = (
        base.join(adj.select(F.col("u").alias("e1"), F.col("v").alias("w")), "e1")
        .join(
            adj.select(F.col("u").alias("e2"), F.col("v").alias("w")),
            ["e2", "w"],
            "left_semi",
        )
    )  # w adjacent to both endpoints of (e1, e2)
    pairs = (
        cn.select("e1", "e2", F.col("w").alias("w1"))
        .join(cn.select("e1", "e2", F.col("w").alias("w2")), ["e1", "e2"])
        .where(F.col("w1") < F.col("w2"))
    )
    return pairs.select(
        F.col("e1").alias("v1"),
        F.col("e2").alias("v2"),
        F.col("w1").alias("v3"),
        F.col("w2").alias("v4"),
    )


def _bfs_order(pattern: Pattern):
    """Order pattern labels so each (after the first two, which form an
    edge) is pattern-adjacent to an earlier one; returns (order, pos)."""
    nbrs = {i: set() for i in range(pattern.nv)}
    for a, b in pattern.pattern_edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    a0, b0 = pattern.pattern_edges[0]
    order = [a0, b0]
    seen = {a0, b0}
    while len(order) < pattern.nv:
        nxt = next(
            i for i in range(pattern.nv) if i not in seen and nbrs[i] & seen
        )  # connected pattern => exists
        order.append(nxt)
        seen.add(nxt)
    pos = {lab: k for k, lab in enumerate(order)}
    return order, pos, nbrs


def _generic_inst(edges: DataFrame, pattern: Pattern) -> DataFrame:
    """Join-based subgraph matching with canonical edge-set dedup.

    Members are sorted, so two instances on one vertex set (two C4s, say)
    give equal rows; the dedup key is the edge set, not the row."""
    order, pos, nbrs = _bfs_order(pattern)
    adj = symmetrize(edges).localCheckpoint(eager=True)
    # m{k} = image of pattern label order[k]
    cur = adj.select(F.col("u").alias("m0"), F.col("v").alias("m1"))
    for k in range(2, pattern.nv):
        lab = order[k]
        back = sorted(pos[j] for j in nbrs[lab] if pos[j] < k)
        first, rest = back[0], back[1:]
        ext = adj.select(F.col("u").alias(f"m{first}"), F.col("v").alias(f"m{k}"))
        cur = cur.join(ext, f"m{first}")
        for j in rest:
            chk = adj.select(F.col("u").alias(f"m{j}"), F.col("v").alias(f"m{k}"))
            cur = cur.join(chk, [f"m{j}", f"m{k}"], "left_semi")
        for j in range(k):
            cur = cur.where(F.col(f"m{j}") != F.col(f"m{k}"))
        cur = cur.localCheckpoint(eager=True)
    # canonical edge-set identity: the sorted (min, max) endpoint pairs
    eid = [
        F.struct(
            F.least(f"m{pos[a]}", f"m{pos[b]}").alias("lo"),
            F.greatest(f"m{pos[a]}", f"m{pos[b]}").alias("hi"),
        )
        for a, b in pattern.pattern_edges
    ]
    cur = cur.withColumn("ekey", F.sort_array(F.array(*eid)))
    cur = cur.withColumn(
        "members", F.sort_array(F.array(*[f"m{k}" for k in range(pattern.nv)]))
    )
    uniq = cur.groupBy("ekey").agg(F.first("members").alias("members"))
    return uniq.select(
        *[F.element_at("members", i + 1).alias(f"v{i + 1}") for i in range(pattern.nv)]
    )


def pattern_instances(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    edge_arr: np.ndarray | None = None,
) -> DataFrame:
    """All instances of ``pattern`` in G — columns v1..vp, one row each.

    ``edge_arr`` is ``edges`` already collected to the driver; the clique
    lister orients it instead of collecting again. The rows are the same
    either way.
    """
    if pattern.kind == "clique":
        return clique_instances(spark, edges, pattern.h, edge_arr=edge_arr)
    if pattern.kind == "star":
        return _star_inst(edges, pattern.nv - 1)
    if pattern.kind == "diamond":
        return _diamond_inst(edges)
    if pattern.kind == "two_triangle":
        return _two_triangle_inst(edges)
    return _generic_inst(edges, pattern)


def collect_instances(inst: DataFrame) -> np.ndarray:
    """The instance frame as the (num_instances, |V_Psi|) int64 member matrix."""
    return inst.toPandas().to_numpy(dtype=np.int64)
