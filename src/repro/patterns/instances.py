"""Pattern-instance enumeration: every lister of Psi's instances.

``pattern_instances`` returns the (count, p) int64 member matrix of any
Psi, p = |V_Psi|, one row per instance.

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
* ``clique_members`` is the same listing over a driver edge array.

The driver listers work on one rank-space CSR of the edge array
(``_csr``) with two steps: ``_extend`` grows every row by the neighbours
of one of its vertices, and ``_is_edge`` tests an edge with a
``searchsorted`` over the sorted edge keys. Besides cliques they list
stars (pairs within a neighbour list), K4-e (pairs of common neighbours
of an edge) and C4 (pairs of 2-paths with the same endpoints; Chiba &
Nishizeki, SIAM J. Comput. 1985; ESCAPE, Pinar et al., WWW'17), each
instance once, in a canonical member order. Any other Psi goes to the
generic Spark matcher: a join per pattern vertex, deduplicated on the
sorted edge set (the DataFrame rendition of the subgraph-matching
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


def _csr(arcs: np.ndarray) -> tuple:
    """Rank-space CSR of an (m, 2) arc array — (vs, keys, start, arcs).

    ``vs`` are the sorted distinct ids, and an arc (u, v) becomes the pair
    of their indices, with sorted unique key ``u * n + v``: it fits in
    int64 whatever the ids are. The returned arcs are these pairs in key
    order, so row u's neighbours, ascending, are
    ``arcs[start[u]:start[u + 1], 1]``.
    """
    vs, inv = np.unique(arcs, return_inverse=True)
    n = len(vs)
    ab = inv.reshape(-1, 2)
    keys = np.unique(ab[:, 0] * n + ab[:, 1])
    start = np.searchsorted(keys, np.arange(n + 1) * n)
    return vs, keys, start, np.column_stack([keys // n, keys % n])


def _symmetric(edge_arr: np.ndarray) -> tuple:
    """``_csr`` of both directions of every edge."""
    e = np.asarray(edge_arr, dtype=np.int64).reshape(-1, 2)
    return _csr(np.concatenate([e, e[:, ::-1]]))


def _extend(rows: np.ndarray, v: np.ndarray, start: np.ndarray, nbr: np.ndarray) -> tuple:
    """Row i once per entry w of CSR row ``v[i]`` — (the rows, w).

    Row order is kept, and each row's entries keep ``nbr``'s order.
    """
    cnt = start[v + 1] - start[v]
    pos = np.repeat(start[v] - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
    return rows[np.repeat(np.arange(len(rows)), cnt)], nbr[pos]


def _is_edge(keys: np.ndarray, n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask: is (a[i], b[i]) an arc of the CSR with sorted ``keys``."""
    want = a * n + b
    return keys[np.minimum(np.searchsorted(keys, want), len(keys) - 1)] == want


def _pair_up(rows: np.ndarray) -> np.ndarray:
    """Each row of the lexicographically sorted ``rows``, once per later row
    that agrees with it on all but the last column, with that column appended."""
    new = np.diff(rows[:, :-1], axis=0, prepend=-1).any(axis=1)  # group starts
    grown, w = _extend(rows, np.cumsum(new) - 1, np.append(np.flatnonzero(new), len(rows)),
                       rows[:, -1])
    keep = w > grown[:, -1]
    return np.column_stack([grown[keep], w[keep]])


def clique_members(edge_arr: np.ndarray, h: int) -> np.ndarray:
    """All h-cliques of an (m, 2) canonical edge array — (count, h) int64.

    The driver rendition of ``clique_instances``: h=2 returns the edges
    themselves; for h >= 3 each row lists one clique in (degree, id)
    rank order, over the CSR of the oriented DAG.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    edge_arr = np.asarray(edge_arr, dtype=np.int64).reshape(-1, 2)
    if h == 2:
        return edge_arr
    vs, keys, start, cur = _csr(orient(edge_arr))
    nbr = cur[:, 1]
    for k in range(3, h + 1):
        cur, nxt = _extend(cur, cur[:, -1], start, nbr)
        for i in range(k - 2):  # (v_i, v_k) must be an oriented edge
            hit = _is_edge(keys, len(vs), cur[:, i], nxt)
            cur, nxt = cur[hit], nxt[hit]
        cur = np.column_stack([cur, nxt])
    return vs[cur]


def star_members(edge_arr: np.ndarray, x: int) -> np.ndarray:
    """All x-stars — (count, x+1) int64: centre, then tails ascending."""
    vs, _, _, cur = _symmetric(edge_arr)
    for _ in range(x - 1):
        cur = _pair_up(cur)
    return vs[cur]


def diamond_members(edge_arr: np.ndarray) -> np.ndarray:
    """All C4s — (count, 4) int64: the smallest vertex, its lower cycle
    neighbour, the opposite vertex, its higher cycle neighbour.

    A C4 is one pair of 2-paths s-m-o with s < m and s < o, from its
    smallest vertex s to the opposite vertex o, so it is built once.
    """
    vs, _, start, arcs = _symmetric(edge_arr)
    up = arcs[arcs[:, 0] < arcs[:, 1]]
    cur, o = _extend(up, up[:, 1], start, arcs[:, 1])
    keep = o > cur[:, 0]
    paths = np.column_stack([cur[keep, 0], o[keep], cur[keep, 1]])  # (s, o, m)
    cyc = _pair_up(paths[np.lexsort(paths.T[::-1])])  # (s, o, m1, m2)
    return vs[cyc[:, [0, 2, 1, 3]]]


def two_triangle_members(edge_arr: np.ndarray) -> np.ndarray:
    """All K4-e — (count, 4) int64: the shared edge ascending, then the
    apexes ascending.

    The shared edge joins the two degree-3 vertices, so an instance is
    one edge with one pair of its common neighbours, built once.
    """
    vs, keys, start, arcs = _symmetric(edge_arr)
    up = arcs[arcs[:, 0] < arcs[:, 1]]
    cur, w = _extend(up, up[:, 0], start, arcs[:, 1])
    keep = _is_edge(keys, len(vs), cur[:, 1], w)
    return vs[_pair_up(np.column_stack([cur[keep], w[keep]]))]  # (a, b, apex) rows


def _bfs_order(pattern: Pattern):
    """Order pattern labels so each (after the first two, which form an
    edge) is pattern-adjacent to an earlier one; returns (order, pos)."""
    nbrs = {i: set() for i in range(pattern.nv)}
    for a, b in pattern.pattern_edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    order = list(pattern.pattern_edges[0])
    while len(order) < pattern.nv:  # connected pattern => a next label exists
        order.append(next(i for i in range(pattern.nv) if i not in order and nbrs[i] & set(order)))
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
) -> np.ndarray:
    """All instances of ``pattern`` in G — the (count, p) int64 member matrix.

    ``edge_arr`` is ``edges`` already collected to the driver; the listers
    use it instead of collecting again. The rows are the same either way.
    Cliques run the Spark plan and any other non-specialised Psi the
    generic matcher, each collected here.
    """
    if pattern.kind not in ("clique", "star", "diamond", "two_triangle"):
        return collect_instances(_generic_inst(edges, pattern))
    if edge_arr is None:
        edge_arr = edge_array(edges)
    if pattern.kind == "clique":
        return collect_instances(clique_instances(spark, edges, pattern.h, edge_arr=edge_arr))
    if pattern.kind == "star":
        return star_members(edge_arr, pattern.nv - 1)
    if pattern.kind == "diamond":
        return diamond_members(edge_arr)
    return two_triangle_members(edge_arr)


def collect_instances(inst: DataFrame) -> np.ndarray:
    """An instance frame as the (num_instances, |V_Psi|) int64 member matrix."""
    return inst.toPandas().to_numpy(dtype=np.int64)
