"""Distributed pattern-instance enumeration.

``pattern_instances`` returns a DataFrame with

* ``iid``   — a 64-bit identity of the instance (hash of its canonical
  edge set; two automorphic matches collapse to one row), and
* ``v1..vp`` — the p = |V_Psi| member vertices.

Specialized matchers (cliques, stars, diamond = C4, 2-triangle = K4-e)
produce each instance exactly once by a canonical construction. The
generic matcher runs a join-per-pattern-vertex plan and dedupes on the
canonical (sorted) edge-set array — this is the DataFrame rendition of
the subgraph-matching substrate the paper takes from [38].
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.cliques.enumerate import clique_instances
from repro.graph.ops import symmetrize
from repro.patterns.base import Pattern


def _with_iid(df: DataFrame, cols) -> DataFrame:
    return df.withColumn("iid", F.xxhash64(*cols)).select("iid", *cols)


def _adj(edges: DataFrame) -> DataFrame:
    return symmetrize(edges)  # (u, v) both directions


def _clique_inst(spark: SparkSession, edges: DataFrame, h: int) -> DataFrame:
    inst = clique_instances(spark, edges, h)
    return _with_iid(inst, [f"v{i}" for i in range(1, h + 1)])


def _star_inst(spark: SparkSession, edges: DataFrame, x: int) -> DataFrame:
    """x-star: center v1, tails v2 < ... < v_{x+1}. Unique by construction."""
    adj = _adj(edges).select(F.col("u").alias("c"), F.col("v").alias("t1"))
    cur = adj
    for i in range(2, x + 1):
        nxt = _adj(edges).select(F.col("u").alias("c"), F.col("v").alias(f"t{i}"))
        cur = cur.join(nxt, "c").where(F.col(f"t{i - 1}") < F.col(f"t{i}"))
    out = cur.select(
        F.col("c").alias("v1"), *[F.col(f"t{i}").alias(f"v{i + 1}") for i in range(1, x + 1)]
    )
    return _with_iid(out, [f"v{i}" for i in range(1, x + 2)])


def _diamond_inst(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """C4 cycles: pair two 2-paths with the same endpoints, then put the
    cycle in canonical form (min vertex, its two cycle-neighbours sorted,
    opposite vertex) and dedupe — each C4 arises once per diagonal."""
    adj = _adj(edges)
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
    canon = canon.select(
        "v1",
        F.least("v2", "v4").alias("v2"),
        "v3",
        F.greatest("v2", "v4").alias("v4"),
    ).distinct()
    return _with_iid(canon, ["v1", "v2", "v3", "v4"])


def _two_triangle_inst(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """K4 minus an edge: shared edge (v1 < v2), apex pair (v3 < v4).

    The shared edge is the one between the two degree-3 vertices, so
    the (shared edge, apex set) encoding is already canonical.
    """
    adj = _adj(edges)
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
    out = pairs.select(
        F.col("e1").alias("v1"),
        F.col("e2").alias("v2"),
        F.col("w1").alias("v3"),
        F.col("w2").alias("v4"),
    )
    return _with_iid(out, ["v1", "v2", "v3", "v4"])


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


def _generic_inst(spark: SparkSession, edges: DataFrame, pattern: Pattern) -> DataFrame:
    """Join-based subgraph matching with canonical edge-set dedup."""
    order, pos, nbrs = _bfs_order(pattern)
    adj = _adj(edges).localCheckpoint(eager=True)
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
    out = uniq.select(
        F.xxhash64("ekey").alias("iid"),
        *[
            F.element_at("members", i + 1).alias(f"v{i + 1}")
            for i in range(pattern.nv)
        ],
    )
    return out


def pattern_instances(spark: SparkSession, edges: DataFrame, pattern: Pattern) -> DataFrame:
    """All instances of ``pattern`` in G — columns (iid, v1..vp)."""
    if pattern.kind == "clique":
        return _clique_inst(spark, edges, pattern.h)
    if pattern.kind == "star":
        return _star_inst(spark, edges, pattern.nv - 1)
    if pattern.kind == "diamond":
        return _diamond_inst(spark, edges)
    if pattern.kind == "two_triangle":
        return _two_triangle_inst(spark, edges)
    return _generic_inst(spark, edges, pattern)


def member_cols(pattern: Pattern):
    return [f"v{i}" for i in range(1, pattern.nv + 1)]


def instances_long(inst: DataFrame, pattern: Pattern) -> DataFrame:
    """(iid, v) membership rows."""
    return inst.select("iid", F.explode(F.array(*member_cols(pattern))).alias("v"))


def pattern_degrees(
    spark: SparkSession, edges: DataFrame, pattern: Pattern, inst: DataFrame | None = None
) -> DataFrame:
    """deg_G(v, Psi) — columns (v, cdeg); vertices in no instance absent."""
    if inst is None:
        inst = pattern_instances(spark, edges, pattern)
    return instances_long(inst, pattern).groupBy("v").agg(F.count("*").alias("cdeg"))


def count_pattern(spark: SparkSession, edges: DataFrame, pattern: Pattern) -> int:
    """mu(G, Psi)."""
    return pattern_instances(spark, edges, pattern).count()
