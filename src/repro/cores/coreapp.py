"""CoreApp (Algorithm 6): top-down (k_max, Psi)-core extraction.

Ranks vertices by an upper bound gamma(v) on their clique-degree
(h=2: the degree; h>=3 cliques: C(core(v), h-1) from a classical core
decomposition, per the paper; general patterns: the exact pattern
degree, a valid—tight—upper bound, since the paper does not define a
cheaper one for arbitrary Psi — noted in DESIGN.md). It then peels the
subgraphs induced by the top-W vertices, doubling |W| until every
remaining vertex has gamma below the best core number found. The
stopping criterion makes the final core globally correct: any vertex
of the true (k_max,Psi)-core has clique-degree >= k_max, hence
gamma >= k_max, hence is inside the final W.

For clique patterns the edge list is collected once and every round is
array work on the driver: an ``np.isin`` mask selects G[W]'s edges and
``clique_members`` lists its h-cliques (for h=2 the edges themselves).
The ranking is the degree for h=2, read off the same edge array, and
comes from ``gamma_upper_bounds`` for h>=3. Other patterns enumerate Psi
on Spark in every round.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.cliques.enumerate import clique_members
from repro.cores.clique_core import collect_instances, instances_inside, peel_decompose
from repro.cores.kcore import gamma_upper_bounds
from repro.graph.ops import edge_array, induced_subgraph, vertices as graph_vertices
from repro.patterns.base import Pattern
from repro.patterns.instances import pattern_degrees, pattern_instances


def kmax_core_coreapp(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    w0: int | None = None,
) -> tuple:
    """Returns (kmax, core_vertices, info) — the (k_max, Psi)-core of G."""
    t0 = time.perf_counter()
    on_driver = pattern.kind == "clique"
    if on_driver:
        edge_arr = edge_array(edges)
    if on_driver and pattern.h == 2:
        vs, deg = np.unique(edge_arr, return_counts=True)
        rank = np.lexsort((vs, -deg))  # gamma desc, then v asc
        order, gammas = vs[rank], deg[rank].astype(np.float64)
    else:
        order, gammas = _rank_on_spark(spark, edges, pattern)
    n = len(order)
    t_rank = time.perf_counter() - t0

    # Algorithm 6 leaves the initial W unspecified ("initialize W"); we
    # take max(32, 4|V_Psi|, n/32) so round count stays logarithmic in
    # the core position without scanning the whole graph up front.
    w = min(n, w0 if w0 else max(32, 4 * pattern.nv, n // 32))
    kmax, core_verts, core_instances, rounds = 0, [], 0, 0
    while True:
        rounds += 1
        W = order[:w]
        if on_driver:
            sub = edge_arr[np.isin(edge_arr, W).all(axis=1)]
            members = clique_members(sub, pattern.h)
        else:
            wdf = spark.createDataFrame(pd.DataFrame({"v": W}))
            sub = induced_subgraph(edges, wdf).localCheckpoint(eager=True)
            inst = pattern_instances(spark, sub, pattern)
            members = collect_instances(inst, pattern)
        pr = peel_decompose(members, W)
        if pr.kmax >= kmax:
            kmax = pr.kmax
            core_verts = sorted(
                v for v, c in pr.core.items() if c == kmax and kmax > 0
            )
            # G[core] is induced in G[W], so its instances are exactly
            # the rows of ``members`` that lie inside the core
            core_instances = int(instances_inside(members, core_verts).sum())
        if w >= n or gammas[w] < kmax:
            break
        w = min(n, 2 * w)
    info = {
        "rounds": rounds,
        "final_w": int(w),
        "n": n,
        # smallest vertex id: the one-vertex answer when k_max = 0
        "min_vertex": int(order.min()) if n else None,
        "core_instances": core_instances,
        "t_rank": t_rank,
        "t_total": time.perf_counter() - t0,
    }
    return kmax, core_verts, info


def _rank_on_spark(spark: SparkSession, edges: DataFrame, pattern: Pattern) -> tuple:
    """(vertices, gamma) of every vertex, sorted by gamma desc then v asc."""
    if pattern.kind == "clique":
        gdf = gamma_upper_bounds(edges, pattern.h)
    else:
        gdf = pattern_degrees(spark, edges, pattern).select(
            "v", F.col("cdeg").cast("double").alias("gamma")
        )
    gpdf = (
        graph_vertices(edges)
        .join(gdf, "v", "left")
        .select("v", F.coalesce("gamma", F.lit(0.0)).alias("gamma"))
        .toPandas()
        .sort_values(["gamma", "v"], ascending=[False, True])
    )
    return gpdf["v"].to_numpy(np.int64), gpdf["gamma"].to_numpy(np.float64)
