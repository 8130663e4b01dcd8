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

For clique patterns the edge list is collected once and everything
after it is array work on the driver: ``gamma_upper_bounds`` (defined
here, its only caller) ranks the vertices off the edge array, an
``np.isin`` mask selects G[W]'s edges and ``clique_members`` lists its
h-cliques (for h=2 the edges themselves). Other patterns rank by pattern
degree and enumerate Psi on Spark in every round. Every peel, the
classical one behind gamma included, is the level-synchronous
``core_decompose``.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.cliques.enumerate import clique_members
# the level-synchronous peel; the benchmark tracer wraps this import name
from repro.cores.clique_core import (
    collect_instances,
    core_decompose as peel_decompose,
    instances_inside,
)
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
        vs, gamma = gamma_upper_bounds(edge_arr, pattern.h)
    else:
        vs, gamma = _pattern_gamma(spark, edges, pattern)
    rank = np.lexsort((vs, -gamma))  # gamma desc, then v asc
    order, gammas = vs[rank], gamma[rank]
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
            wdf = spark.createDataFrame(pd.DataFrame({"v": W}), "v long")
            sub = induced_subgraph(edges, wdf).localCheckpoint(eager=True)
            inst = pattern_instances(spark, sub, pattern)
            members = collect_instances(inst, pattern)
        pr = peel_decompose(members, W)
        if pr.kmax >= kmax:
            kmax = pr.kmax
            core_verts = pr.kmax_core
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


def gamma_upper_bounds(edge_arr: np.ndarray, h: int) -> tuple:
    """CoreApp's gamma(v) ranking bound for the h-clique — (vertices, gamma).

    ``edge_arr`` is the (m, 2) edge array; both outputs are aligned arrays
    over its sorted distinct endpoints. h=2: the degree. h>=3:
    gamma(v) = C(core(v), h-1) from a classical core decomposition, per
    Algorithm 6; the core numbers come from ``core_decompose`` with the
    edge array as the member matrix.

    Note a subtlety the paper's prose glosses over: this is NOT an upper
    bound on the clique-degree
    deg_G(v, Psi) (a low-coreness vertex can sit in many cliques'
    worth of neighbour edges) — but it IS an upper bound on the
    clique-CORE number core_G(v, Psi): inside the (c,Psi)-core every
    vertex needs degree d with C(d, h-1) >= c, so the classical
    coreness x of its vertices satisfies C(x, h-1) >= c. That is
    exactly the invariant CoreApp's stopping criterion requires
    ("remaining gamma < k_max => remaining clique-core numbers <
    k_max"), so Algorithm 6 is correct with this gamma. Tested in
    test_kcore.py::test_gamma_upper_bounds_h3_dominates_clique_core.

    Layering: gamma is a one-shot preprocessing *ranking* over the edge
    array CoreApp already holds, so the classical core numbers behind it
    come from the linear-time driver peel ([7], as the paper does). The
    distributed h-index fixpoint (``clique_core_numbers_hindex``) is the
    dataflow path of the Nucleus baseline.
    """
    vs, deg = np.unique(edge_arr, return_counts=True)
    if h == 2:
        return vs, deg.astype(np.float64)
    core = peel_decompose(edge_arr, vs).core
    x = np.array([core[v] for v in vs.tolist()], dtype=np.float64)
    g = np.ones_like(x)
    for i in range(h - 1):
        g = g * np.maximum(x - i, 0.0) / (i + 1)
    return vs, g


def _pattern_gamma(spark: SparkSession, edges: DataFrame, pattern: Pattern) -> tuple:
    """(vertices, gamma) of every vertex: its exact pattern degree, 0 if none."""
    gpdf = (
        graph_vertices(edges)
        .join(pattern_degrees(spark, edges, pattern), "v", "left")
        .select("v", F.coalesce("cdeg", F.lit(0)).cast("double").alias("gamma"))
        .toPandas()
    )
    return gpdf["v"].to_numpy(np.int64), gpdf["gamma"].to_numpy(np.float64)
