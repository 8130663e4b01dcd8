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

The edge list is collected once and everything after it is array work
on the driver. For clique patterns ``gamma_upper_bounds`` (defined here,
its only caller) ranks the vertices off the edge array, an ``np.isin``
mask selects G[W]'s edges and ``clique_members`` lists its h-cliques
(for h=2 the edges themselves). Other patterns are listed once by
``gather``; gamma is each vertex's member count, and since G[W] is
induced, its instances are the rows that lie inside W. Every peel, the
classical one behind gamma included, is the level-synchronous
``core_decompose``.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

# the level-synchronous peel; the benchmark tracer wraps this import name
from repro.cores.clique_core import core_decompose as peel_decompose, instances_inside
from repro.densest.common import gather
from repro.graph.ops import edge_array
from repro.patterns.base import Pattern
from repro.patterns.instances import clique_members
# unused here, but the benchmark tracer wraps these import sites by name
from repro.patterns.instances import collect_instances, pattern_instances  # noqa: F401
from repro.phases import PhaseClock


def kmax_core_coreapp(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    w0: int | None = None,
) -> tuple:
    """Returns (kmax, core_vertices, info) — the (k_max, Psi)-core of G."""
    clock = PhaseClock()
    on_driver = pattern.kind == "clique"
    with clock.phase("enumerate"):
        edge_arr = edge_array(edges)
        if not on_driver:
            _, all_members = gather(spark, edges, pattern, edge_arr=edge_arr)
    with clock.phase("decompose"):
        if on_driver:
            vs, gamma = gamma_upper_bounds(edge_arr, pattern.h)
        else:  # gamma is the exact pattern degree, 0 in no instance
            vs = np.unique(edge_arr)
            gamma = np.bincount(np.searchsorted(vs, all_members.ravel()),
                                minlength=len(vs)).astype(np.float64)
        rank = np.lexsort((vs, -gamma))  # gamma desc, then v asc
        order, gammas = vs[rank], gamma[rank]
    n = len(order)

    # Algorithm 6 leaves the initial W unspecified ("initialize W"); we
    # take max(32, 4|V_Psi|, n/32) so round count stays logarithmic in
    # the core position without scanning the whole graph up front.
    w = min(n, w0 if w0 else max(32, 4 * pattern.nv, n // 32))
    kmax, core_verts, core_instances, rounds = 0, [], 0, 0
    while True:
        rounds += 1
        W = order[:w]
        with clock.phase("enumerate"):
            if on_driver:
                sub = edge_arr[np.isin(edge_arr, W).all(axis=1)]
                members = clique_members(sub, pattern.h)
            else:
                members = all_members[instances_inside(all_members, W)]
        with clock.phase("decompose"):
            pr = peel_decompose(members, W)
        if pr.kmax >= kmax:
            kmax = pr.kmax
            core_verts = pr.kmax_core
            # G[core] is induced in G[W], so its instances are exactly
            # the rows of ``members`` that lie inside the core
            with clock.phase("locate"):
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
        "timings": clock.timings(),
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
    come from the linear-time driver peel ([7], as the paper does).
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
