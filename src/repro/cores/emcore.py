"""EMcore [12] adapted baseline: top-down classical k_max-core.

The paper adapts EMcore to run in main memory and stop once the
k_max-core is found (§8, Table 4); it differs from CoreApp in its
block strategy (degree-threshold halving from d rather than top-W
doubling) and in using degrees as core-number upper bounds. Edge-based
cores only, as in Table 4.

Soundness of the schedule: every k-core with k >= t lies inside
H_t = {v : deg(v) >= t}, so if the peel of G[H_t] reaches k >= t that
value is the global k_max and its core is the global core; otherwise
the true k_max is < t and the threshold halves (EMcore's geometric
top-down bins — each block is decomposed in full before descending,
which is where its O(k_max (n+m)) vs CoreApp's O(n+m) shows up).

Run in main memory as in the paper: the edge list is collected once, and
the degrees and every block G[H_t] are array work on the driver. Each
block is decomposed by the level-synchronous ``core_decompose`` with the
edge array as the member matrix (Def. 6 with Psi = edge is Def. 5).
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

# the (k,Psi)-core peel with Psi = edge; the benchmark tracer wraps this name
from repro.cores.clique_core import core_decompose as core_numbers_peel
from repro.graph.ops import edge_array


def kmax_core_emcore(spark: SparkSession, edges: DataFrame) -> tuple:
    """Returns (kmax, core_vertices, info) for classical (edge) cores."""
    t0 = time.perf_counter()
    edge_arr = edge_array(edges)
    vs, deg = np.unique(edge_arr, return_counts=True)
    d = int(deg.max()) if len(deg) else 0
    rounds = 0
    t = max(1, d // 2)
    while True:
        rounds += 1
        hv = vs[deg >= t]
        inside = np.isin(edge_arr, hv).all(axis=1)
        pr = core_numbers_peel(edge_arr[inside], hv)
        if pr.kmax >= t or t <= 1:
            info = {"rounds": rounds, "t_total": time.perf_counter() - t0}
            return pr.kmax, pr.kmax_core, info
        t = max(1, t // 2)
