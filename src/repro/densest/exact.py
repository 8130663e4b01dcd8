"""Exact (Algorithm 1): whole-graph flow-network binary search [24, 51].

The baseline the paper improves on: bounds alpha in
[0, max clique-degree], probes a flow network over the ENTIRE graph in
every iteration, and stops when u - l < 1/(n(n-1)). The probe sequence
is Algorithm 1's; the network is built once and each probe warm-starts
from the flow of the last non-empty cut (see ``repro.densest.network``).
Instance enumeration is Spark dataflow; the per-iteration min-cut runs
on the driver (see DESIGN.md layering).
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.densest.common import DSDResult, exact_density, gather
from repro.densest.network import build_network, min_cut_vertices
from repro.patterns.base import Pattern


def exact_densest(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    grouped: bool | None = None,
) -> DSDResult:
    """Find the CDS/PDS exactly, per Algorithm 1 (+ construct+ grouping
    for non-clique patterns when ``grouped`` is None)."""
    t0 = time.perf_counter()
    allv, members = gather(spark, edges, pattern)
    t_enum = time.perf_counter() - t0
    if grouped is None:
        grouped = pattern.kind not in ("clique",)

    n = len(allv)
    p = pattern.nv
    best: list = allv[:1]
    if members.shape[0] == 0 or n < 2:
        return DSDResult(
            "Exact", pattern.name, sorted(best), exact_density(members, best),
            timings={"enumerate": t_enum, "flow": 0.0, "total": time.perf_counter() - t0},
            stats={"iterations": 0, "n": n, "instances": int(members.shape[0]),
                   "network_sizes": [], "network_builds": 0},
        )

    _, counts = np.unique(members, return_counts=True)
    lo, hi = 0.0, float(counts.max())
    gap = 1.0 / (n * (n - 1))
    sizes: list = []
    t_flow0 = time.perf_counter()
    net, s, t, vid2node, n_nodes = build_network(allv, members, lo, p, grouped=grouped)
    while hi - lo >= gap:
        alpha = (lo + hi) / 2.0
        net.set_alpha(alpha)
        cut = min_cut_vertices(net, s, t, vid2node)
        sizes.append(n_nodes)
        if not cut:
            hi = alpha
        else:
            lo = alpha
            best = cut
    t_flow = time.perf_counter() - t_flow0
    dens = exact_density(members, best)
    return DSDResult(
        "Exact",
        pattern.name,
        sorted(best),
        dens,
        timings={
            "enumerate": t_enum,
            "flow": t_flow,
            "total": time.perf_counter() - t0,
        },
        stats={"iterations": len(sizes), "n": n, "instances": int(members.shape[0]),
               "network_sizes": sizes, "network_builds": 1},
    )
