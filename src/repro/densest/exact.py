"""Exact (Algorithm 1): whole-graph flow-network search [24, 51].

The baseline the paper improves on: every probe runs a flow network
over the ENTIRE graph. Algorithm 1 binary-searches alpha in
[0, max clique-degree] down to the gap 1/(n(n-1)), 30-40 probes on our
graphs. This search is Dinkelbach's method for fractional programs
(Management Science 1967) instead: start from S = V, probe at
alpha = rho(S), and move S to the cut while the cut is non-empty. A
non-empty cut S' maximizes |Lambda(S')| - alpha |S'| > 0, so
rho(S') > alpha and alpha strictly rises; an empty cut at alpha = rho(S)
proves that no set is denser than S. Capacities are exact integers (see
``repro.densest.network``), so that proof holds, and it is returned as
``stats["certificate"]``. The network is built once and each probe
warm-starts from the flow of the previous, non-empty, cut. Instance
enumeration is Spark dataflow; the min-cuts run on the driver (see
DESIGN.md layering).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.densest.common import DSDResult, certificate, exact_density, gather
from repro.densest.network import build_network, min_cut_vertices
from repro.patterns.base import Pattern
from repro.phases import PhaseClock


def exact_densest(spark: SparkSession, edges: DataFrame, pattern: Pattern) -> DSDResult:
    """Find the CDS/PDS exactly: Algorithm 1's network, Dinkelbach's
    search (+ construct+ grouping for non-clique patterns)."""
    clock = PhaseClock()
    with clock.phase("enumerate"):
        allv, members = gather(spark, edges, pattern)

    n = len(allv)
    stats = {"iterations": 0, "n": n, "instances": int(members.shape[0]),
             "network_sizes": [], "network_builds": 0}
    solvable = members.shape[0] > 0 and n >= 2
    # no instances: every set has density 0, the smallest id is returned
    best = (allv if solvable else allv[:1]).tolist()
    with clock.phase("locate"):
        alpha = exact_density(members, best)
    if solvable:
        with clock.phase("build"):
            net, s, t, vids, n_nodes = build_network(allv, members, alpha, pattern.nv)
        stats["network_builds"] = 1
        while True:
            with clock.phase("flow"):
                net.set_alpha(alpha)
                cut = min_cut_vertices(net, s, t, vids)
            stats["network_sizes"].append(n_nodes)
            if not cut:
                break
            best = cut
            with clock.phase("locate"):
                alpha = exact_density(members, best)
    stats["iterations"] = len(stats["network_sizes"])
    stats["certificate"] = certificate(best, alpha, alpha)
    return DSDResult("Exact", pattern.name, best, float(alpha),
                     timings=clock.timings(), stats=stats)
