"""CoreExact (Algorithm 4): core-located exact densest subgraph.

Pipeline: (1) Spark enumerates instances; (2) exact (k,Psi)-core
decomposition (the level-synchronous driver peel over the collected
instance table — the enumeration is the dominant cost, Lemma 6), whose
densest (k,Psi)-core gives rho'; (3) locate the CDS in the
(k'',Psi)-core and split it into connected components; (4) per
component, Dinkelbach's search on an exact integer flow network (as in
``repro.densest.exact``), with the optimizations of §6.1 that still
apply, each always on:

* tighter lower bound: l = max(kmax/|V_Psi|, rho', rho''), where every
  component's search starts;
* Pruning1/2: localization via ceil(rho') and per-component ceil(rho'');
* Lemma 8 instance-node pruning (size-capped, see DESIGN.md).

Pruning3 (a per-component stopping gap) has no role: the search stops at
the first empty cut, not at a gap. Each component is restricted once to
the ceil(l)-core, with l the highest density reached so far, and its
network (Lemma-8 pruned) is built once; every probe warm-starts from the
flow of the previous cut (see ``repro.densest.network``). Algorithm 4's
shrink of a component to the ceil(alpha)-core as alpha rises is left out:
with Pruning 1-2 it never fired on the tables' cells (DESIGN.md).

Vertex sets are sorted int64 id arrays from ``gather`` to the cut, and a
component's core numbers are one ``searchsorted`` into the peel's ids.

``stats`` reports the localization: ``located_by_bound`` (the located
vertex count after the kmax/|V_Psi| bound, after Pruning 1 and after
Pruning 2), ``located_vertices`` (the last of them), ``components`` and
``lower_bound`` (l after Pruning 1-2, "a/b"), so a weaker rho' shows as a
larger located core; and ``lemma8_pruned``, the instances Lemma 8 dropped.

D starts as the best residual/component set, so the boundary case
rho_opt == rho'' returns the optimum instead of the empty set (the
printed Algorithm 4 returns the empty set there; DESIGN.md).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from pyspark.sql import DataFrame, SparkSession

# the level-synchronous peel; the benchmark tracer wraps this import name
from repro.cores.clique_core import core_decompose as peel_decompose, instances_inside
from repro.densest.common import DSDResult, certificate, exact_density, gather
from repro.densest.network import build_network, lemma8_keep_mask, min_cut_vertices
# the array components kernel; the benchmark tracer wraps this import name
from repro.graph.ops import components as components_pandas, edge_array
from repro.patterns.base import Pattern
from repro.phases import PhaseClock


def core_exact(spark: SparkSession, edges: DataFrame, pattern: Pattern) -> DSDResult:
    clock = PhaseClock()
    grouped = pattern.kind != "clique"  # construct+ for non-clique patterns
    p = pattern.nv

    with clock.phase("enumerate"):
        # CoreExact targets small/moderate graphs (§8 remark)
        edge_arr = edge_array(edges)
        allv, members = gather(spark, edges, pattern, edge_arr=edge_arr)
    with clock.phase("decompose"):
        pr = peel_decompose(members, allv)

    n = len(allv)
    kmax = pr.kmax
    stats: dict = {
        "kmax": kmax,
        "instances": int(members.shape[0]),
        "n": n,
        "network_sizes": [],
        "network_builds": 0,
        "iterations": 0,
        "lemma8_pruned": 0,
    }
    if kmax == 0:
        # no instances: every set has density 0; the smallest id answers
        verts = allv[:1].tolist()
        dens = Fraction(0)
        stats.update(located_by_bound=[0, 0, 0], located_vertices=0, components=0,
                     lower_bound=f"{dens.numerator}/{dens.denominator}")
        stats["certificate"] = certificate(verts, dens, dens)
        return DSDResult("CoreExact", pattern.name, verts, float(dens),
                         kmax=kmax, timings=clock.timings(), stats=stats)

    def comps_of(k: int) -> list:
        """Connected components (sorted id arrays) of the (k,Psi)-core,
        ordered by their smallest vertex."""
        verts, root = components_pandas(edge_arr, pr.verts[pr.core >= k])
        order = np.argsort(root, kind="stable")
        cuts = np.flatnonzero(np.diff(root[order])) + 1
        return np.split(verts[order], cuts)

    # -- tighter bounds + localization (exact fractions) --------------------
    with clock.phase("locate"):
        # best starts as the peel's best residual set, whose density is rho'
        best = pr.best_vertices.tolist()
        best_d = exact_density(members, pr.best_vertices)
        l = Fraction(kmax, p)
        located = [int((pr.core >= math.ceil(l)).sum())]
        l = max(l, best_d)  # Pruning 1
        k_loc = math.ceil(l)
        comps = comps_of(k_loc)
        located.append(sum(c.size for c in comps))
        for c in comps:  # Pruning 2
            d = exact_density(members, c)
            l = max(l, d)
            if d > best_d:
                best_d, best = d, c.tolist()
        if math.ceil(l) > k_loc:
            comps = comps_of(math.ceil(l))
        located.append(sum(c.size for c in comps))
    stats["located_by_bound"] = located
    stats["located_vertices"] = located[-1]
    stats["components"] = len(comps)
    stats["lower_bound"] = f"{l.numerator}/{l.denominator}"

    # -- per-component Dinkelbach search --------------------------------------
    # alpha never falls: each component starts at l, the highest density
    # reached so far, and is done at the first empty cut.
    for comp in comps:
        alpha = l
        with clock.phase("locate"):
            # a set denser than alpha has every clique-degree >= its
            # density, so it lies in the ceil(alpha)-core
            cset = comp[pr.core[np.searchsorted(pr.verts, comp)] >= math.ceil(alpha)]
        if cset.size < 2:
            continue
        with clock.phase("build"):
            mem_c = members[instances_inside(members, cset)]
            keep = lemma8_keep_mask(mem_c, cset.size)
            stats["lemma8_pruned"] += int(keep.size - keep.sum())
            net, s, t, vids, n_nodes = build_network(cset, mem_c[keep], alpha, p,
                                                     grouped=grouped)
        stats["network_builds"] += 1
        while True:
            with clock.phase("flow"):
                net.set_alpha(alpha)
                cut = min_cut_vertices(net, s, t, vids)
            stats["network_sizes"].append(n_nodes)
            if not cut:
                break
            with clock.phase("locate"):
                alpha = exact_density(members, cut)  # > the alpha just probed
            if alpha > best_d:
                best_d, best = alpha, cut
        l = max(l, alpha)
    stats["iterations"] = len(stats["network_sizes"])
    stats["certificate"] = certificate(best, best_d, l)

    return DSDResult("CoreExact", pattern.name, best, float(best_d), kmax=kmax,
                     timings=clock.timings(), stats=stats)
