"""CoreExact (Algorithm 4): core-located exact densest subgraph.

Pipeline: (1) Spark enumerates instances; (2) exact (k,Psi)-core
decomposition (the level-synchronous driver peel over the collected
instance table — the enumeration is the dominant cost, Lemma 6), whose
densest (k,Psi)-core gives rho'; (3) locate the CDS in the
(k'',Psi)-core and split it into connected components; (4) per
component, Dinkelbach's search on an exact integer flow network (as in
``repro.densest.exact``), with the optimizations of §6.1 that still
apply:

* tighter lower bound: l = max(kmax/|V_Psi|, rho', rho''), where every
  component's search starts;
* Pruning1/2: localization via ceil(rho') and per-component ceil(rho'');
* Lemma 8 instance-node pruning (size-capped, see DESIGN.md);
* shrink: whenever alpha grows past the located core order, the
  component is re-restricted to the higher core and the network shrinks.

Pruning3 (a per-component stopping gap) has no role: the search stops at
the first empty cut, not at a gap. Each component's network (with its
Lemma-8 mask) is built once, and again only when the component shrinks
to a higher core; the probes in between warm-start from the flow of the
previous cut (see ``repro.densest.network``).

``stats`` reports the localization: ``located_vertices`` (vertices in the
located components), ``components`` and ``lower_bound`` (l after
Pruning 1-2, "a/b"), so a weaker rho' shows as a larger located core.

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


def core_exact(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    use_p1: bool = True,
    use_p2: bool = True,
    use_lemma8: bool = True,
) -> DSDResult:
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
    }
    if kmax == 0:
        # no instances: every set has density 0; the smallest id answers
        verts = allv[:1]
        dens = Fraction(0)
        stats.update(located_vertices=0, components=0,
                     lower_bound=f"{dens.numerator}/{dens.denominator}")
        stats["certificate"] = certificate(verts, dens, dens)
        return DSDResult("CoreExact", pattern.name, sorted(verts), float(dens),
                         kmax=kmax, timings=clock.timings(), stats=stats)

    core_map = pr.core

    def core_vertices(k: int) -> set:
        return {v for v, c in core_map.items() if c >= k}

    def comps_of(vset: set) -> list:
        """Connected components (sorted vertex lists) of G[vset], ordered
        by their smallest vertex."""
        verts, root = components_pandas(edge_arr, np.fromiter(vset, dtype=np.int64))
        order = np.argsort(root, kind="stable")
        cuts = np.flatnonzero(np.diff(root[order])) + 1
        return [c.tolist() for c in np.split(verts[order], cuts) if c.size]

    # -- tighter bounds + localization (exact fractions) --------------------
    with clock.phase("locate"):
        # best starts as the peel's best residual set, whose density is rho'
        best = list(pr.best_vertices) if pr.best_vertices else allv[:1]
        best_d = exact_density(members, best)
        l = Fraction(kmax, p)
        if use_p1:
            l = max(l, best_d)
        k_loc = math.ceil(l)

        comps = comps_of(core_vertices(k_loc))
        if use_p2:
            for c in comps:
                d = exact_density(members, c)
                l = max(l, d)
                if d > best_d:
                    best_d, best = d, sorted(c)
            if math.ceil(l) > k_loc:
                k_loc = math.ceil(l)
                comps = comps_of(core_vertices(k_loc))
    stats["located_vertices"] = sum(len(c) for c in comps)
    stats["components"] = len(comps)
    stats["lower_bound"] = f"{l.numerator}/{l.denominator}"

    def network_for(cset: set, alpha: Fraction) -> tuple:
        """Flow network of G[cset] at ``alpha``, Lemma-8 pruned."""
        with clock.phase("build"):
            mem_c = members[instances_inside(members, cset)]
            keep = lemma8_keep_mask(mem_c, len(cset)) if use_lemma8 else None
            stats["network_builds"] += 1
            return build_network(cset, mem_c, alpha, p, grouped=grouped, keep_mask=keep)

    def solve(nw: tuple, alpha: Fraction) -> list:
        net, s, t, vid2node, n_nodes = nw
        with clock.phase("flow"):
            net.set_alpha(alpha)
            cut = min_cut_vertices(net, s, t, vid2node)
        stats["network_sizes"].append(n_nodes)
        stats["iterations"] += 1
        return cut

    # -- per-component Dinkelbach search --------------------------------------
    # alpha never falls: each component starts at l, the highest density
    # reached so far. A component is done when no set of it is denser
    # than its alpha: the cut at alpha is empty, or the ceil(alpha)-core
    # part of it has fewer than two vertices.
    for comp in comps:
        cset = set(comp)
        cur_k = k_loc
        alpha = l
        if math.ceil(alpha) > cur_k:
            cur_k = math.ceil(alpha)
            with clock.phase("locate"):
                cset &= core_vertices(cur_k)
        if len(cset) < 2:
            continue
        nw = network_for(cset, alpha)
        while True:
            cut = solve(nw, alpha)
            if not cut:
                break
            with clock.phase("locate"):
                alpha = exact_density(members, cut)  # > the alpha just probed
                if alpha > best_d:
                    best_d, best = alpha, sorted(cut)
                smaller = cset
                if math.ceil(alpha) > cur_k:
                    # the densest set, if denser than alpha, has every
                    # clique-degree >= its density: it is in the ceil(alpha)-core
                    cur_k = math.ceil(alpha)
                    smaller = cset & core_vertices(cur_k)
            if len(smaller) < 2:
                break
            if len(smaller) < len(cset):
                cset = smaller
                nw = network_for(cset, alpha)
        l = max(l, alpha)
    stats["certificate"] = certificate(best, best_d, l)

    return DSDResult("CoreExact", pattern.name, best, float(best_d), kmax=kmax,
                     timings=clock.timings(), stats=stats)
