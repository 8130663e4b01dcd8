"""CoreExact (Algorithm 4): core-located exact densest subgraph.

Pipeline: (1) Spark enumerates instances; (2) exact (k,Psi)-core
decomposition (driver peel over the collected instance table — the
enumeration is the dominant cost, Lemma 6) tracking residual densities
(rho'); (3) locate the CDS in the (k'',Psi)-core and split it into
connected components; (4) per-component flow-network binary search
with the four optimizations of §6.1:

* tighter alpha bounds: l = max(kmax/|V_Psi|, rho', rho''), u = kmax;
* Pruning1/2: localization via ceil(rho') and per-component ceil(rho'');
* Pruning3: per-component stopping gap 1/(|V_C| (|V_C|-1));
* Lemma 8 instance-node pruning (size-capped, see DESIGN.md);
* shrink: whenever l grows past the located core order, the component
  is re-restricted to the higher core and the network shrinks.

Each component's network (with its Lemma-8 mask) is built once, and
again only when the component shrinks to a higher core; the probes in
between warm-start from the flow of the last non-empty cut (see
``repro.densest.network``).

One printed-algorithm fix (documented in DESIGN.md): ``u`` is reset to
``k_max`` per component — a cut certificate "no subgraph denser than
alpha in C" says nothing about other components — and D starts as the
best residual/ component, so the boundary case rho_opt == rho'' returns
the optimum instead of the empty set.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.cores.clique_core import instances_inside, peel_decompose
from repro.densest.common import DSDResult, exact_density, gather
from repro.densest.network import build_network, lemma8_keep_mask, min_cut_vertices
from repro.graph.ops import components_pandas, edge_array
from repro.patterns.base import Pattern


def _ceil(x: float) -> int:
    return int(math.ceil(x - 1e-9))


def core_exact(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    use_p1: bool = True,
    use_p2: bool = True,
    use_p3: bool = True,
    use_lemma8: bool = True,
) -> DSDResult:
    t_start = time.perf_counter()
    grouped = pattern.kind != "clique"  # construct+ for non-clique patterns
    p = pattern.nv

    # CoreExact targets small/moderate graphs (§8 remark)
    edge_arr = edge_array(edges)
    allv, members = gather(spark, edges, pattern, edge_arr=edge_arr)
    t_enum = time.perf_counter() - t_start

    t1 = time.perf_counter()
    pr = peel_decompose(members, allv)
    t_dec = time.perf_counter() - t1

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
    if kmax == 0 or n < 2:
        verts = pr.best_vertices or allv[:1]
        return DSDResult(
            "CoreExact", pattern.name, sorted(verts), exact_density(members, verts),
            kmax=kmax,
            timings={"enumerate": t_enum, "decompose": t_dec, "flow": 0.0,
                     "total": time.perf_counter() - t_start},
            stats=stats,
        )

    core_map = pr.core
    esrc, edst = edge_arr[:, 0], edge_arr[:, 1]

    def core_vertices(k: int) -> set:
        return {v for v, c in core_map.items() if c >= k}

    def comps_of(vset: set) -> list:
        """Connected components (vertex lists) of G[vset]."""
        if not vset:
            return []
        vs = np.fromiter(vset, dtype=np.int64, count=len(vset))
        keep = np.isin(esrc, vs) & np.isin(edst, vs)
        roots = components_pandas(
            pd.DataFrame({"src": esrc[keep], "dst": edst[keep]}), extra_vertices=vset
        )
        groups: dict = {}
        for v in vset:
            groups.setdefault(roots[int(v)], []).append(int(v))
        return list(groups.values())

    t2 = time.perf_counter()
    # -- tighter bounds + localization -------------------------------------
    l = kmax / p
    k_loc = _ceil(kmax / p)
    best = list(pr.best_vertices) if pr.best_vertices else allv[:1]
    best_d = exact_density(members, best)
    if use_p1:
        l = max(l, pr.rho_prime)
        k_loc = max(k_loc, _ceil(pr.rho_prime))

    comps = comps_of(core_vertices(k_loc))
    if use_p2:
        rho2, k2 = l, k_loc
        for c in comps:
            d = exact_density(members, c)
            if d > rho2:
                rho2 = d
            if d > best_d:
                best_d, best = d, sorted(c)
        k2 = max(k_loc, _ceil(rho2))
        l = max(l, rho2)
        if k2 > k_loc:
            k_loc = k2
            comps = comps_of(core_vertices(k_loc))
    t_locate = time.perf_counter() - t2

    def network_for(cset: set, alpha: float) -> tuple:
        """Flow network of G[cset] at ``alpha``, Lemma-8 pruned."""
        mem_c = members[instances_inside(members, cset)]
        keep = lemma8_keep_mask(mem_c, len(cset)) if use_lemma8 else None
        stats["network_builds"] += 1
        return build_network(cset, mem_c, alpha, p, grouped=grouped, keep_mask=keep)

    def solve(nw: tuple, alpha: float) -> list:
        net, s, t, vid2node, n_nodes = nw
        net.set_alpha(alpha)
        stats["network_sizes"].append(n_nodes)
        stats["iterations"] += 1
        return min_cut_vertices(net, s, t, vid2node)

    # -- per-component binary search ----------------------------------------
    t3 = time.perf_counter()
    for comp in comps:
        cset = set(comp)
        cur_k = k_loc
        if _ceil(l) > cur_k:
            cur_k = _ceil(l)
            cset &= core_vertices(cur_k)
        if len(cset) < 2:
            continue
        u = float(kmax)
        nw = network_for(cset, l)

        # feasibility probe at alpha = l (Alg. 4 lines 8-10)
        cut = solve(nw, l)
        if not cut:
            continue
        d = exact_density(members, cut)
        if d > best_d:
            best_d, best = d, sorted(cut)
        while True:
            nc = len(cset)
            gap = 1.0 / (nc * (nc - 1)) if use_p3 else 1.0 / (n * (n - 1))
            if u - l < gap or nc < 2:
                break
            alpha = (l + u) / 2.0
            cut = solve(nw, alpha)
            if not cut:
                u = alpha
            else:
                l = alpha
                d = exact_density(members, cut)
                if d > best_d:
                    best_d, best = d, sorted(cut)
                if _ceil(l) > cur_k:
                    cur_k = _ceil(l)
                    smaller = cset & core_vertices(cur_k)
                    if len(smaller) < len(cset):
                        cset = smaller
                        if len(cset) >= 2:
                            nw = network_for(cset, l)
    t_flow = time.perf_counter() - t3

    return DSDResult(
        "CoreExact",
        pattern.name,
        best,
        best_d,
        kmax=kmax,
        timings={
            "enumerate": t_enum,
            "decompose": t_dec,
            "locate": t_locate,
            "flow": t_flow,
            "total": time.perf_counter() - t_start,
        },
        stats=stats,
    )
