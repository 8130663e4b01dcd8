"""Classical k-core helpers on the driver (Def. 5).

The Spark k-core is the (k, Psi)-core code with Psi = edge:
``clique_core(spark, g, k, edge())`` is the fixed-k k-core and
``clique_core_numbers_hindex(spark, g, edge())`` the distributed h-index
fixpoint of Montresor et al. [36] / Lü et al. [34]. This module keeps the
driver-side pieces:

* ``core_numbers_peel``  — exact bin/heap peeling (Batagelj-Zaversnik [7]);
  EMcore's inner loop and the test oracle.
* ``max_core_vertices``  — the k_max-core read off a core-number map.
* ``gamma_upper_bounds`` — CoreApp's ranking bound for clique patterns.
"""
from __future__ import annotations

import heapq

import numpy as np
import pandas as pd


def core_numbers_peel(edge_pdf: pd.DataFrame, all_vertices=None) -> dict:
    """Exact core numbers by peeling a pandas edge list. Driver-side oracle."""
    src = edge_pdf["src"].to_numpy(np.int64)
    dst = edge_pdf["dst"].to_numpy(np.int64)
    vs = set(map(int, src)) | set(map(int, dst))
    if all_vertices is not None:
        vs |= set(map(int, all_vertices))
    adj: dict[int, list] = {v: [] for v in vs}
    for s, d in zip(src, dst):
        adj[int(s)].append(int(d))
        adj[int(d)].append(int(s))
    deg = {v: len(a) for v, a in adj.items()}
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    core: dict[int, int] = {}
    cur = 0
    removed: set[int] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue
        removed.add(v)
        cur = max(cur, deg[v])
        core[v] = cur
        for u in adj[v]:
            if u not in removed:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return core


def max_core_vertices(core: dict) -> tuple:
    """(kmax, sorted vertices of the kmax-core) from a core-number map."""
    if not core:
        return 0, []
    kmax = max(core.values())
    return kmax, sorted(v for v, c in core.items() if c == kmax)


def gamma_upper_bounds(edge_arr: np.ndarray, h: int) -> tuple:
    """CoreApp's gamma(v) ranking bound for the h-clique — (vertices, gamma).

    ``edge_arr`` is the (m, 2) edge array; both outputs are aligned arrays
    over its sorted distinct endpoints. h=2: the degree. h>=3:
    gamma(v) = C(core(v), h-1) from a classical core decomposition, per
    Algorithm 6.

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
    core = core_numbers_peel(pd.DataFrame(edge_arr, columns=["src", "dst"]))
    x = np.array([core[int(v)] for v in vs], dtype=np.float64)
    g = np.ones_like(x)
    for i in range(h - 1):
        g = g * np.maximum(x - i, 0.0) / (i + 1)
    return vs, g
