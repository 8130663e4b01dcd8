"""Brute-force densest subgraph by subset enumeration — TEST ORACLE ONLY.

Enumerates every non-empty vertex subset (n <= 16 guard) and returns
the maximum-density one. Used to certify Exact / CoreExact on small
randomized graphs.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.densest.common import exact_density


def brute_force_densest(members: np.ndarray, all_vertices) -> tuple:
    """(best_vertex_set, best_density) over all non-empty subsets."""
    verts = sorted(set(map(int, all_vertices)))
    n = len(verts)
    if n > 16:
        raise ValueError("brute force limited to n <= 16")
    best_set, best_d = [verts[0]], 0
    for size in range(1, n + 1):
        for sub in combinations(verts, size):
            d = exact_density(members, sub)
            if d > best_d:
                best_d = d
                best_set = list(sub)
    return best_set, float(best_d)
