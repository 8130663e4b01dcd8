"""Dinic max-flow / min-cut: classic cases + brute-force cut check."""
from itertools import combinations

import numpy as np
import pytest

from repro.densest.network import build_network, min_cut_vertices
from repro.flow.dinic import Dinic
from repro.graph import generators as gen


def _dinic(n, arcs):
    """A Dinic of ``n`` nodes over (tail, head, capacity) triples."""
    tail, head, cap = zip(*arcs)
    return Dinic(n, tail, head, cap)


def test_single_edge():
    d = _dinic(2, [(0, 1, 5.0)])
    assert d.max_flow(0, 1) == pytest.approx(5.0)


def test_series_bottleneck():
    d = _dinic(3, [(0, 1, 5.0), (1, 2, 3.0)])
    assert d.max_flow(0, 2) == pytest.approx(3.0)
    assert d.min_cut_source_side(0) == bytearray([1, 1, 0])


def test_parallel_paths():
    d = _dinic(4, [(0, 1, 2.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 2.0)])
    assert d.max_flow(0, 3) == pytest.approx(4.0)


def test_classic_clrs_network():
    # CLRS figure 26.1-style network, known max flow 23
    s, v1, v2, v3, v4, t = range(6)
    d = _dinic(6, [
        (s, v1, 16),
        (s, v2, 13),
        (v1, v2, 10),
        (v2, v1, 4),
        (v1, v3, 12),
        (v3, v2, 9),
        (v2, v4, 14),
        (v4, v3, 7),
        (v3, t, 20),
        (v4, t, 4),
    ])
    assert d.max_flow(s, t) == pytest.approx(23.0)


def test_disconnected_sink():
    d = _dinic(3, [(0, 1, 9.0)])
    assert d.max_flow(0, 2) == pytest.approx(0.0)
    assert not d.min_cut_source_side(0)[2]


def test_fractional_capacities():
    d = _dinic(3, [(0, 1, 1.5), (0, 2, 0.25), (1, 2, 0.75)])
    assert d.max_flow(0, 2) == pytest.approx(1.0)


def test_bipartite_matching():
    # 3x3 bipartite, perfect matching exists
    s, t = 0, 7
    left = [1, 2, 3]
    right = [4, 5, 6]
    pairs = [(1, 4), (1, 5), (2, 5), (3, 6)]
    d = _dinic(8, [(s, u, 1) for u in left] + [(v, t, 1) for v in right]
               + [(u, v, 1) for u, v in pairs])
    assert d.max_flow(s, t) == pytest.approx(3.0)


def brute_min_cut(n, arcs, s, t):
    """Min s-t cut by enumerating all vertex bipartitions (n <= 12)."""
    others = [u for u in range(n) if u not in (s, t)]
    best = float("inf")
    for r in range(len(others) + 1):
        for sub in combinations(others, r):
            S = {s} | set(sub)
            cap = sum(c for (u, v, c) in arcs if u in S and v not in S)
            best = min(best, cap)
    return best


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_maxflow_equals_brute_min_cut(seed):
    import random

    rng = random.Random(seed)
    n = 7
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.4:
                arcs.append((u, v, rng.randint(1, 10)))
    d = _dinic(n, arcs)
    flow = d.max_flow(0, n - 1)
    assert flow == pytest.approx(brute_min_cut(n, arcs, 0, n - 1))
    # cut returned is consistent: its capacity equals the flow
    side = d.min_cut_source_side(0)
    S = {u for u in range(n) if side[u]}
    cap = sum(c for (u, v, c) in arcs if u in S and v not in S)
    assert cap == pytest.approx(flow)
    assert 0 in S and (n - 1) not in S


@pytest.mark.parametrize("n, f", [(20_020, 0.5), (20_020, 0.1), (60_020, 0.5)])
def test_cut_exact_at_stopping_gap(n, f):
    """K20 with a path of n - 20 vertices hanging off it, edge pattern:
    rho* = 9.5 and the K20 is the only set denser than any alpha < rho*.
    At alpha = rho* - f * gap, gap = 1/(n(n-1)) being the stopping gap of
    Algorithm 1's binary search, the min cut must be exactly the K20. The
    float alpha is taken exactly, so the cut is decided on integers."""
    k20 = gen.clique_pandas(range(20))[["src", "dst"]].to_numpy(np.int64)
    path = np.arange(20, n)
    tail = np.stack([np.r_[0, path[:-1]], path], axis=1)
    edges = np.vstack([k20, tail])
    alpha = 9.5 - f / (n * (n - 1))
    net, s, t, vid2node, _ = build_network(range(n), edges, alpha, 2)
    assert min_cut_vertices(net, s, t, vid2node) == list(range(20))
