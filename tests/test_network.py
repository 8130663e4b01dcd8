"""Flow-network construction: Algorithm 1 gadget, construct+ (Lemma 12),
Lemma 8 pruning safety, warm-started probes, and the CSR network against
the arc-at-a-time network and Dinic it replaced."""
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from repro.densest.common import gather
from repro.densest.network import (
    build_network,
    group_instances,
    lemma8_keep_mask,
    min_cut_vertices,
)
from repro.graph import generators as gen
from repro.graph.ops import edges_from_pandas
from repro.patterns import diamond, edge, triangle


def _mincut_value(vertex_ids, members, alpha, p, grouped=False, keep_mask=None):
    net, s, t, vid2node, _ = build_network(
        vertex_ids, members, alpha, p, grouped=grouped, keep_mask=keep_mask
    )
    return net.max_flow(s, t)


def test_group_instances():
    members = np.array([[1, 2, 3, 4], [4, 3, 2, 1], [1, 2, 3, 5]])
    uniq, counts = group_instances(members)
    assert uniq.shape == (2, 4)
    assert sorted(counts.tolist()) == [1, 2]


def test_group_instances_empty():
    members = np.empty((0, 3), dtype=np.int64)
    uniq, counts = group_instances(members)
    assert uniq.shape[0] == 0 and counts.shape[0] == 0


def test_trivial_cut_capacity_is_h_mu():
    # alpha huge -> min cut is ({s}, rest) with capacity sum deg = h*mu
    members = np.array([[0, 1, 2], [1, 2, 3]])
    val = _mincut_value([0, 1, 2, 3], members, alpha=100.0, p=3)
    assert val == pytest.approx(3 * 2)


def test_alpha_zero_selects_everything():
    members = np.array([[0, 1, 2]])
    net, s, t, vid2node, _ = build_network([0, 1, 2], members, 0.0, 3)
    cut = min_cut_vertices(net, s, t, vid2node)
    assert cut == [0, 1, 2]


def test_binary_search_threshold_behaviour():
    # K4 triangles: mu=4, n=4, rho_opt=1. Cut empty iff alpha >= 1.
    from itertools import combinations

    members = np.array([list(c) for c in combinations(range(4), 3)])
    net, s, t, v2n, _ = build_network(range(4), members, 0.9, 3)
    assert min_cut_vertices(net, s, t, v2n) == [0, 1, 2, 3]
    net, s, t, v2n, _ = build_network(range(4), members, 1.1, 3)
    assert min_cut_vertices(net, s, t, v2n) == []


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.1, 2.0])
def test_lemma12_grouped_equals_ungrouped(alpha):
    """construct+ min-cut capacity == per-instance network capacity."""
    rng = np.random.default_rng(0)
    # duplicate-vertex-set instances (as diamonds produce)
    base = rng.integers(0, 8, size=(12, 4))
    base = base[np.array([len(set(r)) == 4 for r in base])]
    members = np.vstack([base, base[: len(base) // 2]])  # force duplicates
    vids = sorted(set(members.flatten()))
    v1 = _mincut_value(vids, members, alpha, 4, grouped=False)
    v2 = _mincut_value(vids, members, alpha, 4, grouped=True)
    assert v1 == pytest.approx(v2)


def test_lemma8_mask_shape_and_cap():
    members = np.array([[0, 1, 2], [3, 4, 5]])
    mask = lemma8_keep_mask(members, 6)
    assert mask.shape == (2,)
    assert lemma8_keep_mask(members, 6, cap=1).all()  # over cap -> keep all


def test_lemma8_prunes_isolated_instance():
    # dense K4-triangles + one remote triangle: removing the remote
    # triangle's vertices raises density, so it can be pruned
    from itertools import combinations

    dense = [list(c) for c in combinations(range(4), 3)]
    members = np.array(dense + [[10, 11, 12]])
    mask = lemma8_keep_mask(members, 7)
    assert mask[:4].all()
    assert not mask[4]


def test_network_node_count():
    members = np.array([[0, 1, 2], [1, 2, 3]])
    _, s, t, vid2node, n_nodes = build_network([0, 1, 2, 3], members, 1.0, 3)
    assert n_nodes == 1 + 4 + 2 + 1
    assert s == 0 and t == n_nodes - 1


def lemma8_loop(members, n_vertices, cap=20_000):
    """Reference Lemma-8 mask: one union of vertex->instance lists per instance."""
    m = members.shape[0]
    if m == 0 or m > cap:
        return np.ones(m, dtype=bool)
    p = members.shape[1]
    if n_vertices <= p:
        return np.ones(m, dtype=bool)
    v2i: dict[int, list] = {}
    for r in range(m):
        for v in members[r]:
            v2i.setdefault(int(v), []).append(r)
    v2i = {v: np.asarray(a) for v, a in v2i.items()}
    keep = np.ones(m, dtype=bool)
    base = m / n_vertices
    for r in range(m):
        touched = np.unique(np.concatenate([v2i[int(v)] for v in members[r]]))
        mu_prime = m - len(touched)
        if mu_prime / (n_vertices - p) > base:
            keep[r] = False
    return keep


def _random_members(rng, p):
    """A dense cluster plus sparse outliers, some rows repeated as sets."""
    n_pool = int(rng.integers(p, p + 16))
    dense = int(rng.integers(p, n_pool + 1))
    m = int(rng.integers(1, 60))
    rows = [
        rng.choice(dense if rng.random() < 0.7 else n_pool, size=p, replace=False)
        for _ in range(m)
    ]
    members = np.array(rows, dtype=np.int64)
    if m > 2 and rng.random() < 0.5:  # repeated vertex sets, permuted
        dup = rng.permuted(members[: m // 3], axis=1)
        members = np.vstack([members, dup])
    n_vertices = n_pool + int(rng.integers(0, 3))
    return members, n_vertices


def test_lemma8_kernel_matches_loop_on_random_matrices():
    pruned = kept = 0
    for seed in range(250):
        rng = np.random.default_rng(seed)
        p = 2 + seed % 5
        members, n_vertices = _random_members(rng, p)
        want = lemma8_loop(members, n_vertices)
        got = lemma8_keep_mask(members, n_vertices)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")
        pruned += int((~want).sum())
        kept += int(want.sum())
    assert pruned > 0 and kept > 0  # both outcomes are exercised


def test_lemma8_kernel_keeps_exact_tie():
    # two disjoint triangles, n = 6: mu' * n = 1 * 6 == mu * (n - p) = 2 * 3
    members = np.array([[0, 1, 2], [3, 4, 5]])
    assert lemma8_loop(members, 6).all()
    assert lemma8_keep_mask(members, 6).all()


def test_lemma8_kernel_large_vertex_ids():
    rng = np.random.default_rng(7)
    members, n_vertices = _random_members(rng, 4)
    big = members + (1 << 40)
    want = lemma8_loop(members, n_vertices)
    np.testing.assert_array_equal(lemma8_keep_mask(big, n_vertices), want)
    np.testing.assert_array_equal(lemma8_loop(big, n_vertices), want)


def test_lemma8_kernel_unique_rows_fallback():
    # enough distinct ids that n_loc ** p overflows int64 keys
    rng = np.random.default_rng(11)
    p = 6
    rows = [rng.choice(3000, size=p, replace=False) for _ in range(500)]
    rows += [rng.choice(8, size=p, replace=False) for _ in range(300)]
    members = np.array(rows, dtype=np.int64)
    members = np.vstack([members, members[::7, ::-1]])
    n_loc = np.unique(members).size
    assert n_loc**p > np.iinfo(np.int64).max
    for n_vertices in (n_loc, n_loc + 50):
        want = lemma8_loop(members, n_vertices)
        np.testing.assert_array_equal(lemma8_keep_mask(members, n_vertices), want)


GRAPHS = {
    "er": lambda: gen.erdos_renyi_pandas(14, 0.45, seed=5),
    "chung_lu": lambda: gen.chung_lu_pandas(60, 200, alpha=2.4, seed=3),
}
WARM_PATTERNS = [edge(), triangle(), diamond()]


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("pat", WARM_PATTERNS, ids=[p.name for p in WARM_PATTERNS])
def test_warm_started_probes_match_fresh_builds(spark, graph, pat):
    """One network replayed over Exact's alpha sequence gives, at every
    alpha, the cut of a network built fresh at that alpha."""
    g = edges_from_pandas(spark, GRAPHS[graph]())
    allv, members = gather(spark, g, pat)
    assert members.shape[0] > 0
    grouped = pat.kind != "clique"
    p, n = pat.nv, len(allv)
    lo, hi = 0.0, float(np.unique(members, return_counts=True)[1].max())
    net, s, t, vid2node, _ = build_network(allv, members, lo, p, grouped=grouped)
    outcomes = set()
    while hi - lo >= 1.0 / (n * (n - 1)):
        alpha = (lo + hi) / 2.0
        net.set_alpha(alpha)
        warm = min_cut_vertices(net, s, t, vid2node)
        fresh_net, fs, ft, fv2n, _ = build_network(allv, members, alpha, p, grouped=grouped)
        assert warm == min_cut_vertices(fresh_net, fs, ft, fv2n), alpha
        outcomes.add(bool(warm))
        if warm:
            lo = alpha
        else:
            hi = alpha
    assert outcomes == {True, False}


def test_set_alpha_below_saved_flow_is_rejected():
    members = np.array([list(c) for c in combinations(range(4), 3)])
    net, s, t, v2n, _ = build_network(range(4), members, 0.0, 3)
    net.set_alpha(0.5)
    assert min_cut_vertices(net, s, t, v2n) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        net.set_alpha(0.25)


class ReferenceDinic:
    """The list-of-lists Dinic the CSR solver replaced: arcs added one at
    a time, arc e's reverse at e ^ 1."""

    def __init__(self, n):
        self.n = n
        self.to, self.cap = [], []
        self.head = [[] for _ in range(n)]

    def add_edge(self, u, v, c):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _bfs(self, s, t):
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _dfs(self, s, t):
        it, path, u = self.it, [], s
        while True:
            if u == t:
                bott = min(self.cap[e] for e in path)
                for e in path:
                    self.cap[e] -= bott
                    self.cap[e ^ 1] += bott
                for k, e in enumerate(path):
                    if self.cap[e] <= 0:
                        path = path[:k]
                        break
                u = self.to[path[-1]] if path else s
                continue
            while it[u] < len(self.head[u]):
                e = self.head[u][it[u]]
                if self.cap[e] > 0 and self.level[self.to[e]] == self.level[u] + 1:
                    path.append(e)
                    u = self.to[e]
                    break
                it[u] += 1
            else:
                if u == s:
                    return
                self.level[u] = -1
                e = path.pop()
                u = self.to[e ^ 1]
                it[u] += 1

    def min_cut_source_side(self, s, t):
        while self._bfs(s, t):
            self.it = [0] * self.n
            self._dfs(s, t)
        return {v for v in range(self.n) if self.level[v] >= 0}


def reference_cut(vertex_ids, members, alpha, p, grouped, keep_mask):
    """Min-cut vertices of the network built one ``add_edge`` at a time."""
    vids = sorted(int(v) for v in vertex_ids)
    nv = len(vids)
    if keep_mask is not None and members.shape[0]:
        members = members[keep_mask]
    if grouped:
        gm, gcount = group_instances(members)
    else:
        gm, gcount = members, np.ones(members.shape[0], dtype=np.int64)
    alpha = Fraction(alpha)
    b = alpha.denominator
    t = nv + gm.shape[0] + 1
    net = ReferenceDinic(t + 1)
    nodes = np.searchsorted(np.asarray(vids, dtype=np.int64), gm) + 1
    deg = [0] * (nv + 1)
    for row, c in zip(nodes.tolist(), gcount.tolist()):
        for v in row:
            deg[v] += c
    for i in range(1, nv + 1):
        net.add_edge(0, i, deg[i] * b)
        net.add_edge(i, t, alpha.numerator * p)
    for r, (row, c) in enumerate(zip(nodes.tolist(), gcount.tolist())):
        for v in row:
            net.add_edge(v, nv + 1 + r, c * b)
            net.add_edge(nv + 1 + r, v, c * (p - 1) * b)
    side = net.min_cut_source_side(0, t)
    return [v for i, v in enumerate(vids, start=1) if i in side]


@pytest.mark.parametrize("lemma8", [False, True], ids=["all-instances", "lemma8"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("pat", WARM_PATTERNS, ids=[p.name for p in WARM_PATTERNS])
def test_csr_network_matches_reference(spark, graph, pat, lemma8):
    """Over the warm-start alpha sequence, the CSR network's cut (one
    network, warm-started) equals the reference network's cut, built fresh
    at each alpha; construct+ for the diamond, with and without the
    Lemma-8 mask."""
    g = edges_from_pandas(spark, GRAPHS[graph]())
    allv, members = gather(spark, g, pat)
    grouped = pat.kind != "clique"
    p, n = pat.nv, len(allv)
    keep = lemma8_keep_mask(members, n) if lemma8 else None
    lo, hi = Fraction(0), Fraction(int(np.unique(members, return_counts=True)[1].max()))
    net, s, t, vid2node, n_nodes = build_network(
        allv, members, lo, p, grouped=grouped, keep_mask=keep)
    assert len(net.to) == 2 * (2 * n + 2 * p * (n_nodes - n - 2))
    outcomes = set()
    while hi - lo >= Fraction(1, n * (n - 1)):
        alpha = (lo + hi) / 2
        net.set_alpha(alpha)
        cut = min_cut_vertices(net, s, t, vid2node)
        assert cut == reference_cut(allv, members, alpha, p, grouped, keep), alpha
        outcomes.add(bool(cut))
        if cut:
            lo = alpha
        else:
            hi = alpha
    assert outcomes == {True, False}


def test_network_capacities_past_int64():
    """A float alpha converts exactly; when alpha * |V_Psi| * scale passes
    int64 the capacities are Python ints and the cut is still exact."""
    members = np.array([list(c) for c in combinations(range(4), 3)])
    below = Fraction(1) - Fraction(1, 2**70)
    net, s, t, v2n, _ = build_network(range(5), members, below, 3)
    assert net.scale == 2**70
    assert min_cut_vertices(net, s, t, v2n) == [0, 1, 2, 3]
    net, s, t, v2n, _ = build_network(range(5), members, Fraction(1), 3)
    assert min_cut_vertices(net, s, t, v2n) == []
