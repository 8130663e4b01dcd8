"""Flow networks for the densest-subgraph search, on integer capacities.

``build_network`` mirrors Algorithm 1 lines 5-12: source -> vertex arcs
with capacity deg(v, Psi), vertex -> sink arcs with capacity
alpha * |V_Psi|, and per-instance gadgets (v -> psi cap 1,
psi -> v cap |V_Psi| - 1), always in the construct+ form of Algorithm 7:
instances sharing a vertex set collapse into one group node g with
v -> g cap |g| and g -> v cap |g| * (|V_Psi| - 1). Lemma 12 guarantees
identical min-cut capacity (tested). An h-vertex set holds at most one
h-clique, so for cliques every group is one instance and the network is
Algorithm 1's. The four arc blocks are numpy arrays, laid out as CSR by
``repro.flow.dinic.Dinic`` in one pass; no arc is added one at a time.
Vertex node i + 1 is the i-th id of the sorted id array the network is
built on, so the cut side maps back to ids by one mask. Every vertex set
of the member matrix given gets a group node: Lemma-8 pruning
(``lemma8_keep_mask``) is a row mask the caller applies.

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
from math import lcm

import numpy as np

from repro.cores.clique_core import _vertex_index
from repro.flow.dinic import Dinic
from repro.patterns.instances import _extend

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

    Returns (unique_members, counts): unique_members is (num_groups, p),
    each row sorted ascending, the rows in lexicographic order. One
    ``np.lexsort`` of the row-sorted matrix and a neighbour diff find them.
    """
    rows = np.sort(members, axis=1)
    rows = rows[np.lexsort(rows.T[::-1])]  # first column primary
    new = np.ones(len(rows), dtype=bool)  # group starts
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new], np.diff(np.append(np.flatnonzero(new), len(rows)))


def build_network(vertex_ids, members: np.ndarray, alpha, p: int):
    """Build the construct+ flow network (Algorithm 7) at ``alpha``.

    ``alpha``:      a ``Fraction`` (or anything ``Fraction`` converts
                    exactly); capacities are scaled by its denominator.
    ``vertex_ids``: the sorted distinct ids of the (sub)graph the network
                    is built on.
    ``members``:    instance member matrix restricted to that subgraph,
                    one group node per vertex set. Source capacities are the
                    degrees over these rows, so a Lemma-8-pruned matrix
                    gets the reduced clique-degrees of the Lemma 8 proof.

    Returns (net, s, t, vids, n_nodes): ``vids`` is ``vertex_ids`` as an
    int64 array, whose i-th id is vertex node i + 1; ``net`` is a
    ``DensityNetwork`` whose ``sink_arcs`` are the CSR positions of the
    vertex -> t arcs.
    """
    vids = np.asarray(vertex_ids, dtype=np.int64)
    nv = len(vids)
    gm, gcount = group_instances(members)
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
    return net, s, t, vids, t + 1


def min_cut_vertices(net: DensityNetwork, s: int, t: int, vids: np.ndarray) -> list:
    """Run max-flow and return graph vertices on the source side of the cut,
    as a sorted list; ``vids`` is the id array ``build_network`` returned.

    A non-empty cut's flow is kept as the warm start for later probes.
    """
    net.max_flow(s, t)
    side = np.frombuffer(net.min_cut_source_side(s), dtype=np.uint8)
    cut = vids[side[1 : len(vids) + 1].astype(bool)].tolist()
    if cut:
        net.keep_flow()
    return cut


# Lemma 8 runs on at most LEMMA8_CAP instances and expands at most
# LEMMA8_PAIRS_CAP (candidate row, instance) pairs (see lemma8_keep_mask):
# two cliques of unequal degree make every row of the sparser one a
# candidate, up to |Lambda|^2 p pairs, and the prune is optional. Yeast's
# 2-star component expands 256,617 pairs in 12 ms on a 4-core Xeon VM.
LEMMA8_CAP = 20_000
LEMMA8_PAIRS_CAP = 1 << 18


def lemma8_keep_mask(members: np.ndarray, n_vertices: int) -> np.ndarray:
    """Lemma-8 instance pruning mask (True = keep the instance node).

    An instance psi may be dropped if deleting its members from G raises
    the density: mu'/(n-p) > mu/n, tested as mu'*n > mu*(n-p), where mu'
    counts instances avoiding psi's members. Applied only when
    |Lambda| <= ``LEMMA8_CAP`` and the exact count below expands at most
    ``LEMMA8_PAIRS_CAP`` pairs (it is a constant-factor optimization;
    skipping it never affects correctness).

    mu - mu' = |U_{v in psi} I(v)|, with I(v) the instances containing v,
    so psi is dropped iff |U I(v)| * n < mu * p. The union holds every
    I(v), so only a row whose every member has deg(v) * n < mu * p can be
    dropped; the degrees come from the vertex -> instance CSR. For those
    candidate rows alone the union is counted exactly: each member is
    expanded through the CSR, and the distinct (row, instance) pairs are
    counted. The cost is O(|Lambda| p + the candidates' summed degrees).
    """
    m = members.shape[0]
    keep = np.ones(m, dtype=bool)
    if m == 0 or m > LEMMA8_CAP:
        return keep
    p = members.shape[1]
    if n_vertices <= p:
        return keep
    _, pos, slot, deg, start = _vertex_index(members, members)
    rows = pos.reshape(m, p)
    cand = np.flatnonzero((deg[rows] * n_vertices < m * p).all(axis=1))
    if cand.size == 0 or deg[rows[cand]].sum() > LEMMA8_PAIRS_CAP:
        return keep
    row, w = _extend(np.repeat(cand, p), rows[cand].ravel(), start, slot)
    mu_prime = m - np.bincount(np.unique(row * m + w // p) // m, minlength=m)[cand]
    keep[cand] = mu_prime * n_vertices <= m * (n_vertices - p)
    return keep
