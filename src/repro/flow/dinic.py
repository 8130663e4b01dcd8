"""Dinic max-flow over CSR arc arrays, with exact (integer) capacities.

Fills the role of Gusfield's min-cut solver [2] in the paper's exact
algorithms. The densest-subgraph networks are small after core-based
localization, so a tight pure-Python solver is the right layering here;
the paper itself treats parallel min-cut as out of scope (§6.3).

A network is given whole, as arc arrays (tail, head, capacity), and is
laid out once with numpy: every arc and its zero-capacity reverse are
sorted by tail (CSR), ``rev`` holds each arc's reverse position, and
``arc[i]`` the position of input arc i. The solver then runs on plain
lists: BFS levels with a list queue, and an iterative blocking-flow DFS
that keeps a per-node arc pointer. The min-cut source side is a
``bytearray`` of the nodes reachable from s in the residual graph.

Capacities are compared against 0 with no tolerance, so they must be
exact numbers. The densest-subgraph networks pass Python ints: α = a/b
is rational and every capacity is scaled by b (Goldberg, "Finding a
maximum density subgraph", UC Berkeley TR 1984), so a cut side is an
exact decision however close α is to the optimum density. Float
capacities compared against a tolerance cannot promise that: with
EPS = 1e-9, a cut at α = ρ* - 1.4e-10 read as empty on a 60,020-vertex
graph (``tests/test_flow.py::test_cut_exact_at_stopping_gap``).

``cap`` holds residual capacities, and ``max_flow`` augments whatever
flow they already encode. A caller may therefore warm-start a solve:
``repro.densest.network.DensityNetwork`` swaps in the residual
capacities saved at an earlier probe, with some arcs raised, and
``max_flow`` continues from that flow instead of from zero.
"""
from __future__ import annotations

from array import array

import numpy as np


class Dinic:
    """Max-flow on a directed graph with ``n`` nodes (0..n-1) and the
    arcs ``tail[i] -> head[i]`` of capacity ``cap[i]``.

    ``cap`` is anything ``np.asarray`` keeps exact: an int64 or float64
    array, or an object array of Python ints when a capacity exceeds
    int64. Residual capacities are kept as Python numbers in ``cap``.
    """

    def __init__(self, n: int, tail, head, cap):
        self.n = n
        cap = np.asarray(cap)
        m = len(cap)
        # arc ids 0..m-1 are the input arcs, m..2m-1 their reverses
        ends = np.concatenate([tail, head]).astype(np.int32, copy=False)
        order = np.argsort(ends, kind="stable").astype(np.int32)  # CSR slot -> arc id
        where = np.empty(2 * m, dtype=np.int32)  # arc id -> CSR slot
        where[order] = np.arange(2 * m, dtype=np.int32)
        to = np.concatenate([head, tail]).astype(np.int32, copy=False)[order]
        # arc id a's reverse is a + m or a - m; a - m < 0 wraps to a + m
        rev = where[order - m]
        start = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
        full = np.zeros(2 * m, dtype=cap.dtype)
        full[where[:m]] = cap
        self.arc = where[:m]
        del ends, order, cap
        # ``to`` refers to one int object per node, ``rev`` packs int32s:
        # both are read per arc, and neither needs an int object per arc
        self.to: list[int] = np.arange(n).astype(object)[to].tolist()
        del to
        self.rev = array("i", rev.tobytes())
        del rev
        self.start: list[int] = start.tolist()
        self.cap: list = full.tolist()

    def _bfs(self, s: int, t: int) -> bool:
        """Residual BFS levels from s; stops once t is labelled."""
        start, to, cap = self.start, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        q = [s]
        for u in q:
            lv = level[u] + 1
            for e in range(start[u], start[u + 1]):
                if cap[e] > 0:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = lv
                        if v == t:
                            self.level = level
                            return True
                        q.append(v)
        self.level = level
        return False

    def _dfs(self, s: int, t: int):
        """One blocking flow (iterative); returns the flow it added."""
        start, to, cap, rev, level = self.start, self.to, self.cap, self.rev, self.level
        it = start[:-1]  # per-node arc pointer
        total = 0
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bott = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= bott
                    cap[rev[e]] += bott
                total += bott
                # retreat to the tail of the first saturated arc
                for k, e in enumerate(path):
                    if cap[e] <= 0:
                        del path[k:]
                        break
                u = to[path[-1]] if path else s
                continue
            e, end, lv = it[u], start[u + 1], level[u] + 1
            while e < end and not (cap[e] > 0 and level[to[e]] == lv):
                e += 1
            it[u] = e
            if e < end:
                path.append(e)
                u = to[e]
                continue
            if u == s:
                return total
            # dead end: mark the node unusable and retreat
            level[u] = -1
            e = path.pop()
            u = to[rev[e]]
            it[u] += 1

    def max_flow(self, s: int, t: int):
        """Augment to a maximum s-t flow; return the flow this call added."""
        flow = 0
        while self._bfs(s, t):
            flow += self._dfs(s, t)
        return flow

    def min_cut_source_side(self, s: int) -> bytearray:
        """Nodes reachable from s in the residual graph (call after
        max_flow), as a 0/1 flag per node."""
        start, to, cap = self.start, self.to, self.cap
        seen = bytearray(self.n)
        seen[s] = 1
        q = [s]
        for u in q:
            for e in range(start[u], start[u + 1]):
                if cap[e] > 0:
                    v = to[e]
                    if not seen[v]:
                        seen[v] = 1
                        q.append(v)
        return seen
