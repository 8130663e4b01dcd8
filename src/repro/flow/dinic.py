"""Dinic max-flow with exact (integer) capacities.

Fills the role of Gusfield's min-cut solver [2] in the paper's exact
algorithms. The densest-subgraph networks are tiny after
core-based localization, so a tight pure-Python implementation (arc
arrays, BFS levels, iterative DFS blocking flow) is the right layering
here; the paper itself treats parallel min-cut as out of scope (§6.3).

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

from collections import deque


class Dinic:
    """Max-flow on a directed graph with ``n`` nodes (0..n-1)."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, c) -> None:
        """Directed edge u->v with capacity c (reverse edge cap 0)."""
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _bfs(self, s: int, t: int) -> bool:
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

    def _dfs(self, s: int, t: int):
        """One blocking-flow augmentation (iterative)."""
        total = 0
        it = self.it
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bott = min(self.cap[e] for e in path)
                for e in path:
                    self.cap[e] -= bott
                    self.cap[e ^ 1] += bott
                total += bott
                # retreat to the first saturated arc
                for k, e in enumerate(path):
                    if self.cap[e] <= 0:
                        path = path[:k]
                        break
                u = self.to[path[-1]] if path else s
                continue
            advanced = False
            while it[u] < len(self.head[u]):
                e = self.head[u][it[u]]
                v = self.to[e]
                if self.cap[e] > 0 and self.level[v] == self.level[u] + 1:
                    path.append(e)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == s:
                return total
            # dead end: mark level unusable and retreat
            self.level[u] = -1
            e = path.pop()
            u = self.to[e ^ 1]
            it[u] += 1

    def max_flow(self, s: int, t: int):
        """Augment to a maximum s-t flow; return the flow this call added."""
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            flow += self._dfs(s, t)
        return flow

    def min_cut_source_side(self, s: int) -> set:
        """Nodes reachable from s in the residual graph (call after max_flow)."""
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen
