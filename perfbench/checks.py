"""Independent output checks for benchmark answers.

Nothing here calls the program under test: densities are recounted with
networkx on the induced subgraph of the generated edge list, and the
planted clique gives a lower bound on the optimum that each answer must
reach (exactly, or within 1/|V_Psi| for the approximations).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np
import pandas as pd

from repro.patterns import Pattern

REL_TOL = 1e-9

# Exact densities on seed 0, as committed in results/table3.csv (ca_hepth)
# and results/table5.csv (netscience). The tests pin these to the CSV files.
SEED0_EXACT = {
    ("ca_hepth", "5-clique"): 476.0,
    ("netscience", "triangle"): 57.0,
}


@dataclass
class Answer:
    """What a query returned, in one form for every algorithm."""

    vertices: list
    density: float | None  # reported Psi-density (EMcore reports none)
    kmax: int | None


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def count_instances(g: nx.Graph, pattern: Pattern) -> int:
    """Number of h-clique instances of ``pattern`` in ``g``."""
    if pattern.kind != "clique":
        raise ValueError(f"no oracle for pattern {pattern.name}")
    h = pattern.h
    if h == 2:
        return g.number_of_edges()
    if h == 3:
        return sum(nx.triangles(g).values()) // 3
    n = 0
    for c in nx.enumerate_all_cliques(g):  # yields cliques by increasing size
        if len(c) > h:
            break
        n += len(c) == h
    return n


def psi_density(edges: pd.DataFrame, vertices, pattern: Pattern) -> float:
    """rho(G[S], Psi) recounted from the edge list."""
    vs = np.asarray(sorted(set(int(v) for v in vertices)), dtype=np.int64)
    if len(vs) == 0:
        return 0.0
    keep = np.isin(edges["src"].to_numpy(), vs) & np.isin(edges["dst"].to_numpy(), vs)
    g = nx.Graph()
    g.add_nodes_from(vs.tolist())
    g.add_edges_from(zip(edges["src"].to_numpy()[keep].tolist(),
                         edges["dst"].to_numpy()[keep].tolist()))
    return count_instances(g, pattern) / len(vs)


def planted_density(k: int, pattern: Pattern) -> float:
    """Psi-density of a planted k-clique: a lower bound on rho_opt."""
    return count_instances(nx.complete_graph(k), pattern) / k


class Checker:
    """Checks answers against one seed's graphs; caches recounts per answer."""

    def __init__(self, edges: dict, cliques: dict, expected: dict):
        self.edges = edges  # shape -> pandas edge frame
        self.cliques = cliques  # shape -> size of its planted clique
        self.expected = expected  # (shape, pattern name) -> exact density
        self._recount: dict = {}
        self._bound: dict = {}

    def recount(self, shape: str, pattern: Pattern, vertices) -> float:
        key = (shape, pattern.name, frozenset(int(v) for v in vertices))
        if key not in self._recount:
            self._recount[key] = psi_density(self.edges[shape], key[2], pattern)
        return self._recount[key]

    def bound(self, shape: str, pattern: Pattern) -> float:
        key = (shape, pattern.name)
        if key not in self._bound:
            self._bound[key] = planted_density(self.cliques[shape], pattern)
        return self._bound[key]

    def check(self, algorithm: str, shape: str, pattern: Pattern, ans: Answer) -> list:
        """Problems with one answer; an empty list means it passed."""
        errs = []
        if not ans.vertices:
            return ["empty vertex set"]
        d = self.recount(shape, pattern, ans.vertices)
        if ans.density is not None and not close(d, ans.density):
            errs.append(f"reported density {ans.density!r} != recount {d!r}")
        lb = self.bound(shape, pattern)
        if algorithm in ("core_exact", "exact"):
            if d < lb * (1 - REL_TOL):
                errs.append(f"exact density {d!r} below the planted clique's {lb!r}")
            want = self.expected.get((shape, pattern.name))
            if want is not None and not close(d, want):
                errs.append(f"density {d!r} != committed table value {want!r}")
        elif d < lb / pattern.nv * (1 - REL_TOL):
            errs.append(f"approx density {d!r} below planted/|V_Psi| {lb / pattern.nv!r}")
        return errs


def kmax_disagreements(results: list) -> dict:
    """Index -> problem for answers whose k_max differs from an earlier one
    on the same (shape, pattern). ``results``: (shape, pattern name, Answer)."""
    first: dict = {}
    bad = {}
    for i, (shape, pname, ans) in enumerate(results):
        if ans is None or ans.kmax is None:
            continue
        k0 = first.setdefault((shape, pname), ans.kmax)
        if ans.kmax != k0:
            bad[i] = f"k_max {ans.kmax} != {k0} reported by another algorithm"
    return bad
