"""Pattern (motif) specifications.

A pattern Psi is a small connected simple graph. ``Pattern`` carries
the data every DSD algorithm needs: the vertex count |V_Psi| (flow
capacities use it), a pattern edge list on labels 0..nv-1 (the generic
matcher uses it), and a ``kind`` tag that routes to a specialised
lister when one exists (cliques, stars, the C4 "diamond", and the
K4-minus-an-edge "2-triangle" from the paper's Figure 7).

An *instance* of Psi in G is a distinct edge-subgraph of G isomorphic
to Psi (non-induced; automorphic re-mappings are not distinguished) —
Definitions 7-9 of the paper.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Pattern:
    name: str
    nv: int
    pattern_edges: tuple  # tuple of (i, j) with i < j on labels 0..nv-1
    # specialised lister: clique | star | diamond | two_triangle; else generic
    kind: str = "generic"
    h: int = 0  # clique size when kind == "clique"

    @property
    def ne(self) -> int:
        return len(self.pattern_edges)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def clique(h: int) -> Pattern:
    """h-clique (h >= 2). h=2 is the single edge (EDS)."""
    if h < 2:
        raise ValueError("clique size must be >= 2")
    edges = tuple((i, j) for i in range(h) for j in range(i + 1, h))
    name = {2: "edge", 3: "triangle"}.get(h, f"{h}-clique")
    return Pattern(name, h, edges, kind="clique", h=h)


def edge() -> Pattern:
    return clique(2)


def triangle() -> Pattern:
    return clique(3)


def star(x: int) -> Pattern:
    """x-star: one center (label 0) with x tail vertices (labels 1..x)."""
    if x < 2:
        raise ValueError("star needs >= 2 tails (1-star is just an edge)")
    return Pattern(f"{x}-star", x + 1, tuple((0, i) for i in range(1, x + 1)), kind="star")


def diamond() -> Pattern:
    """The paper's diamond = the 4-cycle loop pattern (appendix D.2).

    Validated against Table 5: S-DBLP's CDS is K13 and the reported
    diamond rho_opt is 165 = 3*C(13,4)/13, the C4 count of K13.
    """
    return Pattern("diamond", 4, ((0, 1), (1, 2), (2, 3), (0, 3)), kind="diamond")


def two_triangle() -> Pattern:
    """2-triangle: two triangles sharing an edge = K4 minus one edge.

    4 vertices (the paper notes c3-star, also on 4 vertices, is its
    subgraph). Labels: 0-1 is the shared edge; 2 and 3 are the apexes.
    """
    return Pattern(
        "2-triangle", 4, ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)), kind="two_triangle"
    )


def generic(name: str, nv: int, pattern_edges) -> Pattern:
    """Arbitrary connected pattern, matched by the generic join matcher."""
    es = tuple(sorted((min(a, b), max(a, b)) for a, b in pattern_edges))
    if len(set(es)) != len(es):
        raise ValueError("duplicate pattern edges")
    for a, b in es:
        if not (0 <= a < b < nv):
            raise ValueError("pattern edge endpoints out of range")
    return Pattern(name, nv, es, kind="generic")


def c3_star() -> Pattern:
    """The claw (3-star) under the paper's Figure 7 name."""
    p = star(3)
    return Pattern("c3-star", p.nv, p.pattern_edges, kind="star")
