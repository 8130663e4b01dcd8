"""Seeded graphs and the fixed query list of each benchmark workload.

Every graph is one of the stand-in recipes of ``repro.graph.datasets``: a
Chung-Lu background plus a planted clique. The recipe is rebuilt here from
``repro.graph.generators`` with the background seed offset by the
benchmark's ``--seed``; the planted clique never moves, so every seed has
a known dense subgraph that exact answers must reach. Seed 0 reproduces
``datasets.dataset_pandas(shape)`` exactly (checked in the tests).

Only shapes whose query cost the planted clique dominates are used: on the
as733 and as_caida shapes the background hubs share ids with the planted
Erdos-Renyi blob, so their 5-clique and 2-star work changes by up to 2x
from one seed to the next, and that spread would hide regressions.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from repro.graph import generators as gen
from repro.patterns import Pattern, clique


@dataclass(frozen=True)
class Shape:
    """One stand-in recipe: a planted clique plus a Chung-Lu background."""

    name: str
    clique: int  # the planted clique is on vertices 0..clique-1
    bg_n: int
    bg_m: int
    bg_alpha: float
    bg_seed: int

    def block_pandas(self) -> pd.DataFrame:
        return gen.clique_pandas(range(self.clique))

    def edges_pandas(self, seed: int) -> pd.DataFrame:
        bg = gen.chung_lu_pandas(
            self.bg_n, self.bg_m, alpha=self.bg_alpha, seed=self.bg_seed + seed
        )
        return gen.compose(self.block_pandas(), bg)


# Parameters copied from repro.graph.datasets; a test pins them to it.
SHAPES = {
    s.name: s
    for s in (
        Shape("netscience", 20, 1589, 2550, 2.4, 17),
        Shape("ca_hepth", 18, 9877, 25800, 2.6, 23),
        Shape("dblp_s", 24, 8519, 20700, 2.35, 31),
    )
}


@dataclass(frozen=True)
class Query:
    """One densest-subgraph query: ``algorithm`` on ``shape`` for ``pattern``.

    ``algorithm`` is one of core_exact, exact, core_app, peel_app, emcore;
    emcore has no pattern argument and always means the edge pattern.
    """

    algorithm: str
    shape: str
    pattern: Pattern

    @property
    def label(self) -> str:
        return f"{self.algorithm}:{self.shape}:{self.pattern.name}"


# Per-algorithm wall-time metric names (seconds summed over one pass).
ALGORITHM_METRIC = {
    "core_exact": "coreexact_s",
    "exact": "exact_s",
    "core_app": "coreapp_s",
    "emcore": "emcore_s",
    "peel_app": "peelapp_s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    queries: tuple

    @property
    def shapes(self) -> tuple:
        return tuple(dict.fromkeys(q.shape for q in self.queries))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-dense",
            "CoreExact 5-clique and whole-graph Exact triangle: Lemma 8, "
            "flow-network build and Dinic dominate",
            (
                Query("core_exact", "ca_hepth", clique(5)),
                Query("exact", "netscience", clique(3)),
            ),
        ),
        Workload(
            "approx-topdown",
            "CoreApp against EMcore and PeelApp: no max-flow; top-W Spark "
            "round-trips, gamma ranking and driver peels dominate",
            (
                Query("core_app", "dblp_s", clique(2)),
                Query("emcore", "dblp_s", clique(2)),
                Query("core_app", "netscience", clique(3)),
                Query("peel_app", "netscience", clique(3)),
            ),
        ),
    )
}
