"""Shared result type and helpers for the DSD/PDS algorithms."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.cores.clique_core import instances_inside
from repro.graph.ops import edge_array
from repro.patterns.base import Pattern
from repro.patterns.instances import pattern_instances


@dataclass
class DSDResult:
    """Outcome of a densest-subgraph algorithm run."""

    algorithm: str
    pattern: str
    vertices: list  # the returned subgraph's vertex set: sorted Python ints
    density: float  # its exact Psi-density
    kmax: int | None = None
    timings: dict = field(default_factory=dict)  # seconds per phase
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.vertices)


def gather(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    edge_arr: np.ndarray | None = None,
) -> tuple:
    """(all_vertex_ids, member_matrix) — the driver-side problem instance.

    The vertex ids are a sorted int64 array, read off the edge array (pass
    ``edge_arr`` when the caller already collected it). The edge array is
    collected first and handed to ``pattern_instances``, which lists from
    it. For Psi = edge the edge array is the member
    matrix, and an empty one has no instance, so neither lists anything.
    """
    if edge_arr is None:
        edge_arr = edge_array(edges)
    allv = np.unique(edge_arr)
    if pattern.kind == "clique" and pattern.h == 2:
        return allv, edge_arr
    if not len(edge_arr):
        return allv, np.empty((0, pattern.nv), np.int64)
    return allv, pattern_instances(spark, edge_arr, pattern)


def exact_density(members: np.ndarray, vertex_ids) -> Fraction:
    """rho(G[S], Psi) = instances fully inside S / |S|, as an exact
    fraction; S is given as an array-like of distinct ids."""
    if not len(vertex_ids):
        return Fraction(0)
    return Fraction(int(instances_inside(members, vertex_ids).sum()), len(vertex_ids))


def certificate(vertices, density: Fraction, alpha: Fraction) -> dict:
    """Optimality certificate of an exact result: the returned set S, its
    density rho(S), and the alpha at which the last min cut was empty,
    fractions written "a/b". An empty cut at alpha proves that no vertex
    set of that network is denser than alpha, so alpha == rho(S) proves
    S optimal."""
    return {
        "vertices": sorted(vertices),
        "density": f"{density.numerator}/{density.denominator}",
        "alpha": f"{alpha.numerator}/{alpha.denominator}",
    }
