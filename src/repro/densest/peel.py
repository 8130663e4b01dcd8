"""PeelApp (Algorithm 2): greedy 1/|V_Psi|-approximation [10, 51].

Spark enumerates the instances (the dominant cost per Lemma 2); the
inherently sequential remove-min-degree loop runs on the driver and
returns the densest residual prefix.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.cores.clique_core import peel_decompose
from repro.densest.common import DSDResult, exact_density, gather
from repro.patterns.base import Pattern
from repro.phases import PhaseClock


def peel_app(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
) -> DSDResult:
    clock = PhaseClock()
    with clock.phase("enumerate"):
        allv, members = gather(spark, edges, pattern)
    with clock.phase("decompose"):
        pr = peel_decompose(members, allv)
    # with no instance every set has density 0; the smallest id answers
    verts = pr.best_vertices if pr.kmax else allv[:1]
    with clock.phase("locate"):
        dens = float(exact_density(members, verts))
    return DSDResult("PeelApp", pattern.name, verts.tolist(), dens, kmax=pr.kmax,
                     timings=clock.timings(),
                     stats={"instances": int(members.shape[0]), "n": len(allv)})
