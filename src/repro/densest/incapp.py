"""IncApp (Algorithm 5): bottom-up core decomposition, return the
(k_max, Psi)-core — a 1/|V_Psi|-approximation by Lemma 9."""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.cores.clique_core import core_decompose
from repro.densest.common import DSDResult, exact_density, gather
from repro.patterns.base import Pattern
from repro.phases import PhaseClock


def inc_app(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
) -> DSDResult:
    clock = PhaseClock()
    with clock.phase("enumerate"):
        allv, members = gather(spark, edges, pattern)
    with clock.phase("decompose"):
        pr = core_decompose(members, allv)
    # with no instance every set has density 0; the smallest id answers
    core_verts = pr.kmax_core if pr.kmax else allv[:1]
    with clock.phase("locate"):
        dens = float(exact_density(members, core_verts))
    return DSDResult("IncApp", pattern.name, core_verts.tolist(), dens, kmax=pr.kmax,
                     timings=clock.timings(),
                     stats={"instances": int(members.shape[0]), "n": len(allv)})
