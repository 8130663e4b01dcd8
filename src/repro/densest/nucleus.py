"""Nucleus baseline [46]: the local h-index (AND) decomposition over the
gathered member matrix, then return the (k_max, Psi)-core — same output
as IncApp/CoreApp, timed as the paper's "Nucleus" competitor."""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.cores.clique_core import hindex_core_numbers
from repro.densest.common import DSDResult, exact_density, gather
from repro.patterns.base import Pattern
from repro.phases import PhaseClock


def nucleus_app(
    spark: SparkSession, edges: DataFrame, pattern: Pattern
) -> DSDResult:
    clock = PhaseClock()
    with clock.phase("enumerate"):
        allv, members = gather(spark, edges, pattern)
    with clock.phase("decompose"):
        core = hindex_core_numbers(members, allv)
        kmax = int(core.max(initial=0))
        # no instance: every set has density 0; the smallest id answers
        verts = allv[core == kmax] if kmax else allv[:1]
    with clock.phase("locate"):
        dens = float(exact_density(members, verts))
    return DSDResult("Nucleus", pattern.name, verts.tolist(), dens, kmax=kmax,
                     timings=clock.timings(),
                     stats={"instances": int(members.shape[0]), "n": len(allv)})
