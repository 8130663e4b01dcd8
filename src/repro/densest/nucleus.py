"""Nucleus baseline [46]: distributed local h-index (AND) decomposition,
then return the (k_max, Psi)-core — same output as IncApp/CoreApp, timed
as the paper's "Nucleus" competitor."""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.cores.clique_core import clique_core_numbers_hindex, collect_instances
from repro.densest.common import DSDResult, exact_density
from repro.patterns.base import Pattern
from repro.patterns.instances import pattern_instances
from repro.phases import PhaseClock


def nucleus_app(
    spark: SparkSession, edges: DataFrame, pattern: Pattern
) -> DSDResult:
    clock = PhaseClock()
    with clock.phase("enumerate"):
        inst = pattern_instances(spark, edges, pattern).localCheckpoint(eager=True)
        members = collect_instances(inst, pattern)
    with clock.phase("decompose"):
        cores = clique_core_numbers_hindex(spark, edges, pattern, inst=inst).toPandas()
        kmax = int(cores["core"].max()) if len(cores) else 0
        verts = sorted(cores.loc[cores["core"] == kmax, "v"].tolist())
    if kmax == 0:  # no instance: every set has density 0; the smallest id answers
        verts = verts[:1]
    with clock.phase("locate"):
        dens = float(exact_density(members, verts))
    return DSDResult("Nucleus", pattern.name, verts, dens, kmax=kmax,
                     timings=clock.timings())
