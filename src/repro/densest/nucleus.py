"""Nucleus baseline [46]: distributed local h-index (AND) decomposition,
then return the (k_max, Psi)-core — same output as IncApp/CoreApp, timed
as the paper's "Nucleus" competitor."""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.cores.clique_core import clique_core_numbers_hindex, collect_instances
from repro.densest.common import DSDResult, exact_density
from repro.patterns.base import Pattern
from repro.patterns.instances import pattern_instances


def nucleus_app(
    spark: SparkSession, edges: DataFrame, pattern: Pattern
) -> DSDResult:
    t0 = time.perf_counter()
    inst = pattern_instances(spark, edges, pattern).localCheckpoint(eager=True)
    cn = clique_core_numbers_hindex(spark, edges, pattern, inst=inst)
    kmax = cn.agg(F.max("core")).collect()[0][0] or 0
    verts = sorted(
        int(r["v"]) for r in cn.where(F.col("core") == kmax).collect()
    )
    if kmax == 0:  # no instance: every set has density 0; the smallest id answers
        verts = verts[:1]
    members = collect_instances(inst, pattern)
    dens = float(exact_density(members, verts))
    return DSDResult(
        "Nucleus",
        pattern.name,
        verts,
        dens,
        kmax=int(kmax),
        timings={"total": time.perf_counter() - t0},
    )
