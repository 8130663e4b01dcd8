"""IncApp (Algorithm 5): bottom-up core decomposition, return the
(k_max, Psi)-core — a 1/|V_Psi|-approximation by Lemma 9."""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession

from repro.cores.clique_core import peel_decompose
from repro.densest.common import DSDResult, exact_density, gather
from repro.patterns.base import Pattern


def inc_app(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
) -> DSDResult:
    t0 = time.perf_counter()
    allv, members = gather(spark, edges, pattern)
    t_enum = time.perf_counter() - t0
    t1 = time.perf_counter()
    pr = peel_decompose(members, allv)
    core_verts = pr.kmax_core or allv[:1]
    t_dec = time.perf_counter() - t1
    return DSDResult(
        "IncApp",
        pattern.name,
        core_verts,
        float(exact_density(members, core_verts)),
        kmax=pr.kmax,
        timings={
            "enumerate": t_enum,
            "decompose": t_dec,
            "total": time.perf_counter() - t0,
        },
        stats={"instances": int(members.shape[0]), "n": len(allv)},
    )
