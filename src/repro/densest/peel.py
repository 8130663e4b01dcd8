"""PeelApp (Algorithm 2): greedy 1/|V_Psi|-approximation [10, 51].

Spark enumerates the instances (the dominant cost per Lemma 2); the
inherently sequential remove-min-degree loop runs on the driver and
returns the densest residual prefix.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession

from repro.cores.clique_core import peel_decompose
from repro.densest.common import DSDResult, exact_density, gather
from repro.patterns.base import Pattern


def peel_app(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
) -> DSDResult:
    t0 = time.perf_counter()
    allv, members = gather(spark, edges, pattern)
    t_enum = time.perf_counter() - t0
    t1 = time.perf_counter()
    pr = peel_decompose(members, allv)
    t_peel = time.perf_counter() - t1
    # with no instance every set has density 0; the smallest id answers
    verts = pr.best_vertices if pr.kmax else allv[:1]
    return DSDResult(
        "PeelApp",
        pattern.name,
        sorted(verts),
        float(exact_density(members, verts)),
        kmax=pr.kmax,
        timings={
            "enumerate": t_enum,
            "peel": t_peel,
            "total": time.perf_counter() - t0,
        },
        stats={"instances": int(members.shape[0]), "n": len(allv)},
    )
