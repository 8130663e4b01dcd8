"""CoreApp as a DSD algorithm: return the (k_max, Psi)-core (Lemma 9:
a 1/|V_Psi|-approximation), found top-down without full decomposition.
The core's density is counted from the instances CoreApp already
collected in the round that found it, with no further Spark work."""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.cores.coreapp import kmax_core_coreapp
from repro.densest.common import DSDResult
from repro.patterns.base import Pattern
# unused here, but the benchmark tracer wraps this import site by name
from repro.patterns.instances import pattern_instances  # noqa: F401


def core_app(
    spark: SparkSession, edges: DataFrame, pattern: Pattern, w0: int | None = None
) -> DSDResult:
    kmax, verts, info = kmax_core_coreapp(spark, edges, pattern, w0=w0)
    if not verts and info["n"]:
        verts = [info["min_vertex"]]
    # exact density of the returned core: its instances were counted inside
    # the round's G[W] (none when k_max = 0, where the fallback is returned)
    dens = info["core_instances"] / len(verts) if verts else 0.0
    timings = info.pop("timings")  # kmax_core_coreapp's clock covers the call
    return DSDResult("CoreApp", pattern.name, verts, dens, kmax=kmax,
                     timings=timings, stats=info)
