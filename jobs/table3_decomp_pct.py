"""Table 3: % of CoreExact time spent in core decomposition.

For As-733 and Ca-HepTh stand-ins, h-cliques h=2..6, runs CoreExact and
reports the core-decomposition share of total wall-clock, both as the
peel-only share (the paper's Algorithm-3 bookkeeping on top of shared
enumeration) and including the shared Spark clique enumeration.
Optionally also times the baseline Exact for the speedup ratio
(Fig. 8 / Fig. 19 headline).

Run: spark-submit jobs/table3_decomp_pct.py
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.densest.core_exact import core_exact
from repro.densest.exact import exact_densest
from repro.graph import datasets as ds
from repro.patterns import clique


def run(
    spark: SparkSession,
    names=("as733", "ca_hepth"),
    hs=(2, 3, 4, 5, 6),
    run_exact: bool = False,
    exact_max_nodes: int = 40_000,
) -> pd.DataFrame:
    """``exact_max_nodes`` caps the baseline's flow-network size
    (n + |Lambda|): above it Exact is skipped, mirroring the paper's own
    '>5 days' timeouts for Exact on larger inputs."""
    rows = []
    for name in names:
        g = ds.dataset(spark, name).localCheckpoint(eager=True)
        for h in hs:
            pat = clique(h)
            res = core_exact(spark, g, pat)
            t = res.timings
            row = {
                "dataset": name,
                "pattern": pat.name,
                "decomp_pct": 100.0 * t["decompose"] / t["total"],
                "decomp_plus_enum_pct": 100.0 * (t["decompose"] + t["enumerate"]) / t["total"],
                "total_s": t["total"],
                "density": res.density,
                "kmax": res.kmax,
            }
            if run_exact and res.stats["n"] + res.stats["instances"] <= exact_max_nodes:
                ex = exact_densest(spark, g, pat)
                assert abs(ex.density - res.density) < 1e-6, (name, h)
                row["exact_s"] = ex.timings["total"]
                row["speedup_total"] = ex.timings["total"] / t["total"]
                # flow-only ratio: the paper's mechanism (smaller
                # networks) with the shared Spark enumeration overhead
                # — identical in both algorithms — factored out
                row["speedup_flow_only"] = ex.timings["flow"] / max(t["flow"], 1e-6)
            rows.append(row)
    return pd.DataFrame(rows)


def main():  # pragma: no cover
    spark = (
        SparkSession.builder.appName("table3")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    print(run(spark, run_exact=True).to_string(index=False))
    spark.stop()


if __name__ == "__main__":  # pragma: no cover
    main()
