"""Table 5: edge-, clique- and pattern-densities of the CDS/PDS vs EDS.

For each small dataset: rho_opt(Psi) from CoreExact, and rho(EDS, Psi) —
the Psi-density *of the edge-densest subgraph* — for
Psi in {edge, triangle, 4-clique, 5-clique, 6-clique, 2-star, diamond}.

Also records PeelApp vs CoreApp timings per cell so EXPERIMENTS.md can
report the approximation speedups and actual ratios (Fig. 11 claims).

Run: spark-submit jobs/table5_densities.py
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.cores.clique_core import density_of
from repro.densest.common import gather
from repro.densest.core_exact import core_exact
from repro.densest.coreapp_dsd import core_app
from repro.densest.peel import peel_app
from repro.graph import datasets as ds
from repro.patterns import clique, diamond, star

DEFAULT_PATTERNS = (
    clique(2), clique(3), clique(4), clique(5), clique(6), star(2), diamond()
)


def run(
    spark: SparkSession,
    names=("s_dblp", "yeast", "netscience", "as733"),
    patterns=DEFAULT_PATTERNS,
    with_approx: bool = True,
) -> pd.DataFrame:
    rows = []
    for name in names:
        g = ds.dataset(spark, name).localCheckpoint(eager=True)
        eds = core_exact(spark, g, clique(2))
        eds_set = set(eds.vertices)
        for pat in patterns:
            allv, members = gather(spark, g, pat)
            res = core_exact(spark, g, pat)
            row = {
                "dataset": name,
                "pattern": pat.name,
                "rho_opt": res.density,
                "rho_eds": density_of(members, eds_set),
                "cds_size": res.size,
                "coreexact_s": res.timings["total"],
            }
            if with_approx:
                pa = peel_app(spark, g, pat)
                ca = core_app(spark, g, pat)
                row.update(
                    peelapp_s=pa.timings["total"],
                    coreapp_s=ca.timings["total"],
                    peel_ratio=pa.density / res.density if res.density else 1.0,
                    coreapp_ratio=ca.density / res.density if res.density else 1.0,
                )
            rows.append(row)
    return pd.DataFrame(rows)


def main():  # pragma: no cover
    spark = (
        SparkSession.builder.appName("table5")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    print(run(spark).to_string(index=False))
    spark.stop()


if __name__ == "__main__":  # pragma: no cover
    main()
