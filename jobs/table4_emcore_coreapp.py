"""Table 4: EMcore vs CoreApp wall-clock (seconds), classical k_max-core,
on the five largest dataset stand-ins. Each cell is the median of
``REPEATS`` timed runs: single runs of one cell moved the ratio by up to
2x on this table.

Run: spark-submit jobs/table4_emcore_coreapp.py
"""
from __future__ import annotations

import statistics
import time

import pandas as pd
from pyspark.sql import SparkSession

from repro.cores.coreapp import kmax_core_coreapp
from repro.cores.emcore import kmax_core_emcore
from repro.graph import datasets as ds
from repro.patterns import edge

REPEATS = 3  # timed runs per algorithm and cell; the median is reported


def _timed(fn, times: list):
    """Call ``fn``, append its wall time to ``times``, return its result."""
    t0 = time.perf_counter()
    out = fn()
    times.append(time.perf_counter() - t0)
    return out


def run(spark: SparkSession, names=None) -> pd.DataFrame:
    names = list(names) if names else list(ds.LARGE)
    rows = []
    for name in names:
        g = ds.dataset(spark, name).localCheckpoint(eager=True)
        g.count()  # materialize outside the timed region

        em_s, ca_s = [], []
        for _ in range(REPEATS):  # alternate, so drift hits both alike
            k_em, v_em, _ = _timed(lambda: kmax_core_emcore(spark, g), em_s)
            k_ca, v_ca, _ = _timed(lambda: kmax_core_coreapp(spark, g, edge()), ca_s)
        t_em, t_ca = statistics.median(em_s), statistics.median(ca_s)

        assert k_em == k_ca, (name, k_em, k_ca)
        rows.append(
            {
                "dataset": name,
                "emcore_s": t_em,
                "coreapp_s": t_ca,
                "kmax": k_ca,
                "core_size": len(v_ca),
                "emcore_over_coreapp": t_em / t_ca if t_ca else float("nan"),
            }
        )
    return pd.DataFrame(rows)


def main():  # pragma: no cover
    spark = (
        SparkSession.builder.appName("table4")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    print(run(spark).to_string(index=False))
    spark.stop()


if __name__ == "__main__":  # pragma: no cover
    main()
