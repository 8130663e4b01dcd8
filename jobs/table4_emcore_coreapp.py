"""Table 4: EMcore vs CoreApp wall-clock (seconds), classical k_max-core,
on the five largest dataset stand-ins. Each cell is the median of
``REPEATS`` timed runs: single runs of one cell moved the ratio by up to
2x on this table.

Run: python scripts/run_experiments.py table4
"""
from __future__ import annotations

import statistics

import pandas as pd
from pyspark.sql import SparkSession

from repro.cores.coreapp import kmax_core_coreapp
from repro.cores.emcore import kmax_core_emcore
from repro.graph import datasets as ds
from repro.patterns import edge

REPEATS = 3  # timed runs per algorithm and cell; the median is reported


def run(spark: SparkSession, names=None) -> pd.DataFrame:
    names = list(names) if names else list(ds.LARGE)
    rows = []
    for name in names:
        g = ds.dataset(spark, name).localCheckpoint(eager=True)
        g.count()  # materialize outside the timed region

        em_s, ca_s = [], []
        for _ in range(REPEATS):  # alternate, so drift hits both alike
            k_em, v_em, info_em = kmax_core_emcore(spark, g)
            k_ca, v_ca, info_ca = kmax_core_coreapp(spark, g, edge())
            em_s.append(info_em["timings"]["total"])
            ca_s.append(info_ca["timings"]["total"])
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
