"""Table 2 (+ Fig. 19 characteristics): dataset inventory.

For every stand-in: generated |V|, |E| next to the paper's values, the
number of connected components, the classical k_max, and — for the
small graphs — the (k_max, triangle)-core size (Fig. 19 column).

Run: python scripts/run_experiments.py table2
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.cores.clique_core import core_decompose
from repro.graph import datasets as ds
from repro.graph.ops import components
from repro.patterns import triangle
from repro.patterns.instances import collect_instances, pattern_instances


def run(spark: SparkSession, names=None, triangle_stats: bool = True) -> pd.DataFrame:
    names = list(names) if names else list(ds.names())
    rows = []
    for name in names:
        pdf = ds.dataset_pandas(name)
        allv = sorted(set(pdf["src"]) | set(pdf["dst"]))
        n, m = len(allv), len(pdf)
        paper_n, paper_m = ds.paper_size(name)
        edge_arr = pdf[["src", "dst"]].to_numpy(np.int64)
        n_cc = np.unique(components(edge_arr, allv)[1]).size
        kmax = core_decompose(edge_arr, allv).kmax
        row = {
            "dataset": name,
            "vertices": n,
            "edges": m,
            "paper_vertices": paper_n,
            "paper_edges": paper_m,
            "n_cc": n_cc,
            "kmax_classical": kmax,
        }
        small = name in ds.CASE_STUDY + ds.SMALL
        if triangle_stats and small:
            g = ds.dataset(spark, name)
            inst = pattern_instances(spark, g, triangle())
            members = collect_instances(inst, triangle())
            pr = core_decompose(members, allv)
            row["kmax_triangle"] = pr.kmax
            row["tri_core_size"] = len(pr.kmax_core)
        rows.append(row)
    return pd.DataFrame(rows)
