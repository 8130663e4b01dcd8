"""Run all table jobs and save their outputs under results/ (dev-time).

Usage: python scripts/run_experiments.py [table2|table3|table4|table5] ...
"""
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]  # the checkout this script is in
RESULTS = ROOT / "results"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # its jobs/, conftest and repro
import conftest  # noqa: E402, F401  (sets PYSPARK_SUBMIT_ARGS)

from pyspark.sql import SparkSession  # noqa: E402

spark = (
    SparkSession.builder.appName("experiments")
    .config("spark.sql.shuffle.partitions", "32")
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.showConsoleProgress", "false")
    .config("spark.sql.execution.arrow.pyspark.enabled", "true")
    .getOrCreate()
)
spark.sparkContext.setLogLevel("ERROR")

RESULTS.mkdir(exist_ok=True)
want = set(sys.argv[1:]) or {"table2", "table3", "table4", "table5"}


def save(name, df):
    path = RESULTS / f"{name}.csv"
    df.to_csv(path, index=False)
    print(f"=== {name} ===")
    print(df.to_string(index=False))
    print(f"saved {path}", flush=True)


if "table2" in want:
    from jobs.table2_datasets import run as t2

    t0 = time.time()
    save("table2", t2(spark))
    print(f"table2 took {time.time() - t0:.1f}s")

if "table3" in want:
    from jobs.table3_decomp_pct import run as t3

    t0 = time.time()
    save("table3", t3(spark, run_exact=os.environ.get("RUN_EXACT", "1") == "1",
                      hs=tuple(int(h) for h in os.environ.get("HS", "2,3,4,5,6").split(","))))
    print(f"table3 took {time.time() - t0:.1f}s")

if "table4" in want:
    from jobs.table4_emcore_coreapp import run as t4

    t0 = time.time()
    save("table4", t4(spark))
    print(f"table4 took {time.time() - t0:.1f}s")

if "table5" in want:
    from jobs.table5_densities import run as t5

    t0 = time.time()
    save("table5", t5(spark))
    print(f"table5 took {time.time() - t0:.1f}s")

spark.stop()
