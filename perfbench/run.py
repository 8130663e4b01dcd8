"""Densest-subgraph benchmark: one command, seeded graphs, checked answers.

    python3 perfbench/run.py --workload exact-dense --seed 0 --seconds 20 --trace 0

Each workload is a closed loop: this one driver process issues one query at
a time through the public algorithm entry points (no ``inst=``, so a query
pays for its own enumeration), against edge DataFrames generated from
``--seed`` and checkpointed during set-up. Every answer is checked by
``checks.py`` outside the timed region.

Set-up is process start to ready: Spark session start, graph generation
with normalisation and checkpoint (done ``DATA_REPS`` times, the median
counted), and ``WARMUP_PASSES`` warm-up passes. Then whole passes run
until ``--seconds`` have been measured (at least ``MIN_PASSES``); a pass
time is the sum over its queries of each query's median over passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes under ``spans.Tracer`` and prints the
per-layer metrics. Either way the last stdout line is one
JSON object; a full record (environment, per-query samples, spans) is
written under ``.bench_build/perfbench/``.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
DATA_REPS = 3
# The JVM keeps getting faster for several passes. Warming up by pass count,
# not by time, keeps the measured passes at the same point of that curve
# when the host is slower. One pass takes off the steepest part and keeps a
# run under about a minute on a 4-core host.
WARMUP_PASSES = 1
MIN_PASSES = 2  # so each query's time is a median of at least two
LOG_LEVEL = "ERROR"
DRIVER_MEMORY = "2g"

# Algorithm name -> (module, function), looked up at call time so the
# tracer's wrappers are the ones called.
ENTRY = {
    "core_exact": ("repro.densest.core_exact", "core_exact"),
    "exact": ("repro.densest.exact", "exact_densest"),
    "core_app": ("repro.densest.coreapp_dsd", "core_app"),
    "peel_app": ("repro.densest.peel", "peel_app"),
    "emcore": ("repro.cores.emcore", "kmax_core_emcore"),
}


def spark_confs(cores: int) -> dict:
    """Pinned session confs (recorded with every output)."""
    return {
        "spark.master": f"local[{cores}]",
        "spark.sql.shuffle.partitions": str(cores),
        "spark.sql.autoBroadcastJoinThreshold": str(10 * 1024 * 1024),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        # keep every job and stage of a run readable by the tracer
        "spark.ui.retainedJobs": "100000",
        "spark.ui.retainedStages": "100000",
        "spark.driver.host": "127.0.0.1",
        "spark.local.dir": str(WORK / "spark-local"),
        "spark.sql.warehouse.dir": str(WORK / "warehouse"),
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={WORK / 'tmp'} -XX:-UsePerfData",
    }


def start_spark(confs: dict):
    """Start a local session whose JVM and scratch files stay under WORK."""
    for d in ("spark-local", "tmp"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {confs['spark.master']} --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in confs.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel(LOG_LEVEL)
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()
            raise


@dataclass
class Graph:
    edges: object  # pandas frame, as generated
    df: object  # checkpointed Spark DataFrame the queries run on
    clique: int  # size of the planted clique


@dataclass
class Outcome:
    query: object
    seconds: float
    answer: object = None
    errors: list = field(default_factory=list)


def build_graphs(spark, shapes, seed: int) -> dict:
    """Generate, normalise and checkpoint each shape's edge DataFrame."""
    from repro.graph.ops import edges_from_pandas

    out = {}
    for shape in shapes:
        pdf = shape.edges_pandas(seed)
        df = edges_from_pandas(spark, pdf).localCheckpoint(eager=True)
        out[shape.name] = Graph(pdf, df, shape.clique)
    return out


def checker_for(graphs: dict, expected: dict):
    from checks import Checker

    return Checker({n: g.edges for n, g in graphs.items()},
                   {n: g.clique for n, g in graphs.items()}, expected)


def run_query(spark, q, g: Graph):
    from checks import Answer

    mod, name = ENTRY[q.algorithm]
    fn = getattr(importlib.import_module(mod), name)
    if q.algorithm == "emcore":
        kmax, verts, _ = fn(spark, g.df)
        return Answer(list(verts), None, kmax)
    r = fn(spark, g.df, q.pattern)
    return Answer(list(r.vertices), r.density, r.kmax)


def run_pass(spark, workload, graphs: dict, checker, tracer=None, tag="") -> list:
    """One closed-loop pass; answers are checked after the clock stops."""
    from checks import kmax_disagreements

    outs = []
    for i, q in enumerate(workload.queries):
        if tracer is not None:
            tracer.query = f"{tag}q{i}:{q.label}"
        t = time.perf_counter()
        try:
            ans = run_query(spark, q, graphs[q.shape])
            err = []
        except Exception:
            ans, err = None, [traceback.format_exc(limit=3)]
        outs.append(Outcome(q, time.perf_counter() - t, ans, err))
    if checker is None:
        return outs
    for o in outs:
        if o.answer is not None:
            o.errors += checker.check(o.query.algorithm, o.query.shape, o.query.pattern,
                                      o.answer)
    bad = kmax_disagreements([(o.query.shape, o.query.pattern.name, o.answer) for o in outs])
    for i, msg in bad.items():
        outs[i].errors.append(msg)
    return outs


def measure(spark, workload, graphs, checker, seconds: float, tracer=None) -> tuple:
    """Whole passes until ``seconds`` of query time are measured (and at
    least MIN_PASSES).

    With a tracer, traced and untraced passes alternate in ABBA order until
    each kind has ``seconds``, so both sample the same stage of JVM warm-up
    and their difference is the tracing overhead. Returns (untraced, traced).
    """
    untraced, traced = [], []

    def short(passes):
        return (len(passes) < MIN_PASSES
                or sum(o.seconds for p in passes for o in p) < seconds)

    while short(untraced) or (tracer is not None and short(traced)):
        if tracer is None:
            untraced.append(run_pass(spark, workload, graphs, checker))
            continue
        for with_tracer in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not with_tracer:
                untraced.append(run_pass(spark, workload, graphs, checker))
                continue
            tracer.install(spark)
            try:
                traced.append(run_pass(spark, workload, graphs, checker, tracer,
                                       tag=f"p{len(traced)}/"))
            finally:
                tracer.uninstall()
            tracer.read_spark_jobs()
    return untraced, traced


def pass_metrics(passes: list) -> dict:
    """pass_s and the per-algorithm sums over one pass, each query counted
    at its median over the passes (robust to one slow pass of one query)."""
    from workloads import ALGORITHM_METRIC

    med = [statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0]))]
    algs = [o.query.algorithm for o in passes[0]]
    out = {"pass_s": sum(med)}
    for alg, metric in ALGORITHM_METRIC.items():
        if alg in algs:
            out[metric] = sum(m for m, a in zip(med, algs) if a == alg)
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(spark, confs: dict, workload, seed: int) -> dict:
    import pyspark

    jvm = spark.sparkContext._jvm
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "spark": spark.version,
        "java": jvm.java.lang.System.getProperty("java.version"),
        "master": spark.sparkContext.master,
        "confs": confs,
        "driver_memory": DRIVER_MEMORY,
        "log_level": LOG_LEVEL,
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
        "queries": [q.label for q in workload.queries],
    }


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def end_to_end(setup_s: float, pm: dict) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (pm["pass_s"], "s"),
        "driver_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


TRACE_METRICS = {"pass_s.traced": "s", "trace.overhead_s": "s", "trace.accounted_frac": "ratio"}


def failed_frac(outcomes: list) -> float:
    """Share of query executions that raised or failed an output check."""
    return sum(1 for o in outcomes if o.errors) / len(outcomes)


def per_layer(tracer, traced: list, pm: dict) -> dict:
    """Layer metrics per traced pass, the untraced per-algorithm sums and
    the tracing overhead (traced pass_s minus untraced pass_s)."""
    import spans
    from workloads import ALGORITHM_METRIC

    traced_pass_s = pass_metrics(traced)["pass_s"]
    values = spans.layer_metrics(tracer.spans, len(traced))
    out = {name: (values[name], unit) for name, unit in spans.LAYER_METRICS}
    for metric in ALGORITHM_METRIC.values():
        out[metric] = (pm.get(metric, 0.0), "s")
    out["pass_s.traced"] = (traced_pass_s, "s")
    out["trace.overhead_s"] = (traced_pass_s - pm["pass_s"], "s")
    covered = sum(spans.self_times(tracer.spans))
    out["trace.accounted_frac"] = (covered / sum(o.seconds for p in traced for o in p),
                                   "ratio")
    return out


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    from checks import SEED0_EXACT
    from spans import Tracer
    from workloads import SHAPES, WORKLOADS

    wl = WORKLOADS[args.workload]
    shapes = [SHAPES[s] for s in wl.shapes]
    confs = spark_confs(min(4, os.cpu_count() or 1))
    WORK.mkdir(parents=True, exist_ok=True)
    spark = start_spark(confs)
    try:
        session_s = time.perf_counter() - T0
        data_s = []
        for _ in range(DATA_REPS):
            t = time.perf_counter()
            graphs = build_graphs(spark, shapes, args.seed)
            data_s.append(time.perf_counter() - t)
        warm = [run_pass(spark, wl, graphs, None) for _ in range(WARMUP_PASSES)]
        warm_s = sum(o.seconds for p in warm for o in p)
        setup_s = session_s + statistics.median(data_s) + warm_s

        checker = checker_for(graphs, SEED0_EXACT if args.seed == 0 else {})
        tracer = Tracer(spark.sparkContext) if args.trace else None
        passes, traced = measure(spark, wl, graphs, checker, args.seconds, tracer)
        pm = pass_metrics(passes)
        runs = {"untraced": passes, "traced": traced}
        metrics = per_layer(tracer, traced, pm) if args.trace else end_to_end(setup_s, pm)
        env = environment(spark, confs, wl, args.seed)
    finally:
        stop_spark(spark)

    outcomes = [o for ps in runs.values() for p in ps for o in p]
    failed = sum(1 for o in outcomes if o.errors)
    frac = failed_frac(outcomes)
    record = {
        "environment": env,
        "setup": {"session_s": session_s, "data_s": data_s,
                  "warmup_s": [[o.seconds for o in p] for p in warm]},
        "passes": {k: [[{"query": o.query.label, "s": o.seconds, "errors": o.errors,
                         "density": getattr(o.answer, "density", None),
                         "kmax": getattr(o.answer, "kmax", None)} for o in p] for p in ps]
                   for k, ps in runs.items()},
        "failed_frac": frac,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        record["spans"] = [vars(s) for s in tracer.spans]
    out = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    for o in outcomes:
        for e in o.errors:
            print(f"FAILED {o.query.label}: {e}", file=sys.stderr)
    print(f"# environment {json.dumps(env)}")
    print(f"# {wl.name}: {len(passes)} untraced passes, record {out.relative_to(ROOT)}")
    print(f"# failed_frac {frac:.4f} ({failed}/{len(outcomes)})")
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
