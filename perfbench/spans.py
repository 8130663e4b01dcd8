"""Span tracer for the benchmark's traced run.

The program under test is not edited. Instead ``Tracer.install`` wraps each
layer's public functions at the name they are imported under in the calling
module (from-imports bind early, so ``repro.densest.core_exact.build_network``
must be replaced, not ``repro.densest.network.build_network``), plus the
pyspark actions that make the driver wait on Spark. A span records name,
start, end, parent and query id; spans stay in memory until the run ends.

Spark work is lazy: it lands in the span whose *action* runs it, so every
span sets its own Spark job group and the jobs, tasks and failed tasks of
each group are read back from the status tracker after the timed pass.
Counts come only from arguments and return values; the tracer never runs
a Spark action of its own.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

SPARK = "spark"


def _rows(a, kw, out):
    return {"rows": int(out[1].shape[0] if isinstance(out, tuple) else out.shape[0])}


def _instances_in(a, kw, out):
    return {"instances_in": int(a[0].shape[0])}


def _lemma8(a, kw, out):
    return {"instances_in": int(a[0].shape[0]), "pruned": int((~out).sum())}


def _build(a, kw, out):
    net = out[0]
    return {"probes": 1, "nodes": int(out[4]), "arcs": len(net.to) // 2}


def _dinic(a, kw, out):
    return {"probes": 1, "nonempty": int(bool(out))}


def _coreapp(a, kw, out):
    info = out[2]
    return {"rounds": int(info["rounds"]), "final_w_ratio": info["final_w"] / max(info["n"], 1)}


def _emcore(a, kw, out):
    return {"rounds": int(out[2]["rounds"])}


# (layer, [import sites "module:name"], counts from (args, kwargs, result))
LAYERS = (
    ("core_exact", ["repro.densest.core_exact:core_exact"], None),
    ("exact", ["repro.densest.exact:exact_densest"], None),
    ("core_app", ["repro.densest.coreapp_dsd:core_app"], None),
    ("peel_app", ["repro.densest.peel:peel_app"], None),
    ("emcore", ["repro.cores.emcore:kmax_core_emcore"], _emcore),
    ("instances", ["repro.densest.common:pattern_instances",
                   "repro.cores.coreapp:pattern_instances",
                   "repro.densest.coreapp_dsd:pattern_instances"], None),
    ("gather", ["repro.densest.core_exact:gather", "repro.densest.exact:gather",
                "repro.densest.peel:gather", "repro.cores.coreapp:collect_instances"],
     _rows),
    ("clique_core.peel", ["repro.densest.core_exact:peel_decompose",
                          "repro.densest.peel:peel_decompose",
                          "repro.cores.coreapp:peel_decompose"], _instances_in),
    ("locate", ["repro.densest.core_exact:instances_inside",
                "repro.densest.core_exact:exact_density",
                "repro.densest.exact:exact_density",
                "repro.densest.peel:exact_density",
                "repro.densest.core_exact:components_pandas"], None),
    ("network.lemma8", ["repro.densest.core_exact:lemma8_keep_mask"], _lemma8),
    ("network.build", ["repro.densest.core_exact:build_network",
                       "repro.densest.exact:build_network"], _build),
    ("flow.dinic", ["repro.densest.core_exact:min_cut_vertices",
                    "repro.densest.exact:min_cut_vertices"], _dinic),
    ("kcore.gamma", ["repro.cores.coreapp:gamma_upper_bounds"], None),
    ("kcore.peel", ["repro.cores.emcore:core_numbers_peel"], None),
    ("coreapp", ["repro.densest.coreapp_dsd:kmax_core_coreapp"], _coreapp),
)
ALGORITHMS = ("core_exact", "exact", "core_app", "peel_app", "emcore")
# Layers that can start Spark jobs; the others run on the driver only.
SPARK_LAYERS = ALGORITHMS + ("instances", "gather", "kcore.gamma", "coreapp", SPARK)
SPARK_ACTIONS = ("toPandas", "collect", "count", "localCheckpoint")


@dataclass
class Span:
    name: str
    query: str | None
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    jobs: int = 0
    tasks: int = 0
    failed_tasks: int = 0

    @property
    def group(self) -> str:
        return f"perfbench-span-{id(self)}"


class Tracer:
    """Collects spans and the Spark jobs of each, through SparkContext ``sc``."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.query: str | None = None
        self._undo: list = []
        self._unread = 0  # spans whose Spark jobs are not read back yet

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        sp = Span(name, self.query, parent, time.perf_counter())
        self.spans.append(sp)
        self.stack.append(len(self.spans) - 1)
        if name in SPARK_LAYERS:
            self.sc.setJobGroup(sp.group, name)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self.stack.pop()
        if sp.name in SPARK_LAYERS:
            outer = next((self.spans[i] for i in reversed(self.stack)
                          if self.spans[i].name in SPARK_LAYERS), None)
            if outer is None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
            else:
                self.sc.setJobGroup(outer.group, outer.name)

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*a, **kw):
            # a layer calling itself (or Spark calling Spark) is one span
            if self.stack and self.spans[self.stack[-1]].name == name:
                return fn(*a, **kw)
            sp = self.open(name)
            try:
                out = fn(*a, **kw)
            finally:
                self.close(sp)
            if counts is not None:
                sp.counts = counts(a, kw, out)
            return out

        return traced

    # -- installation --------------------------------------------------------
    def install(self, spark) -> None:
        """Wrap every layer's import sites and the pyspark actions."""
        for layer, sites, counts in LAYERS:
            for site in sites:
                mod_name, attr = site.split(":")
                mod = importlib.import_module(mod_name)
                self._patch(mod, attr, self.wrap(layer, getattr(mod, attr), counts))
        df_cls = type(spark.range(1))
        for attr in SPARK_ACTIONS:
            self._patch(df_cls, attr, self.wrap(SPARK, getattr(df_cls, attr)))
        sess_cls = type(spark)
        self._patch(sess_cls, "createDataFrame",
                    self.wrap(SPARK, sess_cls.__dict__["createDataFrame"]))

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def read_spark_jobs(self) -> None:
        """Attach job/task counts to spans recorded since the last call.
        Call outside timed regions: it costs one status query per span."""
        st = self.sc.statusTracker()
        for sp in self.spans[self._unread:]:
            if sp.name not in SPARK_LAYERS:
                continue
            for jid in st.getJobIdsForGroup(sp.group):
                sp.jobs += 1
                info = st.getJobInfo(jid)
                for sid in info.stageIds if info else ():
                    si = st.getStageInfo(sid)
                    if si is not None:
                        sp.tasks += si.numCompletedTasks
                        sp.failed_tasks += si.numFailedTasks
        self._unread = len(self.spans)


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


def layer_totals(spans: list) -> dict:
    """Layer -> summed self time ``s``, ``calls``, Spark counts and counts.

    A ``spark`` span's jobs count for the ``spark`` layer and for the
    layer that called the action, since that layer caused the jobs.
    """
    out: dict = defaultdict(lambda: defaultdict(float))
    for sp, s in zip(spans, self_times(spans)):
        t = out[sp.name]
        t["s"] += s
        t["calls"] += 1
        for k, v in sp.counts.items():
            t[k] += v
        owners = [t]
        if sp.name == SPARK and sp.parent is not None:
            owners.append(out[spans[sp.parent].name])
        for o in owners:
            o["spark_jobs"] += sp.jobs
            o["spark_tasks"] += sp.tasks
            o["spark_failed_tasks"] += sp.failed_tasks
    return out


# Per-layer metric names and units, in report order. Every name is always
# reported; a layer a workload does not reach reads 0.
_EXTRA = {
    "gather": (("rows", "count"),),
    "clique_core.peel": (("instances_in", "count"),),
    "network.lemma8": (("instances_in", "count"), ("pruned", "count"),
                       ("prune_ratio", "ratio")),
    "network.build": (("probes", "count"), ("nodes", "count"), ("arcs", "count")),
    "flow.dinic": (("probes", "count"), ("nonempty_ratio", "ratio")),
    "coreapp": (("rounds", "count"), ("final_w_ratio", "ratio")),
    "emcore": (("rounds", "count"),),
}
_ORDER = ("instances", "gather", "clique_core.peel", "locate", "network.lemma8",
          "network.build", "flow.dinic", "kcore.gamma", "kcore.peel", "coreapp",
          "emcore", SPARK, "core_exact", "exact", "core_app", "peel_app")
LAYER_METRICS = tuple(
    (f"{layer}.{k}", unit)
    for layer in _ORDER
    for k, unit in (
        (("s", "s"), ("calls", "count"))
        + ((("spark_jobs", "count"), ("spark_tasks", "count"),
            ("spark_failed_tasks", "count")) if layer in SPARK_LAYERS else ())
        + _EXTRA.get(layer, ())
    )
)


def layer_metrics(spans: list, n_passes: int) -> dict:
    """Every LAYER_METRICS name -> its value per pass over ``n_passes``."""
    tot = layer_totals(spans)

    def ratio(layer, num, den):
        d = tot[layer][den]
        return tot[layer][num] / d if d else 0.0

    ratios = {
        "network.lemma8.prune_ratio": ratio("network.lemma8", "pruned", "instances_in"),
        "flow.dinic.nonempty_ratio": ratio("flow.dinic", "nonempty", "probes"),
        "coreapp.final_w_ratio": ratio("coreapp", "final_w_ratio", "calls"),
    }
    out = {}
    for name, _ in LAYER_METRICS:
        if name in ratios:
            out[name] = ratios[name]
        else:
            layer, k = name.rsplit(".", 1)
            out[name] = tot[layer][k] / n_passes if layer in tot else 0.0
    return out
