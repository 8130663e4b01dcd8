"""(k, Psi)-core machinery (Def. 6, Alg. 3) for cliques and patterns.

* ``clique_core``                — fixed-k (k,Psi)-core by iterative Spark
  pruning over the instance table: drop vertices whose surviving-instance
  count < k, kill instances that lost a member, repeat to fixpoint.
* ``clique_core_numbers_hindex`` — all clique-core numbers by the local
  h-operator fixpoint over instances. Each round: per instance compute, for
  every member v, the minimum estimate among the *other* members; per vertex
  take the h-index of those values; clamp monotonically. This is the
  distributed rendition of the AND nucleus-decomposition algorithm [46] that
  the paper benchmarks as "Nucleus", and it converges to exactly the peeling
  core numbers (cross-checked in tests).
* ``peel_decompose``             — exact driver-side peeling (Algorithm 3),
  also producing everything CoreExact/PeelApp need: peel order, residual
  densities (rho'), best residual prefix, kmax.

The two Spark loops take any pattern, so with Psi = edge (Def. 6 reduces to
Def. 5) they are also the classical k-core and core numbers.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.graph.ops import vertices as graph_vertices
from repro.patterns.base import Pattern
from repro.patterns.instances import instances_long, member_cols, pattern_instances

# h-index of an array column named ``vals`` (sorted desc, count prefix x>=rank)
_HINDEX = (
    "size(filter(transform(sort_array(vals, false), (x, i) -> x >= i + 1), b -> b))"
)


def clique_core(
    spark: SparkSession,
    edges: DataFrame,
    k: int,
    pattern: Pattern,
    inst: DataFrame | None = None,
    max_iter: int = 10_000,
) -> DataFrame:
    """Vertices of the (k, Psi)-core — column (v); empty if none exists."""
    if inst is None:
        inst = pattern_instances(spark, edges, pattern)
    long = instances_long(inst, pattern).localCheckpoint(eager=True)
    alive = graph_vertices(edges).localCheckpoint(eager=True)
    p = pattern.nv
    for _ in range(max_iter):
        full = (
            long.join(alive, "v", "left_semi")
            .groupBy("iid")
            .agg(F.count("*").alias("nmem"))
            .where(F.col("nmem") == p)
            .select("iid")
        )
        cdeg = (
            long.join(full, "iid", "left_semi").groupBy("v").agg(F.count("*").alias("cdeg"))
        )
        keep = (
            alive.join(cdeg, "v", "left")
            .where(F.coalesce("cdeg", F.lit(0)) >= k)
            .select("v")
            .localCheckpoint(eager=True)
        )
        n_keep = keep.count()
        if n_keep == alive.count():
            return keep
        alive = keep
        if n_keep == 0:
            return alive
    raise RuntimeError("clique_core did not converge")  # pragma: no cover


def clique_core_numbers_hindex(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    inst: DataFrame | None = None,
    max_iter: int = 10_000,
) -> DataFrame:
    """Clique/pattern core numbers — columns (v, core). Distributed AND.

    Vertices appearing in no instance have core 0 and are included.
    """
    if inst is None:
        inst = pattern_instances(spark, edges, pattern)
    long = instances_long(inst, pattern).localCheckpoint(eager=True)
    allv = graph_vertices(edges).localCheckpoint(eager=True)
    est = (
        long.groupBy("v").agg(F.count("*").cast("int").alias("est"))
    ).localCheckpoint(eager=True)
    for _ in range(max_iter):
        joined = long.join(est, "v")
        two_smallest = joined.groupBy("iid").agg(
            F.slice(F.sort_array(F.collect_list(F.struct("est", "v"))), 1, 2).alias("sl")
        )
        min_excl = (
            joined.join(two_smallest, "iid")
            .select(
                "iid",
                "v",
                F.when(
                    (F.col("v") == F.col("sl")[0]["v"])
                    & (F.col("est") == F.col("sl")[0]["est"]),
                    F.col("sl")[1]["est"],
                )
                .otherwise(F.col("sl")[0]["est"])
                .alias("mx"),
            )
        )
        new = (
            min_excl.groupBy("v")
            .agg(F.collect_list("mx").alias("vals"))
            .select("v", F.expr(_HINDEX).alias("rho"))
            .join(est, "v")
            .select("v", F.least("est", "rho").alias("est"))
            .localCheckpoint(eager=True)
        )
        changed = (
            new.alias("n")
            .join(est.alias("o"), "v")
            .where(F.col("n.est") != F.col("o.est"))
            .limit(1)
            .count()
        )
        est = new
        if changed == 0:
            break
    else:  # pragma: no cover
        raise RuntimeError("clique core h-index did not converge")
    return (
        allv.join(est, "v", "left")
        .select("v", F.coalesce("est", F.lit(0)).alias("core"))
    )


# ---------------------------------------------------------------------------
# Exact driver-side peeling (Algorithm 3) + everything CoreExact/PeelApp need.
# ---------------------------------------------------------------------------


@dataclass
class PeelResult:
    """Output of a full peel of (vertices, instances)."""

    core: dict  # vertex -> clique-core number
    order: list  # removal order (all vertices)
    kmax: int
    rho_prime: float  # max density over all residual subgraphs (incl. G)
    best_vertices: list  # residual subgraph achieving rho_prime (PeelApp's S*)
    n_instances: int


def collect_instances(inst: DataFrame, pattern: Pattern) -> np.ndarray:
    """Instance member matrix (num_instances, |V_Psi|) as int64."""
    pdf = inst.select(*member_cols(pattern)).toPandas()
    if len(pdf) == 0:
        return np.empty((0, pattern.nv), dtype=np.int64)
    return pdf.to_numpy(dtype=np.int64)


def peel_decompose(members: np.ndarray, all_vertices) -> PeelResult:
    """Exact (k,Psi)-core decomposition by min-clique-degree peeling.

    ``members``: (num_inst, p) matrix of instance member vertex ids.
    ``all_vertices``: every vertex of the (sub)graph, including those in
    no instance (the density denominator counts them).
    """
    verts = sorted(set(map(int, all_vertices)))
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    ninst = int(members.shape[0])

    # vertex -> instance-id adjacency (CSR-ish via sorting the long form)
    v2i: list = [[] for _ in range(n)]
    mem_idx = np.empty_like(members)
    for r in range(ninst):
        for c in range(members.shape[1]):
            i = idx[int(members[r, c])]
            mem_idx[r, c] = i
            v2i[i].append(r)

    cdeg = np.zeros(n, dtype=np.int64)
    for i in range(n):
        cdeg[i] = len(v2i[i])
    inst_alive = np.ones(ninst, dtype=bool)
    v_alive = np.ones(n, dtype=bool)

    heap = [(int(cdeg[i]), i) for i in range(n)]
    heapq.heapify(heap)

    core = np.zeros(n, dtype=np.int64)
    order: list = []
    alive_v, alive_i = n, ninst
    best_density = alive_i / alive_v if alive_v else 0.0
    best_alive = alive_v  # remember the residual size achieving the best
    cur_core = 0
    while heap:
        d, i = heapq.heappop(heap)
        if not v_alive[i] or d != cdeg[i]:
            continue
        v_alive[i] = False
        cur_core = max(cur_core, int(cdeg[i]))
        core[i] = cur_core
        order.append(verts[i])
        for r in v2i[i]:
            if inst_alive[r]:
                inst_alive[r] = False
                alive_i -= 1
                for j in mem_idx[r]:
                    j = int(j)
                    if v_alive[j] and j != i:
                        cdeg[j] -= 1
                        heapq.heappush(heap, (int(cdeg[j]), j))
        alive_v -= 1
        dens = (alive_i / alive_v) if alive_v else 0.0
        if dens > best_density:
            best_density = dens
            best_alive = alive_v

    kmax = int(core.max()) if n else 0
    # residual subgraph achieving best density = last best_alive vertices removed
    best_vertices = order[n - best_alive :] if best_alive else []
    core_map = {verts[i]: int(core[i]) for i in range(n)}
    return PeelResult(
        core=core_map,
        order=order,
        kmax=kmax,
        rho_prime=best_density,
        best_vertices=sorted(best_vertices),
        n_instances=ninst,
    )


def instances_inside(members: np.ndarray, vertex_set) -> np.ndarray:
    """Boolean mask of instances whose members all lie in ``vertex_set``."""
    if members.size == 0:
        return np.zeros(0, dtype=bool)
    vs = np.asarray(sorted(vertex_set), dtype=np.int64)
    pos = np.searchsorted(vs, members)
    pos = np.clip(pos, 0, len(vs) - 1)
    ok = vs[pos] == members if len(vs) else np.zeros_like(members, dtype=bool)
    return ok.all(axis=1) if len(vs) else np.zeros(members.shape[0], dtype=bool)


def density_of(members: np.ndarray, vertex_set) -> float:
    """rho(G[S], Psi) = instances fully inside S / |S|."""
    nv = len(vertex_set)
    if nv == 0:
        return 0.0
    return float(instances_inside(members, vertex_set).sum()) / nv
