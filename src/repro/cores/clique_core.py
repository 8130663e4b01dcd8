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
* ``core_decompose``             — the exact driver-side core decomposition
  (Algorithm 3) by level-synchronous peeling, producing what
  CoreExact/IncApp/CoreApp/EMcore need: core numbers, kmax, the kmax-core
  and the densest (k,Psi)-core (whose density is rho').
* ``peel_decompose``             — the one-vertex-at-a-time heap peel of
  PeelApp (Algorithm 2): the same core numbers, plus the peel order and
  its densest residual prefix.

All four take any pattern, so with Psi = edge (Def. 6 reduces to Def. 5)
they are also the classical k-core and core numbers: EMcore and CoreApp's
gamma peel the edge array with ``core_decompose``.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.graph.ops import vertices as graph_vertices
from repro.patterns.base import Pattern
from repro.patterns.instances import instances_long, member_cols, pattern_instances

# h-index of an array column named ``vals`` (sorted desc, count prefix x>=rank)
_HINDEX = (
    "size(filter(transform(sort_array(vals, false), (x, i) -> x >= i + 1), b -> b))"
)
# convergence guard of the two Spark fixpoint loops
_MAX_ROUNDS = 10_000


def clique_core(
    spark: SparkSession,
    edges: DataFrame,
    k: int,
    pattern: Pattern,
    inst: DataFrame | None = None,
) -> DataFrame:
    """Vertices of the (k, Psi)-core — column (v); empty if none exists."""
    if inst is None:
        inst = pattern_instances(spark, edges, pattern)
    long = instances_long(inst, pattern).localCheckpoint(eager=True)
    alive = graph_vertices(edges).localCheckpoint(eager=True)
    p = pattern.nv
    for _ in range(_MAX_ROUNDS):
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
    for _ in range(_MAX_ROUNDS):
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
# Exact driver-side core decomposition (Algorithm 3): the level-synchronous
# peel every core consumer reads, and PeelApp's one-vertex heap peel.
# ---------------------------------------------------------------------------


@dataclass
class CoreDecomposition:
    """Core numbers of (vertices, instances) and the densest core."""

    core: dict  # vertex -> clique-core number
    kmax: int
    kmax_core: list  # sorted vertices with core == kmax; empty when kmax == 0
    best_vertices: list  # densest residual subgraph, G included (rho')
    n_instances: int


@dataclass
class PeelResult(CoreDecomposition):
    """A one-vertex-at-a-time peel: ``best_vertices`` is the densest
    residual over every prefix of ``order`` (PeelApp's S*)."""

    order: list  # removal order (all vertices)


def collect_instances(inst: DataFrame, pattern: Pattern) -> np.ndarray:
    """Instance member matrix (num_instances, |V_Psi|) as int64."""
    pdf = inst.select(*member_cols(pattern)).toPandas()
    if len(pdf) == 0:
        return np.empty((0, pattern.nv), dtype=np.int64)
    return pdf.to_numpy(dtype=np.int64)


def _vertex_index(members: np.ndarray, all_vertices) -> tuple:
    """(verts, pos, slot, deg, start): the sorted vertex ids, the flattened
    member matrix in rank space (rank = position in ``verts``), and the CSR
    vertex -> instance index: ``slot[start[i]:start[i + 1]]`` are the
    flattened member slots of rank i (slot // p is the instance row), and
    ``deg`` the clique-degrees. One stable argsort builds it.

    A member id not in ``all_vertices`` raises ``ValueError``.
    """
    verts = np.unique(np.asarray(all_vertices, dtype=np.int64))
    n = len(verts)
    ids = members.ravel()
    pos = np.searchsorted(verts, ids)
    if ids.size and (n == 0 or (verts[np.minimum(pos, n - 1)] != ids).any()):
        raise ValueError("an instance member is not in all_vertices")
    slot = np.argsort(pos, kind="stable")  # member slots grouped by vertex
    deg = np.bincount(pos, minlength=n)
    start = np.concatenate(([0], np.cumsum(deg)))
    return verts, pos, slot, deg, start


def core_decompose(members: np.ndarray, all_vertices) -> CoreDecomposition:
    """Exact (k,Psi)-core decomposition by level-synchronous peeling.

    ``members``: (num_inst, p) matrix of instance member vertex ids; with
    the (m, 2) edge array it is the classical core decomposition.
    ``all_vertices``: array-like of every vertex of the (sub)graph,
    including those in no instance (the density denominator counts them).
    A member id not in ``all_vertices`` raises ``ValueError``.

    At level k every alive vertex with clique-degree <= k is removed at
    once; their alive instances die, the survivors' clique-degrees drop
    by one per dead instance (``np.subtract.at``), and the batch repeats
    over the vertices that dropped until none is <= k. k then jumps to the
    smallest alive clique-degree (Dhulipala, Blelloch & Shun, "Julienne",
    SPAA 2017). Each level costs a few numpy calls per batch, not a heap
    operation per instance.

    The residual at the start of a level is the (k,Psi)-core, so
    ``best_vertices`` is the densest (k,Psi)-core (the largest on ties):
    a lower bound on the optimum of at least kmax/p, but not the best
    one-vertex residual that ``peel_decompose`` finds.
    """
    verts, pos, slot, deg, start = _vertex_index(members, all_vertices)
    n = len(verts)
    ninst, p = members.shape
    rows = pos.reshape(ninst, p)
    row_of = slot // p  # each CSR slot's instance row
    cdeg = deg.copy()
    core = np.zeros(n, dtype=np.int64)
    v_alive = np.ones(n, dtype=bool)
    r_alive = np.ones(ninst, dtype=bool)
    alive = np.arange(n)  # alive ranks, compacted once per level
    alive_i = ninst
    best_k, best_i, best_v = 0, ninst, n  # density best_i / best_v, G first
    k = 0
    while alive.size:
        k = max(k, int(cdeg[alive].min()))
        if alive_i * best_v > best_i * alive.size:  # the k-core is denser
            best_k, best_i, best_v = k, alive_i, alive.size
        batch = alive[cdeg[alive] <= k]
        while batch.size:
            core[batch] = k
            v_alive[batch] = False
            lens = deg[batch]
            # the CSR ranges of the batch, concatenated
            slots = np.repeat(start[batch] - np.cumsum(lens) + lens, lens)
            slots += np.arange(slots.size)
            dead = row_of[slots]
            dead = np.unique(dead[r_alive[dead]])
            r_alive[dead] = False
            alive_i -= dead.size
            hit = rows[dead].ravel()
            np.subtract.at(cdeg, hit, 1)
            hit = np.unique(hit)
            hit = hit[v_alive[hit]]
            batch = hit[cdeg[hit] <= k]
        alive = alive[v_alive[alive]]

    vl = verts.tolist()
    kmax = int(core.max()) if n else 0
    return CoreDecomposition(
        core=dict(zip(vl, core.tolist())),
        kmax=kmax,
        kmax_core=verts[core == kmax].tolist() if kmax else [],
        best_vertices=verts[core >= best_k].tolist() if best_v else [],
        n_instances=ninst,
    )


def peel_decompose(members: np.ndarray, all_vertices) -> PeelResult:
    """Exact (k,Psi)-core decomposition by min-clique-degree peeling,
    one vertex at a time: PeelApp's Algorithm 2.

    Takes the arguments of ``core_decompose`` and gives the same core
    numbers, kmax and kmax-core. Vertices are peeled one at a time from a
    (clique-degree, rank) heap, so ties go to the smallest id, and
    ``best_vertices`` is the densest residual over every prefix of the
    removal order.
    """
    verts, pos, slot, deg, start = _vertex_index(members, all_vertices)
    n = len(verts)
    ninst, p = members.shape
    flat = pos.tolist()
    row_of = (slot - slot % p).tolist()  # each slot's row offset in ``flat``
    start = start.tolist()

    cdeg = deg.tolist()
    heap = list(zip(cdeg, range(n)))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    v_alive = bytearray(b"\x01") * n
    row_alive = bytearray(b"\x01") * (ninst * p)  # read at row offsets
    core = [0] * n
    peeled: list = []  # ranks in removal order
    alive_v, alive_i = n, ninst
    best_density = alive_i / alive_v if alive_v else 0.0
    best_alive = alive_v  # remember the residual size achieving the best
    cur_core = 0
    while heap:
        d, i = pop(heap)
        if not v_alive[i] or d != cdeg[i]:
            continue
        v_alive[i] = 0
        if d > cur_core:
            cur_core = d
        core[i] = cur_core
        peeled.append(i)
        for r in row_of[start[i] : start[i + 1]]:
            if row_alive[r]:
                row_alive[r] = 0
                alive_i -= 1
                for j in flat[r : r + p]:
                    if v_alive[j]:
                        cdeg[j] -= 1
                        push(heap, (cdeg[j], j))
        alive_v -= 1
        dens = (alive_i / alive_v) if alive_v else 0.0
        if dens > best_density:
            best_density = dens
            best_alive = alive_v

    vl = verts.tolist()
    kmax = max(core, default=0)
    order = [vl[i] for i in peeled]
    # residual subgraph achieving best density = last best_alive vertices removed
    best_vertices = order[n - best_alive :] if best_alive else []
    return PeelResult(
        core=dict(zip(vl, core)),
        order=order,
        kmax=kmax,
        kmax_core=[v for v, c in zip(vl, core) if c == kmax] if kmax else [],
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
