"""(k, Psi)-core machinery (Def. 6, Alg. 3) for cliques and patterns,
on the driver over an instance member matrix.

* ``core_decompose``             — the exact driver-side core decomposition
  (Algorithm 3) by level-synchronous peeling, producing what
  CoreExact/IncApp/CoreApp/EMcore need: core numbers, kmax, the kmax-core
  and the densest (k,Psi)-core (whose density is rho').
* ``peel_decompose``             — the one-vertex-at-a-time heap peel of
  PeelApp (Algorithm 2): the same core numbers, plus the peel order and
  its densest residual prefix.
* ``hindex_core_numbers``        — the same core numbers by the local
  h-operator fixpoint of the AND nucleus decomposition [46], the
  algorithm the paper benchmarks as "Nucleus".

Each takes any pattern, so with Psi = edge (Def. 6 reduces to Def. 5)
they are also the classical k-core and core numbers: EMcore and CoreApp's
gamma peel the edge array with ``core_decompose``.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


@dataclass
class CoreDecomposition:
    """Core numbers of (vertices, instances) and the densest core. Every
    vertex set is an int64 id array, sorted unless said otherwise."""

    verts: np.ndarray  # every vertex id
    core: np.ndarray  # int64 clique-core number of each of ``verts``
    kmax: int
    kmax_core: np.ndarray  # ids with core == kmax; empty when kmax == 0
    best_vertices: np.ndarray  # densest residual subgraph, G included (rho')


@dataclass
class PeelResult(CoreDecomposition):
    """A one-vertex-at-a-time peel: ``best_vertices`` is the densest
    residual over every prefix of ``order`` (PeelApp's S*)."""

    order: np.ndarray  # removal order (all vertices)


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

    kmax = int(core.max()) if n else 0
    return CoreDecomposition(
        verts=verts,
        core=core,
        kmax=kmax,
        kmax_core=verts[core == kmax] if kmax else verts[:0],
        best_vertices=verts[core >= best_k] if best_v else verts[:0],
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

    core = np.array(core, dtype=np.int64)
    kmax = int(core.max()) if n else 0
    order = verts[np.array(peeled, dtype=np.int64)]
    # residual subgraph achieving best density = last best_alive vertices removed
    return PeelResult(
        verts=verts,
        core=core,
        order=order,
        kmax=kmax,
        kmax_core=verts[core == kmax] if kmax else verts[:0],
        best_vertices=np.sort(order[n - best_alive :]),
    )


def hindex_core_numbers(members: np.ndarray, all_vertices) -> np.ndarray:
    """(k,Psi)-core numbers by the local h-operator fixpoint.

    Takes the arguments of ``core_decompose`` and returns the same
    ``core`` array, aligned with the sorted distinct ``all_vertices``, by
    the synchronous AND rounds of Sariyuce, Seshadhri & Pinar ("Local
    Algorithms for Hierarchical Dense Subgraph Discovery", PVLDB 2018;
    h-index -> coreness per Lu et al., Nat. Commun. 2016).
    Every estimate starts at the clique-degree. Each round gives every
    member of an instance the smallest estimate among the instance's
    *other* members; a vertex's new estimate is the h-index of its values,
    capped by its old one. The estimates are non-negative integers that
    only fall, so the rounds stop, at the core numbers.
    """
    verts, pos, slot, deg, start = _vertex_index(members, all_vertices)
    n = len(verts)
    ninst, p = members.shape
    rows = pos.reshape(ninst, p)
    grp = np.repeat(np.arange(n), deg)  # each CSR slot's vertex rank
    nth = np.arange(slot.size) - start[grp]  # each slot's place in its group
    est = deg.copy()
    while True:
        vals = est[rows]
        low = np.sort(vals, axis=1)[:, :2]  # two smallest per instance
        other = np.where(vals == low[:, :1], low[:, 1:], low[:, :1]).ravel()[slot]
        # h-index: in each vertex's values sorted descending, count the
        # places i (from 0) that hold a value > i
        desc = other[np.lexsort((-other, grp))]
        h = np.bincount(grp[desc > nth], minlength=n)
        new = np.minimum(est, h)
        if np.array_equal(new, est):
            break
        est = new
    return est


def instances_inside(members: np.ndarray, vertex_ids) -> np.ndarray:
    """Boolean mask of instances whose members all lie in ``vertex_ids``
    (an array-like of ids; a set raises ``TypeError``, as ``np.isin`` would
    read it as one object and match nothing)."""
    return np.isin(members, np.asarray(vertex_ids, dtype=np.int64)).all(axis=1)
