"""Property-based checks of the driver peeling engines (no Spark).

Hypothesis generates random small instance-hypergraphs; we verify the
peel against first-principles definitions of the (k,Psi)-core. Seeded
random member matrices check the heap peel against ``reference_peel``,
the dict-and-double-loop heap peel it replaced, and the level-synchronous
``core_decompose`` against the heap peel.
"""
import heapq
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cores.clique_core import (
    PeelResult,
    core_decompose,
    instances_inside,
    peel_decompose,
)
from repro.densest.common import exact_density


def reference_peel(members: np.ndarray, all_vertices) -> PeelResult:
    """The heap peel with a dict index built in a Python double loop."""
    verts = sorted(set(map(int, all_vertices)))
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    ninst = int(members.shape[0])

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
    best_alive = alive_v
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
    best_vertices = order[n - best_alive :] if best_alive else []
    core_map = {verts[i]: int(core[i]) for i in range(n)}
    return PeelResult(
        core=core_map,
        order=order,
        kmax=kmax,
        kmax_core=sorted(v for v, c in core_map.items() if c == kmax and kmax > 0),
        best_vertices=sorted(best_vertices),
        n_instances=ninst,
    )


def _random_members(rng, p: int, n_used: int, ninst: int, offset: int) -> np.ndarray:
    """``ninst`` instances of ``p`` distinct members from ids offset..offset+n_used-1."""
    if ninst == 0:
        return np.empty((0, p), dtype=np.int64)
    rows = [rng.choice(n_used, size=p, replace=False) for _ in range(ninst)]
    return np.asarray(rows, dtype=np.int64) + offset


def _seeded_cases(p: int, offset: int):
    """60 seeded (members, all_vertices) cases, dense and sparse, with ids
    in no instance, then the empty matrix with and without vertices."""
    rng = np.random.default_rng(1000 * p + (offset > 0))
    for _ in range(60):
        n_used = int(rng.integers(p, 3 * p + 12))
        ninst = int(rng.integers(0, 4 * n_used))
        members = _random_members(rng, p, n_used, ninst, offset)
        extra = rng.choice(1000, size=int(rng.integers(0, 6)), replace=False)
        allv = list(range(offset, offset + n_used)) + (offset + 5000 + extra).tolist()
        rng.shuffle(allv)
        yield members, allv
    empty = np.empty((0, p), dtype=np.int64)
    yield empty, []
    yield empty, [offset + 3, offset + 1, offset + 2]


@pytest.mark.parametrize("offset", [0, 2**40], ids=["small-ids", "ids-2^40"])
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_peel_matches_reference(p, offset):
    """The whole PeelResult equals the reference peel's, on seeded random
    member matrices: dense and sparse ones, empty ones, and vertex sets
    with ids in no instance."""
    for members, allv in _seeded_cases(p, offset):
        assert peel_decompose(members, allv) == reference_peel(members, allv)


@pytest.mark.parametrize("offset", [0, 2**40], ids=["small-ids", "ids-2^40"])
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_level_peel_matches_heap_peel(p, offset):
    """The level-synchronous peel has the heap peel's core numbers, kmax
    and kmax-core on the same cases. Its rho' is a densest core, so it is
    at most the heap's best residual and at least kmax / p."""
    for members, allv in _seeded_cases(p, offset):
        got, want = core_decompose(members, allv), peel_decompose(members, allv)
        assert (got.core, got.kmax, got.kmax_core) == (want.core, want.kmax, want.kmax_core)
        assert got.n_instances == want.n_instances
        rho = exact_density(members, got.best_vertices)
        assert rho <= exact_density(members, want.best_vertices)
        assert rho >= Fraction(got.kmax, p)
        assert bool(got.best_vertices) == bool(allv)
        # the best set is a (k,Psi)-core: every core number in it is >= k
        k = min((got.core[v] for v in got.best_vertices), default=0)
        assert got.best_vertices == sorted(v for v, c in got.core.items() if c >= k)


def test_peel_rejects_member_outside_vertex_set():
    members = np.array([[1, 2, 3], [2, 3, 9]], dtype=np.int64)
    with pytest.raises(ValueError):
        peel_decompose(members, [1, 2, 3])
    with pytest.raises(ValueError):
        peel_decompose(members, [])
    with pytest.raises(ValueError):  # 2 falls between two vertex ids
        peel_decompose(members, [1, 3, 9])

# random instance sets: up to 25 instances of arity 3 over vertices 0..11
instances_strategy = st.lists(
    st.lists(st.integers(0, 11), min_size=3, max_size=3, unique=True),
    min_size=0,
    max_size=25,
)


def _mk(members_list):
    if not members_list:
        return np.empty((0, 3), dtype=np.int64)
    return np.asarray(members_list, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(instances_strategy)
def test_kmax_core_is_valid_core(members_list):
    members = _mk(members_list)
    allv = list(range(12))
    pr = peel_decompose(members, allv)
    core_set = {v for v, c in pr.core.items() if c >= pr.kmax}
    inside = members[instances_inside(members, core_set)] if members.size else members
    cdeg = {v: 0 for v in core_set}
    for row in inside:
        for v in row:
            cdeg[int(v)] += 1
    if pr.kmax > 0:
        assert min(cdeg.values()) >= pr.kmax


@settings(max_examples=60, deadline=None)
@given(instances_strategy)
def test_kmax_is_maximal(members_list):
    """No subgraph can have min clique-degree > kmax (Def. 6 maximality)."""
    members = _mk(members_list)
    pr = peel_decompose(members, list(range(12)))
    k = pr.kmax + 1
    # iterative pruning at k must annihilate the graph
    alive = set(range(12))
    while True:
        inside = members[instances_inside(members, alive)] if members.size else members
        cdeg = {v: 0 for v in alive}
        for row in inside:
            for v in row:
                cdeg[int(v)] += 1
        bad = {v for v, c in cdeg.items() if c < k}
        if not bad:
            break
        alive -= bad
    assert alive == set()


@settings(max_examples=60, deadline=None)
@given(instances_strategy)
def test_rho_prime_is_max_residual_density(members_list):
    """rho' is the density of ``best_vertices``: exactly the largest
    residual density along the recorded peel order, G included."""
    members = _mk(members_list)
    allv = list(range(12))
    pr = peel_decompose(members, allv)
    # recompute residual densities from the recorded order
    best = exact_density(members, allv)
    remaining = list(allv)
    order = pr.order
    for v in order[:-1]:
        remaining.remove(v)
        best = max(best, exact_density(members, remaining))
    assert exact_density(members, pr.best_vertices) == best


@settings(max_examples=60, deadline=None)
@given(instances_strategy)
def test_core_numbers_bounded_by_degree(members_list):
    members = _mk(members_list)
    pr = peel_decompose(members, list(range(12)))
    cdeg = {v: 0 for v in range(12)}
    for row in members:
        for v in row:
            cdeg[int(v)] += 1
    for v, c in pr.core.items():
        assert c <= cdeg[v]


@settings(max_examples=40, deadline=None)
@given(instances_strategy, st.integers(1, 4))
def test_core_nesting(members_list, k):
    members = _mk(members_list)
    pr = peel_decompose(members, list(range(12)))
    hi = {v for v, c in pr.core.items() if c >= k + 1}
    lo = {v for v, c in pr.core.items() if c >= k}
    assert hi <= lo
