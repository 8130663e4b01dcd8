"""Classical k-core: the Psi = edge (k,Psi)-core code vs exact peeling.

The driver peel is ``peel_decompose`` with the edge array as the member
matrix. The h-index fixpoint, over the same edge array, is checked against
networkx, so that its oracle does not depend on the peel."""
from math import comb

import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.cores.clique_core import hindex_core_numbers, peel_decompose
from repro.cores.coreapp import gamma_upper_bounds
from repro.graph import generators as gen
from repro.graph.ops import edge_array, edges_from_pandas


def hindex_cores(g) -> dict:
    """Core number per vertex from the h-index fixpoint over the edge array."""
    arr = edge_array(g)
    verts = np.unique(arr)
    return dict(zip(verts.tolist(), hindex_core_numbers(arr, verts).tolist()))


def edge_core_numbers(pdf: pd.DataFrame) -> dict:
    """Core numbers from the driver peel over the edge array."""
    arr = pdf[["src", "dst"]].to_numpy(np.int64)
    pr = peel_decompose(arr, np.unique(arr))
    return dict(zip(pr.verts.tolist(), pr.core.tolist()))


def nx_core_numbers(pdf: pd.DataFrame) -> dict:
    """Core numbers from networkx."""
    return nx.core_number(nx.from_pandas_edgelist(pdf, "src", "dst"))


def naive_core_numbers(pdf: pd.DataFrame) -> dict:
    """Reference: repeatedly strip min-degree vertices, O(n^2) style."""
    adj = {}
    for s, d in zip(pdf["src"], pdf["dst"]):
        adj.setdefault(int(s), set()).add(int(d))
        adj.setdefault(int(d), set()).add(int(s))
    core = {}
    k = 0
    alive = set(adj)
    while alive:
        k_cur = min(len(adj[v] & alive) for v in alive)
        k = max(k, k_cur)
        victims = [v for v in alive if len(adj[v] & alive) <= k_cur]
        # peel one at a time to keep semantics exact
        v = min(victims)
        core[v] = k
        alive.remove(v)
    return core


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_peel_matches_naive(seed):
    pdf = gen.erdos_renyi_pandas(30, 0.15, seed=seed)
    if len(pdf) == 0:
        pytest.skip("empty draw")
    assert edge_core_numbers(pdf) == naive_core_numbers(pdf) == nx_core_numbers(pdf)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distributed_matches_peel(spark, seed):
    pdf = gen.erdos_renyi_pandas(40, 0.12, seed=seed)
    if len(pdf) == 0:
        pytest.skip("empty draw")
    g = edges_from_pandas(spark, pdf)
    assert hindex_cores(g) == nx_core_numbers(pdf)


def test_distributed_on_powerlaw(spark):
    pdf = gen.chung_lu_pandas(200, 600, alpha=2.3, seed=9)
    g = edges_from_pandas(spark, pdf)
    assert hindex_cores(g) == nx_core_numbers(pdf)


def test_kn_core_numbers(spark):
    g = edges_from_pandas(spark, gen.clique_pandas(range(8)))
    assert hindex_cores(g) == {v: 7 for v in range(8)}


def test_kmax_core():
    """PeelResult.kmax_core: the sorted vertices with core == k_max, empty
    when k_max == 0."""
    pr = peel_decompose(np.empty((0, 2), dtype=np.int64), [])
    assert (pr.kmax, pr.kmax_core.tolist()) == (0, [])
    pr = peel_decompose(np.empty((0, 2), dtype=np.int64), [7, 5])
    assert (pr.kmax, pr.kmax_core.tolist()) == (0, [])
    # triangle {3, 1, 2} with a pendant 9 on 1: cores {1, 2, 3}: 2, {9}: 1
    pr = peel_decompose(np.array([[3, 1], [1, 2], [2, 3], [1, 9]]), [1, 2, 3, 9])
    assert (pr.kmax, pr.kmax_core.tolist()) == (2, [1, 2, 3])


def test_nested_property(spark):
    pdf = gen.chung_lu_pandas(150, 450, seed=13)
    cn = edge_core_numbers(pdf)
    kmax = max(cn.values())
    prev = None
    for k in range(kmax, -1, -1):
        cur = {v for v, c in cn.items() if c >= k}
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_gamma_upper_bounds_h2():
    pdf = gen.erdos_renyi_pandas(30, 0.2, seed=17)
    vs, gamma = gamma_upper_bounds(pdf.to_numpy(np.int64), 2)
    got = dict(zip(vs.tolist(), gamma.tolist()))
    want = {v: float(d) for v, d in nx.from_pandas_edgelist(pdf, "src", "dst").degree()}
    assert got == want


def test_gamma_upper_bounds_h3_dominates_clique_core(spark):
    """gamma(v) = C(core(v), h-1) bounds the clique-CORE number — the
    invariant CoreApp's stopping criterion needs (it does NOT bound the
    clique-degree, despite the paper's prose; see its docstring in coreapp.py)."""
    from repro.graph.ops import edge_array
    from repro.patterns import triangle
    from repro.patterns.instances import pattern_instances

    pdf = gen.erdos_renyi_pandas(30, 0.25, seed=19)
    g = edges_from_pandas(spark, pdf)
    vs, g3 = gamma_upper_bounds(pdf.to_numpy(np.int64), 3)
    gamma = dict(zip(vs.tolist(), g3.tolist()))
    members = pattern_instances(spark, edge_array(g), triangle())
    pr = peel_decompose(members, sorted(set(pdf["src"]) | set(pdf["dst"])))
    for v, c in zip(pr.verts.tolist(), pr.core.tolist()):
        assert gamma[v] >= c - 1e-9, (v, gamma[v], c)


def test_gamma_binomial_values():
    arr = gen.clique_pandas(range(6)).to_numpy(np.int64)  # core number 5
    _, gamma4 = gamma_upper_bounds(arr, 4)
    assert all(abs(x - comb(5, 3)) < 1e-9 for x in gamma4)
