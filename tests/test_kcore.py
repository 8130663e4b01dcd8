"""Classical k-core: the Psi = edge (k,Psi)-core code vs exact peeling."""
from math import comb

import numpy as np
import pandas as pd
import pytest

from repro.cores.clique_core import clique_core, clique_core_numbers_hindex
from repro.cores.kcore import (
    core_numbers_peel,
    gamma_upper_bounds,
    max_core_vertices,
)
from repro.graph import generators as gen
from repro.graph.ops import degrees, edges_from_pandas
from repro.patterns import edge


def hindex_core_numbers(spark, g) -> dict:
    """Core number per vertex from the distributed h-index fixpoint."""
    return {
        r["v"]: r["core"]
        for r in clique_core_numbers_hindex(spark, g, edge()).collect()
    }


def k_core_vertices(spark, g, k: int) -> set:
    """Vertices of the k-core from the fixed-k pruning loop."""
    return {r["v"] for r in clique_core(spark, g, k, edge()).collect()}


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
    assert core_numbers_peel(pdf) == naive_core_numbers(pdf)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distributed_matches_peel(spark, seed):
    pdf = gen.erdos_renyi_pandas(40, 0.12, seed=seed)
    if len(pdf) == 0:
        pytest.skip("empty draw")
    g = edges_from_pandas(spark, pdf)
    assert hindex_core_numbers(spark, g) == core_numbers_peel(pdf)


def test_distributed_on_powerlaw(spark):
    pdf = gen.chung_lu_pandas(200, 600, alpha=2.3, seed=9)
    g = edges_from_pandas(spark, pdf)
    assert hindex_core_numbers(spark, g) == core_numbers_peel(pdf)


def test_kn_core_numbers(spark):
    g = edges_from_pandas(spark, gen.clique_pandas(range(8)))
    assert hindex_core_numbers(spark, g) == {v: 7 for v in range(8)}


def test_k_core_subgraph_fixpoint(spark):
    pdf = gen.compose(
        gen.clique_pandas(range(6)), gen.erdos_renyi_pandas(40, 0.05, seed=2, offset=10)
    )
    g = edges_from_pandas(spark, pdf)
    core5 = k_core_vertices(spark, g, 5)
    # every vertex of the 5-core has degree >= 5 inside it
    inside = pdf[pdf["src"].isin(core5) & pdf["dst"].isin(core5)]
    d = pd.concat([inside["src"], inside["dst"]]).value_counts().to_dict()
    assert set(d) == core5
    assert d and min(d.values()) >= 5
    assert set(d) >= set(range(6))


def test_k_core_empty_when_too_large(spark):
    g = edges_from_pandas(spark, gen.clique_pandas(range(4)))
    assert k_core_vertices(spark, g, 4) == set()


def test_k_core_matches_core_numbers(spark):
    pdf = gen.erdos_renyi_pandas(50, 0.1, seed=11)
    g = edges_from_pandas(spark, pdf)
    cn = core_numbers_peel(pdf)
    for k in (1, 2, 3):
        assert k_core_vertices(spark, g, k) == {v for v, c in cn.items() if c >= k}


def test_max_core_vertices():
    assert max_core_vertices({}) == (0, [])
    assert max_core_vertices({1: 2, 2: 2, 3: 1}) == (2, [1, 2])


def test_nested_property(spark):
    pdf = gen.chung_lu_pandas(150, 450, seed=13)
    cn = core_numbers_peel(pdf)
    kmax = max(cn.values())
    prev = None
    for k in range(kmax, -1, -1):
        cur = {v for v, c in cn.items() if c >= k}
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_gamma_upper_bounds_h2(spark):
    pdf = gen.erdos_renyi_pandas(30, 0.2, seed=17)
    g = edges_from_pandas(spark, pdf)
    vs, gamma = gamma_upper_bounds(pdf.to_numpy(np.int64), 2)
    got = dict(zip(vs.tolist(), gamma.tolist()))
    want = {r["v"]: float(r["deg"]) for r in degrees(g).collect()}
    assert got == want


def test_gamma_upper_bounds_h3_dominates_clique_core(spark):
    """gamma(v) = C(core(v), h-1) bounds the clique-CORE number — the
    invariant CoreApp's stopping criterion needs (it does NOT bound the
    clique-degree, despite the paper's prose; see kcore.py docstring)."""
    from repro.cores.clique_core import collect_instances, peel_decompose
    from repro.patterns import triangle
    from repro.patterns.instances import pattern_instances

    pdf = gen.erdos_renyi_pandas(30, 0.25, seed=19)
    g = edges_from_pandas(spark, pdf)
    vs, g3 = gamma_upper_bounds(pdf.to_numpy(np.int64), 3)
    gamma = dict(zip(vs.tolist(), g3.tolist()))
    inst = pattern_instances(spark, g, triangle())
    members = collect_instances(inst, triangle())
    pr = peel_decompose(members, sorted(set(pdf["src"]) | set(pdf["dst"])))
    for v, c in pr.core.items():
        assert gamma[v] >= c - 1e-9, (v, gamma[v], c)


def test_gamma_binomial_values():
    arr = gen.clique_pandas(range(6)).to_numpy(np.int64)  # core number 5
    _, gamma4 = gamma_upper_bounds(arr, 4)
    assert all(abs(x - comb(5, 3)) < 1e-9 for x in gamma4)
