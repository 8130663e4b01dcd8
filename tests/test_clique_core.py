"""(k,Psi)-cores: Alg. 3 peeling, the local h-operator, Theorem 1 bounds."""

from fractions import Fraction

import numpy as np
import pandas as pd
import pytest

from repro.cores.clique_core import (
    hindex_core_numbers,
    instances_inside,
    peel_decompose,
)
from repro.densest.common import exact_density, gather
from repro.graph import generators as gen
from repro.graph.ops import edges_from_pandas
from repro.patterns import clique, diamond, star, triangle, two_triangle


def _gather(spark, pdf, pat):
    """(member matrix, every vertex id) of ``pat`` in the graph ``pdf``."""
    allv, members = gather(spark, edges_from_pandas(spark, pdf), pat)
    return members, allv


def test_k4_triangle_core():
    """Paper Example 3 analogue: each K4 vertex is in 3 triangles."""
    members = np.array([list(c) for c in
                        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]])
    pr = peel_decompose(members, [0, 1, 2, 3])
    assert pr.kmax == 3
    assert pr.verts.tolist() == [0, 1, 2, 3] and pr.core.tolist() == [3, 3, 3, 3]


def test_peel_tracks_rho_prime():
    # K5 + pendant vertex: best residual is K5 itself (10 edges / 5)
    pdf = gen.compose(gen.clique_pandas(range(5)),
                      pd.DataFrame({"src": [0], "dst": [99]}))
    es = pdf.to_numpy()
    pr = peel_decompose(es, sorted(set(pdf["src"]) | set(pdf["dst"])))
    assert pr.kmax == 4
    assert exact_density(es, pr.best_vertices) == 2
    assert pr.best_vertices.tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "pat", [triangle(), clique(4), star(2), diamond(), two_triangle()],
    ids=["triangle", "4-clique", "2-star", "diamond", "2-triangle"],
)
def test_hindex_matches_peel(spark, seed, pat):
    pdf = gen.erdos_renyi_pandas(20, 0.35, seed=seed)
    members, allv = _gather(spark, pdf, pat)
    got = hindex_core_numbers(members, allv)
    pr = peel_decompose(members, allv)
    np.testing.assert_array_equal(got, pr.core)


def test_nested_cores():
    pdf = gen.chung_lu_pandas(80, 240, seed=5)
    es = pdf.to_numpy()
    pr = peel_decompose(es, sorted(set(pdf["src"]) | set(pdf["dst"])))
    prev = None
    for k in range(pr.kmax, -1, -1):
        cur = set(pr.verts[pr.core >= k].tolist())
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_theorem1_bounds(spark):
    """k/|V_Psi| <= rho(R_k, Psi) <= kmax for every k (Theorem 1)."""
    pdf = gen.erdos_renyi_pandas(20, 0.4, seed=11)
    pat = triangle()
    members, allv = _gather(spark, pdf, pat)
    pr = peel_decompose(members, allv)
    for k in range(1, pr.kmax + 1):
        rk = pr.verts[pr.core >= k]
        rho = exact_density(members, rk)
        assert rho >= Fraction(k, pat.nv)
        assert rho <= pr.kmax


def test_core_zero_for_instanceless_vertices(spark):
    # triangle + dangling path: path vertices have triangle-core 0
    pdf = pd.DataFrame({"src": [0, 1, 0, 2, 3], "dst": [1, 2, 2, 3, 4]})
    pat = triangle()
    members, allv = _gather(spark, pdf, pat)
    got = hindex_core_numbers(members, allv)
    assert (allv.tolist(), got.tolist()) == ([0, 1, 2, 3, 4], [1, 1, 1, 0, 0])


def test_density_helpers():
    members = np.array([[0, 1, 2], [1, 2, 3]])
    assert instances_inside(members, [0, 1, 2]).tolist() == [True, False]
    assert exact_density(members, [0, 1, 2, 3]) == Fraction(1, 2)
    assert exact_density(members, []) == 0
    with pytest.raises(TypeError):  # a set is not an id array
        exact_density(members, {0, 1, 2})


def test_empty_instances():
    members = np.empty((0, 3), dtype=np.int64)
    pr = peel_decompose(members, [1, 2, 3])
    assert pr.kmax == 0
    assert (pr.verts.tolist(), pr.core.tolist()) == ([1, 2, 3], [0, 0, 0])
    assert exact_density(members, pr.best_vertices) == 0
