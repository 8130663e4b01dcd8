"""Exact (Algorithm 1) certified against brute-force subset enumeration."""

import pandas as pd
import pytest

from repro.densest.bruteforce import brute_force_densest
from repro.densest.common import gather
from repro.densest.exact import exact_densest
from repro.graph import generators as gen
from repro.graph.ops import edges_from_pandas
from repro.patterns import clique, diamond, edge, generic, star, triangle, two_triangle

PATTERNS = [edge(), triangle(), clique(4), star(2), diamond(), two_triangle()]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pat", PATTERNS, ids=[p.name for p in PATTERNS])
def test_exact_matches_bruteforce(spark, seed, pat):
    pdf = gen.erdos_renyi_pandas(11, 0.4, seed=seed)
    g = edges_from_pandas(spark, pdf)
    allv, members = gather(spark, g, pat)
    _, bf_density = brute_force_densest(members, allv)
    res = exact_densest(spark, g, pat)
    assert res.density == pytest.approx(bf_density, abs=1e-9)


def test_eds_of_clique_plus_tail(spark):
    # K6 + path tail: EDS is exactly the K6 (density 15/6 = 2.5)
    pdf = gen.compose(
        gen.clique_pandas(range(6)),
        pd.DataFrame({"src": [0, 20, 21], "dst": [20, 21, 22]}),
    )
    g = edges_from_pandas(spark, pdf)
    res = exact_densest(spark, g, edge())
    assert res.vertices == [0, 1, 2, 3, 4, 5]
    assert res.density == pytest.approx(2.5)


def test_triangle_cds_prefers_clique_over_biclique(spark):
    # biclique K3,3 (edge-dense, triangle-free) vs K4 (triangle-rich)
    pdf = gen.compose(
        gen.biclique_pandas(range(3), range(3, 6)),
        gen.clique_pandas(range(10, 14)),
    )
    g = edges_from_pandas(spark, pdf)
    eds = exact_densest(spark, g, edge())
    cds = exact_densest(spark, g, triangle())
    assert set(cds.vertices) == {10, 11, 12, 13}
    assert cds.density == pytest.approx(1.0)
    assert eds.density == pytest.approx(1.5)  # K4: 6/4 beats K3,3's 9/6


def test_two_cliques_edge_density(spark):
    # K5 and K8 disjoint: densest is K8 with (28/8) = 3.5
    pdf = gen.compose(gen.clique_pandas(range(5)), gen.clique_pandas(range(10, 18)))
    g = edges_from_pandas(spark, pdf)
    res = exact_densest(spark, g, edge())
    assert res.vertices == list(range(10, 18))
    assert res.density == pytest.approx(3.5)


def test_exact_no_instances(spark):
    # path graph has no triangles: degenerate result, density 0
    pdf = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
    g = edges_from_pandas(spark, pdf)
    res = exact_densest(spark, g, triangle())
    assert res.density == 0.0


def test_exact_generic_pattern(spark):
    pat = generic("paw", 4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    pdf = gen.erdos_renyi_pandas(10, 0.5, seed=9)
    g = edges_from_pandas(spark, pdf)
    allv, members = gather(spark, g, pat)
    _, bf_density = brute_force_densest(members, allv)
    res = exact_densest(spark, g, pat)
    assert res.density == pytest.approx(bf_density, abs=1e-9)


def test_exact_reports_stats(spark):
    pdf = gen.clique_pandas(range(5))
    g = edges_from_pandas(spark, pdf)
    res = exact_densest(spark, g, triangle())
    assert res.stats["iterations"] > 0
    assert res.timings["total"] > 0
    assert res.size == 5


def test_exact_builds_one_network(spark):
    pdf = gen.erdos_renyi_pandas(11, 0.4, seed=0)
    g = edges_from_pandas(spark, pdf)
    res = exact_densest(spark, g, triangle())
    assert res.stats["network_builds"] == 1
    assert res.stats["iterations"] > 1
    assert len(res.stats["network_sizes"]) == res.stats["iterations"]
