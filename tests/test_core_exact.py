"""CoreExact (Algorithm 4) == Exact == brute force; pruning ablation;
optimality certificates."""
from fractions import Fraction

import pandas as pd
import pytest

from repro.densest.bruteforce import brute_force_densest
from repro.densest.common import exact_density, gather
from repro.densest.core_exact import core_exact
from repro.densest.exact import exact_densest
from repro.densest.network import build_network, min_cut_vertices
from repro.graph import generators as gen
from repro.graph.ops import edges_from_pandas
from repro.patterns import clique, diamond, edge, star, triangle, two_triangle

PATTERNS = [edge(), triangle(), clique(4), star(2), diamond(), two_triangle()]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pat", PATTERNS, ids=[p.name for p in PATTERNS])
def test_core_exact_matches_bruteforce(spark, seed, pat):
    pdf = gen.erdos_renyi_pandas(11, 0.4, seed=seed)
    g = edges_from_pandas(spark, pdf)
    allv, members = gather(spark, g, pat)
    _, bf_density = brute_force_densest(members, allv)
    res = core_exact(spark, g, pat)
    assert res.density == pytest.approx(bf_density, abs=1e-9)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("pat", [edge(), triangle()], ids=["edge", "triangle"])
def test_core_exact_matches_exact_medium(spark, seed, pat):
    pdf = gen.chung_lu_pandas(60, 180, alpha=2.4, seed=seed)
    g = edges_from_pandas(spark, pdf)
    r1 = exact_densest(spark, g, pat)
    r2 = core_exact(spark, g, pat)
    assert r2.density == pytest.approx(r1.density, abs=1e-9)


@pytest.mark.parametrize(
    "flags",
    [
        dict(use_p1=True, use_p2=False),
        dict(use_p1=False, use_p2=True),
        dict(use_p1=False, use_p2=False),
        dict(use_lemma8=False),
    ],
    ids=["P1", "P2", "none", "noL8"],
)
def test_pruning_variants_agree(spark, flags):
    pdf = gen.erdos_renyi_pandas(14, 0.35, seed=6)
    g = edges_from_pandas(spark, pdf)
    pat = triangle()
    full = core_exact(spark, g, pat)
    variant = core_exact(spark, g, pat, **flags)
    assert variant.density == pytest.approx(full.density, abs=1e-9)


CERT_PATTERNS = [edge(), triangle(), diamond()]


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("pat", CERT_PATTERNS, ids=[p.name for p in CERT_PATTERNS])
def test_certificate_proves_optimality(spark, seed, pat):
    """Exact and CoreExact certify their answer S: rho(S) is the brute-force
    optimum as a fraction, and the whole graph's min cut at alpha = rho(S)
    is empty, which proves no set is denser."""
    pdf = gen.erdos_renyi_pandas(12, 0.45, seed=seed)
    g = edges_from_pandas(spark, pdf)
    allv, members = gather(spark, g, pat)
    bf_set, _ = brute_force_densest(members, allv)
    optimum = exact_density(members, bf_set)
    for res in (exact_densest(spark, g, pat), core_exact(spark, g, pat)):
        cert = res.stats["certificate"]
        rho = Fraction(cert["density"])
        assert cert["vertices"] == sorted(res.vertices), res.algorithm
        assert rho == exact_density(members, res.vertices) == optimum, res.algorithm
        assert Fraction(cert["alpha"]) == rho, res.algorithm
        assert res.density == float(rho)
        net, s, t, v2n, _ = build_network(allv, members, rho, pat.nv,
                                          grouped=pat.kind != "clique")
        assert min_cut_vertices(net, s, t, v2n) == [], res.algorithm


def test_boundary_disjoint_equal_cliques(spark):
    """rho_opt == rho'' (two identical K5s): the printed Alg. 4 would
    return the empty set; our D-initialization fix returns a K5."""
    pdf = gen.compose(gen.clique_pandas(range(5)), gen.clique_pandas(range(10, 15)))
    g = edges_from_pandas(spark, pdf)
    res = core_exact(spark, g, edge())
    assert res.density == pytest.approx(2.0)
    assert len(res.vertices) in (5, 10)


def test_embedded_clique_found(spark):
    pdf = gen.compose(
        gen.clique_pandas(range(8)),
        gen.chung_lu_pandas(100, 250, alpha=2.5, seed=8, offset=20),
    )
    g = edges_from_pandas(spark, pdf)
    res = core_exact(spark, g, triangle())
    assert set(range(8)) <= set(res.vertices)
    # K8 triangle density = C(8,3)/8 = 7
    assert res.density >= 7.0 - 1e-9


def test_network_shrinks_with_iterations(spark):
    """Figure-9 claim: core localization shrinks the flow networks vs n."""
    pdf = gen.compose(
        gen.clique_pandas(range(8)),
        gen.chung_lu_pandas(120, 300, alpha=2.5, seed=4, offset=20),
    )
    g = edges_from_pandas(spark, pdf)
    res = core_exact(spark, g, triangle())
    n = res.stats["n"]
    assert res.stats["network_sizes"], "expected at least one network build"
    assert max(res.stats["network_sizes"]) < n + res.stats["instances"] + 2


def test_network_rebuilt_only_when_vertex_set_shrinks(spark):
    """Probes between builds reuse one network, so the per-probe sizes
    change only at a rebuild. Without P1/P2 the search starts low and
    the component shrinks to a higher core on the way up."""
    pdf = gen.erdos_renyi_pandas(30, 0.5, seed=1)
    g = edges_from_pandas(spark, pdf)
    res = core_exact(spark, g, triangle(), use_p1=False, use_p2=False)
    sizes = res.stats["network_sizes"]
    assert len(sizes) == res.stats["iterations"]
    runs = 1 + sum(a != b for a, b in zip(sizes, sizes[1:]))
    assert 1 < runs <= res.stats["network_builds"] < res.stats["iterations"]
    assert res.density == pytest.approx(core_exact(spark, g, triangle()).density, abs=1e-9)


def test_timing_breakdown_present(spark):
    pdf = gen.erdos_renyi_pandas(15, 0.3, seed=2)
    g = edges_from_pandas(spark, pdf)
    res = core_exact(spark, g, triangle())
    for key in ("enumerate", "decompose", "locate", "flow", "total"):
        assert key in res.timings
    assert res.timings["total"] >= res.timings["decompose"]


def test_core_exact_no_instances(spark):
    pdf = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    g = edges_from_pandas(spark, pdf)
    res = core_exact(spark, g, triangle())
    assert res.density == 0.0
    assert res.kmax == 0


@pytest.mark.parametrize("pat", CERT_PATTERNS, ids=[p.name for p in CERT_PATTERNS])
def test_localization_stats(spark, pat):
    """CoreExact reports its localization: the located core's size and
    component count, and the lower bound l as "a/b", which never exceeds
    the certified density. With no instance nothing is located."""
    pdf = gen.compose(
        gen.clique_pandas(range(8)),
        gen.chung_lu_pandas(100, 250, alpha=2.5, seed=8, offset=20),
    )
    g = edges_from_pandas(spark, pdf)
    st = core_exact(spark, g, pat).stats
    n_located, n_comps = st["located_vertices"], st["components"]
    assert 8 <= n_located <= st["n"] and 1 <= n_comps <= n_located
    num, den = map(int, st["lower_bound"].split("/"))
    assert Fraction(num, den) <= Fraction(st["certificate"]["density"])
    none = core_exact(spark, edges_from_pandas(spark, gen.clique_pandas(range(2))), triangle())
    assert (none.stats["located_vertices"], none.stats["components"]) == (0, 0)
    assert none.stats["lower_bound"] == "0/1"
