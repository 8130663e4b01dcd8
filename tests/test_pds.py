"""PDS problem (§7): pattern-densest subgraphs + Table-5-style invariants."""
import pytest

from repro.densest.common import exact_density, gather
from repro.densest.core_exact import core_exact
from repro.densest.exact import exact_densest
from repro.graph import generators as gen
from repro.graph.ops import edges_from_pandas
from repro.patterns import c3_star, diamond, edge, star, two_triangle
from tests.bruteforce import brute_force_densest

PDS_PATTERNS = [star(2), c3_star(), diamond(), two_triangle()]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pat", PDS_PATTERNS, ids=[p.name for p in PDS_PATTERNS])
def test_pds_exact_vs_bruteforce(spark, seed, pat):
    pdf = gen.erdos_renyi_pandas(10, 0.45, seed=seed)
    g = edges_from_pandas(spark, pdf)
    allv, members = gather(spark, g, pat)
    _, bf_density = brute_force_densest(members, allv)
    for algo in (exact_densest, core_exact):
        res = algo(spark, g, pat)
        assert res.density == pytest.approx(bf_density, abs=1e-9), algo.__name__


def test_2star_pds_prefers_hub(spark):
    """A high-degree hub wins 2-star density over a small clique."""
    pdf = gen.compose(
        gen.clique_pandas(range(4)),  # K4: 2-star density = 3*C(3,2)... = 3
        gen.biclique_pandas([100], range(101, 121)),  # star-20 hub
    )
    g = edges_from_pandas(spark, pdf)
    res = core_exact(spark, g, star(2))
    # hub: C(20,2)=190 instances over 21 vertices ~ 9.05 > K4's 3
    assert 100 in res.vertices
    assert res.density > 5


def test_diamond_pds_prefers_biclique(spark):
    """K2,x is C4-rich: diamond PDS picks it over a small clique."""
    pdf = gen.compose(
        gen.clique_pandas(range(4)),  # 3 C4s / 4 vertices
        gen.biclique_pandas([50, 51], range(60, 70)),  # C(10,2)=45 C4s / 12
    )
    g = edges_from_pandas(spark, pdf)
    res = core_exact(spark, g, diamond())
    assert {50, 51} <= set(res.vertices)
    assert res.density == pytest.approx(45 / 12)


def test_pds_density_dominates_eds_density(spark):
    """Table 5 invariant: rho_opt(Psi) >= rho(EDS, Psi)."""
    pdf = gen.compose(
        gen.clique_pandas(range(6)),
        gen.biclique_pandas([30], range(31, 43)),
        gen.erdos_renyi_pandas(30, 0.1, seed=3, offset=50),
    )
    g = edges_from_pandas(spark, pdf)
    eds = core_exact(spark, g, edge())
    for pat in (star(2), diamond()):
        allv, members = gather(spark, g, pat)
        rho_opt = core_exact(spark, g, pat).density
        rho_eds = float(exact_density(members, eds.vertices))
        assert rho_opt >= rho_eds - 1e-9


def test_k13_diamond_density_matches_paper_closed_form(spark):
    """S-DBLP's CDS is K13; paper Table 5 reports diamond rho = 165."""
    g = edges_from_pandas(spark, gen.clique_pandas(range(13)))
    res = core_exact(spark, g, diamond())
    assert res.density == pytest.approx(165.0)
