"""Approximation algorithms: PeelApp, IncApp, CoreApp, Nucleus, EMcore.

Checks the Lemma 9/11 ratio everywhere, and that the three core-based
approximations return the identical (k_max, Psi)-core.
"""
import networkx as nx
import pandas as pd
import pytest

from repro.cores.clique_core import density_of
from repro.cores.coreapp import kmax_core_coreapp
from repro.cores.emcore import kmax_core_emcore
from repro.densest.common import gather
from repro.densest.coreapp_dsd import core_app
from repro.densest.core_exact import core_exact
from repro.densest.exact import exact_densest
from repro.densest.incapp import inc_app
from repro.densest.nucleus import nucleus_app
from repro.densest.peel import peel_app
from repro.graph import generators as gen
from repro.graph.ops import edges_from_pandas
from repro.patterns import clique, diamond, edge, star, triangle

PATTERNS = [edge(), triangle(), star(2), diamond()]


def nx_kmax_core(pdf: pd.DataFrame) -> tuple:
    """(k_max, sorted k_max-core vertices) of the classical cores, from
    networkx, so the oracle does not share the peel it checks."""
    core = nx.core_number(nx.from_pandas_edgelist(pdf, "src", "dst"))
    kmax = max(core.values())
    return kmax, sorted(int(v) for v, c in core.items() if c == kmax)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pat", PATTERNS, ids=[p.name for p in PATTERNS])
def test_peel_ratio_bound(spark, seed, pat):
    pdf = gen.erdos_renyi_pandas(16, 0.35, seed=seed)
    g = edges_from_pandas(spark, pdf)
    opt = core_exact(spark, g, pat).density
    approx = peel_app(spark, g, pat).density
    assert approx >= opt / pat.nv - 1e-9
    assert approx <= opt + 1e-9


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pat", PATTERNS, ids=[p.name for p in PATTERNS])
def test_kmax_core_ratio_bound(spark, seed, pat):
    """Lemma 9: the (kmax,Psi)-core is a 1/|V_Psi|-approximation."""
    pdf = gen.erdos_renyi_pandas(16, 0.35, seed=seed)
    g = edges_from_pandas(spark, pdf)
    opt = core_exact(spark, g, pat).density
    inc = inc_app(spark, g, pat).density
    assert inc >= opt / pat.nv - 1e-9


@pytest.mark.parametrize("pat", [edge(), triangle(), star(2)], ids=["edge", "tri", "2star"])
def test_incapp_coreapp_nucleus_agree(spark, pat):
    pdf = gen.compose(
        gen.clique_pandas(range(6)),
        gen.chung_lu_pandas(60, 150, alpha=2.4, seed=3, offset=10),
    )
    g = edges_from_pandas(spark, pdf)
    r_inc = inc_app(spark, g, pat)
    r_cap = core_app(spark, g, pat)
    r_nuc = nucleus_app(spark, g, pat)
    assert r_inc.kmax == r_cap.kmax == r_nuc.kmax
    assert r_inc.vertices == r_cap.vertices == r_nuc.vertices
    assert r_inc.density == pytest.approx(r_cap.density, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coreapp_kmax_matches_peel_edge(spark, seed):
    pdf = gen.chung_lu_pandas(120, 360, alpha=2.3, seed=seed)
    g = edges_from_pandas(spark, pdf)
    kmax, verts, _ = kmax_core_coreapp(spark, g, edge())
    want_k, want_v = nx_kmax_core(pdf)
    assert kmax == want_k
    assert verts == want_v


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_emcore_matches_peel_edge(spark, seed):
    pdf = gen.chung_lu_pandas(120, 360, alpha=2.3, seed=seed)
    g = edges_from_pandas(spark, pdf)
    kmax, verts, _ = kmax_core_emcore(spark, g)
    want_k, want_v = nx_kmax_core(pdf)
    assert kmax == want_k
    assert sorted(verts) == want_v


def test_emcore_on_embedded_clique(spark):
    pdf = gen.compose(
        gen.clique_pandas(range(10)),
        gen.chung_lu_pandas(200, 500, alpha=2.5, seed=5, offset=20),
    )
    g = edges_from_pandas(spark, pdf)
    kmax, verts, info = kmax_core_emcore(spark, g)
    assert kmax == 9
    assert set(range(10)) <= set(verts)
    assert info["rounds"] >= 1


def test_coreapp_triangle_on_embedded_clique(spark):
    pdf = gen.compose(
        gen.clique_pandas(range(7)),
        gen.chung_lu_pandas(80, 200, alpha=2.5, seed=7, offset=10),
    )
    g = edges_from_pandas(spark, pdf)
    kmax, verts, info = kmax_core_coreapp(spark, g, triangle())
    # K7: each vertex in C(6,2)=15 triangles
    assert kmax >= 15
    assert set(range(7)) <= set(verts)
    # gamma ranks K7 first, so the rounds stop before W covers the graph
    assert info["final_w"] < info["n"]


def test_coreapp_stopping_criterion_small_w0(spark):
    """Starting from a tiny W must still find the global kmax-core."""
    pdf = gen.compose(
        gen.clique_pandas(range(6)),
        gen.chung_lu_pandas(100, 260, alpha=2.4, seed=9, offset=10),
    )
    g = edges_from_pandas(spark, pdf)
    k_small, v_small, info = kmax_core_coreapp(spark, g, edge(), w0=4)
    k_ref, v_ref = nx_kmax_core(g.toPandas())
    assert k_small == k_ref and v_small == v_ref
    assert info["final_w"] < info["n"]


def test_peelapp_returns_best_residual(spark):
    # K5 + sparse tail: PeelApp's best prefix is the K5 (edge pattern)
    pdf = gen.compose(
        gen.clique_pandas(range(5)),
        pd.DataFrame({"src": [0, 20], "dst": [20, 21]}),
    )
    g = edges_from_pandas(spark, pdf)
    res = peel_app(spark, g, edge())
    assert res.vertices == [0, 1, 2, 3, 4]
    assert res.density == pytest.approx(2.0)


def test_approx_results_have_timings(spark):
    pdf = gen.erdos_renyi_pandas(20, 0.25, seed=11)
    g = edges_from_pandas(spark, pdf)
    for fn in (peel_app, inc_app):
        r = fn(spark, g, triangle())
        assert r.timings["total"] > 0
    r = core_app(spark, g, triangle())
    assert r.timings["total"] > 0


RECOUNT_PATTERNS = PATTERNS + [clique(4)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pat", RECOUNT_PATTERNS, ids=[p.name for p in RECOUNT_PATTERNS])
def test_coreapp_density_matches_recount(spark, seed, pat):
    """CoreApp's density equals a recount over G's full instance set, both
    from the default W and from w0=4. A top-8 W holds at most a K8, whose
    core number is below the planted K12's, so with w0=4 the core is found
    only in the third round or later; that multi-round answer must be
    IncApp's, which peels the whole graph."""
    pdf = gen.compose(
        gen.clique_pandas(range(12)),
        gen.chung_lu_pandas(60, 150, alpha=2.4, seed=20 + seed, offset=20),
    )
    g = edges_from_pandas(spark, pdf)
    _, members = gather(spark, g, pat)
    for w0 in (None, 4):
        r = core_app(spark, g, pat, w0=w0)
        assert r.kmax > 0
        assert r.density == density_of(members, r.vertices)
    assert r.stats["rounds"] >= 3
    full = inc_app(spark, g, pat)
    assert (r.kmax, r.vertices) == (full.kmax, full.vertices)


def test_coreapp_density_without_instances(spark):
    """Triangle pattern on the triangle-free C6: k_max = 0, the one-vertex
    fallback is returned and its density is exactly 0. That vertex is the
    smallest id, for CoreApp and for the algorithms that share its
    fallback, whatever order Spark lists the vertices in."""
    pdf = pd.DataFrame({"src": [0, 1, 2, 3, 4, 0], "dst": [1, 2, 3, 4, 5, 5]})
    g = edges_from_pandas(spark, pdf)
    r = core_app(spark, g, triangle())
    assert r.kmax == 0
    assert r.vertices == [0]
    assert r.density == 0.0
    assert exact_densest(spark, g, triangle()).vertices == [0]
    assert inc_app(spark, g, triangle()).vertices == [0]


def test_emcore_multi_round(spark):
    """A hub of degree 60 sets d; the K6 (k_max = 5) lies below t only once
    the threshold has halved from 30 down to 3, so EMcore runs >= 3 rounds."""
    hub = pd.DataFrame({"src": [0] * 60, "dst": range(100, 160)})
    pdf = gen.compose(
        hub,
        gen.clique_pandas(range(1, 7)),
        gen.chung_lu_pandas(80, 120, alpha=2.6, seed=4, offset=200),
    )
    g = edges_from_pandas(spark, pdf)
    kmax, verts, info = kmax_core_emcore(spark, g)
    want_k, want_v = nx_kmax_core(pdf)
    assert info["rounds"] >= 3
    assert kmax == want_k
    assert sorted(verts) == want_v


@pytest.mark.parametrize("pat", [triangle(), star(2), diamond()],
                         ids=["triangle", "2-star", "diamond"])
def test_coreapp_on_empty_graph(spark, pat):
    """No edges: CoreApp returns no vertex and density 0 for every
    pattern, including those ranked and enumerated on Spark (2-star,
    diamond), whose first round selects an empty W."""
    g = edges_from_pandas(spark, pd.DataFrame({"src": [], "dst": []}))
    r = core_app(spark, g, pat)
    assert (r.kmax, r.vertices, r.density) == (0, [], 0.0)
