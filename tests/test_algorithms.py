"""Properties every densest-subgraph algorithm shares: one phase key set,
and one answer on degenerate input."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

from repro.cores.coreapp import kmax_core_coreapp
from repro.cores.emcore import kmax_core_emcore
from repro.densest.common import exact_density, gather
from repro.densest.core_exact import core_exact
from repro.densest.coreapp_dsd import core_app
from repro.densest.exact import exact_densest
from repro.densest.incapp import inc_app
from repro.densest.nucleus import nucleus_app
from repro.densest.peel import peel_app
from repro.graph import generators as gen
from repro.graph.ops import edges_from_pandas
from repro.patterns import diamond, edge, star, triangle
from tests.test_patterns import brute_pattern_instances

ALGORITHMS = {
    "exact": exact_densest,
    "core_exact": core_exact,
    "peel_app": peel_app,
    "inc_app": inc_app,
    "core_app": core_app,
    "nucleus": nucleus_app,
}
EXACT = ("exact", "core_exact")
KEYS = {"enumerate", "decompose", "locate", "build", "flow", "total"}


def _timings(name, spark, g):
    if name == "kmax_core_coreapp":
        return kmax_core_coreapp(spark, g, edge())[2]["timings"]
    if name == "kmax_core_emcore":
        return kmax_core_emcore(spark, g)[2]["timings"]
    return ALGORITHMS[name](spark, g, triangle()).timings


@pytest.mark.parametrize("name", [*ALGORITHMS, "kmax_core_coreapp", "kmax_core_emcore"])
def test_timings_have_one_key_set(spark, name):
    """Every algorithm reports the same phases; they do not overlap and
    together cover at least 95% of the call."""
    g = edges_from_pandas(spark, gen.erdos_renyi_pandas(15, 0.3, seed=2))
    t = _timings(name, spark, g)
    assert set(t) == KEYS
    phases = sum(v for k, v in t.items() if k != "total")
    assert 0.95 * t["total"] <= phases <= t["total"]


B = 2 ** 62
DEGENERATE = {
    "empty": pd.DataFrame({"src": [], "dst": []}),
    "one-edge": pd.DataFrame({"src": [9], "dst": [4]}),
    # normalizes to the path 1-2-3: vertex 0 has only a self-loop
    "loops-and-duplicates": pd.DataFrame(
        {"src": [0, 1, 2, 1, 3, 3], "dst": [0, 2, 1, 2, 2, 3]}),
    # K4 plus a pendant vertex at the largest int64
    "ids-above-2^62": pd.DataFrame(
        {"src": [B + 7, B + 7, B + 7, B + 1, B + 1, B + 5, B + 5],
         "dst": [B + 1, B + 5, B + 3, B + 5, B + 3, B + 3, 2 ** 63 - 1]}),
}
PATTERNS = [edge(), triangle(), star(2), diamond()]


def _oracle(pdf: pd.DataFrame, pattern):
    """(vertices, member matrix, optimal density) of the simple graph that
    ``pdf`` normalizes to, by brute force over every vertex subset."""
    es = {tuple(sorted(e)) for e in zip(pdf["src"].tolist(), pdf["dst"].tolist())
          if e[0] != e[1]}
    simple = pd.DataFrame(sorted(es), columns=["src", "dst"])
    allv = sorted({v for e in es for v in e})
    members = np.array(
        [sorted({v for e in inst for v in e})
         for inst in brute_pattern_instances(simple, pattern)],
        dtype=np.int64,
    ).reshape(-1, pattern.nv)
    opt = max((exact_density(members, s) for k in range(1, len(allv) + 1)
               for s in combinations(allv, k)), default=0)
    return allv, members, opt


@pytest.fixture(scope="module")
def degenerate_graphs(spark):
    """Each degenerate input normalized once, so its cells share the rows."""
    return {name: edges_from_pandas(spark, pdf).localCheckpoint(eager=True)
            for name, pdf in DEGENERATE.items()}


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("pat", PATTERNS, ids=[p.name for p in PATTERNS])
@pytest.mark.parametrize("graph", DEGENERATE)
def test_degenerate_input(spark, degenerate_graphs, graph, pat, algo):
    """An empty graph gives the empty set; a graph with no instance of Psi
    gives its smallest id with density 0; otherwise the density is the
    returned set's recount, optimal for the exact algorithms and within
    1/|V_Psi| of optimal for the approximations."""
    allv, members, opt = _oracle(DEGENERATE[graph], pat)
    r = ALGORITHMS[algo](spark, degenerate_graphs[graph], pat)
    if not allv:
        assert (r.vertices, r.density) == ([], 0.0)
    elif not len(members):
        assert (r.vertices, r.density) == ([allv[0]], 0.0)
    else:
        assert r.density == float(exact_density(members, r.vertices))
        if algo in EXACT:
            assert r.density == float(opt)
        else:
            assert opt / pat.nv <= r.density <= opt


@pytest.mark.parametrize("pat", [triangle(), star(2)], ids=["triangle", "2-star"])
def test_gather_lists_nothing_on_an_empty_graph(spark, degenerate_graphs, monkeypatch, pat):
    """An empty edge array has no instance of Psi: ``gather`` answers from
    it and starts no Spark listing."""
    def no_listing(*args, **kwargs):
        raise AssertionError("pattern_instances called on an empty graph")

    monkeypatch.setattr("repro.densest.common.pattern_instances", no_listing)
    allv, members = gather(spark, degenerate_graphs["empty"], pat)
    assert allv == []
    assert members.shape == (0, pat.nv) and members.dtype == np.int64


@pytest.mark.parametrize("pat", [star(2), diamond()], ids=["2-star", "diamond"])
def test_coreapp_lists_nothing_on_an_empty_graph(spark, degenerate_graphs, monkeypatch, pat):
    """CoreApp takes a non-clique Psi's member matrix from ``gather``, so
    on an empty graph it starts no Spark listing either."""
    def no_listing(*args, **kwargs):
        raise AssertionError("pattern_instances called on an empty graph")

    for site in ("repro.densest.common", "repro.cores.coreapp"):
        monkeypatch.setattr(f"{site}.pattern_instances", no_listing)
    r = core_app(spark, degenerate_graphs["empty"], pat)
    assert (r.vertices, r.density) == ([], 0.0)

