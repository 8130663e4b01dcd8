"""Properties every densest-subgraph algorithm shares: one signature, one
phase key set, the same basic stats, one answer on degenerate input, and
vertex sets handed out as sorted lists of Python ints."""
import inspect
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


@pytest.mark.parametrize("name", [a for a in ALGORITHMS if a != "core_app"])
def test_stats_have_n_and_instances(spark, seeded_graph, name):
    """Every algorithm that gathers the member matrix reports the vertex
    and instance counts of the problem it solved."""
    allv, members = gather(spark, seeded_graph, triangle())
    st = ALGORITHMS[name](spark, seeded_graph, triangle()).stats
    assert members.shape[0] > 0
    assert (st["n"], st["instances"]) == (len(allv), members.shape[0])


def test_entry_points_take_spark_edges_pattern():
    """Every DSD entry point takes exactly (spark, edges, pattern): a variant
    of an algorithm is not a switch on it. CoreApp's initial |W| (``w0``),
    which its multi-round tests set, is the one exception."""
    for name, algo in ALGORITHMS.items():
        want = ["spark", "edges", "pattern"] + (["w0"] if name == "core_app" else [])
        assert list(inspect.signature(algo).parameters) == want, name


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


def _sorted_ints(vertices) -> bool:
    """``vertices`` is a sorted list of Python ints, the format every vertex
    set leaves the program in (id arrays run inside)."""
    return (type(vertices) is list and all(type(v) is int for v in vertices)
            and vertices == sorted(vertices))


@pytest.fixture(scope="module")
def degenerate_graphs(spark):
    """Each degenerate input normalized once, so its cells share the rows."""
    return {name: edges_from_pandas(spark, pdf).localCheckpoint(eager=True)
            for name, pdf in DEGENERATE.items()}


@pytest.fixture(scope="module")
def seeded_graph(spark):
    return edges_from_pandas(spark, gen.erdos_renyi_pandas(15, 0.3, seed=2))


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
    assert _sorted_ints(r.vertices)
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


def test_algorithms_return_sorted_int_lists(spark, seeded_graph):
    """On a graph with instances of every Psi, each algorithm's vertex set
    is a sorted list of Python ints (the degenerate matrix checks the rest)."""
    for pat in PATTERNS:
        for name, algo in ALGORITHMS.items():
            r = algo(spark, seeded_graph, pat)
            assert r.density > 0 and _sorted_ints(r.vertices), (pat.name, name)


@pytest.mark.parametrize("graph", [*DEGENERATE, "seeded"])
def test_kmax_core_finders_return_sorted_int_lists(spark, degenerate_graphs, seeded_graph,
                                                   graph):
    """The (k_max, Psi)-core that CoreApp and EMcore return is a sorted list
    of Python ints, CoreApp's for a clique and a non-clique Psi."""
    g = seeded_graph if graph == "seeded" else degenerate_graphs[graph]
    for pat in (triangle(), star(2)):
        assert _sorted_ints(kmax_core_coreapp(spark, g, pat)[1]), pat.name
    assert _sorted_ints(kmax_core_emcore(spark, g)[1])


@pytest.mark.parametrize("pat", [triangle(), star(2)], ids=["triangle", "2-star"])
def test_gather_lists_nothing_on_an_empty_graph(spark, degenerate_graphs, monkeypatch, pat):
    """An empty edge array has no instance of Psi: ``gather`` answers from
    it and starts no Spark listing."""
    def no_listing(*args, **kwargs):
        raise AssertionError("pattern_instances called on an empty graph")

    monkeypatch.setattr("repro.densest.common.pattern_instances", no_listing)
    allv, members = gather(spark, degenerate_graphs["empty"], pat)
    assert allv.shape == (0,) and allv.dtype == np.int64
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

