"""Pattern enumeration: closed forms, brute-force cross-check, dedup."""
from itertools import combinations, permutations
from math import comb

import numpy as np
import pandas as pd
import pytest

from repro.graph import generators as gen
from repro.graph.ops import edge_array, edges_from_pandas
from repro.patterns import (
    Pattern,
    c3_star,
    clique,
    diamond,
    edge,
    generic,
    star,
    triangle,
    two_triangle,
)
from repro.patterns.instances import (
    diamond_members,
    pattern_instances,
    star_members,
    two_triangle_members,
)


def list_instances(spark, g, pattern: Pattern) -> np.ndarray:
    """The member matrix of ``pattern`` in g."""
    return pattern_instances(spark, edge_array(g), pattern)


def count_instances(spark, g, pattern: Pattern) -> int:
    return list_instances(spark, g, pattern).shape[0]


def member_degrees(members: np.ndarray) -> dict:
    """deg(v, Psi): the number of member-matrix rows that hold v."""
    vs, inv = np.unique(members, return_inverse=True)
    return dict(zip(vs.tolist(), np.bincount(inv.ravel()).tolist()))


def brute_pattern_instances(pdf: pd.DataFrame, pattern: Pattern):
    """All distinct edge-subgraphs isomorphic to the pattern."""
    es = set(map(frozenset, zip(pdf["src"], pdf["dst"])))
    vs = sorted(set(pdf["src"]) | set(pdf["dst"]))
    seen = set()
    for sub in combinations(vs, pattern.nv):
        for perm in permutations(sub):
            inst_edges = frozenset(
                frozenset((perm[a], perm[b])) for a, b in pattern.pattern_edges
            )
            if len(inst_edges) == pattern.ne and inst_edges <= es:
                seen.add(inst_edges)
    return seen


def brute_pattern_degrees(pdf, pattern):
    out = {}
    for inst in brute_pattern_instances(pdf, pattern):
        for v in {v for e in inst for v in e}:
            out[v] = out.get(v, 0) + 1
    return out


@pytest.fixture(scope="module")
def k6(spark):
    pdf = gen.clique_pandas(range(6))
    return edges_from_pandas(spark, pdf), pdf


@pytest.fixture(scope="module")
def rand_graph(spark):
    pdf = gen.erdos_renyi_pandas(14, 0.4, seed=5)
    return edges_from_pandas(spark, pdf), pdf


# --- closed forms on K_n ----------------------------------------------------


def test_star2_on_kn(spark, k6):
    g, _ = k6
    assert count_instances(spark, g, star(2)) == 6 * comb(5, 2)


def test_star3_on_kn(spark, k6):
    g, _ = k6
    assert count_instances(spark, g, star(3)) == 6 * comb(5, 3)


def test_c3_star_same_as_star3(spark, k6):
    g, _ = k6
    assert count_instances(spark, g, c3_star()) == count_instances(spark, g, star(3))


def test_diamond_on_kn(spark, k6):
    # C4 count in K_n = 3 * C(n, 4)
    g, _ = k6
    assert count_instances(spark, g, diamond()) == 3 * comb(6, 4)


def test_two_triangle_on_kn(spark, k6):
    # K4-e count in K_n = 6 * C(n, 4) (choose 4 vertices, drop one of 6 edges)
    g, _ = k6
    assert count_instances(spark, g, two_triangle()) == 6 * comb(6, 4)


def test_diamond_on_c4_and_c5(spark):
    c4 = edges_from_pandas(
        spark, pd.DataFrame({"src": [0, 1, 2, 0], "dst": [1, 2, 3, 3]})
    )
    assert count_instances(spark, c4, diamond()) == 1
    c5 = edges_from_pandas(
        spark, pd.DataFrame({"src": [0, 1, 2, 3, 0], "dst": [1, 2, 3, 4, 4]})
    )
    assert count_instances(spark, c5, diamond()) == 0


def test_two_triangle_on_k4(spark):
    g = edges_from_pandas(spark, gen.clique_pandas(range(4)))
    assert count_instances(spark, g, two_triangle()) == 6


def test_star_on_actual_star(spark):
    g = edges_from_pandas(spark, gen.biclique_pandas([0], range(1, 8)))
    assert count_instances(spark, g, star(3)) == comb(7, 3)
    assert count_instances(spark, g, triangle()) == 0


# --- brute-force cross-checks ----------------------------------------------

PATTERNS = [
    edge(),
    triangle(),
    clique(4),
    star(2),
    star(3),
    diamond(),
    two_triangle(),
]


# The array listers also run on the graph with ids shifted past 2^40: they
# key edges in rank space, so the raw ids never enter an int64 product.
PATTERN_CASES = [pytest.param(p, 0, id=p.name) for p in PATTERNS] + [
    pytest.param(p, 1 << 40, id=f"{p.name}-shifted")
    for p in (star(2), star(3), diamond(), two_triangle())
]


@pytest.mark.parametrize("pat,offset", PATTERN_CASES)
def test_counts_vs_bruteforce(spark, rand_graph, pat, offset):
    _, pdf = rand_graph
    g = edges_from_pandas(spark, pdf + offset)
    assert count_instances(spark, g, pat) == len(brute_pattern_instances(pdf, pat))


ARRAY_LISTERS = {
    "2-star": (lambda e: star_members(e, 2), 3),
    "3-star": (lambda e: star_members(e, 3), 4),
    "diamond": (diamond_members, 4),
    "2-triangle": (two_triangle_members, 4),
}


@pytest.mark.parametrize("name", list(ARRAY_LISTERS))
def test_array_lister_of_empty_edge_array(name):
    lister, p = ARRAY_LISTERS[name]
    got = lister(np.empty((0, 2), dtype=np.int64))
    assert got.shape == (0, p) and got.dtype == np.int64


@pytest.mark.parametrize(
    "pat",
    [star(2), diamond(), two_triangle()],
    ids=["2-star", "diamond", "2-triangle"],
)
def test_degrees_vs_bruteforce(spark, rand_graph, pat):
    g, pdf = rand_graph
    assert member_degrees(list_instances(spark, g, pat)) == brute_pattern_degrees(pdf, pat)


GENERICS = [
    generic("path3", 3, [(0, 1), (1, 2)]),
    generic("path4", 4, [(0, 1), (1, 2), (2, 3)]),
    generic("c4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    generic("claw", 4, [(0, 1), (0, 2), (0, 3)]),
    generic("k4_minus_e", 4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
    generic("paw", 4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
]


# Each pattern also runs on the graph with ids shifted past 2^31, where the
# endpoint products of a 64-bit edge key would overflow.
GENERIC_CASES = [
    pytest.param(p, off, id=p.name if off == 0 else f"{p.name}-shifted")
    for p in GENERICS
    for off in (0, 1 << 31)
]


@pytest.mark.parametrize("pat,offset", GENERIC_CASES)
def test_generic_matcher_vs_bruteforce(spark, rand_graph, pat, offset):
    _, pdf = rand_graph
    g = edges_from_pandas(spark, pdf + offset)
    assert count_instances(spark, g, pat) == len(brute_pattern_instances(pdf, pat))


def test_generic_matches_specialized(spark, rand_graph):
    g, _ = rand_graph
    pairs = [
        (generic("c4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]), diamond()),
        (generic("s2", 3, [(0, 1), (0, 2)]), star(2)),
        (
            generic("k4e", 4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
            two_triangle(),
        ),
    ]
    for gpat, spat in pairs:
        got, want = (sorted(map(tuple, np.sort(list_instances(spark, g, p), axis=1).tolist()))
                     for p in (gpat, spat))
        assert len(got) > 0 and got == want, gpat.name


def test_specialised_rows_unique(spark, rand_graph):
    """The specialised listers (the Spark clique plan and the star, C4 and
    K4-e array listers) build each instance once, in a canonical member
    order, so no two rows are equal as ordered tuples."""
    g, _ = rand_graph
    for pat in (triangle(), star(2), star(3), diamond(), two_triangle()):
        members = list_instances(spark, g, pat)
        assert len(members) > 0
        assert len(set(map(tuple, members.tolist()))) == len(members), pat.name


def test_generic_rows_may_share_a_vertex_set(spark):
    """The generic matcher dedupes on the edge set, not on its sorted
    member row: K4's three C4s are three instances with one vertex set."""
    pdf = gen.clique_pandas(range(4))
    c4 = generic("c4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    members = list_instances(spark, edges_from_pandas(spark, pdf), c4)
    assert len(members) == len(brute_pattern_instances(pdf, c4)) == 3
    assert {tuple(r) for r in members.tolist()} == {(0, 1, 2, 3)}


FORMAT_PATTERNS = [
    edge(),
    triangle(),
    clique(5),
    star(2),
    c3_star(),
    diamond(),
    two_triangle(),
    generic("paw", 4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
]


@pytest.mark.parametrize("pat", FORMAT_PATTERNS, ids=[p.name for p in FORMAT_PATTERNS])
def test_instance_frame_is_member_columns(spark, k6, pat):
    """Every Psi's instances come back as the (count, p) int64 member
    matrix: one row per instance, one column per member."""
    g, pdf = k6
    members = pattern_instances(spark, edge_array(g), pat)
    assert isinstance(members, np.ndarray) and members.dtype == np.int64
    assert members.shape == (len(brute_pattern_instances(pdf, pat)), pat.nv)


def test_pattern_validation():
    with pytest.raises(ValueError):
        generic("bad", 3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        generic("oob", 2, [(0, 2)])
    with pytest.raises(ValueError):
        generic("two_edges", 4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        generic("iso", 3, [(0, 1)])
    with pytest.raises(ValueError):
        generic("no_edge", 1, [])
    with pytest.raises(ValueError):
        clique(1)
    with pytest.raises(ValueError):
        star(1)


def test_pattern_props():
    assert clique(2).name == "edge"
    assert clique(3).name == "triangle"
    assert clique(5).name == "5-clique"
    assert star(2).nv == 3
    assert diamond().ne == 4
    assert two_triangle().ne == 5
    assert str(triangle()) == "triangle"
