"""Named dataset stand-ins (Table 2 substitutions)."""

import pandas as pd
import pytest

from repro.graph import datasets as ds


def _is_canonical(pdf: pd.DataFrame) -> bool:
    return bool((pdf["src"] < pdf["dst"]).all() and not pdf.duplicated(["src", "dst"]).any())


def test_registry_complete():
    assert set(ds.names()) == set(
        ds.CASE_STUDY + ds.SMALL + ds.LARGE + ds.SYNTH
    )
    assert len(ds.names()) == 14


@pytest.mark.parametrize("name", ds.CASE_STUDY + ds.SMALL)
def test_small_datasets_canonical_and_sized(name):
    pdf = ds.dataset_pandas(name)
    assert _is_canonical(pdf)
    paper_n, paper_m = ds.paper_size(name)
    n = len(set(pdf["src"]) | set(pdf["dst"]))
    # small graphs target the paper's |V| (within the vertices that got edges)
    assert n <= paper_n
    assert n > 0.5 * paper_n
    assert 0.7 * paper_m < len(pdf) < 1.3 * paper_m


@pytest.mark.parametrize("name", ds.LARGE + ds.SYNTH)
def test_scaled_datasets_exist(name):
    pdf = ds.dataset_pandas(name)
    assert _is_canonical(pdf)
    assert len(pdf) > 5000  # scaled but non-trivial


def test_deterministic():
    a = ds.dataset_pandas("yeast")
    b = ds.dataset_pandas("yeast")
    pd.testing.assert_frame_equal(a, b)


def _has_clique(pdf, verts):
    es = set(zip(pdf["src"], pdf["dst"]))
    vs = sorted(verts)
    return all((vs[i], vs[j]) in es for i in range(len(vs)) for j in range(i + 1, len(vs)))


def test_s_dblp_embeds_k13():
    pdf = ds.dataset_pandas("s_dblp")
    assert _has_clique(pdf, range(13))


def test_netscience_embeds_k20():
    pdf = ds.dataset_pandas("netscience")
    assert _has_clique(pdf, range(20))


def test_ca_hepth_embeds_k18():
    pdf = ds.dataset_pandas("ca_hepth")
    assert _has_clique(pdf, range(18))


def test_yeast_embeds_triangle_free_biclique():
    pdf = ds.dataset_pandas("yeast")
    es = set(zip(pdf["src"], pdf["dst"]))
    for a in range(800, 809):
        for b in range(809, 818):
            assert (a, b) in es
    # the biclique must stay (near-)triangle-free: no internal extra edges
    side = set(range(800, 809))
    inside = [e for e in es if e[0] in side and e[1] in side]
    assert not inside


def test_notes_and_sizes_accessible():
    for name in ds.names():
        assert isinstance(ds.note(name), str)
        n, m = ds.paper_size(name)
        assert n > 0 and m > 0


def test_spark_roundtrip(spark):
    g = ds.dataset(spark, "s_dblp")
    assert g.count() == len(ds.dataset_pandas("s_dblp"))
