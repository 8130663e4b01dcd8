"""Synthetic graph generators: determinism, canonicality, structure."""
from math import comb

import pandas as pd
import pytest

from repro.graph import generators as gen
from repro.graph.ops import edges_from_pandas


def _is_canonical(pdf: pd.DataFrame) -> bool:
    if len(pdf) == 0:
        return True
    ok_order = (pdf["src"] < pdf["dst"]).all()
    ok_dupes = not pdf.duplicated(["src", "dst"]).any()
    return bool(ok_order and ok_dupes)


def test_clique_pandas_counts():
    pdf = gen.clique_pandas(range(7))
    assert len(pdf) == comb(7, 2)
    assert _is_canonical(pdf)


def test_biclique_pandas():
    pdf = gen.biclique_pandas(range(3), range(10, 14))
    assert len(pdf) == 12
    assert _is_canonical(pdf)


@pytest.mark.parametrize("seed", [0, 7])
def test_er_deterministic_and_canonical(seed):
    a = gen.erdos_renyi_pandas(50, 0.1, seed=seed)
    b = gen.erdos_renyi_pandas(50, 0.1, seed=seed)
    pd.testing.assert_frame_equal(a, b)
    assert _is_canonical(a)


def test_er_edge_count_close():
    pdf = gen.erdos_renyi_pandas(200, 0.05, seed=1)
    expect = 0.05 * comb(200, 2)
    assert 0.8 * expect < len(pdf) < 1.2 * expect


def test_er_offset():
    pdf = gen.erdos_renyi_pandas(10, 0.5, seed=2, offset=100)
    assert pdf["src"].min() >= 100
    assert pdf["dst"].max() < 110


def test_chung_lu_size_and_canonical():
    pdf = gen.chung_lu_pandas(500, 1500, alpha=2.5, seed=3)
    assert len(pdf) == 1500
    assert _is_canonical(pdf)
    assert pdf["dst"].max() < 500


def test_chung_lu_power_law_skew():
    pdf = gen.chung_lu_pandas(2000, 6000, alpha=2.2, seed=4)
    deg = pd.concat([pdf["src"], pdf["dst"]]).value_counts()
    # hub-heavy: max degree far above mean
    assert deg.iloc[0] > 5 * deg.mean()


def test_chung_lu_deterministic():
    a = gen.chung_lu_pandas(300, 900, seed=5)
    b = gen.chung_lu_pandas(300, 900, seed=5)
    pd.testing.assert_frame_equal(a, b)


def test_rmat_canonical_and_size():
    pdf = gen.rmat_pandas(8, 500, seed=6)
    assert len(pdf) == 500
    assert _is_canonical(pdf)
    assert pdf["dst"].max() < 256


def test_rmat_skew():
    pdf = gen.rmat_pandas(10, 4000, seed=7)
    deg = pd.concat([pdf["src"], pdf["dst"]]).value_counts()
    assert deg.iloc[0] > 4 * deg.mean()


def test_ssca_contains_cliques():
    pdf = gen.ssca_pandas(200, 10, seed=8)
    assert _is_canonical(pdf)
    deg = pd.concat([pdf["src"], pdf["dst"]]).value_counts()
    # clique members have degree >= clique size - 1 occasionally ~9
    assert deg.max() >= 8


def test_compose_dedupes():
    a = gen.clique_pandas(range(4))
    b = gen.clique_pandas(range(2, 6))
    out = gen.compose(a, b)
    assert _is_canonical(out)
    assert len(out) == len(pd.concat([a, b]).drop_duplicates(["src", "dst"]))


def test_spark_wrappers(spark):
    """Generated frames reach Spark through ``edges_from_pandas``."""
    g = edges_from_pandas(spark, gen.erdos_renyi_pandas(30, 0.2, seed=9))
    pdf = g.toPandas()
    assert _is_canonical(pdf.sort_values(["src", "dst"]).reset_index(drop=True))
    g2 = edges_from_pandas(spark, gen.ssca_pandas(60, 6, seed=10))
    assert g2.count() > 0
