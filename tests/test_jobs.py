"""Integration: every table job runs end-to-end at tiny scale."""

from jobs import table2_datasets, table3_decomp_pct, table4_emcore_coreapp, table5_densities
from repro.patterns import clique


def test_table2_small_subset(spark):
    df = table2_datasets.run(spark, names=["s_dblp", "yeast"], triangle_stats=True)
    assert list(df["dataset"]) == ["s_dblp", "yeast"]
    for col in ("vertices", "edges", "paper_vertices", "n_cc", "kmax_classical",
                "kmax_triangle", "tri_core_size"):
        assert col in df.columns
    assert (df["vertices"] > 0).all()


def test_table2_large_skips_triangle_stats(spark):
    df = table2_datasets.run(spark, names=["dblp_s"], triangle_stats=True)
    assert "kmax_triangle" not in df.columns or df["kmax_triangle"].isna().all()


def test_table3_tiny(spark):
    df = table3_decomp_pct.run(spark, names=["as733"], hs=(2, 3), run_exact=False)
    assert len(df) == 2
    assert ((df["decomp_pct"] >= 0) & (df["decomp_pct"] <= 100)).all()
    assert (df["total_s"] > 0).all()
    assert (df["located_vertices"] >= df["components"]).all()


def test_table4_one_dataset(spark):
    df = table4_emcore_coreapp.run(spark, names=["dblp_s"])
    assert len(df) == 1
    r = df.iloc[0]
    assert r["kmax"] > 0 and r["core_size"] > 0
    assert r["emcore_s"] > 0 and r["coreapp_s"] > 0


def test_table5_tiny(spark):
    df = table5_densities.run(
        spark, names=["s_dblp"], patterns=(clique(2), clique(3)), with_approx=True
    )
    assert len(df) == 2
    # rho_opt always dominates the EDS's density for the same pattern
    assert (df["rho_opt"] >= df["rho_eds"] - 1e-9).all()
    assert ((df["peel_ratio"] <= 1 + 1e-9) & (df["peel_ratio"] > 0)).all()
    assert ((df["coreapp_ratio"] <= 1 + 1e-9) & (df["coreapp_ratio"] > 0)).all()


def test_table5_s_dblp_k13_row(spark):
    """The S-DBLP stand-in embeds K13 — the paper's exact CDS values."""
    df = table5_densities.run(
        spark, names=["s_dblp"], patterns=(clique(2), clique(3)), with_approx=False
    )
    edge_row = df[df["pattern"] == "edge"].iloc[0]
    tri_row = df[df["pattern"] == "triangle"].iloc[0]
    assert edge_row["rho_opt"] >= 6.0 - 1e-9  # paper: 6 (K13)
    assert tri_row["rho_opt"] >= 22.0 - 1e-9  # paper: 22 (K13)
