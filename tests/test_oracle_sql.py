"""DuckDB-oracle checks of Spark dataflow and collected results (beyond
test_cliques)."""
import numpy as np
import pandas as pd
import pytest

from repro.graph import generators as gen
from repro.graph.ops import edge_array, edges_from_pandas
from repro.oracle import assert_equivalent
from repro.patterns import star, two_triangle
from tests.test_patterns import count_instances, list_instances, member_degrees


@pytest.fixture(scope="module")
def rand(spark):
    pdf = gen.erdos_renyi_pandas(30, 0.2, seed=21)
    return edges_from_pandas(spark, pdf), pdf


def test_two_star_count_oracle(spark, rand):
    """#2-stars = sum over v of C(deg(v), 2), checked in SQL."""
    g, pdf = rand
    got = spark.createDataFrame(pd.DataFrame({"n_star": [count_instances(spark, g, star(2))]}))
    sql = """
        SELECT CAST(SUM(deg * (deg - 1) / 2) AS BIGINT) AS n_star FROM (
          SELECT COUNT(*) AS deg FROM (
            SELECT src AS v FROM e UNION ALL SELECT dst AS v FROM e
          ) GROUP BY v
        )
    """
    assert_equivalent(got, sql, e=pdf)


def test_two_star_degree_oracle(spark, rand):
    """2-star degree of v = C(deg(v),2) + sum_{u ~ v} (deg(u) - 1)."""
    g, pdf = rand
    deg = member_degrees(list_instances(spark, g, star(2)))
    got = spark.createDataFrame(pd.DataFrame({"v": list(deg), "cdeg": list(deg.values())}))
    sql = """
        WITH sym AS (
          SELECT src AS u, dst AS v FROM e
          UNION ALL SELECT dst AS u, src AS v FROM e
        ), deg AS (SELECT u AS v, COUNT(*) AS d FROM sym GROUP BY u)
        SELECT d1.v,
               CAST(d1.d * (d1.d - 1) / 2
                    + (SELECT COALESCE(SUM(d2.d - 1), 0)
                       FROM sym s JOIN deg d2 ON s.v = d2.v
                       WHERE s.u = d1.v) AS BIGINT) AS cdeg
        FROM deg d1
        WHERE d1.d >= 2 OR (SELECT COALESCE(SUM(d2.d - 1), 0)
                            FROM sym s JOIN deg d2 ON s.v = d2.v
                            WHERE s.u = d1.v) > 0
    """
    assert_equivalent(got, sql, e=pdf)


def test_k4_minus_e_count_oracle(spark, rand):
    """2-triangle count via SQL: per edge, C(#common neighbours, 2)."""
    g, pdf = rand
    got = spark.createDataFrame(
        pd.DataFrame({"n_tt": [count_instances(spark, g, two_triangle())]})
    )
    sql = """
        WITH sym AS (
          SELECT src AS u, dst AS v FROM e
          UNION ALL SELECT dst AS u, src AS v FROM e
        ), cn AS (
          SELECT e.src, e.dst, COUNT(*) AS c
          FROM e JOIN sym s1 ON s1.u = e.src JOIN sym s2
            ON s2.u = e.dst AND s2.v = s1.v
          GROUP BY e.src, e.dst
        )
        SELECT CAST(COALESCE(SUM(c * (c - 1) / 2), 0) AS BIGINT) AS n_tt FROM cn
    """
    assert_equivalent(got, sql, e=pdf)


def test_oracle_catches_wrong_result(spark, rand):
    """An off-by-one degree table must not pass as equivalent."""
    g, pdf = rand
    vs, deg = np.unique(edge_array(g), return_counts=True)
    wrong = spark.createDataFrame(pd.DataFrame({"v": vs, "deg": deg + 1}))
    sql = """
        SELECT v, COUNT(*) AS deg FROM (
          SELECT src AS v FROM e UNION ALL SELECT dst AS v FROM e
        ) GROUP BY v
    """
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, sql, e=pdf)
