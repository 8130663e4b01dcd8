"""Synthetic graph generators (deterministic in ``seed``).

All generators return a canonical pandas edge frame (src < dst, simple);
``repro.graph.ops.edges_from_pandas`` turns one into a Spark edge
DataFrame. Staying in pandas lets the named dataset stand-ins
(``datasets.py``) compose pieces (power-law background + embedded dense
blobs) before a single ``createDataFrame`` call — generation is not the
system under test, the Spark algorithms are.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _canon(src: np.ndarray, dst: np.ndarray) -> pd.DataFrame:
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    pdf = pd.DataFrame({"src": lo[keep], "dst": hi[keep]})
    return pdf.drop_duplicates(ignore_index=True)


def clique_pandas(vertices) -> pd.DataFrame:
    """All C(n,2) edges among ``vertices``."""
    vs = np.asarray(sorted(vertices), dtype=np.int64)
    i, j = np.triu_indices(len(vs), k=1)
    return pd.DataFrame({"src": vs[i], "dst": vs[j]})


def biclique_pandas(left, right) -> pd.DataFrame:
    """Complete bipartite edges between two disjoint vertex sets."""
    ls = np.asarray(sorted(left), dtype=np.int64)
    rs = np.asarray(sorted(right), dtype=np.int64)
    src = np.repeat(ls, len(rs))
    dst = np.tile(rs, len(ls))
    return _canon(src, dst)


def erdos_renyi_pandas(n: int, p: float, seed: int = 0, offset: int = 0) -> pd.DataFrame:
    """G(n, p) on vertices offset..offset+n-1 via binomial edge sampling."""
    g = np.random.default_rng(seed)
    i, j = np.triu_indices(n, k=1)
    mask = g.random(len(i)) < p
    return pd.DataFrame(
        {"src": i[mask].astype(np.int64) + offset, "dst": j[mask].astype(np.int64) + offset}
    )


def chung_lu_pandas(
    n: int, m: int, alpha: float = 2.5, seed: int = 0, offset: int = 0
) -> pd.DataFrame:
    """Power-law graph: endpoints sampled with weight rank^(-1/(alpha-1)).

    Produces approximately ``m`` distinct edges with a degree tail
    P(deg > d) ~ d^(1-alpha). Oversamples then dedupes; may fall a few
    edges short on tiny dense configurations (callers top up if they
    need an exact m).
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / max(alpha - 1.0, 0.1))
    w /= w.sum()
    got = pd.DataFrame({"src": [], "dst": []}, dtype=np.int64)
    want = m
    for _ in range(8):
        k = int((want - len(got)) * 2.2) + 16
        src = g.choice(n, size=k, p=w).astype(np.int64)
        dst = g.choice(n, size=k, p=w).astype(np.int64)
        got = pd.concat([got, _canon(src, dst)]).drop_duplicates(ignore_index=True)
        if len(got) >= want:
            break
    got = got.iloc[:want].reset_index(drop=True)
    got["src"] += offset
    got["dst"] += offset
    return got


def rmat_pandas(
    n_log2: int,
    m: int,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    offset: int = 0,
) -> pd.DataFrame:
    """R-MAT recursive quadrant sampling on 2^n_log2 vertices, ~m edges."""
    g = np.random.default_rng(seed)
    want = m
    got = pd.DataFrame({"src": [], "dst": []}, dtype=np.int64)
    for _ in range(8):
        k = int((want - len(got)) * 1.6) + 16
        src = np.zeros(k, dtype=np.int64)
        dst = np.zeros(k, dtype=np.int64)
        for _bit in range(n_log2):
            r = g.random(k)
            src = src * 2 + ((r >= a + b) & (r < a + b + c)) + (r >= a + b + c)
            dst = dst * 2 + ((r >= a) & (r < a + b)) + (r >= a + b + c)
        got = pd.concat([got, _canon(src, dst)]).drop_duplicates(ignore_index=True)
        if len(got) >= want:
            break
    got = got.iloc[:want].reset_index(drop=True)
    got["src"] += offset
    got["dst"] += offset
    return got


def ssca_pandas(n: int, max_clique: int, seed: int = 0, offset: int = 0) -> pd.DataFrame:
    """SSCA#2-style graph: a union of random-sized cliques over n vertices.

    GTgraph's SSCA generator assigns vertices to cliques of size
    uniform in [1, max_clique] and adds inter-clique edges sparsely;
    we reproduce the clique-union structure plus a light random overlay.
    """
    g = np.random.default_rng(seed)
    frames = []
    v = 0
    while v < n:
        size = int(g.integers(1, max_clique + 1))
        size = min(size, n - v)
        if size >= 2:
            frames.append(clique_pandas(range(offset + v, offset + v + size)))
        v += size
    # sparse overlay connecting cliques (~0.2 * n extra edges)
    k = max(1, n // 5)
    src = g.integers(0, n, k).astype(np.int64) + offset
    dst = g.integers(0, n, k).astype(np.int64) + offset
    frames.append(_canon(src, dst))
    return pd.concat(frames).drop_duplicates(ignore_index=True)


def compose(*frames: pd.DataFrame) -> pd.DataFrame:
    """Union edge frames into one canonical simple edge list."""
    pdf = pd.concat(frames, ignore_index=True)
    return _canon(pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64))

