"""Near-dup cluster resolution + the round-4 text-curation additions.

Pins the properties the driver-parity test (test_entry_oracle) cannot:
the LOCAL and DISTRIBUTED connected-components tiers return identical
clusters for every cluster entry, clusters are consistent with the pair graph they came from,
keep-one survivors are exactly corpus − non-canonical members, and the
repetition/top-ngram kernels handle degenerate docs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from miru_ray.pipelines import dedup
from miru_ray.pipelines.dedup import (_CL_CACHE, _cc_local, dedup_clusters,
                                      dedup_keep_one, ngram_jaccard_pairs)
from miru_ray.pipelines.textstats import repetition_scores, top_ngrams

SF = "/root/testdata/sf0.01"


def test_cc_local_known_graph():
    # components: {1,2,3,9} (chain), {5,7}, isolated pairs only — labels
    # are the component minimum
    a = np.array([2, 3, 9, 5], dtype=np.int64)
    b = np.array([1, 2, 3, 7], dtype=np.int64)
    nodes, lab = _cc_local(a, b)
    got = dict(zip(nodes.tolist(), lab.tolist()))
    assert got == {1: 1, 2: 1, 3: 1, 9: 1, 5: 5, 7: 5}


def test_cc_local_long_chain_converges():
    # pointer jumping must converge on a worst-case path graph
    n = 1000
    a = np.arange(1, n, dtype=np.int64)
    b = np.arange(0, n - 1, dtype=np.int64)
    nodes, lab = _cc_local(a, b)
    assert (lab == 0).all() and len(nodes) == n


def _no_local_tier(a, b):
    raise AssertionError("the local CC tier ran past the edge bound")


@pytest.mark.parametrize("entry", ["dedup_clusters", "minhash_dedup_clusters",
                                   "embedding_dedup_clusters"])
def test_distributed_tier_equals_local(entry, monkeypatch, ray_session):
    # every cluster entry goes through the one resolver: with the edge
    # bound at 0 its distributed tier runs (the local solver must not)
    # and the labels equal the local tier's
    from miru_ray.pipelines import ann
    fn = getattr(ann if entry.startswith("embedding") else dedup, entry)
    _CL_CACHE.clear()
    local = fn(SF).to_pandas()
    _CL_CACHE.clear()
    monkeypatch.setattr(dedup, "_LOCAL_CC_EDGES", 0)
    monkeypatch.setattr(dedup, "_cc_local", _no_local_tier)
    dist = fn(SF).to_pandas()
    _CL_CACHE.clear()
    pd.testing.assert_frame_equal(local, dist)
    assert len(local) > 0          # the fixture corpus has near-dups


def test_clusters_consistent_with_pairs(ray_session):
    pairs = ngram_jaccard_pairs(SF).to_pandas()
    cl = dedup_clusters(SF).to_pandas()
    lab = dict(zip(cl["doc_id"], cl["cluster_id"]))
    # every paired doc is clustered, both endpoints share a label
    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        assert lab[a] == lab[b]
    # every cluster node appears in some pair, label = component min
    nodes = set(pairs["doc_a"]) | set(pairs["doc_b"])
    assert set(cl["doc_id"]) == nodes
    for comp in cl.groupby("cluster_id")["doc_id"]:
        assert comp[0] == comp[1].min()
        assert len(comp[1]) >= 2


def test_keep_one_is_corpus_minus_losers(ray_session):
    import pyarrow.parquet as pq
    cl = dedup_clusters(SF).to_pandas()
    losers = set(cl.loc[cl["doc_id"] != cl["cluster_id"], "doc_id"])
    all_ids = set(pq.read_table(f"{SF}/documents.parquet",
                                columns=["doc_id"])["doc_id"].to_pylist())
    got = dedup_keep_one(SF).to_pandas()
    assert set(got["doc_id"]) == all_ids - losers
    assert got["doc_id"].is_monotonic_increasing


def test_cc_msgs_empty_pairs(ray_session):
    # a corpus with no near-dups must produce an empty (doc_id,
    # cluster_id) table through BOTH tiers, not crash
    import ray

    empty = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
        "jaccard": pa.array([], pa.float64())}))
    out = dedup._cc_distributed(empty.materialize())
    assert out.count() == 0


@pytest.mark.parametrize("text,top,dup", [
    ("", 0.0, 0.0),                     # no tokens
    ("word", 1.0, 0.0),                 # one token, no bigrams
    ("a a a a", 1.0, 2 / 3),            # 3 bigram slots, 1 distinct
    ("a b a b a", 3 / 5, 2 / 4),        # ababa: 3 a's; 4 bigrams, 2 distinct
])
def test_repetition_kernel_edges(tmp_path, ray_session, text, top, dup):
    import pyarrow.parquet as pq
    pq.write_table(pa.table({"doc_id": pa.array([0], pa.int64()),
                             "text": pa.array([text], pa.string())}),
                   tmp_path / "documents.parquet")
    got = repetition_scores(str(tmp_path)).to_pandas()
    assert got["top_token_frac"][0] == pytest.approx(round(top, 6))
    assert got["dup_bigram_frac"][0] == pytest.approx(round(dup, 6))


def test_top_ngrams_ties_and_k(tmp_path, ray_session):
    import pyarrow.parquet as pq
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["x y x y", "b a b a"], pa.string())}),
                   tmp_path / "documents.parquet")
    got = top_ngrams(str(tmp_path), k=3).to_pandas()
    # counts: "x y" 2, "y x" 1, "b a" 2, "a b" 1 → ties broken by ngram asc
    assert list(got["ngram"]) == ["b a", "x y", "a b"]
    assert list(got["cnt"]) == [2, 2, 1]


def test_dup_span_frac_synthetic(tmp_path, ray_session):
    import pyarrow.parquet as pq
    from miru_ray.pipelines.textstats import dup_span_frac
    shared = "alpha beta gamma delta epsilon"        # one 5-token window
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            f"{shared} zero tail words here",        # 5 windows, 1 dup
            f"one lead {shared}",                    # 3 windows, 1 dup
            "totally different text with no overlap at all",
            "tiny",                                  # no 5-token window
        ], pa.string())}), tmp_path / "documents.parquet")
    got = dup_span_frac(str(tmp_path)).to_pandas().set_index("doc_id")
    assert got.loc[0, "dup_span_frac"] == pytest.approx(round(1 / 5, 6))
    assert got.loc[1, "dup_span_frac"] == pytest.approx(round(1 / 3, 6))
    assert got.loc[2, "dup_span_frac"] == 0.0
    assert got.loc[3, "dup_span_frac"] == 0.0


def test_dup_span_within_doc_repeat_not_cross_doc(tmp_path, ray_session):
    # a span repeated WITHIN one doc only is not cross-doc duplicated
    import pyarrow.parquet as pq
    from miru_ray.pipelines.textstats import dup_span_frac
    span = "alpha beta gamma delta epsilon"
    pq.write_table(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array([f"{span} junk {span}"], pa.string())}),
                   tmp_path / "documents.parquet")
    got = dup_span_frac(str(tmp_path)).to_pandas()
    assert got["dup_span_frac"][0] == 0.0


def test_embedding_clusters_consistent_with_pairs(ray_session):
    from miru_ray.pipelines.ann import (embedding_dedup_clusters,
                                        embedding_near_dups)
    pairs = embedding_near_dups(SF).to_pandas()
    cl = embedding_dedup_clusters(SF).to_pandas()
    lab = dict(zip(cl["vec_id"], cl["cluster_id"]))
    for a, b in zip(pairs["vec_a"], pairs["vec_b"]):
        assert lab[a] == lab[b]
    nodes = set(pairs["vec_a"]) | set(pairs["vec_b"])
    assert set(cl["vec_id"]) == nodes


def test_clusters_ds_lazy_and_equal(ray_session):
    import ray.data
    from miru_ray.pipelines.dedup import dedup_clusters_ds
    ds = dedup_clusters_ds(SF)
    assert isinstance(ds, ray.data.Dataset)        # lazy handle, no collect
    got = (ds.to_pandas().sort_values("doc_id").reset_index(drop=True))
    _CL_CACHE.clear()
    exp = dedup_clusters(SF).to_pandas()
    pd.testing.assert_frame_equal(got, exp)


def test_minhash_clusters_equal_exact_on_fixture(ray_session):
    # LSH recall is full on the fixture corpus (pinned by test_ops), so
    # the sub-quadratic clusters tier must equal the exact tier here
    from miru_ray.pipelines.dedup import minhash_dedup_clusters
    got = minhash_dedup_clusters(SF).to_pandas()
    _CL_CACHE.clear()
    exp = dedup_clusters(SF).to_pandas()
    pd.testing.assert_frame_equal(got, exp)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=1, max_size=120))
def test_cc_local_matches_bfs(edges):
    # property: pointer-jumping min-label CC == brute-force BFS components
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    nodes, lab = _cc_local(a, b)
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    expect = {}
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp, stack = [], [start]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            comp.append(u)
            stack.extend(adj[u] - seen)
        m = min(comp)
        for u in comp:
            expect[u] = m
    got = dict(zip(nodes.tolist(), lab.tolist()))
    assert got == expect


def test_distributed_cc_multi_round_chain(tmp_path, monkeypatch,
                                          ray_session):
    """A CHAIN of near-dups (adjacent Jaccard ≈0.88 ≥ t, distance-2
    ≈0.78 < t) — component diameter 5, so the distributed solver needs
    several propagation rounds, and the changed-count convergence must
    not stop early."""
    import pyarrow.parquet as pq
    base = [f"w{i}" for i in range(50)]
    docs = []
    for i in range(6):
        toks = list(base)
        for j in range(i):                     # cumulative single-token edits
            toks[5 + 5 * j] = f"x{j}"
        docs.append(" ".join(toks))
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "text": pa.array(docs, pa.string())}),
                   tmp_path / "documents.parquet")
    pairs = ngram_jaccard_pairs(str(tmp_path)).to_pandas()
    # sanity: the pair graph is exactly the 5-edge chain
    assert (sorted(zip(pairs["doc_a"], pairs["doc_b"]))
            == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    _CL_CACHE.clear()
    monkeypatch.setattr(dedup, "_LOCAL_CC_EDGES", 0)
    monkeypatch.setattr(dedup, "_cc_local", _no_local_tier)
    dist = dedup_clusters(str(tmp_path)).to_pandas()
    _CL_CACHE.clear()
    assert list(dist["doc_id"]) == [0, 1, 2, 3, 4, 5]
    assert set(dist["cluster_id"]) == {0}       # one component, min label
