"""Streaming pipeline API (VERDICT r3 #2).

Every bulk (one-row-per-event/per-doc) operator exposes a ``*_ds`` form
returning a LAZY ray.data.Dataset: constructing it must not materialize
result blocks on the driver, and consuming it by ``write_parquet`` must
produce exactly the rows of the driver-side collected form — so the
only place a driver table exists is the thin collector the driver
contract needs at test scales.
"""

from __future__ import annotations

import os

import pandas as pd
import pytest

import ray.data as rd

SF = "/root/testdata/sf0.001"

pytestmark = pytest.mark.skipif(not os.path.isdir(SF),
                                reason="driver testdata not present")


def _ds_factories():
    from miru_ray.pipelines import ann, cluster, dedup, joins, pack, textstats
    return {
        "semantic_clusters": (cluster.semantic_clusters_ds,
                              cluster.semantic_clusters),
        "semdedup": (cluster.semdedup_ds, cluster.semdedup),
        "asof_join": (joins.asof_join_ds, joins.asof_join),
        "interval_join": (joins.interval_join_ds, joins.interval_join),
        "window_sliding": (joins.window_sliding_ds, joins.window_sliding),
        "window_sliding_halo": (joins.window_sliding_halo_ds,
                                joins.window_sliding_halo),
        "simhash64": (dedup.simhash64_ds, dedup.simhash64),
        "token_counts": (textstats.token_counts_ds, textstats.token_counts),
        "quality_scores": (textstats.quality_scores_ds,
                           textstats.quality_scores),
        "lang_id": (textstats.lang_id_ds, textstats.lang_id),
        "doc_fingerprints": (textstats.doc_fingerprints_ds,
                             textstats.doc_fingerprints),
        "minhash_near_dups": (dedup.minhash_near_dups_ds,
                              dedup.minhash_near_dups),
        "ngram_jaccard_pairs": (dedup.ngram_jaccard_pairs_ds,
                                dedup.ngram_jaccard_pairs),
        "embedding_near_dups_lsh": (ann.embedding_near_dups_lsh_ds,
                                    ann.embedding_near_dups_lsh),
        "decontaminate": (textstats.decontaminate_ds,
                          textstats.decontaminate),
        "mixture_sample": (pack.mixture_sample_ds, pack.mixture_sample),
        "pack_sequences": (pack.pack_sequences_ds, pack.pack_sequences),
        "boilerplate_scrub": (textstats.boilerplate_scrub_ds,
                              textstats.boilerplate_scrub),
        "exact_substring_scrub": (textstats.exact_substring_scrub_ds,
                                  textstats.exact_substring_scrub),
        "lm_perplexity": (textstats.lm_perplexity_ds,
                          textstats.lm_perplexity),
        "perplexity_ntile": (textstats.perplexity_ntile_ds,
                             textstats.perplexity_ntile),
        "dsir_weights": (textstats.dsir_weights_ds, textstats.dsir_weights),
        "dsir_sample": (textstats.dsir_sample_ds, textstats.dsir_sample),
    }


def test_ds_forms_are_lazy_datasets(ray_session):
    for name, (ds_fn, _collect) in _ds_factories().items():
        ds = ds_fn(SF)
        assert isinstance(ds, rd.Dataset), name
        # lazy: the plan exists but no result blocks were computed on the
        # driver at construction time
        assert not ds._plan.has_computed_output(), name


def test_ds_write_matches_collected(ray_session, tmp_path):
    """Consume two representative _ds pipelines by streaming write_parquet
    (never a driver table) and compare row-for-row with the collected
    form."""
    from miru_ray.pipelines import joins, textstats
    for name, ds_fn, collect, keys in [
        ("window_sliding", joins.window_sliding_ds, joins.window_sliding,
         ["event_id"]),
        ("token_counts", textstats.token_counts_ds, textstats.token_counts,
         ["doc_id"]),
    ]:
        out = str(tmp_path / name)
        ds_fn(SF).write_parquet(out)
        import pyarrow.dataset as pads
        got = (pads.dataset(out).to_table().to_pandas()
               .sort_values(keys).reset_index(drop=True))
        want = (collect(SF).to_pandas()
                .sort_values(keys).reset_index(drop=True))
        pd.testing.assert_frame_equal(got[want.columns.tolist()], want,
                                      check_dtype=False)


def test_minhash_ds_pairs_are_globally_deduped(ray_session):
    """The bucketed pair-dedup exchange runs BEFORE the verifier, so the
    lazy minhash pair Dataset carries no duplicate (doc_a, doc_b) rows —
    collectors need no drop_duplicates (VERDICT r4 #1)."""
    from miru_ray.pipelines import dedup
    got = dedup.minhash_near_dups_ds(SF, 0.8).to_pandas()
    assert len(got) > 0
    assert not got.duplicated(["doc_a", "doc_b"]).any()


def test_ngram_pairs_ds_streams_only_survivors(ray_session):
    """The threshold filter folds into the final attach merge: every row
    the Dataset yields already satisfies jaccard >= t (VERDICT r4 #2)."""
    from miru_ray.pipelines import dedup
    t = 0.8
    got = dedup.ngram_jaccard_pairs_ds(SF, t).to_pandas()
    assert len(got) > 0
    assert (got["jaccard"] >= t).all()


def test_keep_one_ds_is_fully_lazy_and_matches(ray_session, tmp_path):
    """dedup_keep_one_ds with its DEFAULT cluster source (the lazy
    dedup_clusters_ds) never collects cluster membership driver-side
    (ADVICE r4 #2); consumed by write_parquet it equals the collected
    adapter."""
    from miru_ray.pipelines import dedup
    out = str(tmp_path / "keep_one")
    dedup.dedup_keep_one_ds(SF, 0.8).write_parquet(out)
    import pyarrow.dataset as pads
    got = (pads.dataset(out).to_table().to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = (dedup.dedup_keep_one(SF, 0.8).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_minhash_verify_plans_are_value_identical(monkeypatch, ray_session):
    """The two exact-Jaccard verify plans — 'gather' (_verify_gather
    tasks, parquet-pushdown text gather) and 'join' (single corpus scan +
    shingle-set keyed exchanges, the high-dup-density plan) — yield the
    same verified pair set at the same threshold. The fixture's
    candidate count is under the cutover, so the default run gathers;
    a cutover of 0 forces the join."""
    from miru_ray.pipelines import dedup
    cols = ["doc_a", "doc_b", "jaccard"]

    def norm(ds):
        return (ds.to_pandas()[cols].sort_values(["doc_a", "doc_b"])
                .reset_index(drop=True))

    calls = []
    real_join = dedup._verify_pairs_join
    monkeypatch.setattr(dedup, "_verify_pairs_join",
                        lambda *a: calls.append(1) or real_join(*a))
    gather = norm(dedup.minhash_near_dups_ds(SF, 0.8))
    assert calls == []
    monkeypatch.setattr(dedup, "_VERIFY_JOIN_MIN_PAIRS", 0)
    join = norm(dedup.minhash_near_dups_ds(SF, 0.8))
    assert calls == [1]
    assert len(gather) > 0
    pd.testing.assert_frame_equal(join, gather, check_dtype=False)


def test_ngram_pairs_ds_deduped_equals_collected(ray_session):
    """The exact n-gram Dataset may repeat a pair (one copy per shared
    prefix bucket); deduplicated, it is exactly the collected table."""
    from miru_ray.pipelines import dedup
    got = (dedup.ngram_jaccard_pairs_ds(SF, 0.8).to_pandas()
           .drop_duplicates(["doc_a", "doc_b"])
           .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    want = dedup.ngram_jaccard_pairs(SF, 0.8).to_pandas()
    assert len(want) > 0
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want,
                                  check_dtype=False)
