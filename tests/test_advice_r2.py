"""Round-2 hardening: duplicate-row dedup in the build,
extractor-version resume staleness, sip content digests, empty-index search."""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from miru_ray.pipelines.build import BuildConfig, build_index
from miru_ray.sources.fixtures import generate_pages


def _digest(d: str) -> str:
    t = pq.read_table(sorted(glob.glob(os.path.join(d, "segments", "*.parquet"))))
    t = t.sort_by("term")
    h = hashlib.sha256()
    for col in ("term", "df", "cf", "docids", "tfs", "bmax"):
        for v in t[col].to_pylist():
            h.update(v if isinstance(v, bytes) else str(v).encode())
    return h.hexdigest()


def test_build_dedups_exact_duplicate_rows(tmp_path, ray_session):
    """Exact duplicate rows (same url AND warc_ts AND payload — replayed /
    at-least-once input) must not double tf/cf/df: the build over the
    base pages plus 40 exact copies equals the build over the base."""
    base = generate_pages(0, 260)
    dup = pa.concat_tables([base, base.slice(10, 40)])  # 40 exact copies
    cfg = BuildConfig(num_parts=4, num_shards=2)
    d_base = str(tmp_path / "base")
    d_dup = str(tmp_path / "dup")
    m_base = build_index(base, d_base, cfg)
    m_dup = build_index(dup, d_dup, cfg)
    assert m_dup["n_docs"] == m_base["n_docs"] == 259
    assert _digest(d_dup) == _digest(d_base)


def test_resume_rebuilds_stale_extractor_version(tmp_path, ray_session):
    """A completed manifest from an older extractor version is stale; resume
    must rebuild that partition, never mixing extractor versions."""
    from miru_ray.state.layout import manifest_path, read_manifest
    cfg = BuildConfig(num_parts=4, num_shards=2)
    pages = generate_pages(0, 300)
    idx = str(tmp_path / "idx")
    build_index(pages, idx, cfg)
    clean_digest = _digest(idx)

    # simulate an index built by an older extractor on partition 1
    m = read_manifest(idx, 1)
    m["extractor_version"] = "ancient-0"
    with open(manifest_path(idx, 1), "w") as f:
        json.dump(m, f)
    meta = build_index(pages, idx, cfg)   # fast resume path
    assert 1 not in meta["skipped_parts"]
    assert sorted(meta["skipped_parts"]) == [0, 2, 3]
    from miru_ray.functions.extract import EXTRACTOR_VERSION
    assert read_manifest(idx, 1)["extractor_version"] == EXTRACTOR_VERSION
    assert _digest(idx) == clean_digest


def test_sip_detects_content_only_change_text_mode(tmp_path, ray_session):
    """Text-mode inputs fold a content hash into the sip digest: a text
    change under an unchanged (url, warc_ts) triggers a partition rebuild."""
    cfg = BuildConfig(num_parts=4, num_shards=2)
    src = tmp_path / "wal"
    src.mkdir()
    pages = generate_pages(0, 300).drop_columns(["html"])   # text-mode
    pq.write_table(pages, str(src / "a.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg)

    # mutate two rows' text in different partitions, keep url+warc_ts. Two
    # of four partitions is too wide for the overlay, so the splice rewrites
    # the base files this test pins; the overlay form of a sip is covered
    # by tests/test_delta_overlay.py
    from miru_ray.functions.hashing import part_for
    parts = part_for(pages["url"].to_pylist(), 4)
    other = next(i for i, p in enumerate(parts) if p != parts[17])
    texts = pages["text"].to_pylist()
    for i in (17, other):
        texts[i] += " sipneedle"
    mutated = pages.set_column(pages.schema.get_field_index("text"), "text",
                               pa.array(texts, pa.string()))
    pq.write_table(mutated, str(src / "a.parquet"))
    meta = build_index(str(src), idx, BuildConfig(num_parts=4, num_shards=2,
                                                  verify_inputs=True))
    assert meta["phase_sec"]["merge_mode"] == "splice"
    assert len(meta["skipped_parts"]) == 2   # only the two rows' partitions rebuilt

    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg)
    assert _digest(idx) == _digest(clean)


def test_empty_source_builds_and_searches(tmp_path, ray_session):
    """Build over 0 rows yields a searchable (empty) index — no crash,
    inline or scattered (zero partitions: the merge has no answers)."""
    from miru_ray.pipelines.search import search, search_scattered
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.reader import IndexReader
    idx = str(tmp_path / "empty_idx")
    meta = build_index(pages_table(0), idx, BuildConfig(num_parts=4, num_shards=2))
    assert meta["n_docs"] == 0
    r = IndexReader(idx)
    hits = search(r, "anything at all", k=10)
    assert hits.num_rows == 0
    assert hits.column_names == ["doc_id", "score", "url", "warc_ts", "lang"]
    assert r.parts == []
    assert search_scattered(idx, "anything at all", k=10).equals(hits)
    # gather over an empty request on a NON-empty index also short-circuits
    assert r.gather_docs(np.empty(0, dtype=np.uint64)).num_rows == 0


def test_empty_index_positional_queries(tmp_path, ray_session):
    """Positional queries on a ZERO-row index return empty like every
    other query path — the store_text guard must not fire there (a
    zero-partition index has no docs file to prove the flag)."""
    from miru_ray.pipelines.search import (near_search,
                                           near_search_scattered,
                                           phrase_search,
                                           phrase_search_scattered)
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.reader import IndexReader
    idx = str(tmp_path / "empty_idx_pos")
    build_index(pages_table(0), idx,
                BuildConfig(num_parts=2, num_shards=1, store_text=True))
    r = IndexReader(idx)
    assert r.parts == []
    phrase = phrase_search(r, "key value")
    assert phrase.num_rows == 0
    assert phrase_search_scattered(idx, "key value").equals(phrase)
    near = near_search(r, "key", "value", 3)
    assert near.num_rows == 0
    assert near_search_scattered(idx, "key", "value", 3).equals(near)
