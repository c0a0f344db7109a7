"""Delta-overlay appends: a small sip leaves the base segment files
byte-untouched and writes one O(changed) overlay generation, also when
it shifts later partitions' docID bases; readers resolve base+overlay to
EXACTLY a clean build's answers on every term; a big append folds the
overlay back via the splice."""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from miru_ray.pipelines.build import BuildConfig, build_index
from miru_ray.pipelines.search import search
from miru_ray.sources.fixtures import generate_pages
from miru_ray.state.reader import IndexReader

QUERIES = ["needle7", "needle3 needle7", "the scan merge"]


def _file_digests(idx: str) -> dict[str, str]:
    out = {}
    for f in sorted(glob.glob(os.path.join(idx, "segments", "*.parquet"))):
        with open(f, "rb") as fh:
            out[os.path.basename(f)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _seg_digest(d: str) -> str:
    t = pq.read_table(sorted(glob.glob(os.path.join(d, "segments", "*.parquet"))))
    t = t.sort_by("term")
    h = hashlib.sha256()
    for col in ("term", "df", "cf", "docids", "tfs"):
        for v in t[col].to_pylist():
            h.update(v if isinstance(v, bytes) else str(v).encode())
    return h.hexdigest()


def _assert_vocab_equiv(ra: IndexReader, rb: IndexReader, clean: str):
    """Every term of the clean build: the same live vocabulary, and per
    term the same ids, tfs, df, block-max and (df, cf)."""
    files = sorted(glob.glob(os.path.join(clean, "segments", "*.parquet")))
    vocab = sorted(pq.read_table(files, columns=["term"])["term"].to_pylist())
    assert ra.expand_prefix("", len(vocab) + 1) == \
        [t for t in vocab if not t.startswith("\x00")]
    got, want = ra.load_postings(vocab), rb.load_postings(vocab)
    assert sorted(got) == sorted(want) == vocab
    for t in vocab:
        (ia, ta, da), (ib, tb, db) = got[t], want[t]
        assert ia.dtype == ib.dtype and np.array_equal(ia, ib), t
        assert np.array_equal(ta, tb) and da == db, t
        assert np.array_equal(ra.block_max(t), rb.block_max(t)), t
    assert ra.term_stats(vocab) == rb.term_stats(vocab)


def _assert_reader_equiv(idx: str, clean: str, prefix: str = "ne"):
    ra, rb = IndexReader(idx), IndexReader(clean)
    assert ra.n_docs == rb.n_docs and ra.avgdl == rb.avgdl
    for q in QUERIES:
        ha, hb = search(ra, q, k=20), search(rb, q, k=20)
        assert ha["doc_id"].to_pylist() == hb["doc_id"].to_pylist(), q
        assert ha["score"].to_pylist() == hb["score"].to_pylist(), q
    terms = ["the", "scan", "needle7", "zzz-missing"]
    assert ra.term_stats(terms) == rb.term_stats(terms)
    assert ra.expand_prefix(prefix, 50) == rb.expand_prefix(prefix, 50)
    got = ra.load_postings(["needle7"])["needle7"]
    want = rb.load_postings(["needle7"])["needle7"]
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    _assert_vocab_equiv(ra, rb, clean)


def _bases_moved(meta: dict) -> list[int]:
    """Kept partitions whose docID base moved since the base merge."""
    d = meta["delta"]
    return sorted(int(p) for p, v in d["base_bases"].items()
                  if int(p) not in d["replaced_parts"]
                  and meta["bases"].get(p, v) != v)


@pytest.fixture()
def corpus(tmp_path):
    full = generate_pages(0, 800)
    ts = full["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    bounds = (int(ts.min()), int(ts.max()) + 1)
    src = tmp_path / "wal"
    src.mkdir()
    pq.write_table(full.slice(0, 720), str(src / "a.parquet"))
    cfg = lambda v: BuildConfig(num_parts=8, num_shards=2,     # noqa: E731
                                partition_mode="time_range",
                                time_bounds=bounds, verify_inputs=v)
    return src, full, cfg


def test_delta_append_is_overlay_and_exact(tmp_path, ray_session, corpus):
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    before = _file_digests(idx)

    # sip: the trailing 10% lands in the last time bucket only
    pq.write_table(full.slice(720, 80), str(src / "b.parquet"))
    meta = build_index(str(src), idx, cfg(True))
    assert meta["phase_sec"]["merge_mode"] == "delta"
    assert meta["delta"]["gen"] == 0
    assert len(meta["delta"]["replaced_parts"]) * 4 <= 8
    # the base files were NOT rewritten — the O(index) cost is gone
    assert _file_digests(idx) == before
    assert os.path.isdir(os.path.join(idx, "segments_delta", "gen=00000"))

    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    _assert_reader_equiv(idx, clean)

    # no-op resume: overlay survives untouched, mode is reuse
    meta2 = build_index(str(src), idx, cfg(True))
    assert meta2["phase_sec"]["merge_mode"] == "reuse"
    assert meta2["delta"]["gen"] == 0
    _assert_reader_equiv(idx, clean)


def test_second_sip_supersedes_generation(tmp_path, ray_session, corpus):
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    pq.write_table(full.slice(720, 40), str(src / "b.parquet"))
    m1 = build_index(str(src), idx, cfg(True))
    assert m1["phase_sec"]["merge_mode"] == "delta"
    pq.write_table(full.slice(760, 40), str(src / "c.parquet"))
    m2 = build_index(str(src), idx, cfg(True))
    assert m2["phase_sec"]["merge_mode"] == "delta"
    assert m2["delta"]["gen"] == 1
    # the superseded generation directory is gone
    assert not os.path.isdir(os.path.join(idx, "segments_delta", "gen=00000"))

    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    _assert_reader_equiv(idx, clean)


def test_big_append_folds_overlay_via_splice(tmp_path, ray_session):
    full = generate_pages(0, 1200)
    ts = full["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    bounds = (int(ts.min()), int(ts.max()) + 1)
    src = tmp_path / "wal"
    src.mkdir()
    pq.write_table(full.slice(0, 600), str(src / "a.parquet"))
    cfg = lambda v: BuildConfig(num_parts=8, num_shards=2,     # noqa: E731
                                partition_mode="time_range",
                                time_bounds=bounds, verify_inputs=v)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    # small sip → overlay
    pq.write_table(full.slice(600, 60), str(src / "b.parquet"))
    m1 = build_index(str(src), idx, cfg(True))
    assert m1["phase_sec"]["merge_mode"] == "delta"
    # big append (40% of the range) → too wide for an overlay; the splice
    # folds base + the overlay's partitions up to current truth
    pq.write_table(full.slice(660, 540), str(src / "c.parquet"))
    m2 = build_index(str(src), idx, cfg(True))
    assert m2["phase_sec"]["merge_mode"] in ("splice", "full")
    assert "delta" not in m2
    assert not os.path.isdir(os.path.join(idx, "segments_delta"))

    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    assert _seg_digest(idx) == _seg_digest(clean)
    _assert_reader_equiv(idx, clean)


def test_base_shift_takes_overlay(tmp_path, ray_session, corpus):
    """A sip that changes an early partition's doc count shifts every later
    base; the overlay still applies (kept runs are shifted on read), the
    base files stay untouched and the reader equals a clean build on
    every term."""
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    before = _file_digests(idx)
    # ten new urls fetched inside the third time bucket
    early = full.slice(250, 10)
    early = early.set_column(0, "url", pa.array(
        [u + "?refetch" for u in early["url"].to_pylist()], pa.string()))
    pq.write_table(early, str(src / "b.parquet"))
    meta = build_index(str(src), idx, cfg(True))
    assert meta["phase_sec"]["merge_mode"] == "delta"
    assert _bases_moved(meta)
    assert _file_digests(idx) == before
    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    _assert_reader_equiv(idx, clean)


def test_hash_sip_takes_overlay_then_compacts_exactly(tmp_path, ray_session):
    """A hash-mode sip into 3 of 16 partitions shifts the later bases and
    takes the overlay; a following wider sip compacts through the splice
    to segment files sha256-identical to a clean build."""
    from miru_ray.functions.hashing import part_for
    full = generate_pages(0, 900)
    parts = part_for(full["url"].to_numpy(zero_copy_only=False), 16)
    late = np.arange(full.num_rows) >= 600
    sip1 = late & np.isin(parts, [1, 6, 10])
    sip2 = late & np.isin(parts, [3, 4, 12])
    src = tmp_path / "wal"
    src.mkdir()
    pq.write_table(full.filter(pa.array(~(sip1 | sip2))),
                   str(src / "a.parquet"))
    cfg = lambda v: BuildConfig(num_parts=16, num_shards=2,   # noqa: E731
                                verify_inputs=v)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    before = _file_digests(idx)

    pq.write_table(full.filter(pa.array(sip1)), str(src / "b.parquet"))
    m1 = build_index(str(src), idx, cfg(True))
    assert m1["phase_sec"]["merge_mode"] == "delta"
    assert m1["delta"]["replaced_parts"] == [1, 6, 10]
    assert _bases_moved(m1)
    assert _file_digests(idx) == before
    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    _assert_reader_equiv(idx, clean)

    # 6 of 16 partitions stale: too wide for an overlay, folded by splice
    pq.write_table(full.filter(pa.array(sip2)), str(src / "c.parquet"))
    m2 = build_index(str(src), idx, cfg(True))
    assert m2["phase_sec"]["merge_mode"] == "splice"
    assert "delta" not in m2
    clean2 = str(tmp_path / "clean2")
    build_index(str(src), clean2, cfg(False))
    assert _file_digests(idx) == _file_digests(clean2)
    _assert_reader_equiv(idx, clean2)


def test_sync_carries_overlay(tmp_path, ray_session, corpus):
    from miru_ray.state.sync import sync_index
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    pq.write_table(full.slice(720, 80), str(src / "b.parquet"))
    meta = build_index(str(src), idx, cfg(True))
    assert meta["phase_sec"]["merge_mode"] == "delta"
    dst = str(tmp_path / "dst")
    sync_index(idx, dst)
    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    _assert_reader_equiv(dst, clean)


def _seg_row(term, runs):   # runs: [(part, ids, tfs)]
    from miru_ray.functions.postings import encode_ids, encode_tfs, block_max_tf
    ids = np.concatenate([r[1] for r in runs]).astype(np.uint64)
    tfs = np.concatenate([r[2] for r in runs]).astype(np.int64)
    return {
        "term": term, "shard": 0, "df": len(ids), "cf": int(tfs.sum()),
        "docids": encode_ids(ids), "tfs": encode_tfs(tfs),
        "bmax": block_max_tf(tfs),
        "parts": [r[0] for r in runs],
        "pdfs": [len(r[1]) for r in runs],
        "pcfs": [int(r[2].sum()) for r in runs],
    }


def _write_seg_pair(tmp_path, base_rows, gen_rows) -> str:
    seg_dir = str(tmp_path / "segments")
    gen_dir = str(tmp_path / "segments_delta" / "gen=00000")
    os.makedirs(seg_dir), os.makedirs(gen_dir)
    pq.write_table(pa.Table.from_pylist(base_rows),
                   os.path.join(seg_dir, "shard=00000.parquet"))
    pq.write_table(pa.Table.from_pylist(gen_rows),
                   os.path.join(gen_dir, "shard=00000.parquet"))
    return seg_dir


def test_segview_drops_dead_terms(tmp_path):
    """A term whose every run lives in replaced partitions and that has no
    overlay row must vanish from stats, terms and postings."""
    from miru_ray.state.segview import SegView
    base_rows = [
        _seg_row("alive", [(0, np.array([1, 2]), np.array([1, 1])),
                           (1, np.array([10, 11]), np.array([2, 1]))]),
        _seg_row("dead", [(1, np.array([12]), np.array([3]))]),
    ]
    gen_rows = [_seg_row("fresh", [(1, np.array([20, 21]),
                                    np.array([1, 2]))])]
    seg_dir = _write_seg_pair(tmp_path, base_rows, gen_rows)
    view = SegView(seg_dir, {"gen": 0, "replaced_parts": [1]},
                   str(tmp_path))
    stats = view.stats(0, None)
    got = dict(zip(stats["term"].to_pylist(),
                   zip(stats["df"].to_pylist(), stats["cf"].to_pylist())))
    # 'alive' keeps only its part-0 run; 'dead' vanishes; 'fresh' appears
    assert got == {"alive": (2, 2), "fresh": (2, 3)}
    assert sorted(view.terms(0, None)) == ["alive", "fresh"]
    rows = {r["term"]: r for r in view.postings(0, None, want_bmax=True)}
    assert sorted(rows) == ["alive", "fresh"]
    assert rows["alive"]["ids"].tolist() == [1, 2]
    assert rows["fresh"]["ids"].tolist() == [20, 21]
    assert rows["fresh"]["tfs"].tolist() == [1, 2]


def test_segview_shifts_moved_runs(tmp_path):
    """Part 1 grew by 3 docs since the base was merged, so part 2's base
    runs move up by 3: a term with only kept runs is shifted and keeps its
    stored df and block-max; a term woven with an overlay row is shifted
    and re-derived. A delta that records base-time bases cannot be read
    without the current ones."""
    from miru_ray.state.segview import SegView
    base_rows = [
        _seg_row("moved", [(0, np.array([1, 2]), np.array([1, 4])),
                           (2, np.array([30, 35]), np.array([2, 1]))]),
        _seg_row("woven", [(1, np.array([11]), np.array([1])),
                           (2, np.array([31]), np.array([5]))]),
    ]
    gen_rows = [_seg_row("woven", [(1, np.array([12, 14]),
                                    np.array([2, 3]))])]
    seg_dir = _write_seg_pair(tmp_path, base_rows, gen_rows)
    delta = {"gen": 0, "replaced_parts": [1],
             "base_bases": {"0": 0, "1": 10, "2": 30}}
    with pytest.raises(ValueError):
        SegView(seg_dir, delta, str(tmp_path))
    view = SegView(seg_dir, delta, str(tmp_path),
                   {"0": 0, "1": 10, "2": 33})
    rows = {r["term"]: r for r in view.postings(0, None, want_bmax=True)}
    assert rows["moved"]["ids"].tolist() == [1, 2, 33, 38]
    assert rows["moved"]["tfs"].tolist() == [1, 4, 2, 1]
    assert rows["moved"]["df"] == 4 and rows["moved"]["bmax"].tolist() == [4]
    assert rows["woven"]["ids"].tolist() == [12, 14, 34]
    assert rows["woven"]["tfs"].tolist() == [2, 3, 5]
    assert rows["woven"]["bmax"].tolist() == [5]
    stats = view.stats(0, None)
    assert dict(zip(stats["term"].to_pylist(), stats["df"].to_pylist())) \
        == {"moved": 4, "woven": 3}


def test_crash_between_gen_commit_and_meta_is_recoverable(tmp_path,
                                                          ray_session,
                                                          corpus):
    """Simulate a build that died AFTER renaming the new generation but
    BEFORE writing meta: the old meta still references the previous view,
    the orphan gen dir is superseded on the next run, and queries stay
    exact."""
    import json
    import shutil
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    meta_before = json.load(open(os.path.join(idx, "meta.json")))
    pq.write_table(full.slice(720, 80), str(src / "b.parquet"))
    meta_after = build_index(str(src), idx, cfg(True))
    assert meta_after["phase_sec"]["merge_mode"] == "delta"
    # roll meta back to the pre-append state: gen=00000 is now an orphan
    # the old meta knows nothing about, and the appended partitions'
    # manifests disagree with the old part_digests (the crash signature)
    json.dump(meta_before, open(os.path.join(idx, "meta.json"), "w"))
    meta2 = build_index(str(src), idx, cfg(True))
    assert meta2["phase_sec"]["merge_mode"] == "delta"
    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    _assert_reader_equiv(idx, clean)


def test_missing_referenced_generation_fails_loudly(tmp_path, ray_session,
                                                    corpus):
    import shutil
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    pq.write_table(full.slice(720, 80), str(src / "b.parquet"))
    meta = build_index(str(src), idx, cfg(True))
    assert meta["phase_sec"]["merge_mode"] == "delta"
    shutil.rmtree(os.path.join(idx, "segments_delta"))
    with pytest.raises(FileNotFoundError):
        IndexReader(idx)


def test_resync_with_live_destination_overlay(tmp_path, ray_session, corpus):
    """Re-syncing over a destination that already carries an overlay must
    land the src generation under a FRESH dst generation number (the old
    one stays readable until the new meta commits) and then drop it."""
    from miru_ray.state.sync import sync_index
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    pq.write_table(full.slice(720, 40), str(src / "b.parquet"))
    assert build_index(str(src), idx, cfg(True))["phase_sec"]["merge_mode"] == "delta"
    dst = str(tmp_path / "dst")
    sync_index(idx, dst)
    # src takes a second sip (superseding gen 1), then re-sync
    pq.write_table(full.slice(760, 40), str(src / "c.parquet"))
    m2 = build_index(str(src), idx, cfg(True))
    assert m2["phase_sec"]["merge_mode"] == "delta" and m2["delta"]["gen"] == 1
    sync_index(idx, dst)
    import json
    dmeta = json.load(open(os.path.join(dst, "meta.json")))
    gens = os.listdir(os.path.join(dst, "segments_delta"))
    assert gens == [f"gen={int(dmeta['delta']['gen']):05d}"]
    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    _assert_reader_equiv(dst, clean)


def test_stats_scans_resolve_overlay(tmp_path, ray_session, corpus):
    """term_stats through the reader equals a clean build even for terms
    whose df/cf changed ONLY via the overlay (regression for the raw
    segment-glob scans)."""
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    pq.write_table(full.slice(720, 80), str(src / "b.parquet"))
    assert build_index(str(src), idx, cfg(True))["phase_sec"]["merge_mode"] == "delta"
    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    ra, rb = IndexReader(idx), IndexReader(clean)
    # needle7's later-docs need the overlay; 'the' spans nearly every doc
    for t in ("needle7", "the", "scan"):
        assert ra.term_stats([t]) == rb.term_stats([t]), t


def test_many_sips_auto_fold_lifecycle(tmp_path, ray_session):
    """A stream of small time-ordered sips: overlay generations supersede
    one another while the stale set grows, the engine auto-folds via the
    splice once the overlay would cover too much, and the result equals a
    clean build after EVERY step."""
    full = generate_pages(0, 1000)
    ts = full["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    bounds = (int(ts.min()), int(ts.max()) + 1)
    src = tmp_path / "wal"
    src.mkdir()
    pq.write_table(full.slice(0, 500), str(src / "base.parquet"))
    cfg = lambda v: BuildConfig(num_parts=16, num_shards=2,    # noqa: E731
                                partition_mode="time_range",
                                time_bounds=bounds, verify_inputs=v)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    modes = []
    for k in range(10):                      # ten 50-row sips
        pq.write_table(full.slice(500 + 50 * k, 50),
                       str(src / f"sip{k:02d}.parquet"))
        m = build_index(str(src), idx, cfg(True))
        modes.append(m["phase_sec"]["merge_mode"])
    # the lifecycle engaged both rungs: overlays early, >=1 auto-fold once
    # the cumulative stale set outgrew the 1/4 threshold
    assert "delta" in modes and ("splice" in modes or "full" in modes), modes
    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    _assert_reader_equiv(idx, clean)


def test_stable_count_repair_takes_overlay(tmp_path, ray_session):
    """A pure value repair (same url+version count per partition) merges
    via the overlay — base files byte-untouched — and queries equal a
    clean build over the corrected corpus."""
    from miru_ray.pipelines.repair import repair_index
    from miru_ray.sources.fixtures import write_pages_parquet
    src = str(tmp_path / "src")
    write_pages_parquet(src, 1500, rows_per_file=500)
    cfg = BuildConfig(num_parts=16, num_shards=2, store_text=True)
    idx = str(tmp_path / "idx")
    build_index(src, idx, cfg)
    before = _file_digests(idx)
    pages = generate_pages(10, 11)
    # the repair VERSION must be newer than the stored one to supersede
    newer = pa.array(pages["warc_ts"].to_numpy()
                     + np.timedelta64(1, "s"), pa.timestamp("us"))
    feed = pa.table({
        "op": pa.array(["repair"]),
        "url": pages["url"],
        "warc_ts": newer,
        "text": pa.array(["replacement text needle7 needle7"]),
        "lang": pages["lang"],
    })
    meta = repair_index(idx, feed)
    assert meta["phase_sec"]["merge_mode"] == "delta"
    assert _file_digests(idx) == before          # base untouched
    # the repaired doc is served from the overlay
    r = IndexReader(idx)
    hits = search(r, "replacement", k=5)
    assert hits.num_rows == 1
    # the overlay view equals a clean build that fetched the repair
    clean_src = str(tmp_path / "clean_src")
    write_pages_parquet(clean_src, 1500, rows_per_file=500)
    pq.write_table(pa.table({
        "url": pages["url"], "warc_ts": newer,
        "html": pa.array([b"<p>replacement text needle7 needle7</p>"]),
        "text": feed["text"], "lang": pages["lang"]}, schema=pages.schema),
        os.path.join(clean_src, "repair.parquet"))
    clean = str(tmp_path / "clean")
    build_index(clean_src, clean, cfg)
    _assert_reader_equiv(idx, clean)

    # removing one url outside the last partition shrinks that partition
    # and shifts every later base: still the overlay, still exact
    from miru_ray.functions.hashing import part_for
    corpus_t = pq.read_table(clean_src)
    urls = corpus_t["url"].to_numpy(zero_copy_only=False)
    gone = next(u for u, p in zip(urls, part_for(urls, 16)) if p == 2)
    meta = repair_index(idx, pa.table({
        "op": pa.array(["remove"]), "url": pa.array([gone]),
        "warc_ts": pa.array([np.datetime64("2100-01-01", "us")],
                            pa.timestamp("us")),
        "text": pa.array([None], pa.string()),
        "lang": pa.array([None], pa.string())}))
    assert meta["phase_sec"]["merge_mode"] == "delta"
    assert 2 in meta["delta"]["replaced_parts"] and _bases_moved(meta)
    assert _file_digests(idx) == before          # base still untouched
    removed_src = str(tmp_path / "removed_src")
    os.makedirs(removed_src)
    pq.write_table(corpus_t.filter(pc.not_equal(corpus_t["url"], gone)),
                   os.path.join(removed_src, "corpus.parquet"))
    removed = str(tmp_path / "removed")
    build_index(removed_src, removed, cfg)
    assert IndexReader(removed).n_docs == IndexReader(clean).n_docs - 1
    _assert_reader_equiv(idx, removed)


def test_resync_after_sip_skips_base_copy(tmp_path, ray_session, corpus):
    """After an overlay sip on src, a re-sync moves ONLY the overlay: the
    destination's base segment files are not rewritten (part_digests are
    pinned at base time and the merge is deterministic)."""
    from miru_ray.state.sync import sync_index
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    dst = str(tmp_path / "dst")
    p0 = sync_index(idx, dst)
    assert p0["base_skipped"] is False          # first sync copies the base
    base_mtimes = {f: os.path.getmtime(f) for f in
                   glob.glob(os.path.join(dst, "segments", "*.parquet"))}
    pq.write_table(full.slice(720, 80), str(src / "b.parquet"))
    assert build_index(str(src), idx, cfg(True))["phase_sec"]["merge_mode"] == "delta"
    p1 = sync_index(idx, dst)
    assert p1["base_skipped"] is True           # only the overlay traveled
    assert {f: os.path.getmtime(f) for f in
            glob.glob(os.path.join(dst, "segments", "*.parquet"))} == base_mtimes
    clean = str(tmp_path / "clean")
    build_index(str(src), clean, cfg(False))
    _assert_reader_equiv(dst, clean)


def test_crashed_base_copy_never_base_skips(tmp_path, ray_session, corpus):
    """A sync that dies mid base-segment copy leaves per-file-atomic but
    SET-inconsistent shard files under the old dst meta. The segments.dirty
    marker brackets that window: while it exists, equal part_digests must
    NOT skip the copy — the next sync recopies (healing the mix) and only
    then clears the marker."""
    from miru_ray.state.sync import sync_index
    src, full, cfg = corpus
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    dst = str(tmp_path / "dst")
    assert sync_index(idx, dst)["base_skipped"] is False
    # simulate the crash window: marker set, one shard file diverged
    open(os.path.join(dst, "segments.dirty"), "w").close()
    victim = sorted(glob.glob(os.path.join(dst, "segments", "*.parquet")))[0]
    with open(victim, "wb") as fh:
        fh.write(b"torn")
    p = sync_index(idx, dst)
    assert p["base_skipped"] is False            # marker vetoed the skip
    assert not os.path.exists(os.path.join(dst, "segments.dirty"))
    with open(victim, "rb") as fh:
        healed = fh.read()
    with open(os.path.join(idx, "segments", os.path.basename(victim)),
              "rb") as fh:
        assert healed == fh.read()               # recopy healed the file
    # with the marker gone and digests equal, the NEXT sync skips again
    assert sync_index(idx, dst)["base_skipped"] is True


def test_sync_removes_stale_dst_segment_files(tmp_path, ray_session, corpus):
    """Re-syncing from a src whose shard layout shrank must REMOVE dst
    shard files src no longer has: SegView globs the segments directory,
    so a stale extra shard would feed dead postings into every query."""
    from miru_ray.state.sync import sync_index
    src, full, cfg = corpus
    wide = str(tmp_path / "wide")
    c4 = cfg(False); c4.num_shards = 4
    build_index(str(src), wide, c4)
    dst = str(tmp_path / "dst")
    sync_index(wide, dst)
    assert len(glob.glob(os.path.join(dst, "segments", "*.parquet"))) == 4
    narrow = str(tmp_path / "narrow")
    build_index(str(src), narrow, cfg(False))    # num_shards=2, same input
    p = sync_index(narrow, dst)                  # digests equal, shards differ
    assert p["base_skipped"] is False
    assert (sorted(os.path.basename(f) for f in
                   glob.glob(os.path.join(dst, "segments", "*.parquet")))
            == sorted(os.path.basename(f) for f in
                      glob.glob(os.path.join(narrow, "segments", "*.parquet"))))
    _assert_reader_equiv(dst, narrow)
