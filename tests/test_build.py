"""Index-build correctness: postings vs oracle, dedup, stats, resume."""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from miru_ray.sources.fixtures import NEEDLES


@pytest.fixture(scope="module")
def segments(index_dir):
    files = sorted(glob.glob(os.path.join(index_dir, "segments", "*.parquet")))
    return pq.read_table(files)


def test_doc_count_after_dedup(oracle, reader):
    assert reader.n_docs == oracle.n_docs
    assert reader.n_docs < 900  # duplicates existed and were removed


def test_avgdl_matches_oracle(oracle, reader):
    assert reader.avgdl == pytest.approx(oracle.avgdl, rel=0, abs=1e-12)


def test_needle_df_exact(segments):
    d = {t: df for t, df in zip(segments["term"].to_pylist(),
                                segments["df"].to_pylist())}
    for k, term in NEEDLES.items():
        # fixture plants needle{k} in docs 29*j (j<k); with 900 rows all
        # k occurrences exist for k <= 31 (29*30=870 < 900)
        assert d[term] == k, term


def test_postings_identical_to_oracle(segments, oracle):
    """Invariant 2 (FIXTURES.md): per-term docID lists + df/cf match the
    brute-force dict index exactly."""
    from miru_ray.functions.postings import decode_ids, decode_tfs
    terms = segments["term"].to_pylist()
    n_checked = 0
    for i in range(0, len(terms), 17):   # sampled sweep + all needles below
        t = terms[i]
        ids = decode_ids(segments["docids"][i].as_py())
        tfs = decode_tfs(segments["tfs"][i].as_py())
        op = oracle.postings.get(t)
        assert op is not None, t
        o_ids = np.array(sorted(op), dtype=np.uint64)
        assert np.array_equal(ids, o_ids), t
        assert np.array_equal(tfs, np.array([op[int(d)] for d in o_ids])), t
        assert segments["df"][i].as_py() == len(op)
        assert segments["cf"][i].as_py() == sum(op.values())
        n_checked += 1
    assert n_checked > 100


def test_total_term_space(segments, oracle):
    assert set(segments["term"].to_pylist()) == set(oracle.postings)


def test_docid_assignment_sorted_by_time_within_partition(index_dir, reader):
    for part in reader.parts:
        docs = reader.docs_table(part)
        ts = docs["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        urls = docs["url"].to_pylist()
        keys = list(zip(ts.tolist(), urls))
        assert keys == sorted(keys)


def test_manifest_lineage(index_dir, reader):
    from miru_ray.state.layout import completed_parts
    done = completed_parts(index_dir)
    assert sorted(done) == reader.parts
    for p, m in done.items():
        assert m["status"] == "complete"
        assert m["n_docs"] > 0
        assert m["n_terms"] > 0
        assert "input_digest" in m and "elapsed_s" in m


def test_reader_term_stats_global_cardinality(reader, oracle):
    """IndexReader.term_stats = getGlobalCardinality surface: df/cf per
    term without decoding postings."""
    terms = ["needle7", "needle31", "w00001", "zzz_missing"]
    stats = reader.term_stats(terms)
    assert "zzz_missing" not in stats
    for t in ("needle7", "needle31", "w00001"):
        assert stats[t] == (oracle.df(t), oracle.cf(t)), t


def test_resume_skips_completed(pages, index_dir):
    from miru_ray.pipelines.build import BuildConfig, build_index
    meta = build_index(pages, index_dir, BuildConfig(num_parts=4, num_shards=2))
    assert meta["skipped_parts"] == [0, 1, 2, 3]


def test_time_range_partitions_match_serial_build(ray_session, tmp_path):
    """partition_mode='time_range' at P=4 produces byte-identical segments
    to the num_parts=1 serial build (global docIDs stay ts-ordered)."""
    import glob
    import hashlib
    import os

    import pyarrow.parquet as pq

    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.sources.tables import documents_as_pages

    def digest(idx):
        h = hashlib.sha256()
        for f in sorted(glob.glob(os.path.join(idx, "segments", "*.parquet"))):
            t = pq.read_table(f).sort_by("term")
            for col in ("term", "df", "cf", "docids", "tfs"):
                if col in t.column_names:
                    h.update(str(t[col].to_pylist()).encode())
        return h.hexdigest()

    sf = "/root/testdata/sf0.001"
    a, b = str(tmp_path / "serial"), str(tmp_path / "ranged")
    build_index(documents_as_pages(sf), a, BuildConfig(num_parts=1, num_shards=2))
    build_index(documents_as_pages(sf), b,
                BuildConfig(num_parts=4, num_shards=2,
                            partition_mode="time_range"))
    assert digest(a) == digest(b)


def test_time_range_resume_rebuilds_only_missing_part(ray_session, tmp_path):
    """Deleting one time-range partition manifest and re-running rebuilds
    just that partition; segments come back identical."""
    import glob
    import hashlib
    import os

    import pyarrow.parquet as pq

    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.sources.tables import documents_as_pages
    from miru_ray.state import layout

    def digest(idx):
        h = hashlib.sha256()
        for f in sorted(glob.glob(os.path.join(idx, "segments", "*.parquet"))):
            t = pq.read_table(f).sort_by("term")
            for col in ("term", "df", "cf", "docids", "tfs"):
                if col in t.column_names:
                    h.update(str(t[col].to_pylist()).encode())
        return h.hexdigest()

    sf = "/root/testdata/sf0.001"
    idx = str(tmp_path / "ranged")
    cfg = BuildConfig(num_parts=4, num_shards=2, partition_mode="time_range")
    build_index(documents_as_pages(sf), idx, cfg)
    d0 = digest(idx)
    os.remove(layout.manifest_path(idx, 2))
    meta = build_index(documents_as_pages(sf), idx, cfg)
    assert sorted(meta["skipped_parts"]) == [0, 1, 3]   # only part 2 rebuilt
    assert digest(idx) == d0


def test_segment_swap_crash_leftovers_never_pollute(tmp_path, ray_session, pages):
    """The merge-commit tail swaps segments via rename(live → .old) +
    rename(.tmp → live) and deletes .old only after the meta commits. A
    crashed run's leftovers — a stale segments.old AND a segments.tmp
    written under a DIFFERENT num_shards — must vanish on the next commit,
    whether it writes an overlay or swaps in spliced segments: exactly
    num_shards live shard files, no trash, answers intact."""
    import glob
    import shutil
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.search import search
    from miru_ray.state.reader import IndexReader
    idx = str(tmp_path / "idx")
    build_index(pages, idx, BuildConfig(num_parts=4, num_shards=2))
    seg = os.path.join(idx, "segments")
    # one rebuilt partition of 4 takes the overlay; two take the splice
    for rebuilt, mode in (((2,), "delta"), ((1, 2), "splice")):
        # simulate the crash debris
        shutil.copytree(seg, seg + ".old")
        os.makedirs(seg + ".tmp", exist_ok=True)
        for n in ("shard=00007.parquet", "shard=00009.parquet"):
            shutil.copyfile(os.path.join(seg, "shard=00000.parquet"),
                            os.path.join(seg + ".tmp", n))
        for p in rebuilt:   # drop manifests → those partitions rebuild
            os.remove(os.path.join(idx, "partitions", f"part={p:05d}",
                                   "manifest.json"))
        meta = build_index(pages, idx, BuildConfig(num_parts=4, num_shards=2))
        assert meta["phase_sec"]["merge_mode"] == mode
        names = sorted(os.path.basename(f)
                       for f in glob.glob(os.path.join(seg, "*.parquet")))
        assert names == ["shard=00000.parquet", "shard=00001.parquet"]
        assert not os.path.exists(seg + ".old")
        assert not os.path.exists(seg + ".tmp")
        assert search(IndexReader(idx), "needle7", k=20).num_rows == 7
