"""Version-checked REPAIR / REMOVE of an existing index — partition-scoped,
no full rebuild.

Reference semantics being re-expressed: an already-indexed activity can be
repaired (same timestamp key, corrected payload) or removed, guarded by a
version check so stale corrections are ignored
(miru-service/.../stream/MiruIndexer.java:125-173 repair/remove,
miru-service/.../partition/MiruPartitionAccessor.java:594-650 the
version-checked apply). miru_ray previously only had latest-wins at build
time plus query-time tombstones; a correction feed forced a partition
rebuild from source (VERDICT r3 missing #2).

Contract (clean-build equivalence, pytest-pinned): after
``repair_index(idx, feed)`` the index is byte-identical to a clean build
over the CORRECTED corpus

    corrected = (original rows ∪ repair rows)
                \\ { row : ∃ remove(url=row.url) with row.warc_ts <= remove.warc_ts }

i.e. a repair row competes in the build's ordinary latest-wins dedup
(newer version wins; equal versions tie-break on text exactly like the
build), and a remove drops every version at-or-below its timestamp — the
reference's "activity older than the removal is ignored" check.

Routing: corrections apply IN PLACE — every fed url is located with a
column-pruned pushdown probe and its repair/remove applies to the
partition(s) actually holding it (routing a repair by its NEW version
timestamp would mis-partition it whenever the bump crosses a time_range
boundary, leaving the stale doc alive). Urls found nowhere are ADDS and
route by the index's own partitioner. Under hash partitioning the probe
and the partitioner agree, so the clean-build equivalence above is exact
(pytest); under time_range the in-place semantics additionally hold even
when a version bump would cross a range boundary.

Scale shape: only partitions that RECEIVE a repair row or CONTAIN a
removed url are rebuilt, from their own stored docs (one bounded task per
affected partition — no source re-scan, no all-to-all); untouched
partition files are never rewritten. The segment merge then re-derives
global segments (see stages/merge.py; incremental when the append-merge
fast path applies). Requirements, checked against the partition
manifests: the index stores its full payload (``store_text=True``, every
schema field ``stored``, no authz postings — those live only in postings
and cannot be reconstructed).

Lineage note: a repaired partition's ``input_digest`` is the digest of
its corrected rows, so a later ``verify_inputs`` resume against the
ORIGINAL source sees a mismatch and rebuilds from source — dropping the
repairs, exactly as documented for out-of-band corrections (the reference
replays repairs from the WAL instead; our feed is the caller's to
re-apply).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["repair_index", "repair_replay"]

_CACHE_ROOT = "/tmp/miru_ray_idx"


def _mode_meta(meta) -> dict:
    """The index's partition mode (and time bounds) from meta.json."""
    # metas written before partition_mode was recorded still carry
    # time_bounds when (and only when) they were built time_range — don't
    # default such an index to hash routing, or every repair row lands in
    # the wrong partition and silently matches nothing
    out = {"partition_mode": meta.get("partition_mode") or (
        "time_range" if "time_bounds" in meta else "hash")}
    if "time_bounds" in meta:
        out["time_bounds"] = meta["time_bounds"]
    return out


def _part_fn_from_meta(meta):
    """The index's own partition routing, reconstructed from meta.json."""
    from miru_ray.functions.hashing import part_for
    from miru_ray.pipelines.build import _time_parts
    num_parts = int(meta["num_parts"])
    if _mode_meta(meta)["partition_mode"] == "time_range":
        lo, hi = meta["time_bounds"]

        def route(urls, ts_us):
            return _time_parts(np.asarray(ts_us, dtype=np.int64),
                               num_parts, int(lo), int(hi))
        return route
    return lambda urls, ts_us: part_for(urls, num_parts)


def _repair_one_partition(part: int, index_dir: str, repair_df: pd.DataFrame,
                          removes: pd.DataFrame, num_shards: int,
                          schema_meta, analyzer: str) -> int:
    """Rebuild ONE partition from its stored docs + this partition's repair
    rows, applying version-checked removes. Returns the new n_docs
    (-1 when the partition ends empty and its directory was dropped)."""
    import pyarrow.parquet as pq
    from miru_ray.functions.runtime import limit_worker_threads
    from miru_ray.stages.partition_build import build_partition
    from miru_ray.state import layout
    from miru_ray.state.schema import IndexSchema
    limit_worker_threads()
    schema = IndexSchema.from_meta(schema_meta) if schema_meta else None
    pdir = layout.part_dir(index_dir, part)
    docs_path = os.path.join(pdir, "docs.parquet")
    extra_cols = sorted({c for f in (schema.fields if schema else ())
                         for c in (f.source if f.kind == "composite"
                                   else (f.name,))}
                        - {"url", "warc_ts", "lang", "text"})
    rows = None
    if os.path.exists(docs_path):
        stored = pq.read_table(docs_path)
        ts = stored["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        rows = pd.DataFrame({
            "url": stored["url"].to_numpy(zero_copy_only=False),
            "warc_ts": ts,
            "text": stored["text"].to_numpy(zero_copy_only=False),
            "lang": stored["lang"].to_numpy(zero_copy_only=False),
            **{c: stored[c].to_numpy(zero_copy_only=False)
               for c in extra_cols if c in stored.column_names},
        })
    merged = pd.concat([d for d in (rows, repair_df) if d is not None],
                       ignore_index=True)
    if len(removes):
        # remove(url, v): drop every version with ts <= v (max v per url)
        vmax = removes.groupby("url")["warc_ts"].max()
        v = merged["url"].map(vmax)
        merged = merged[v.isna() | (merged["warc_ts"] > v)]
    if merged.empty:
        # the corrected corpus has no rows here: a clean build would have
        # no partition directory either
        shutil.rmtree(pdir, ignore_errors=True)
        return -1
    group = pd.DataFrame({
        "part": np.full(len(merged), part, dtype=np.int64),
        "url": merged["url"].to_numpy(dtype=object),
        "warc_ts": merged["warc_ts"].to_numpy().astype("datetime64[us]"),
        "text": merged["text"].to_numpy(dtype=object),
        "lang": merged["lang"].to_numpy(dtype=object),
        **{c: merged[c].to_numpy() for c in extra_cols if c in merged.columns},
    })
    out = build_partition(group, index_dir=index_dir, num_shards=num_shards,
                          store_text=True, digest_text=True, schema=schema,
                          analyzer=analyzer)
    return int(out["n_docs"].iloc[0])


def repair_index(index_dir: str, feed: pa.Table) -> dict:
    """Apply a REPAIR/REMOVE feed to a built index (see module docstring).

    ``feed`` columns: op ('repair' | 'remove'), url (string), warc_ts
    (timestamp[us] — the VERSION), text, lang (payload; ignored for
    removes). Returns the refreshed meta.json dict.

    A feed that touches at most ¼ of the partitions takes the DELTA
    OVERLAY merge — O(changed) writes, base segment files byte-untouched —
    even when a remove (or a count-changing repair) shifts later docID
    bases: readers shift those partitions' kept runs on read. Wider feeds
    fold via the splice."""
    import ray as _ray
    from miru_ray.pipelines.build import finalize_index
    from miru_ray.state import layout
    from miru_ray.state.layout import completed_parts, meta_path, read_json
    from miru_ray.state.schema import IndexSchema

    meta = read_json(meta_path(index_dir))
    if meta is None:
        raise FileNotFoundError(f"no meta.json under {index_dir}")
    done = completed_parts(index_dir)
    bad = [p for p, m in done.items()
           if not m.get("store_text") or m.get("has_authz")]
    if bad:
        raise ValueError(
            f"partitions {sorted(bad)[:5]}… are not repairable: repair "
            "rebuilds a partition from its own stored docs, which requires "
            "store_text=True and no posting-only (authz) columns")
    schema = IndexSchema.from_meta(meta.get("schema"))
    sfields = list(schema.fields) if schema else []
    stored_names = {f.name for f in sfields if f.stored}
    avail = {"url", "warc_ts", "lang", "text"} | stored_names
    unstored = [f.name for f in sfields
                if (not all(s in avail for s in f.source)
                    if f.kind == "composite" else not f.stored)]
    if unstored:
        raise ValueError(f"schema fields {unstored} are not stored=True — "
                         "their postings cannot be reconstructed")
    need_cols = sorted({c for f in sfields
                        for c in (f.source if f.kind == "composite"
                                  else (f.name,))} - {"url", "warc_ts",
                                                      "lang", "text"})
    missing = [c for c in need_cols if c not in feed.column_names]
    if missing and (feed.num_rows and
                    (feed["op"].to_pandas() == "repair").any()):
        raise ValueError(f"repair feed must carry the indexed field "
                         f"columns {missing} for this schema'd index")

    t0 = time.perf_counter()
    fdf = feed.to_pandas()
    fdf["warc_ts"] = fdf["warc_ts"].to_numpy().astype("datetime64[us]") \
                                   .astype(np.int64)
    repairs = fdf[fdf["op"] == "repair"].copy()
    removes = fdf[fdf["op"] == "remove"][["url", "warc_ts"]]

    # Locate every fed url's EXISTING partition(s) with a column-pruned
    # pushdown probe: a correction applies IN PLACE wherever the url is
    # indexed (the reference repairs the indexed activity, not a
    # re-routed copy). Routing a repair by its NEW version timestamp
    # would mis-partition it whenever the version bump crosses a
    # time_range boundary — the stale doc would survive in its old
    # partition. Urls found nowhere are ADDS and route by the index's own
    # partitioner on their version timestamp.
    all_urls = sorted(set(fdf["url"]))
    url_parts: dict[str, list[int]] = {}
    if all_urls:
        import pyarrow.dataset as pads
        import pyarrow.parquet as pq

        @_ray.remote
        def probe(part: int) -> tuple[int, list[str]]:
            f = os.path.join(layout.part_dir(index_dir, part), "docs.parquet")
            t = pq.read_table(f, columns=["url"],
                              filters=pads.field("url").isin(all_urls))
            return part, t["url"].to_pylist()

        for part, hit_urls in _ray.get([probe.remote(p)
                                        for p in sorted(done)]):
            for u in hit_urls:
                url_parts.setdefault(u, []).append(part)

    route = _part_fn_from_meta(meta)
    fallback = route(repairs["url"].to_numpy(dtype=object),
                     repairs["warc_ts"].to_numpy())
    rep_parts: list[list[int]] = [
        url_parts.get(u, [int(fb)])
        for u, fb in zip(repairs["url"], fallback)]
    affected = {p for parts in rep_parts for p in parts}
    affected |= {p for u in set(removes["url"]) for p in url_parts.get(u, [])}

    rep_task = _ray.remote(_repair_one_partition)
    rep_cols = ["url", "warc_ts", "text", "lang"] + \
        [c for c in need_cols if c in fdf.columns]
    futs = []
    for p in sorted(affected):
        sel = np.fromiter((p in parts for parts in rep_parts),
                          dtype=bool, count=len(rep_parts))
        pdf = repairs[sel][rep_cols].copy() if len(repairs) else \
            repairs.reindex(columns=rep_cols)
        futs.append(rep_task.remote(
            p, index_dir, pdf, removes, int(meta["num_shards"]),
            meta.get("schema") or [], meta.get("analyzer", "simple")))
    _ray.get(futs)

    phase_t = {"repair_partitions": round(time.perf_counter() - t0, 3),
               "repaired_parts": sorted(affected)}
    return finalize_index(
        index_dir, num_parts=int(meta["num_parts"]),
        num_shards=int(meta["num_shards"]), k1=meta.get("k1", 1.2),
        b=meta.get("b", 0.75), schema=schema,
        analyzer=meta.get("analyzer", "simple"), skipped=[],
        phase_t=phase_t, mode_meta=_mode_meta(meta),
        changed_parts=set(affected))


# --------------------------------------------------------------- entry

def _corrupted_pages(sf_dir: str):
    """documents-as-pages with doc_id % 50 == 0 texts CORRUPTED — the
    base corpus the repair feed will correct."""
    import ray.data as rd
    from miru_ray.sources.tables import documents_as_pages

    def corrupt(t: pa.Table) -> pa.Table:
        ids = np.array([int(u.rsplit("/", 1)[1])
                        for u in t["url"].to_pylist()], dtype=np.int64)
        texts = np.asarray(t["text"].to_pylist(), dtype=object)
        bad = ids % 50 == 0
        texts[bad] = "corrupted placeholder row"
        return t.set_column(t.schema.get_field_index("text"), "text",
                            pa.array(texts, pa.string()))

    ds: rd.Dataset = documents_as_pages(sf_dir)
    return ds.map_batches(corrupt, batch_format="pyarrow") \
             .select_columns(["url", "warc_ts", "text", "lang"])


def repair_feed(sf_dir: str) -> pa.Table:
    """REPAIR ops restoring the true text for doc_id % 50 == 0 (version =
    original + 1 µs, so internal docID order stays monotone in doc_id),
    plus REMOVE ops for doc_id % 97 == 0 (version +2 µs: a doc hit by
    both is removed — the higher version wins)."""
    import pyarrow.parquet as pq
    from miru_ray.sources.tables import DOC_TS_BASE_US
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "lang", "source"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    src = t["source"].to_numpy(zero_copy_only=False)
    urls = np.array([f"doc://{s}/{i}" for s, i in zip(src, ids)], dtype=object)
    ts = DOC_TS_BASE_US + ids * 1_000_000
    rep = ids % 50 == 0
    rem = ids % 97 == 0
    texts = np.asarray(t["text"].to_pylist(), dtype=object)
    langs = t["lang"].to_numpy(zero_copy_only=False)
    return pa.table({
        "op": pa.array(["repair"] * int(rep.sum()) + ["remove"] * int(rem.sum()),
                       pa.string()),
        "url": pa.array(np.concatenate([urls[rep], urls[rem]]), pa.string()),
        "warc_ts": pa.array(np.concatenate([ts[rep] + 1, ts[rem] + 2]),
                            pa.timestamp("us")),
        "text": pa.array(list(texts[rep]) + [None] * int(rem.sum()),
                         pa.string()),
        "lang": pa.array(list(langs[rep]) + [None] * int(rem.sum()),
                         pa.string()),
    })


def repair_base_index(sf_dir: str) -> str:
    """Build (cached) the plain stored-text index over the CORRUPTED
    corpus — the repair entry's starting state. time_range partitioning
    (like documents_index) keeps internal docIDs monotone in the driver's
    doc_id, so BM25 tie-breaks align with the SQL oracle; the +1/2 µs
    repair versions preserve that monotone order (1 s spacing)."""
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.sources.tables import doc_ts_bounds
    from miru_ray.state.layout import cached_source_index

    def build(idx: str) -> None:
        build_index(_corrupted_pages(sf_dir), idx,
                    BuildConfig(num_parts=4, num_shards=2, store_text=True,
                                partition_mode="time_range",
                                time_bounds=doc_ts_bounds(sf_dir)))

    return cached_source_index(sf_dir, "repair", 2, build, root=_CACHE_ROOT)


def repair_replay(sf_dir: str, query: str = "sort merge", k: int = 20) -> pa.Table:
    """Driver entry: build over the corrupted corpus, apply the repair
    feed in place (partition-scoped, version-checked), then BM25 top-k —
    value-identical to SQL BM25 over the corrected corpus (original
    texts, removed docs absent, stats over the corrected corpus).

    The repair is idempotent, so the cached index is repaired at most
    once per source generation (tag committed after the repair)."""
    from miru_ray.pipelines.search import search
    from miru_ray.sources.tables import orig_doc_ids
    from miru_ray.state.layout import read_json, write_json_atomic
    from miru_ray.state.reader import IndexReader
    idx = repair_base_index(sf_dir)
    rtag_path = os.path.join(idx, "repaired_tag.json")
    tag = read_json(os.path.join(idx, "source_tag.json"))
    if read_json(rtag_path) != tag:
        repair_index(idx, repair_feed(sf_dir))
        write_json_atomic(rtag_path, tag)
    hits = search(IndexReader(idx), query, k=k)
    return pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6), pa.float64()),
    })
