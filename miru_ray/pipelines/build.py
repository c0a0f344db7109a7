"""Index build pipeline — the rebuild path, Ray-Data-first.

Reference lifecycle being re-expressed: WAL → rebuild → online partition
(miru-service/.../partition/MiruLocalHostedPartition.java:877-1010 and
stream/MiruIndexer.java:47-120), restructured per SURVEY.md §7.1:

    read_parquet (pruned)                                  [WAL read]
      → map_batches(extract_batch)  (stateless tasks)      [A extract]
      → map_batches(stamp part = hash(url) % P)            [B partition key]
      → repartition (coalesce oversplit blocks)
      → groupby("part").map_groups(build_partition)        [B,C,E dedup+ids+invert]
      → driver prefix-sum of per-part doc counts → bases   [B global docIDs]
      → per-shard ray tasks merge partition postings       [D,F merge, no shuffle]
      → segments/shard=S.parquet + meta                    [G manifest]

Resume: fast path skips partitions whose manifest is complete (crash
recovery); sip path (cfg.verify_inputs) re-digests the current input with
a column-pruned scan and rebuilds exactly the changed partitions. The
merge step always re-derives global segments from all completed
partitions' files.

Scale notes (100 TB): the ONLY all-to-all over raw data is the
groupby(part) — it IS the partitioning. The posting merge moves
per-(term, partition) compressed blobs via per-shard tasks reading with
parquet predicate pushdown: row count bounded by |vocab|·P regardless of
corpus size, so a Zipf-hot term is P blobs, not cf rows (SURVEY.md §7.5
"Skew"; the generic hot-key salting pattern lives in stages/salted.py for
direct aggregations).
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

import ray.data as rd

from miru_ray.functions.extract import EXTRACTOR_VERSION
from miru_ray.functions.hashing import part_for
from miru_ray.stages.extract import EXTRACT_BATCH_SIZE, extract_batch
from miru_ray.stages.merge import merge_shard
from miru_ray.stages.partition_build import build_partition
from miru_ray.state import layout
from miru_ray.state.layout import (completed_parts, meta_path, part_dir,
                                   segments_dir, write_json_atomic)

__all__ = ["BuildConfig", "build_index", "finalize_index"]

PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang", "authz"]


def current_input_digests(source, num_parts: int,
                          langs: list[str] | None = None,
                          include_text: bool = False,
                          part_fn=None,
                          cache_path: str | None = None,
                          cache_key: dict | None = None) -> dict[int, int]:
    """Cheap per-partition digest of the CURRENT input: reads only
    (url, warc_ts) — column pruning means the heavy html/text never leaves
    storage — and reduces per-batch partial XORs (commutative) with a tiny
    groupby. This is the sip-scan dual: the reference tails the WAL for
    entries newer than the sip cursor (miru-service/.../partition/
    MiruLocalHostedPartition.SipMigrateIndexRunnable:1013-1258); we detect
    partitions whose row set changed at all.

    ``cache_path`` (parquet-path sources only) makes it a TRUE sip: each
    file's per-partition digest vector is cached under its (size,
    mtime_ns), so an unchanged file is never re-read — a resume scans
    only new/changed files; a no-op resume costs stat calls. The cache
    records ``cache_key`` (partitioning + filter params); any mismatch
    discards it. XOR partials compose per file, so the global digest is
    cached ⊕ freshly-scanned.

    Cache size is O(files × parts-touched-per-file): small under time
    partitioning (a time-ordered file touches a few contiguous parts —
    the incremental-ingest layout) but O(files × P) under hash
    partitioning, where every file feeds every partition; a deployment
    hash-partitioning 10^5+ files should shard this JSON into per-file
    parquet rows (same schema, same fold).

    Contract narrowing vs the uncached scan (the classic stat-validator
    tradeoff, same as make/rsync): a file whose CONTENT changed under a
    byte-identical (size, mtime_ns) — deliberate mtime restoration — is
    not re-read. Any real write bumps mtime_ns; delete
    ``digest_cache.json`` to force a full re-digest. NOTE for
    time_range incremental ingest: pin ``cfg.time_bounds`` with
    headroom — auto-derived bounds grow with later-ts appends, which
    REMAPS every partition range and correctly (but expensively)
    invalidates everything."""
    from miru_ray.functions.hashing import hash_strings

    cols = ["url", "warc_ts"] + (["lang"] if langs else []) \
        + (["text"] if include_text else [])

    def partial(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_numpy(zero_copy_only=False)
        ts = batch["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        h = hash_strings(urls) ^ ts.astype(np.uint64)
        if include_text:   # fold content hash — matches input_digest(texts=…)
            h = h ^ hash_strings(batch["text"].to_numpy(zero_copy_only=False))
        parts = part_fn(urls, ts) if part_fn is not None \
            else part_for(urls, num_parts)
        paths = (np.asarray(batch["path"].to_numpy(zero_copy_only=False),
                            dtype=object) if "path" in batch.column_names
                 else np.full(len(urls), "", dtype=object))
        out = {"path": [], "part": [], "digest": [], "n": []}
        for pth in np.unique(paths) if len(paths) else []:
            pm = paths == pth
            for p in np.unique(parts[pm]):
                mask = pm & (parts == p)
                out["path"].append(str(pth))
                out["part"].append(int(p))
                out["digest"].append(int(np.bitwise_xor.reduce(h[mask])))
                out["n"].append(int(mask.sum()))
        return pa.table({"path": pa.array(out["path"], pa.string()),
                         "part": pa.array(out["part"], pa.int64()),
                         "digest": pa.array(out["digest"], pa.uint64()),
                         "n": pa.array(out["n"], pa.int64())})

    def lang_filter(ds):
        if not langs:
            return ds
        keep = pa.array(sorted(set(langs)))
        return ds.map_batches(
            lambda t: t.filter(pa.compute.is_in(t["lang"], value_set=keep)),
            batch_format="pyarrow")

    is_path_src = not isinstance(source, (rd.Dataset, pa.Table))
    files = stats = None
    if cache_path is not None and is_path_src:
        import pyarrow.dataset as pads
        try:   # remote/exotic sources (pads strips URI schemes, os.stat
            # can't see them) fall back to the uncached full scan
            files = sorted(pads.dataset(source).files)
            stats = {f: os.stat(f) for f in files}
        except Exception:
            files = stats = None
    if files is not None:
        from miru_ray.state.layout import read_json, write_json_atomic
        cache = read_json(cache_path) or {}
        key = {"num_parts": num_parts, "langs": sorted(langs or []),
               "include_text": include_text, **(cache_key or {})}
        key_changed = cache.get("__key__") != key
        if key_changed:
            cache = {"__key__": key, "files": {}}
        fcache: dict = cache.get("files", {})
        fresh = [f for f in files
                 if (e := fcache.get(f)) is None
                 or e["size"] != stats[f].st_size
                 or e["mtime_ns"] != stats[f].st_mtime_ns]
        if fresh:
            ds = lang_filter(rd.read_parquet(fresh, columns=cols,
                                             include_paths=True))
            rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
            by_file: dict[str, dict[str, int]] = {f: {} for f in fresh}
            for r in rows:
                d = by_file.setdefault(r["path"], {})
                d[str(r["part"])] = d.get(str(r["part"]), 0) ^ int(r["digest"])
            for f in fresh:
                fcache[f] = {"size": stats[f].st_size,
                             "mtime_ns": stats[f].st_mtime_ns,
                             "parts": by_file.get(f, {})}
        # drop cache entries for files no longer present (deleted inputs
        # must flip the digest, which dropping them achieves)
        dropped = set(fcache) - set(files)
        cache["files"] = {f: fcache[f] for f in files if f in fcache}
        if fresh or dropped or key_changed:   # no-op resume stays stat-only
            write_json_atomic(cache_path, cache)
        acc: dict[int, int] = {}
        for f in files:
            for p, dg in cache["files"][f]["parts"].items():
                acc[int(p)] = acc.get(int(p), 0) ^ int(dg)
        return acc

    if isinstance(source, rd.Dataset):
        ds = source.select_columns(cols)
    elif isinstance(source, pa.Table):
        ds = rd.from_arrow(source.select(cols))
    else:
        ds = rd.read_parquet(source, columns=cols)
    ds = lang_filter(ds)
    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    acc = {}
    for r in rows:  # XOR-fold the per-batch partials (commutative)
        acc[r["part"]] = acc.get(r["part"], 0) ^ int(r["digest"])
    return acc


@dataclass
class BuildConfig:
    num_parts: int = 16          # P — docID partitions (≈ millions of docs each at scale)
    num_shards: int = 8          # S — term shards for the segment layout
    k1: float = 1.2              # BM25 defaults recorded in meta for the query side
    b: float = 0.75
    langs: list[str] | None = None   # optional lang pushdown filter
    store_text: bool = False         # stored-field feature (activity index):
                                     # keep text in docs.parquet for gather/
                                     # highlight (MiruActivityIndex role)
    analyzer: str = "simple"         # primary-field analyzer chain:
                                     # "simple" = the one [a-z0-9]+
                                     # tokenizer; "per_lang" = + per-doc
                                     # language stopword filter
                                     # (TermAnalyzers.java:45-138 dual);
                                     # recorded in meta.json so the query
                                     # side analyzes identically
    schema: "IndexSchema | None" = None   # secondary indexed fields
                                     # (state/schema.py): keyword /
                                     # keyword_list / tokenized columns
                                     # namespaced into the posting space
                                     # (MiruFieldDefinition analogue)
    partition_mode: str = "hash"     # "hash": part = siphash(url) % P —
                                     # uniform, order-free, colocates every
                                     # fetch of a url so latest-wins dedup
                                     # is GLOBAL (the default).
                                     # "time_range": part = warc_ts rank
                                     # bucket — partitions are CONTIGUOUS
                                     # time ranges like the reference's
                                     # time-ordered partition ids
                                     # (MiruPartitionId over time-ordered
                                     # activity), so partition-major
                                     # docIDs are globally warc_ts-ordered
                                     # AND the build parallelizes across
                                     # P tasks. CAVEAT (reference-
                                     # consistent): latest-wins url dedup
                                     # is then PARTITION-LOCAL — a url
                                     # re-fetched in a different time
                                     # bucket keeps both versions, exactly
                                     # as re-ingested activity lands in a
                                     # newer Miru time partition; use hash
                                     # mode (or tombstones at query time)
                                     # when global url dedup must hold.
                                     # Byte-identity with a num_parts=1
                                     # build therefore holds for inputs
                                     # whose urls are unique (pytest-
                                     # pinned on the documents adapter).
    time_bounds: "tuple[int, int] | None" = None
                                     # optional (lo_us, hi_us) warc_ts
                                     # bounds for time_range mode; when
                                     # the caller knows them (or can read
                                     # them from source statistics),
                                     # passing them skips _ts_bounds'
                                     # extra pass over Dataset sources.
    verify_inputs: bool = False      # sip mode: re-digest the current input
                                     # and rebuild partitions whose rows
                                     # changed; off = fast crash-recovery
                                     # resume (manifest presence only).
                                     # Text-mode inputs fold a content hash
                                     # into the digest (text changes under an
                                     # unchanged (url, warc_ts) ARE detected);
                                     # html-mode inputs digest (url, warc_ts)
                                     # only — a content-only change with the
                                     # same url+fetch-ts is NOT detected there.


def _stamp_part(batch: pa.Table, *, num_parts: int) -> pa.Table:
    urls = batch["url"].to_numpy(zero_copy_only=False)
    return batch.append_column("part", pa.array(part_for(urls, num_parts), pa.int64()))


def _time_parts(ts_us: np.ndarray, num_parts: int, lo: int, hi: int) -> np.ndarray:
    span = max(hi - lo + 1, 1)
    return np.clip((ts_us - lo) * num_parts // span, 0, num_parts - 1)


def _stamp_part_time(batch: pa.Table, *, num_parts: int, lo: int, hi: int) -> pa.Table:
    ts = batch["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    return batch.append_column(
        "part", pa.array(_time_parts(ts, num_parts, lo, hi), pa.int64()))


def _ts_bounds(source) -> tuple[int, int]:
    """Global (min, max) warc_ts in µs. Parquet sources answer from
    row-group STATISTICS (metadata only — no data read); in-memory
    sources pay one tiny column pass."""
    if isinstance(source, pa.Table):
        mm = pa.compute.min_max(source["warc_ts"])
        return (mm["min"].cast(pa.int64()).as_py(),
                mm["max"].cast(pa.int64()).as_py())
    if isinstance(source, rd.Dataset):
        def mm(t: pa.Table) -> pa.Table:
            ts = t["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            return pa.table({"lo": pa.array([int(ts.min())], pa.int64()),
                             "hi": pa.array([int(ts.max())], pa.int64())})
        rows = (source.select_columns(["warc_ts"])
                .map_batches(mm, batch_format="pyarrow").take_all())
        return (min(r["lo"] for r in rows), max(r["hi"] for r in rows))
    import glob as _glob
    import pyarrow.parquet as pq
    paths = []
    for s in (source if isinstance(source, (list, tuple)) else [source]):
        if os.path.isdir(s):
            paths.extend(sorted(_glob.glob(os.path.join(s, "*.parquet"))))
        else:
            paths.append(s)
    lo, hi = None, None
    for p in paths:
        meta = pq.ParquetFile(p).metadata
        ci = meta.schema.to_arrow_schema().get_field_index("warc_ts")
        for rg in range(meta.num_row_groups):
            st = meta.row_group(rg).column(ci).statistics
            if st is not None and st.has_min_max:
                mn = int(pa.scalar(st.min).cast(pa.timestamp("us")).value) \
                    if not isinstance(st.min, int) else int(st.min)
                mx = int(pa.scalar(st.max).cast(pa.timestamp("us")).value) \
                    if not isinstance(st.max, int) else int(st.max)
                lo = mn if lo is None else min(lo, mn)
                hi = mx if hi is None else max(hi, mx)
    if lo is None:
        return 0, 0
    return lo, hi


def build_index(source, index_dir: str, cfg: BuildConfig | None = None) -> dict:
    """Build (or resume) the inverted index from a pages source.

    Args:
        source: parquet path/list, a ``ray.data.Dataset``, or a pyarrow Table
            with the pages schema (html optional if text present).
        index_dir: output index root (created).
        cfg: build configuration.

    Returns meta dict (also persisted to ``index_dir/meta.json``).
    """
    cfg = cfg or BuildConfig()
    os.makedirs(index_dir, exist_ok=True)
    phase_t: dict[str, float] = {}
    t_start = time.perf_counter()

    # --- input ---
    if isinstance(source, rd.Dataset):
        ds = source
    elif isinstance(source, pa.Table):
        ds = rd.from_arrow(source)
    else:
        ds = rd.read_parquet(source)   # column pruning below via projection
    names = ds.schema().names
    has_html = "html" in names
    wanted = list(PAGES_COLUMNS)
    for f in (cfg.schema.fields if cfg.schema else ()):
        wanted.extend(f.source if f.kind == "composite" else (f.name,))
    keep = list(dict.fromkeys(c for c in wanted if c in names))
    ds = ds.select_columns(keep)
    if cfg.langs:
        langs = set(cfg.langs)
        ds = ds.map_batches(
            lambda t: t.filter(pa.compute.is_in(t["lang"], value_set=pa.array(sorted(langs)))),
            batch_format="pyarrow")

    # --- [A] extract ---
    if has_html:
        ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                            batch_size=EXTRACT_BATCH_SIZE)

    # --- [B] partition key ---
    part_fn = None
    if cfg.partition_mode == "time_range":
        lo_ts, hi_ts = cfg.time_bounds or _ts_bounds(source)
        stamp = functools.partial(_stamp_part_time, num_parts=cfg.num_parts,
                                  lo=lo_ts, hi=hi_ts)
        part_fn = lambda urls, ts, n=cfg.num_parts, lo=lo_ts, hi=hi_ts: \
            _time_parts(ts, n, lo, hi)                      # noqa: E731
    else:
        stamp = functools.partial(_stamp_part, num_parts=cfg.num_parts)
    ds = ds.map_batches(stamp, batch_format="pyarrow")

    # --- resume: skip partitions already complete.
    # Fast path (crash recovery, same input): manifest presence+status.
    # Sip path (cfg.verify_inputs, input may have grown/changed): compare
    # each completed manifest's input_digest against a cheap re-digest of
    # the CURRENT input; mismatched partitions are rebuilt. ---
    done = completed_parts(index_dir)
    # a manifest built by a DIFFERENT extractor version is stale regardless
    # of input digest — resume must never mix extractor versions in one
    # index (layout.py contract)
    # ... and so is one built under a DIFFERENT IndexSchema: a resumed
    # index must never mix partitions with different field postings
    # (the reference's additive-schema guard,
    # MiruSchema.checkAdditive:303-314). Old manifests without the key
    # compare unequal and rebuild — the safe direction.
    want_schema = cfg.schema.to_meta() if cfg.schema else []
    for p in [p for p, m in done.items()
              if m.get("extractor_version") != EXTRACTOR_VERSION
              or m.get("schema_meta") != want_schema
              or m.get("analyzer", "simple") != cfg.analyzer]:
        done.pop(p)
        os.remove(layout.manifest_path(index_dir, p))
    digest_text = (not has_html) and ("text" in names)
    if done and cfg.verify_inputs:
        # per-file digest cache lives beside the index: the partition
        # params key it, so a num_parts / mode / bounds change rescans
        pkey = {"mode": cfg.partition_mode,
                "bounds": (list(cfg.time_bounds) if cfg.time_bounds
                           else ([lo_ts, hi_ts]
                                 if cfg.partition_mode == "time_range"
                                 else None))}
        current = current_input_digests(
            source, cfg.num_parts, cfg.langs, include_text=digest_text,
            part_fn=part_fn,
            cache_path=os.path.join(index_dir, "digest_cache.json"),
            cache_key=pkey)
        stale = [p for p, m in done.items()
                 if current.get(p, 0) != m.get("input_digest")]
        for p in stale:
            done.pop(p)
            # drop the stale manifest so a partition whose rows vanished
            # entirely doesn't survive as a completed ghost
            os.remove(layout.manifest_path(index_dir, p))
    skipped = sorted(done)
    if done:
        done_arr = pa.array(sorted(done), pa.int64())
        ds = ds.map_batches(
            lambda t, d=done_arr: t.filter(
                pa.compute.invert(pa.compute.is_in(t["part"], value_set=d))),
            batch_format="pyarrow")

    # coalesce oversplit blocks before the all-to-all: shuffle cost scales
    # with block COUNT as well as bytes; never go below the natural file
    # count (big inputs keep their size-driven blocking)
    import ray as _ray
    ncpu = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
    try:
        n_files = len(ds.input_files() or [])
    except Exception:
        n_files = 0
    target_blocks = max(2 * ncpu, cfg.num_parts, n_files)
    ds = ds.repartition(target_blocks)

    # --- [B,C,E] per-partition build (dedup → docIDs → invert → write) ---
    builder = functools.partial(build_partition, index_dir=index_dir,
                                num_shards=cfg.num_shards,
                                store_text=cfg.store_text,
                                digest_text=digest_text,
                                schema=cfg.schema, analyzer=cfg.analyzer)
    # memory-bandwidth guard: the build bodies are streaming kernels whose
    # aggregate throughput saturates a single socket around ~16 concurrent
    # tasks (measured: per-task cost inflates ~3x at 32). Reserve 2 CPUs
    # per group task on big hosts so concurrency caps near the knee. The
    # ~100 ms bus probe records the CO-TENANT interference covariate in
    # meta/bench artifacts (the r3 driver-window regression signature);
    # shedding concurrency further under a contended bus was measured and
    # REJECTED — co-tenant pressure doesn't abate when we idle cores
    # (32 CPUs: 13.5 s at 8 tasks vs 13.3 s at 16; 16 CPUs: 182 s at 4
    # tasks vs 41 s at 16, same 4 GB/s window).
    group_cpus = 1
    bus_gbps = None
    if ncpu > 16:
        from miru_ray.functions.runtime import mem_bw_gbps
        bus_gbps = mem_bw_gbps()
        group_cpus = 2
    new_manifests = ds.groupby("part").map_groups(builder, batch_format="pandas",
                                                  num_cpus=group_cpus)
    # materialize the (tiny: one row per partition) manifest dataset
    _ = new_manifests.count()
    phase_t["partition_build"] = round(time.perf_counter() - t_start, 3)

    # --- [B,D,F,G] bases + segment merge + meta (shared with the repair
    # path, pipelines/repair.py) ---
    mode_meta = {"partition_mode": cfg.partition_mode}
    if cfg.partition_mode == "time_range":
        mode_meta["time_bounds"] = [int(lo_ts), int(hi_ts)]
    # resumed/incremental run: the partitions NOT skipped are the ones this
    # run rewrote — candidates for the splice merge
    changed = (set(completed_parts(index_dir)) - set(skipped)) if skipped \
        else None
    return finalize_index(
        index_dir, num_parts=cfg.num_parts, num_shards=cfg.num_shards,
        k1=cfg.k1, b=cfg.b, schema=cfg.schema, analyzer=cfg.analyzer,
        skipped=skipped, phase_t=phase_t, group_cpus=group_cpus,
        bus_gbps=bus_gbps, mode_meta=mode_meta, changed_parts=changed)


def _partition_bytes(done: dict[int, dict]) -> dict:
    """{"partition_bytes": docs + postings bytes over every completed
    partition}, or {} when a manifest predates those keys — a partial sum
    would undercount."""
    if not all("docs_bytes" in m and "postings_bytes" in m
               for m in done.values()):
        return {}
    return {"partition_bytes": sum(m["docs_bytes"] + m["postings_bytes"]
                                   for m in done.values())}


def finalize_index(index_dir: str, *, num_parts: int, num_shards: int,
                   k1: float, b: float, schema, analyzer: str,
                   skipped: list[int], phase_t: dict[str, float],
                   group_cpus: int = 1, bus_gbps: float | None = None,
                   mode_meta: dict | None = None,
                   changed_parts: set[int] | None = None) -> dict:
    """Global docID bases (prefix sum over completed partitions) → per-shard
    segment merge → meta.json. The commit tail of ``build_index``, shared
    with the repair path (pipelines/repair.py) which rewrites partitions
    out-of-band and must re-derive the same global state.

    When ``changed_parts`` names the partitions rewritten this run and the
    previous segments carry the v3 run directory, the merge is incremental.
    A commit that replaces at most ¼ of the partitions writes one small
    delta OVERLAY generation (stages/merge.delta_shard) and leaves the
    base files untouched; readers drop the replaced runs and shift kept
    runs whose docID base moved (state/segview.py). One that replaces at
    most ½ SPLICES those runs into the previous segment files
    (stages/merge.splice_shard), digest-identical to a full merge.
    Anything wider, or any failed precondition, runs the full merge."""
    import ray as _ray
    done = completed_parts(index_dir)
    old_meta = layout.read_json(meta_path(index_dir))
    # additive fields (schema_evolve.add_field) cannot ride a rebuilt
    # meta: the rebuilt partitions lost their field sidecars. Their names
    # stay recorded so a query naming one fails loudly until add_field
    # re-derives it (search._refuse_dropped_fields)
    prev = old_meta or {}
    dropped_fields = sorted(
        ({r["name"] for r in prev.get("extra_fields", [])}
         | set(prev.get("dropped_fields", [])))
        - {f.name for f in (schema.fields if schema else ())})
    dropped_meta = ({"dropped_fields": dropped_fields} if dropped_fields
                    else {})
    if not done:
        meta = {"num_parts": num_parts, "num_shards": num_shards,
                "n_docs": 0, "avgdl": 0.0, "bases": {}, "k1": k1, "b": b,
                "extractor_version": EXTRACTOR_VERSION, "skipped_parts": skipped,
                "schema": schema.to_meta() if schema else [],
                "analyzer": analyzer, **dropped_meta, **(mode_meta or {})}
        write_json_atomic(meta_path(index_dir), meta)
        return meta
    parts_sorted = sorted(done)
    counts = np.array([done[p]["n_docs"] for p in parts_sorted], dtype=np.int64)
    bases_arr = np.concatenate([[0], np.cumsum(counts)[:-1]])
    bases = {p: int(b_) for p, b_ in zip(parts_sorted, bases_arr)}
    n_docs = int(counts.sum())
    sum_doclen = int(sum(done[p]["sum_doclen"] for p in parts_sorted))
    avgdl = sum_doclen / n_docs if n_docs else 0.0

    # --- [D,F] merge partition postings into global segments: one task per
    # term shard, parquet predicate pushdown instead of a Ray shuffle ---
    part_files = {p: os.path.join(part_dir(index_dir, p), "postings.parquet")
                  for p in parts_sorted}
    seg_tmp = segments_dir(index_dir) + ".tmp"
    seg_trash = segments_dir(index_dir) + ".old"
    import shutil as _shutil0
    # a crashed run's leftovers (possibly under a different num_shards) must
    # never ride into the swap, and a crashed swap's trash must not outlive
    # a commit that takes the overlay path
    _shutil0.rmtree(seg_tmp, ignore_errors=True)
    _shutil0.rmtree(seg_trash, ignore_errors=True)
    t_merge = time.perf_counter()
    merge_mode = "full"
    # the merge decodes/encodes compressed blobs — CPU-bound, not
    # memory-streaming — so it never sheds below 2 CPUs/task even when the
    # bus guard widened the partition-build reservation (measured under a
    # 4 GB/s bus: merge 3.4 s at 16 tasks vs 5.3 s at 8)
    merge_cpus = min(group_cpus, 2)
    delta_out = None          # "delta" meta dict when the overlay path ran
    base_pd_keep = None       # base-time part_digests to retain in meta
    if changed_parts is not None and old_meta is not None:
        prev_delta = old_meta.get("delta")
        # the bases the BASE segment files were merged under: a live
        # overlay means meta["bases"] has moved past them
        base_bases = {int(p): int(v) for p, v in
                      (((prev_delta or {}).get("base_bases"))
                       or old_meta.get("bases") or {}).items()}
        dropped_parts = set(base_bases) - set(parts_sorted)
        changed = set(changed_parts) & set(parts_sorted)
        # crash-safety: a partition rebuilt by a PREVIOUS run that died
        # before finalize is not in changed_parts, but its manifest no
        # longer matches what the current view was derived from. That view
        # is the BASE digests overridden by the overlay's digests; any
        # skipped partition whose manifest digest differs must be folded
        # too — without part_digests in the old meta this is unsafe.
        old_pd = old_meta.get("part_digests")
        gen_pd = {int(p): v for p, v in
                  ((prev_delta or {}).get("part_digests") or {}).items()}
        if old_pd is None:
            changed = None   # pre-digest meta: fall back to full merge
        else:
            prior = {int(p): v for p, v in old_pd.items()}
            prior.update(gen_pd)
            for p in parts_sorted:
                if p in changed:
                    continue
                if (p not in prior
                        or prior[p] != done[p].get("input_digest")):
                    changed.add(p)
        touch = ((changed | dropped_parts) if changed is not None
                 else set())
        seg_old = {s: os.path.join(segments_dir(index_dir),
                                   f"shard={s:05d}.parquet")
                   for s in range(num_shards)}
        segs_usable = (changed is not None
                       and old_meta.get("format_version") == layout.FORMAT_VERSION
                       and int(old_meta.get("num_shards", -1)) == num_shards
                       and all(os.path.exists(f) for f in seg_old.values()))
        if segs_usable and not touch:
            # true no-op resume: the current view (base + any overlay) was
            # derived from exactly these partition builds — reuse untouched
            phase_t["segment_merge"] = round(time.perf_counter() - t_merge, 3)
            phase_t["merge_mode"] = "reuse"
            meta = {**old_meta, "skipped_parts": skipped,
                    "phase_sec": phase_t, "bus_gbps": bus_gbps,
                    "group_cpus": group_cpus, **(mode_meta or {})}
            write_json_atomic(meta_path(index_dir), meta)
            return meta
        if segs_usable and touch:
            # parts whose BASE runs are superseded: changed this run plus
            # everything a live overlay already covers (the new overlay/
            # splice must keep covering them — base files stay stale)
            prev_overlaid = {p for p in gen_pd if p in set(parts_sorted)}
            stale = changed | prev_overlaid
            replaced = sorted(stale | dropped_parts)
            if len(replaced) * 4 <= max(
                    num_parts, len(parts_sorted), len(base_bases)):
                # overlay append: leave the base files untouched, write ONE
                # small generation covering every stale partition (a prior
                # generation is fully superseded, then dropped). Kept base
                # runs whose base moved are shifted on read (SegView)
                import shutil as _shutil
                from miru_ray.stages.merge import delta_shard
                gen = (int(prev_delta["gen"]) + 1) if prev_delta else 0
                gen_dir = layout.delta_gen_dir(index_dir, gen)
                gen_tmp = gen_dir + ".tmp"
                _shutil.rmtree(gen_tmp, ignore_errors=True)
                changed_files = {p: part_files[p] for p in sorted(stale)}
                delta_task = _ray.remote(num_cpus=merge_cpus)(delta_shard)
                futs = [delta_task.remote(s_, seg_old[s_], changed_files,
                                          bases, gen_tmp)
                        for s_ in range(num_shards)]
                seg_stats = _ray.get(futs)
                _shutil.rmtree(gen_dir, ignore_errors=True)  # crashed orphan
                os.makedirs(os.path.dirname(gen_dir), exist_ok=True)
                os.replace(gen_tmp, gen_dir)
                # superseded generations are removed only AFTER the new
                # meta commits (below) — a crash here must leave the old
                # meta's generation readable
                merge_mode = "delta"
                delta_out = {
                    "gen": gen,
                    "replaced_parts": [int(p) for p in replaced],
                    "base_bases": {str(p): int(v)
                                   for p, v in base_bases.items()},
                    "part_digests": {str(p): done[p].get("input_digest")
                                     for p in sorted(stale)},
                }
                base_pd_keep = dict(old_pd)
            elif len(replaced) <= len(parts_sorted) // 2:
                # splice the base files up to current truth (folds any live
                # overlay's partitions too, re-reading their postings)
                from miru_ray.stages.merge import splice_shard
                changed_files = {p: part_files[p] for p in sorted(stale)}
                splice_task = _ray.remote(num_cpus=merge_cpus)(splice_shard)
                futs = [splice_task.remote(s_, seg_old[s_], changed_files,
                                           base_bases, bases,
                                           dropped_parts, seg_tmp)
                        for s_ in range(num_shards)]
                seg_stats = _ray.get(futs)
                merge_mode = "splice"
    if merge_mode == "full":
        # plain task fan-out (the documented raw-Ray exception: input is a
        # list of shard ids, not data — no Dataset semantics to preserve)
        merge_task = _ray.remote(num_cpus=merge_cpus)(merge_shard)
        futs = [merge_task.remote(s_, part_files, bases, seg_tmp)
                for s_ in range(num_shards)]
        seg_stats = [t.to_pylist()[0] for t in _ray.get(futs)]
    if merge_mode != "delta":
        # swap via two atomic renames (live → trash, tmp → live) instead of
        # rmtree-then-rename: the no-segments window shrinks from an
        # O(files) delete to ~µs, and a reader holding open handles keeps
        # reading the old inodes. Trash + any overlay the OLD meta still
        # references are deleted only AFTER the new meta commits below, so
        # every crash point leaves a meta whose referenced files exist.
        seg_live = segments_dir(index_dir)
        if os.path.isdir(seg_live):
            os.rename(seg_live, seg_trash)
        os.replace(seg_tmp, seg_live)
    phase_t["segment_merge"] = round(time.perf_counter() - t_merge, 3)
    phase_t["merge_mode"] = merge_mode
    # the slowest merge task's own time: segment_merge minus this is Ray
    # dispatch and the swap
    phase_t["merge_shard_max_s"] = round(
        max((r["elapsed_s"] for r in seg_stats), default=0.0), 4)

    meta = {
        "format_version": layout.FORMAT_VERSION,
        "num_parts": num_parts,
        "num_shards": num_shards,
        "k1": k1, "b": b,
        "n_docs": n_docs,
        "avgdl": avgdl,
        "sum_doclen": sum_doclen,
        "bases": {str(p): bases[p] for p in parts_sorted},
        "part_counts": {str(p): int(done[p]["n_docs"]) for p in parts_sorted},
        # what the BASE segments were merged from — the splice/delta
        # staleness guard (a skipped partition whose manifest digest
        # differs from this view was rebuilt by a run that died before
        # finalize). Under a delta overlay this stays pinned at base time;
        # the overlay's own digests live in meta["delta"]["part_digests"].
        "part_digests": (base_pd_keep if merge_mode == "delta"
                         else {str(p): done[p].get("input_digest")
                               for p in parts_sorted}),
        **({"delta": delta_out} if delta_out is not None else {}),
        "extractor_version": EXTRACTOR_VERSION,
        "skipped_parts": skipped,
        "schema": schema.to_meta() if schema else [],
        **dropped_meta,
        "analyzer": analyzer,
        "tokenizer": "[a-z0-9]+ lowercase",
        "n_terms": int(sum(r["n_terms"] for r in seg_stats)),
        "segment_bytes": int(sum(r["bytes"] for r in seg_stats)),
        **_partition_bytes(done),
        "phase_sec": phase_t,
        "bus_gbps": bus_gbps,
        "group_cpus": group_cpus,
        **(mode_meta or {}),
    }
    write_json_atomic(meta_path(index_dir), meta)
    if merge_mode == "delta":
        layout.prune_delta_gens(index_dir, int(delta_out["gen"]))
    else:
        _shutil0.rmtree(seg_trash, ignore_errors=True)
        layout.clear_deltas(index_dir)   # the new meta carries no overlay
    return meta
