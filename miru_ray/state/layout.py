"""Index directory layout + per-partition manifests (lineage & resume).

Mirrors the reference's checkpoint surfaces — rebuild/sip cursors persisted
per partition (miru-api/.../wal/RCVSSipCursor.java:10-49,
miru-service/.../partition/MiruLocalHostedPartition.java:877-912) and sync
progress keys (miru-sync-deployable/.../MiruSyncSender.java:226-295) — as
atomic JSON manifests per partition directory:

    index_dir/
      meta.json                     # build config + global stats (N, avgdl, bases)
      digest_cache.json             # verify_inputs: per-source-file input digests
      partitions/part=KKKKK/
        docs.parquet                # local_id, url, warc_ts, lang, doclen
                                    # [+ text if store_text] [+ stored schema
                                    # fields]; sorted by (warc_ts, url)
        postings.parquet            # term, df, cf, docids, tfs, shard
                                    # (sorted by (shard, term); LOCAL ids)
        postings_field_<name>.parquet  # an add_field sidecar, same columns
        manifest.json               # lineage + metrics; presence+status == checkpoint
      segments/
        shard=SSSSS.parquet         # merged GLOBAL-id postings per term + the
                                    # per-partition run directory
      segments_delta/gen=KKKKK/
        shard=SSSSS.parquet         # overlay of the partitions a small commit
                                    # replaced (state/segview.py weaves it in)
      segments_field_<name>/
        shard=SSSSS.parquet         # an add_field field's own segments

A partition is complete iff its manifest exists with status "complete" and
matches the current input digest + extractor version; resume skips it
(SURVEY.md §4 checkpoint row). All writes are write-temp-then-rename. Every
parquet file above is written by ``write_parquet_atomic``: one codec (zstd
level 3, no dictionary pages) and 4,096-row groups.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any

__all__ = [
    "part_dir", "manifest_path", "read_manifest", "write_manifest",
    "completed_parts", "write_json_atomic", "write_parquet_atomic",
    "read_json", "meta_path",
    "segments_dir", "field_segments_dir", "partitions_root", "delta_root",
    "delta_gen_dir", "clear_deltas", "prune_delta_gens",
    "source_cache_dir", "stat_validated_memo",
]

FORMAT_VERSION = 4  # v2: segments carry block-max (bmax) WAND metadata
                    # v3: + per-term run directory (parts, pdfs) enabling
                    #     incremental splice merges (stages/merge.py)
                    # v4: + per-run cf (pcfs), so the delta-overlay read
                    #     path resolves df/cf without decoding blobs
                    #     (state/segview.py)


def partitions_root(index_dir: str) -> str:
    return os.path.join(index_dir, "partitions")


def part_dir(index_dir: str, part: int) -> str:
    return os.path.join(index_dir, "partitions", f"part={part:05d}")


def manifest_path(index_dir: str, part: int) -> str:
    return os.path.join(part_dir(index_dir, part), "manifest.json")


def meta_path(index_dir: str) -> str:
    return os.path.join(index_dir, "meta.json")


def segments_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "segments")


def field_segments_dir(index_dir: str, name: str) -> str:
    """Segment family of an additively-added field (schema_evolve)."""
    return os.path.join(index_dir, f"segments_field_{name}")


def delta_root(index_dir: str) -> str:
    return os.path.join(index_dir, "segments_delta")


def delta_gen_dir(index_dir: str, gen: int) -> str:
    return os.path.join(delta_root(index_dir), f"gen={gen:05d}")


def write_json_atomic(path: str, obj: dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def write_parquet_atomic(table, path: str) -> int:
    """The one writer of index parquet files (partition docs/postings,
    field sidecars, segment shards): tmp-then-rename, zstd level 3 with
    no dictionary pages. Returns the file size in bytes."""
    import pyarrow.parquet as pq
    tmp = path + ".tmp"
    pq.write_table(table, tmp, row_group_size=4096, compression="zstd",
                   compression_level=3, use_dictionary=False)
    os.replace(tmp, path)
    return os.path.getsize(path)


def read_json(path: str) -> dict[str, Any] | None:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def read_manifest(index_dir: str, part: int) -> dict[str, Any] | None:
    return read_json(manifest_path(index_dir, part))


def write_manifest(index_dir: str, part: int, manifest: dict[str, Any]) -> None:
    manifest = {"format_version": FORMAT_VERSION, **manifest}
    write_json_atomic(manifest_path(index_dir, part), manifest)


def completed_parts(index_dir: str) -> dict[int, dict[str, Any]]:
    """part → manifest for every partition marked complete."""
    root = partitions_root(index_dir)
    out: dict[int, dict[str, Any]] = {}
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        if not name.startswith("part="):
            continue
        part = int(name.split("=", 1)[1])
        m = read_manifest(index_dir, part)
        if m and m.get("status") == "complete":
            out[part] = m
    return out


def clear_deltas(index_dir: str) -> None:
    d = delta_root(index_dir)
    if os.path.isdir(d):
        shutil.rmtree(d)


def prune_delta_gens(index_dir: str, keep_gen: int) -> None:
    """Remove every overlay generation directory except ``keep_gen`` —
    the one the just-committed meta references. Run AFTER the meta commit
    so a crash never leaves a referenced generation missing; also sweeps
    generations leaked by earlier runs that crashed before their own
    cleanup."""
    d = delta_root(index_dir)
    if not os.path.isdir(d):
        return
    keep = os.path.basename(delta_gen_dir(index_dir, keep_gen))
    for name in os.listdir(d):
        if name != keep:
            shutil.rmtree(os.path.join(d, name), ignore_errors=True)


# ------------------------------------------------ source-derived caches
#
# ONE staleness recipe for every derived artifact keyed on a driver
# source file (ANN indexes, bloom pairs store, stumptown/documents
# indexes, in-process model/fingerprint memos). A staleness-rule change
# (content digests, mtime granularity, ...) lands HERE once.

def source_cache_dir(sf_dir: str, source_name: str, kind: str,
                     root: str, layout: int, **extra) -> tuple[str, dict]:
    """(cache directory, freshness tag) for an artifact derived from
    ``sf_dir/source_name``. The tag captures source identity
    (abspath, size, mtime_ns) + a layout version + any recipe params;
    callers compare it against the persisted copy and rebuild on any
    mismatch, committing the tag LAST (write_json_atomic)."""
    import re
    src = os.path.join(sf_dir, source_name)
    st = os.stat(src)
    tag = {"src": os.path.abspath(src), "size": st.st_size,
           "mtime_ns": st.st_mtime_ns, "layout": layout, **extra}
    slug = re.sub(r"[^A-Za-z0-9_.-]", "_",
                  os.path.abspath(sf_dir)).strip("_")
    return os.path.join(root, f"{slug}_{kind}" if kind else slug), tag


def cached_source_index(sf_dir: str, kind: str, layout_version: int,
                        build_fn, root: str = "/tmp/miru_ray_idx",
                        source_name: str = "documents.parquet",
                        **extra) -> str:
    """The build-once-per-source-generation skeleton shared by the driver
    entries that derive an index from a testdata file: resolve the cache
    dir + freshness tag, return it if the tag matches and meta.json
    exists, else wipe, run ``build_fn(dir)`` and commit the tag LAST."""
    import shutil
    d, tag = source_cache_dir(sf_dir, source_name, kind, root,
                              layout_version, **extra)
    tag_path = os.path.join(d, "source_tag.json")
    if read_json(tag_path) == tag and read_json(os.path.join(d, "meta.json")):
        return d
    shutil.rmtree(d, ignore_errors=True)
    build_fn(d)
    write_json_atomic(tag_path, tag)
    return d


def stat_validated_memo(cache: dict, key, src_path: str, build,
                        max_entries: int | None = None):
    """Process-lifetime memo with the source stat tuple as VALIDATOR,
    not key part: a regenerated source REPLACES its stale entry instead
    of leaking one per generation.

    ``max_entries`` bounds the cache as a small LRU (insertion order =
    recency; hits re-insert): a parameter sweep over one source then
    holds only the newest few results instead of one full table per
    parameter value for process lifetime (ADVICE r4 #3)."""
    st = os.stat(src_path)
    stat = (st.st_size, st.st_mtime_ns)
    hit = cache.get(key)
    if hit is None or hit[0] != stat:
        val = build()
        if max_entries is not None:
            cache.pop(key, None)
            while len(cache) >= max_entries:
                cache.pop(next(iter(cache)))
        cache[key] = (stat, val)
        return val
    if max_entries is not None:        # LRU touch
        cache.pop(key)
        cache[key] = hit
    return hit[1]


def stat_validated_peek(cache: dict, key, src_path: str):
    """Return the memoized value for ``key`` if present AND still valid
    against the source stat, else None — lets a consumer reuse a sibling
    entry's collected result without forcing the build (ADVICE r4 #1:
    the cluster tier decision must not trigger a driver-side collect)."""
    hit = cache.get(key)
    if hit is None:
        return None
    st = os.stat(src_path)
    if hit[0] != (st.st_size, st.st_mtime_ns):
        return None
    return hit[1]


def stat_validated_put(cache: dict, key, src_path: str, value,
                       max_entries: int | None = None):
    """Seed a memo entry from a value computed elsewhere (same stat
    validation and LRU bound as stat_validated_memo)."""
    return stat_validated_memo(cache, key, src_path, lambda: value,
                               max_entries=max_entries)
