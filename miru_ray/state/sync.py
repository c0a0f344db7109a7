"""Index sync — cross-store replication with durable progress.

Reference: MiruSyncSender replicates WAL ranges between clusters keeping a
durable progress key per (tenant, partition)
(miru-sync-deployable/.../MiruSyncSender.java:74-295). Here: copy a built
index's completed partitions + segments to a destination directory,
skipping partitions whose manifest at the destination already matches
(same input digest + doc count) — idempotent, resumable, atomic per file.
"""

from __future__ import annotations

import os
import shutil

from miru_ray.state.layout import (completed_parts, field_segments_dir,
                                   meta_path, part_dir, read_json,
                                   segments_dir, write_json_atomic)

__all__ = ["sync_index"]


def _copy_atomic(src: str, dst: str) -> None:
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    shutil.copyfile(src, dst + ".tmp")
    os.replace(dst + ".tmp", dst)


def _mirror_dir(src: str, dst: str) -> None:
    """Copy every file of ``src`` into ``dst``, then drop the ``dst`` files
    ``src`` no longer has (e.g. num_shards shrank): SegView globs the
    directory, so stale extras would pollute reads."""
    names = sorted(os.listdir(src))
    os.makedirs(dst, exist_ok=True)
    for name in names:
        _copy_atomic(os.path.join(src, name), os.path.join(dst, name))
    for name in set(os.listdir(dst)) - set(names):
        if not name.endswith(".tmp"):
            os.remove(os.path.join(dst, name))


def sync_index(src_dir: str, dst_dir: str) -> dict:
    """Replicate src index → dst. Returns progress {synced: [...],
    skipped: [...]} (the sync progress record)."""
    os.makedirs(dst_dir, exist_ok=True)
    src_parts = completed_parts(src_dir)
    dst_parts = completed_parts(dst_dir)
    synced, skipped = [], []
    for p, m in sorted(src_parts.items()):
        dm = dst_parts.get(p)
        if dm and dm.get("input_digest") == m.get("input_digest") \
                and dm.get("n_docs") == m.get("n_docs"):
            skipped.append(p)
            continue
        sdir, ddir = part_dir(src_dir, p), part_dir(dst_dir, p)
        for name in ("docs.parquet", "postings.parquet"):
            _copy_atomic(os.path.join(sdir, name), os.path.join(ddir, name))
        write_json_atomic(os.path.join(ddir, "manifest.json"), m)  # commit last
        synced.append(p)
    # base segments: skip the whole copy when the destination's BASE was
    # merged from exactly the same partition builds (meta.part_digests are
    # pinned at base time and the merge is deterministic, so equal digests
    # ⇒ byte-identical base files). After an overlay sip only the ~MB
    # generation travels — the O(delta) replication the reference's
    # sync-sender does (MiruSyncSender.java:74-295).
    src_meta = read_json(meta_path(src_dir))
    dst_meta = read_json(meta_path(dst_dir))
    sseg = segments_dir(src_dir)
    # per-file copies are atomic but the SET is not: a sync that dies mid
    # base copy leaves a MIX of old/new shard files under the old dst meta.
    # The dirty marker brackets that window — set before the first segment
    # byte, cleared only after the dst meta commits — so the skip never
    # trusts digests whose files may not match them.
    dirty_marker = os.path.join(dst_dir, "segments.dirty")
    base_skipped = bool(
        src_meta and dst_meta
        and not os.path.exists(dirty_marker)
        and src_meta.get("part_digests")
        and src_meta.get("part_digests") == dst_meta.get("part_digests")
        and src_meta.get("format_version") == dst_meta.get("format_version")
        and src_meta.get("num_shards") == dst_meta.get("num_shards")
        # part_digests hash the partition INPUTS — identical inputs under
        # a different analyzer/schema produce different segments, so those
        # must match too before equal digests imply equal bytes
        and src_meta.get("analyzer") == dst_meta.get("analyzer")
        and src_meta.get("schema") == dst_meta.get("schema")
        and src_meta.get("extractor_version") == dst_meta.get("extractor_version")
        and os.path.isdir(sseg)
        and all(os.path.exists(os.path.join(segments_dir(dst_dir), n))
                for n in os.listdir(sseg)))
    # additive field families are rewritten whole by add_field, so they
    # travel with the base, or alone when the destination lacks one. Only
    # segments_field_<name>/ is read; the partition sidecars
    # postings_field_<name>.parquet feed add_field's own merge at the source
    fields = [f["name"] for f in (src_meta or {}).get("extra_fields", [])]
    copies = [(sseg, segments_dir(dst_dir))] \
        if os.path.isdir(sseg) and not base_skipped else []
    for name in fields:
        sfam = field_segments_dir(src_dir, name)
        dfam = field_segments_dir(dst_dir, name)
        if os.path.isdir(sfam) and not (base_skipped and os.path.isdir(dfam)):
            copies.append((sfam, dfam))
    if copies:
        with open(dirty_marker, "w"):
            pass
    for sdir, ddir in copies:
        _mirror_dir(sdir, ddir)
    # a live delta overlay travels with the base it annotates. Crash
    # contract (same as the build's finalize): the destination's OLD
    # meta + its generation stay readable until the new meta commits, so
    # the src generation is copied under a FRESH dst generation number
    # (never colliding with any dir a live dst meta could reference), the
    # remapped meta commits, and only then are unreferenced gens dropped.
    from miru_ray.state.layout import (clear_deltas, delta_gen_dir,
                                       delta_root, prune_delta_gens)
    meta = src_meta
    dst_gen = None
    if meta and meta.get("delta"):
        src_gdir = delta_gen_dir(src_dir, int(meta["delta"]["gen"]))
        ddelta = delta_root(dst_dir)
        existing = [int(n.split("=")[1]) for n in
                    (os.listdir(ddelta) if os.path.isdir(ddelta) else [])
                    if n.startswith("gen=") and not n.endswith(".tmp")]
        dst_gen = max(existing + [int(meta["delta"]["gen"]) - 1]) + 1
        dst_gdir = delta_gen_dir(dst_dir, dst_gen)
        for name in sorted(os.listdir(src_gdir)):
            _copy_atomic(os.path.join(src_gdir, name),
                         os.path.join(dst_gdir, name))
        meta = {**meta, "delta": {**meta["delta"], "gen": dst_gen}}
    if meta:
        write_json_atomic(meta_path(dst_dir), meta)
        # base files (if copied) now match the committed meta — close the
        # dirty window. No meta at src ⇒ marker stays, future syncs recopy.
        if os.path.exists(dirty_marker):
            os.remove(dirty_marker)
    if dst_gen is not None:
        prune_delta_gens(dst_dir, dst_gen)
    else:
        clear_deltas(dst_dir)
    ts = os.path.join(src_dir, "tombstones.json")
    if os.path.exists(ts):
        _copy_atomic(ts, os.path.join(dst_dir, "tombstones.json"))
    progress = {"synced": synced, "skipped": skipped,
                "base_skipped": base_skipped}
    write_json_atomic(os.path.join(dst_dir, "sync_progress.json"), progress)
    return progress
