"""Removal index — tombstones applied as an ANDNOT mask at query time.

Reference: REMOVE-type activities flip membership in a removal bitmap with
version checks (miru-plugin/.../index/MiruRemovalIndex.java; repair path
miru-service/.../stream/MiruIndexer.java:125-173), and every query ANDs
"all docs ≤ lastId minus removed" (MiruBitmapsRoaring.java:457-504,
applied e.g. miru-analytics-plugins/.../Analytics.java:127-130).

Here: a ``tombstones.json`` sidecar per index holds removed urls; the
reader resolves them to docIDs once (a scan of every partition's url
column) and every search subtracts the set. Removal never rewrites
segments — exactly the reference's delete model (tombstone now,
compaction later)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from miru_ray.state.layout import read_json, write_json_atomic

__all__ = ["add_tombstones", "load_tombstones", "resolve_tombstones"]


def _path(index_dir: str) -> str:
    return os.path.join(index_dir, "tombstones.json")


def add_tombstones(index_dir: str, urls: list[str]) -> list[str]:
    """Append removed urls (idempotent, sorted, atomic write)."""
    cur = set(load_tombstones(index_dir))
    cur.update(urls)
    out = sorted(cur)
    write_json_atomic(_path(index_dir), {"urls": out})
    return out


def load_tombstones(index_dir: str) -> list[str]:
    d = read_json(_path(index_dir))
    return d["urls"] if d else []


def resolve_tombstones(reader) -> np.ndarray:
    """urls → sorted global docID array (absent urls ignored). Every
    partition's url column is checked: under time_range a url re-fetched
    in several time buckets has a doc in each."""
    urls = load_tombstones(reader.index_dir)
    if not urls:
        return np.empty(0, dtype=np.uint64)
    wanted = pa.array(urls)
    out = []
    for p, base in zip(reader.parts, reader.bases):
        # column-pruned per-partition scan, cached per (part, col)
        hit = pc.indices_nonzero(pc.is_in(reader.doc_column(p, "url"),
                                          value_set=wanted))
        out.append(hit.to_numpy().astype(np.uint64) + np.uint64(base))
    return np.sort(np.concatenate(out)) if out else np.empty(0, dtype=np.uint64)
