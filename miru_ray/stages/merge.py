"""Segment merge — stage [F]: per-partition postings → global index segments.

Reference dual: LAB delta/merge of atomized bitmap containers
(miru-service/.../index/lab/LabInvertedIndex.java:76-449) and the
answer-side merge contract (miru-plugin/.../solution/MiruAnswerMerger.java).

Design: one task per term-shard ``s`` reads only the ``shard == s`` rows of
every completed partition's postings file (parquet predicate pushdown),
concatenates, sorts by (term, part) and merges every term's runs in ONE
bulk numpy kernel (``merge_rows``: whole-column decode, one rebase,
whole-column encode — no per-term Python loop). This replaces a
groupby(term) all-to-all with an embarrassingly parallel fan-out over S
shards — there is NO Ray-level shuffle in the merge:

- group row count per shard is bounded by |vocab_shard| · P regardless of
  corpus size (hot terms are one compressed blob per partition, not one row
  per occurrence — Zipf skew defused, SURVEY.md §7.5);
- global docIDs are ``base[part] + local_id`` (bases = prefix sum over
  partitions), so per-partition id ranges are disjoint and ordered by part:
  merging = rebase + concatenate in part order, already globally sorted.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from miru_ray.functions.postings import (block_max_many, block_max_tf,
                                         decode_ids, decode_many_ids,
                                         decode_many_tfs, decode_tfs,
                                         encode_ids, encode_many_ids,
                                         encode_many_tfs, encode_tfs,
                                         split_runs, weave_runs)
from miru_ray.state.layout import write_parquet_atomic

__all__ = ["merge_shard", "merge_rows", "splice_shard", "delta_shard"]


_SEGMENT_TYPES = {
    "term": pa.string(), "shard": pa.int64(), "df": pa.int64(),
    "cf": pa.int64(), "docids": pa.binary(), "tfs": pa.binary(),
    "bmax": pa.binary(), "parts": pa.list_(pa.int64()),
    "pdfs": pa.list_(pa.int64()), "pcfs": pa.list_(pa.int64()),
}
_SCHEMA = pa.schema(list(_SEGMENT_TYPES.items()))


def _segment_table(cols: dict[str, list]) -> pa.Table:
    """Segment rows (one per term) from per-column lists."""
    return pa.table({k: pa.array(cols[k], t)
                     for k, t in _SEGMENT_TYPES.items()})


def merge_rows(rows: pa.Table, bases: dict[int, int]) -> pa.Table:
    """Merge partial postings (term, part, df, cf, docids, tfs) → one row per
    term with rebased, globally-sorted ids. Input may hold many terms.

    One bulk kernel over the whole table, no per-term loop: decode every
    docids/tfs blob into one flat array (functions/postings
    decode_many_*), rebase with one ``np.repeat`` of ``bases[part]``,
    re-encode per term with the bulk encoders. Rows sorted by (term,
    part) put each term's runs in part order == id order, so the flat
    ids are already globally sorted within each term.

    Each output row also records its RUN DIRECTORY — ``parts`` (the
    partitions contributing a run, in part order == id order) and ``pdfs``
    (that run's df) — the "singleton-merge header" that lets a later
    incremental merge splice a changed partition's run in and out without
    re-reading every partition (splice_shard below)."""
    if rows.num_rows == 0:
        return _SCHEMA.empty_table()
    # sort in ARROW, not pandas: pandas' multi-key sort_values mis-orders
    # strings with embedded NULs (the \x00field\x00 namespace), leaving
    # same-term rows non-adjacent and breaking the run grouping below.
    # Arrow compares string columns bytewise.
    rows = rows.sort_by([("term", "ascending"), ("part", "ascending")])
    terms = rows["term"].combine_chunks()
    n = len(terms)
    new_term = np.ones(n, dtype=bool)
    new_term[1:] = pc.not_equal(terms[1:], terms[:-1]).to_numpy(
        zero_copy_only=False)
    starts = np.flatnonzero(new_term)
    parts = rows["part"].to_numpy()
    dfs = rows["df"].to_numpy()
    cfs = rows["cf"].to_numpy()

    ids, id_counts = decode_many_ids(rows["docids"])
    tfs, _ = decode_many_tfs(rows["tfs"])
    uparts, pidx = np.unique(parts, return_inverse=True)
    row_base = np.array([bases[int(p)] for p in uparts], np.uint64)[pidx]
    ids += np.repeat(row_base, id_counts)
    counts = np.add.reduceat(id_counts, starts)

    offsets = pa.array(np.append(starts, n).astype(np.int32))

    def runs(values: np.ndarray) -> pa.ListArray:
        return pa.ListArray.from_arrays(offsets, pa.array(values, pa.int64()))

    return pa.table({
        "term": terms.take(starts).cast(pa.string()),
        "shard": rows["shard"].combine_chunks().take(starts),
        "df": pa.array(np.add.reduceat(dfs, starts), pa.int64()),
        "cf": pa.array(np.add.reduceat(cfs, starts), pa.int64()),
        "docids": encode_many_ids(ids, counts),
        "tfs": encode_many_tfs(tfs, counts),
        "bmax": block_max_many(tfs, counts),
        "parts": runs(parts), "pdfs": runs(dfs), "pcfs": runs(cfs),
    }, schema=_SCHEMA)


def _write_shard(table: pa.Table, out_dir: str, shard: int) -> int:
    """Write one shard file atomically; returns its size."""
    os.makedirs(out_dir, exist_ok=True)
    return write_parquet_atomic(
        table, os.path.join(out_dir, f"shard={shard:05d}.parquet"))


def _fresh_rows(shard: int, changed_files: dict[int, str],
                bases: dict[int, int]) -> pa.Table:
    """Read the ``shard`` rows of each changed partition's postings
    (predicate pushdown), stamp part/shard, and merge per term — the
    shared front half of the full/splice/delta merges."""
    pieces = []
    for part, path in changed_files.items():
        t = pq.read_table(path, filters=pads.field("shard") == shard,
                          columns=["term", "df", "cf", "docids", "tfs"])
        if t.num_rows:
            t = t.append_column("part", pa.array([part] * t.num_rows, pa.int64()))
            t = t.append_column("shard", pa.array([shard] * t.num_rows, pa.int64()))
            pieces.append(t)
    return merge_rows(pa.concat_tables(pieces) if pieces else
                      pa.table({"term": pa.array([], pa.string())}), bases)


def splice_shard(shard: int, old_file: str, changed_files: dict[int, str],
                 old_bases: dict[int, int], new_bases: dict[int, int],
                 dropped: set[int], segments_tmp: str) -> dict:
    """Incremental merge of ONE shard: start from the previous segment
    file, splice OUT the runs of changed/dropped partitions and splice IN
    the changed partitions' fresh postings — never re-reading the
    unchanged partitions' postings files (reference dual: LAB delta
    merge of atomized containers, LabInvertedIndex.java:76-449; this is
    DESIGN.md's "singleton-merge header patch").

    Byte-identity: a term whose runs are untouched AND whose partitions'
    bases are unshifted is copied RAW (no decode); every other term is
    re-derived from decoded runs and re-encoded with the same codec the
    full merge uses — output files are digest-identical to a clean full
    merge (pytest-pinned).
    """
    from miru_ray.functions.runtime import limit_worker_threads
    limit_worker_threads()
    t0 = time.perf_counter()
    old = pq.read_table(old_file)
    fresh = _fresh_rows(shard, changed_files, new_bases)
    # bulk-convert EVERY column once — chained-array cell.as_py() per row
    # costs five chunk lookups per untouched term, which dominates exactly
    # the fast path this function exists for
    o = {k: old[k].to_pylist() for k in _SEGMENT_TYPES}
    f = {k: fresh[k].to_pylist() for k in _SEGMENT_TYPES}
    fresh_by_term: dict[str, int] = {t: i for i, t in enumerate(f["term"])}
    gone = set(changed_files) | set(dropped)
    delta = {p: new_bases.get(p, 0) - old_bases.get(p, 0)
             for p in old_bases}
    out = {k: [] for k in _SEGMENT_TYPES}

    def emit(*row):
        for k, v in zip(_SEGMENT_TYPES, row):
            out[k].append(v)

    consumed: set[str] = set()
    for i, (term, parts_l) in enumerate(zip(o["term"], o["parts"])):
        fi = fresh_by_term.get(term)
        if fi is None and not any(p in gone or delta.get(p, 0)
                                  for p in parts_l):
            emit(*(o[k][i] for k in _SEGMENT_TYPES))   # untouched: raw copy
            continue
        # decode, drop gone runs, shift kept runs, weave in fresh runs
        runs = split_runs(decode_ids(o["docids"][i]), decode_tfs(o["tfs"][i]),
                          parts_l, o["pdfs"][i], gone, delta)
        if fi is not None:
            consumed.add(term)
            runs += split_runs(decode_ids(f["docids"][fi]),
                               decode_tfs(f["tfs"][fi]), f["parts"][fi],
                               f["pdfs"][fi])
        if not runs:
            continue   # every run dropped: the term vanishes
        ids, tfs = weave_runs(runs)
        emit(term, shard, len(ids), int(tfs.sum()), encode_ids(ids),
             encode_tfs(tfs), block_max_tf(tfs), [r[0] for r in runs],
             [len(r[1]) for r in runs], [int(r[2].sum()) for r in runs])
    # fresh terms not woven into an existing row are brand new — emit as-is
    for fi, term in enumerate(f["term"]):
        if term not in consumed:
            emit(*(f[k][fi] for k in _SEGMENT_TYPES))

    merged = _segment_table(out).sort_by("term")
    nbytes = _write_shard(merged, segments_tmp, shard)
    return {"n_terms": merged.num_rows, "bytes": nbytes,
            "elapsed_s": time.perf_counter() - t0}


def delta_shard(shard: int, old_file: str, changed_files: dict[int, str],
                new_bases: dict[int, int], gen_tmp: str) -> dict:
    """Delta-overlay merge of ONE shard: the base segment file is left
    UNTOUCHED; the changed partitions' fresh postings are merged into one
    small overlay file under the pending generation directory (reference
    dual: LAB delta chits over immutable atomized containers,
    LabInvertedIndex.java:76-449). Cost is O(changed partitions), not
    O(index) — the read side (state/segview.py) weaves overlay runs over
    base runs, dropping base runs of ``replaced`` partitions and shifting
    kept base runs whose docID base moved (functions/postings.split_runs).

    Returns the shard's stats: n_terms = base terms + overlay-only terms
    (the base-term count comes free from parquet metadata and the
    intersection is a row-group-pruned isin read over just the overlay's
    terms — O(changed), not O(vocabulary); a base term whose every run was
    replaced and that got no fresh row is overcounted until the next fold,
    a documented metadata-only approximation), bytes = base + overlay."""
    from miru_ray.functions.runtime import limit_worker_threads
    limit_worker_threads()
    t0 = time.perf_counter()
    fresh = _fresh_rows(shard, changed_files, new_bases)
    gen_bytes = _write_shard(fresh, gen_tmp, shard)
    base_rows = pq.ParquetFile(old_file).metadata.num_rows
    gen_terms = fresh["term"].to_pylist()
    matched = (pq.read_table(
        old_file, columns=["term"],
        filters=pads.field("term").isin(gen_terms)).num_rows
        if gen_terms else 0)
    return {"n_terms": base_rows + len(gen_terms) - matched,
            "bytes": os.path.getsize(old_file) + gen_bytes,
            "elapsed_s": time.perf_counter() - t0}


def merge_shard(shard: int, part_files: dict[int, str],
                bases: dict[int, int], segments_tmp: str) -> pa.Table:
    """Full merge of ONE shard from every partition's postings, written
    to ``segments_tmp/shard=S.parquet`` atomically. Returns the one-row
    (shard, n_terms, bytes, elapsed_s) lineage record."""
    from miru_ray.functions.runtime import limit_worker_threads
    limit_worker_threads()
    t0 = time.perf_counter()
    merged = _fresh_rows(shard, part_files, bases)
    nbytes = _write_shard(merged, segments_tmp, shard)
    return pa.table({"shard": pa.array([shard], pa.int64()),
                     "n_terms": pa.array([merged.num_rows], pa.int64()),
                     "bytes": pa.array([nbytes], pa.int64()),
                     "elapsed_s": pa.array([time.perf_counter() - t0],
                                           pa.float64())})
