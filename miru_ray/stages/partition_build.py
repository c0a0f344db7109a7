"""Per-partition index build — the map_groups body of stage [B]+[C]+[E].

One call handles ALL rows of one partition (``part = hash(url) % P``, the
explicit horizontal-partitioning key, SURVEY.md §4 row 1):

1. latest-wins dedup by url (reference: timestamp/version-checked repair,
   miru-service/.../partition/MiruPartitionAccessor.java:594-650);
2. deterministic local docID assignment: sort by (warc_ts, url) — the
   reference's "prime ordering" time index (README.md:6,
   miru-plugin/.../index/MiruTimeIndex.java:22-55). Ordering derives from
   DATA, never from task arrival order, so ids are identical at any
   parallelism level;
3. inversion → local-id postings (stages/invert.py);
4. atomic write of docs.parquet + postings.parquet + manifest.json into
   ``partitions/part=K/`` — the checkpoint unit for resume.

Returns a one-row manifest record (the lineage+metrics contract,
SURVEY.md §4 "Metrics/lineage").
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa

from miru_ray.functions.extract import EXTRACTOR_VERSION
from miru_ray.functions.hashing import hash_strings, shard_for
from miru_ray.stages.invert import invert_docs
from miru_ray.state.layout import (part_dir, write_manifest,
                                   write_parquet_atomic)
from miru_ray.state.schema import field_ns

__all__ = ["build_partition", "input_digest", "AUTHZ_NS", "field_postings"]


def _list_field_postings(ns: str, values, local_ids: np.ndarray) -> pa.Table:
    """keyword_list kernel: flatten list-of-strings rows, then the shared
    vectorized exact-term postings build (schema.keyword_postings)."""
    from miru_ray.state.schema import keyword_postings
    lists = [[] if v is None else list(v) for v in values]
    lens = np.fromiter((len(x) for x in lists), dtype=np.int64,
                       count=len(lists))
    flat_ids = np.repeat(local_ids, lens)
    flat_vals = np.array([str(x) for sub in lists for x in sub], dtype=object)
    return keyword_postings(ns, flat_vals, flat_ids)


def field_postings(f, cols: dict, local_ids: np.ndarray) -> tuple[pa.Table, np.ndarray | None]:
    """ONE field's partition postings from aligned column arrays — the
    per-kind dispatch shared by the initial build and the additive
    add_field path (pipelines/schema_evolve.py). ``cols`` maps source
    column name → object ndarray aligned with ``local_ids``. Returns
    (postings table, composed column or None — composite fields only,
    for optional storing)."""
    from miru_ray.state.schema import (COMPOSE_SEP, encode_numeric,
                                       keyword_postings)
    ns = field_ns(f.name)
    if f.kind == "keyword":
        return keyword_postings(ns, cols[f.name], local_ids), None
    if f.kind == "keyword_list":
        return _list_field_postings(ns, cols[f.name], local_ids), None
    if f.kind == "numeric":
        vals = cols[f.name]
        ok = pd.notna(vals)
        return keyword_postings(ns, encode_numeric(vals[ok].astype(np.int64)),
                                local_ids[ok]), None
    if f.kind == "composite":
        comps = [cols[c] for c in f.source]
        ok = np.ones(len(local_ids), dtype=bool)
        for c in comps:
            ok &= pd.notna(c)
        composed = np.array(
            [COMPOSE_SEP.join(str(c[i]) for c in comps) if ok[i] else None
             for i in range(len(local_ids))], dtype=object)
        return keyword_postings(ns, composed[ok], local_ids[ok]), composed
    # tokenized secondary field: invert, then namespace the terms
    import pyarrow.compute as pc
    fvals = pa.array(["" if v is None else str(v) for v in cols[f.name]],
                     pa.string())
    fpost, _fdl = invert_docs(fvals, local_ids)
    if fpost.num_rows:
        ns_terms = pc.binary_join_element_wise(
            pa.scalar(ns), fpost["term"].combine_chunks(), pa.scalar(""))
        fpost = fpost.set_column(0, "term", ns_terms)
    return fpost, None

# Authz labels index as namespaced terms in the SAME posting space — the
# general multi-field mechanism (state/schema.py, MiruTermComposer.java:39-62)
# under the reserved "authz" field name (MiruAuthzIndex.java).
AUTHZ_NS = field_ns("authz")

MANIFEST_SCHEMA = {
    "part": np.int64, "n_rows_in": np.int64, "n_docs": np.int64,
    "n_terms": np.int64, "sum_doclen": np.int64, "elapsed_s": np.float64,
}


def _floor4(s: float) -> float:
    """Seconds rounded DOWN to 0.1 ms, so the layer times of a manifest
    never sum past its rounded ``elapsed_s``."""
    return math.floor(s * 1e4) / 1e4


def input_digest(urls, warc_ts_us: np.ndarray, texts=None) -> int:
    """Order-independent digest of a partition's input rows (resume guard):
    XOR of per-row siphashes. Cheap, deterministic, commutative.

    When ``texts`` is given (text-mode inputs) the content hash is folded
    in, so a row whose text changed under an unchanged (url, warc_ts) still
    flips the digest. html-mode inputs digest (url, warc_ts) only — the
    sip scan cannot cheaply reproduce extracted text."""
    h = hash_strings(urls) ^ warc_ts_us.astype(np.uint64)
    if texts is not None:
        h = h ^ hash_strings(texts)
    return int(np.bitwise_xor.reduce(h)) if len(h) else 0


def build_partition(group: pd.DataFrame, *, index_dir: str,
                    num_shards: int, store_text: bool = False,
                    digest_text: bool = False,
                    schema=None, analyzer: str = "simple") -> pd.DataFrame:
    """map_groups body: one partition in, one manifest row out."""
    from miru_ray.functions.runtime import limit_worker_threads
    limit_worker_threads()
    t0 = time.perf_counter()
    part = int(group["part"].iloc[0])
    n_rows_in = len(group)
    ts_us = group["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    digest = input_digest(
        group["url"].to_numpy(dtype=object), ts_us,
        texts=group["text"].to_numpy(dtype=object) if digest_text else None)

    # [dedup] latest-wins by url; deterministic tie-break via stable sort on
    # (url, warc_ts, text) then keep-last.
    cols = {
        "url": group["url"].to_numpy(dtype=object),
        "ts": ts_us,
        "text": group["text"].to_numpy(dtype=object),
        "lang": group["lang"].to_numpy(dtype=object),
    }
    has_authz = "authz" in group.columns
    if has_authz:
        cols["authz"] = group["authz"].to_numpy(dtype=object)
    schema_fields = [f for f in (schema.fields if schema else ())
                     if (all(c in group.columns for c in f.source)
                         if f.kind == "composite" else f.name in group.columns)]
    for f in schema_fields:
        for c in (f.source if f.kind == "composite" else (f.name,)):
            if c not in cols:
                cols[c] = group[c].to_numpy(dtype=object)
    df = pd.DataFrame(cols)
    # chained stable single-key sorts == lexicographic (url, ts, text) but
    # NUL-safe: pandas' multi-key sort mis-orders strings with embedded
    # NULs (real web text can contain them), which would make the dedup
    # winner depend on input order
    df = df.sort_values("text", kind="stable")
    df = df.sort_values("ts", kind="stable")
    df = df.sort_values("url", kind="stable")
    df = df.drop_duplicates("url", keep="last")

    # [docID] local ids by (warc_ts, url) ascending
    df = df.sort_values(["ts", "url"], kind="stable").reset_index(drop=True)
    n_docs = len(df)
    local_ids = np.arange(n_docs, dtype=np.int64)
    t_dedup = time.perf_counter()

    texts = pa.array(df["text"].tolist(), pa.string())
    postings, doclens = invert_docs(
        texts, local_ids,
        langs=(df["lang"].to_numpy(dtype=object)
               if analyzer == "per_lang" else None))
    extra: list[pa.Table] = []
    composed_cols: dict[str, np.ndarray] = {}
    if has_authz:
        # authz IS the keyword_list mechanism under its reserved namespace
        extra.append(_list_field_postings(AUTHZ_NS, df["authz"], local_ids))
    for f in schema_fields:
        srcs = f.source if f.kind == "composite" else (f.name,)
        fcols = {c: df[c].to_numpy(dtype=object) for c in srcs}
        fpost, composed = field_postings(f, fcols, local_ids)
        if composed is not None:
            composed_cols[f.name] = composed
        extra.append(fpost)
    for t in extra:
        if t.num_rows:
            postings = pa.concat_tables([postings, t])
    postings = postings.append_column(
        "shard", pa.array(shard_for(postings["term"].to_numpy(zero_copy_only=False),
                                    num_shards), pa.int64()))
    # sort by (shard, term) so the per-shard merge's shard-filter reads only
    # the matching row groups (parquet min/max pruning)
    postings = postings.sort_by([("shard", "ascending"), ("term", "ascending")])
    t_invert = time.perf_counter()

    doc_cols = {
        "local_id": pa.array(local_ids, pa.int64()),
        "url": pa.array(df["url"].tolist(), pa.string()),
        "warc_ts": pa.array(df["ts"].to_numpy(), pa.timestamp("us")),
        "lang": pa.array(df["lang"].tolist(), pa.string()),
        "doclen": pa.array(doclens, pa.int64()),
    }
    if store_text:   # "stored" field feature (MiruFieldDefinition Feature.stored)
        doc_cols["text"] = texts
    for f in schema_fields:
        if f.stored:
            doc_cols[f.name] = (pa.array(composed_cols[f.name], pa.string())
                                if f.kind == "composite"
                                else pa.array(df[f.name].tolist()))
    docs = pa.table(doc_cols)

    # [atomic write] data files first, manifest last (commit point)
    pdir = part_dir(index_dir, part)
    os.makedirs(pdir, exist_ok=True)
    docs_bytes = write_parquet_atomic(docs, os.path.join(pdir, "docs.parquet"))
    postings_bytes = write_parquet_atomic(
        postings, os.path.join(pdir, "postings.parquet"))
    # additively-added field sidecars (pipelines/schema_evolve.py) were
    # derived from the PREVIOUS partition content — a rebuild invalidates
    # them; re-run add_field afterwards (the safe direction)
    import glob as _glob
    for stale in _glob.glob(os.path.join(pdir, "postings_field_*.parquet")):
        os.remove(stale)

    t_end = time.perf_counter()
    elapsed = t_end - t0
    manifest = {
        "part": part,
        "status": "complete",
        "input_digest": digest,
        "extractor_version": EXTRACTOR_VERSION,
        # resume staleness guard: a partition built under a DIFFERENT
        # field schema must rebuild (MiruSchema.checkAdditive:303-314)
        "schema_meta": schema.to_meta() if schema else [],
        "analyzer": analyzer,
        # repairability flags (pipelines/repair.py): a partition can be
        # rebuilt from its OWN docs.parquet only if the full payload is
        # stored — text present and no posting-only (authz) columns
        "store_text": bool(store_text),
        "has_authz": bool(has_authz),
        "n_rows_in": n_rows_in,
        "n_docs": n_docs,
        "n_terms": postings.num_rows,
        "sum_doclen": int(doclens.sum()),
        "docs_bytes": docs_bytes,
        "postings_bytes": postings_bytes,
        "elapsed_s": round(elapsed, 4),
        # layer split of elapsed_s: [digest, dedup, docIDs] [inversion,
        # field postings, shard sort] [docs table, file writes]
        "dedup_s": _floor4(t_dedup - t0),
        "invert_s": _floor4(t_invert - t_dedup),
        "write_s": _floor4(t_end - t_invert),
    }
    write_manifest(index_dir, part, manifest)
    return pd.DataFrame({
        "part": [part], "n_rows_in": [n_rows_in], "n_docs": [n_docs],
        "n_terms": [postings.num_rows], "sum_doclen": [int(doclens.sum())],
        "elapsed_s": [elapsed],
    })
