"""IndexReader — query-side access to a built index.

The reference's query handle bundle: field index (postings by term,
miru-plugin/.../index/MiruFieldIndex.java:12-43), activity index (doc
gather, MiruActivityIndex.java:16-135), time index (timestamp↔docID,
MiruTimeIndex.java:15-56) and global stats (getGlobalCardinality,
MiruFieldIndex.java:41). Here:

- postings: parquet segments with predicate pushdown on ``term`` (row
  groups are term-sorted per shard file, so an `isin`/range filter touches
  few row groups);
- doc metadata: per-partition docs.parquet, loaded lazily per partition and
  cached (global docID → partition via searchsorted over bases);
- time range → docID domain: within a partition docIDs ascend with
  (warc_ts, url), so a timestamp range is resolved per partition by binary
  search over its warc_ts column, tolerating the small disorder the fixture
  plants (like LabTimeIndex.getClosestId, miru-service/.../index/lab/
  LabTimeIndex.java:139-189, we resolve against the sorted view).

An actor-pool scorer holds ONE IndexReader per actor
(pipelines/search.py::BatchSearcher) — the StrutModelScorer pattern
(miru-stream-plugins/.../strut/StrutModelScorer.java).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from miru_ray.functions.hashing import shard_for
from miru_ray.state.layout import (field_segments_dir, meta_path, part_dir,
                                   read_json)

__all__ = ["IndexReader"]

# canonical docs.parquet column types (partition_build.build_partition) —
# used to answer empty gathers without touching storage
_DOC_FIELD_TYPES = {
    "local_id": pa.int64(), "url": pa.string(),
    "warc_ts": pa.timestamp("us"), "lang": pa.string(),
    "doclen": pa.int64(), "text": pa.string(),
}


class IndexReader:
    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        meta = read_json(meta_path(index_dir))
        if meta is None:
            raise FileNotFoundError(f"no meta.json under {index_dir}")
        self.meta = meta
        self.n_docs: int = meta["n_docs"]
        self.avgdl: float = meta["avgdl"]
        self.k1: float = meta.get("k1", 1.2)
        self.b: float = meta.get("b", 0.75)
        self.num_shards: int = meta["num_shards"]
        from miru_ray.state.schema import IndexSchema
        # the index carries its field schema (MiruSchema bound to the
        # partition); queries resolve field:value syntax against it.
        # Additively-added fields (pipelines/schema_evolve.py) join the
        # schema and route to their own sidecar segment family.
        self.extra_fields = {r["name"]: r
                             for r in meta.get("extra_fields", [])}
        self.schema = IndexSchema.from_meta(
            (meta.get("schema") or []) + list(self.extra_fields.values()))
        # primary-field analyzer the index was BUILT with — the query side
        # must analyze identically (TermAnalyzers contract)
        self.analyzer: str = meta.get("analyzer", "simple")
        self.parts: list[int] = sorted(int(p) for p in meta["bases"])
        self.bases = np.array([meta["bases"][str(p)] for p in self.parts],
                              dtype=np.int64)
        self.counts = np.array([meta["part_counts"][str(p)] for p in self.parts],
                               dtype=np.int64)
        # segment access goes through SegView, which resolves the delta
        # overlay (segments_delta/gen=K) when one is live; an index without
        # an overlay reads base files untouched. Sidecar field families are
        # always overlay-free (schema_evolve rewrites them whole).
        from miru_ray.state.segview import SegView
        self._views: dict[str | None, SegView] = {
            None: SegView.primary(index_dir, meta)}
        for name in self.extra_fields:
            self._views[name] = SegView(field_segments_dir(index_dir, name))
        self._postings_cache: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
        self._bmax_cache: dict[str, np.ndarray] = {}
        self._doclen_parts: dict[int, np.ndarray] = {}
        self._removed: np.ndarray | None = None
        self._prefix_terms_cache: dict = {}
        self._prefix_ids_cache: dict = {}
        self._range_ids_cache: dict = {}
        self._docs_cache: dict[int, pa.Table] = {}
        self._has_stored_text: bool | None = None
        self._doc_cols: dict[tuple[int, str], pa.ChunkedArray] = {}
        self._terms_cache: dict[int, np.ndarray] = {}
        self._domain_masks: dict = {}

    # --- postings ---

    def _family_of(self, term: str) -> str | None:
        """Segment family owning a term: an additively-added field's name
        (its terms are '\\x00name\\x00…' and it has a sidecar family), else
        None = the primary segments (which hold build-time schema fields
        too — they share the primary posting space)."""
        if term.startswith("\x00"):
            name = term[1:].split("\x00", 1)[0]
            if name in self.extra_fields:
                return name
        return None

    def _view(self, fam: str | None):
        return self._views[fam]

    def load_postings(self, terms: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray, int]]:
        """term → (sorted global ids uint64, aligned tfs int64, df).
        Missing terms are absent from the result."""
        need = [t for t in terms if t not in self._postings_cache]
        by_fam: dict[str | None, dict[int, list[str]]] = {}
        for t, s in zip(need, shard_for(np.array(need, dtype=object),
                                        self.num_shards) if need else []):
            by_fam.setdefault(self._family_of(t), {}) \
                  .setdefault(int(s), []).append(t)
        for fam, by_shard in by_fam.items():
            view = self._view(fam)
            for s, ts in by_shard.items():
                for row in view.postings(s, pads.field("term").isin(ts),
                                         want_tfs=True, want_bmax=True):
                    self._postings_cache[row["term"]] = (
                        row["ids"], row["tfs"], row["df"])
                    self._bmax_cache[row["term"]] = row["bmax"]
        return {t: self._postings_cache[t] for t in terms if t in self._postings_cache}

    def removed_ids(self) -> np.ndarray:
        """Tombstoned docIDs (removal index, resolved once and cached;
        call refresh_tombstones() after add_tombstones)."""
        if self._removed is None:
            from miru_ray.state.tombstones import resolve_tombstones
            self._removed = resolve_tombstones(self)
        return self._removed

    def refresh_tombstones(self) -> None:
        self._removed = None

    def block_max(self, term: str) -> np.ndarray:
        """Per-BLOCK_SIZE-entry max tf for a loaded term (WAND metadata)."""
        if term not in self._bmax_cache:
            self.load_postings([term])
        return self._bmax_cache.get(term, np.empty(0, dtype=np.int64))

    def term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """term → (df, cf) without decoding postings (global cardinality,
        MiruFieldIndex.getGlobalCardinality:41)."""
        out: dict[str, tuple[int, int]] = {}
        by_fam: dict[str | None, dict[int, list[str]]] = {}
        for t, s in zip(terms, shard_for(np.array(terms, dtype=object), self.num_shards)):
            by_fam.setdefault(self._family_of(t), {}) \
                  .setdefault(int(s), []).append(t)
        for fam, by_shard in by_fam.items():
            view = self._view(fam)
            for s, ts in by_shard.items():
                tbl = view.stats(s, pads.field("term").isin(ts))
                for term, df, cf in zip(tbl["term"].to_pylist(),
                                        tbl["df"].to_pylist(), tbl["cf"].to_pylist()):
                    out[term] = (df, cf)
        return out

    def expand_prefix(self, prefix: str, cap: int) -> list[str]:
        """Term-range scan over all shards, capped (wildcard expansion,
        MiruAggregateUtil.java:1154-1167). Returns sorted terms. Cached —
        segments are immutable for the life of a reader."""
        key = (prefix, cap)
        if key in self._prefix_terms_cache:
            return self._prefix_terms_cache[key]
        hi = prefix + "￿"
        found: list[str] = []
        view = self._view(self._family_of(prefix))
        for s in view.shards():
            found.extend(view.terms(
                s, (pads.field("term") >= prefix) & (pads.field("term") < hi)))
        # bare scans never cross into field namespaces (\x00field\x00…);
        # a namespaced prefix (field:val* queries) stays inside its field
        if prefix.startswith("\x00"):
            out = sorted(found)[:cap]
        else:
            out = sorted(t for t in found if not t.startswith("\x00"))[:cap]
        self._prefix_terms_cache[key] = out
        return out

    def range_union_ids(self, lo: str, hi: str) -> np.ndarray:
        """Union of docIDs over an INCLUSIVE term range — the numeric-field
        range scan. One range-filtered read per shard (row groups are
        term-sorted, so min/max stats prune), postings decoded and unioned
        in bulk without populating the per-term cache. Cached per range."""
        key = (lo, hi)
        if key in self._range_ids_cache:
            return self._range_ids_cache[key]
        arrs: list[np.ndarray] = []
        view = self._view(self._family_of(lo))
        for s in view.shards():
            arrs.extend(row["ids"] for row in view.postings(
                s, (pads.field("term") >= lo) & (pads.field("term") <= hi),
                want_tfs=False))
        arrs = [a for a in arrs if len(a)]
        if not arrs:
            out = np.empty(0, dtype=np.uint64)
        elif len(arrs) == 1:
            out = arrs[0]
        else:
            out = np.unique(np.concatenate(arrs))
        self._range_ids_cache[key] = out
        return out

    def prefix_union_ids(self, prefix: str, cap: int) -> np.ndarray:
        """Union of docIDs across a prefix expansion, cached (the repeated
        100-posting union dominated warm prefix-query latency)."""
        key = (prefix, cap)
        if key in self._prefix_ids_cache:
            return self._prefix_ids_cache[key]
        terms = self.expand_prefix(prefix, cap)
        got = self.load_postings(terms)
        arrs = [got[t][0] for t in terms if t in got]
        if not arrs:
            out = np.empty(0, dtype=np.uint64)
        elif len(arrs) == 1:
            out = arrs[0]
        else:
            out = np.unique(np.concatenate(arrs))
        self._prefix_ids_cache[key] = out
        return out

    # --- PostingsProvider protocol (functions/filters.py) ---

    def ids(self, term: str) -> np.ndarray:
        got = self.load_postings([term])
        if term in got:
            return got[term][0]
        return np.empty(0, dtype=np.uint64)

    def all_ids(self) -> np.ndarray:
        return np.arange(self.n_docs, dtype=np.uint64)

    # --- doc metadata ---

    def part_of(self, doc_ids: np.ndarray) -> np.ndarray:
        """Global docID → index into self.parts."""
        return np.searchsorted(self.bases, doc_ids.astype(np.int64), side="right") - 1

    @property
    def has_stored_text(self) -> bool:
        """Whether the index was built with ``store_text=True`` (the
        stored-field feature the positional queries and the highlighter
        need). meta.json predates the flag, so the check reads ONE docs
        file's parquet schema (metadata only, no data pages)."""
        if self._has_stored_text is None:
            if not self.parts:
                self._has_stored_text = False
            else:
                f = os.path.join(part_dir(self.index_dir, self.parts[0]),
                                 "docs.parquet")
                self._has_stored_text = (
                    "text" in pq.read_schema(f).names)
        return self._has_stored_text

    def stored_texts(self, doc_ids: np.ndarray) -> pa.ChunkedArray:
        """Stored text per docID, input order — the PostingsProvider hook
        the Phrase filter node verifies against. Raises the actionable
        store_text error on indexes without the stored-field feature."""
        if not self.has_stored_text:
            raise ValueError(
                "phrase queries need an index built with store_text=True "
                f"(index at {self.index_dir!r} has no stored text column)")
        return self.gather_docs(doc_ids.astype(np.uint64),
                                columns=["text"])["text"]

    def docs_table(self, part: int) -> pa.Table:
        """The FULL docs.parquet of one partition (all columns, incl.
        stored text). Inspection/debug surface — query paths go through
        doc_column/gather_docs, which column-prune."""
        if part not in self._docs_cache:
            f = os.path.join(part_dir(self.index_dir, part), "docs.parquet")
            self._docs_cache[part] = pq.read_table(f)
        return self._docs_cache[part]

    def doc_column(self, part: int, col: str) -> pa.ChunkedArray:
        """ONE metadata column of one partition, column-pruned and cached
        per (part, col) — a time-range or lang domain resolve touches
        8-16 B/doc of the partitions it covers, never the stored text
        (which can be ~KB/doc when store_text=True)."""
        key = (part, col)
        if key not in self._doc_cols:
            if part in self._docs_cache:
                arr = self._docs_cache[part][col]
            else:
                f = os.path.join(part_dir(self.index_dir, part), "docs.parquet")
                arr = pq.read_table(f, columns=[col])[col]
            self._doc_cols[key] = arr
        return self._doc_cols[key]

    def _doclen_part(self, pi: int) -> np.ndarray:
        """doclen column of ONE partition, column-pruned read, cached."""
        if pi not in self._doclen_parts:
            self._doclen_parts[pi] = (
                self.doc_column(self.parts[pi], "doclen").to_numpy())
        return self._doclen_parts[pi]

    def doclens(self, doc_ids: np.ndarray) -> np.ndarray:
        """doclen per global docID, resolved per PARTITION on demand — a
        reader only ever materializes doclen for partitions its queries
        touch (8 B/doc of one partition, not of the whole corpus; a scorer
        actor covering a partition subset loads exactly those slices)."""
        ids = doc_ids.astype(np.int64)
        out = np.empty(len(ids), dtype=np.int64)
        if len(ids) == 0:
            return out
        pidx = self.part_of(doc_ids)
        for pi in np.unique(pidx):
            sel = pidx == pi
            out[sel] = self._doclen_part(int(pi))[ids[sel] - self.bases[pi]]
        return out

    def gather_docs(self, doc_ids: np.ndarray,
                    columns: list[str] = ("url", "warc_ts", "lang")) -> pa.Table:
        """docID → stored fields (the reference's activity-index gather,
        MiruActivityIndex.getAll:63-96). Preserves input order."""
        if len(doc_ids) == 0 or not self.parts:
            # empty index (build over 0 rows) or empty request: fixed schema
            out = {"doc_id": pa.array([], pa.int64())}
            for c in columns:
                out[c] = pa.array([], _DOC_FIELD_TYPES.get(c, pa.string()))
            return pa.table(out)
        pidx = self.part_of(doc_ids)
        # group requests by partition; assemble per-partition Arrow takes,
        # then restore input order with ONE final take (no per-value loops)
        order = np.argsort(pidx, kind="stable")
        inv = np.empty(len(order), dtype=np.int64)
        inv[order] = np.arange(len(order))
        sorted_pidx = pidx[order]
        starts = np.flatnonzero(np.diff(sorted_pidx, prepend=-1))
        ends = np.append(starts[1:], len(order))
        pieces: dict[str, list[pa.Array]] = {c: [] for c in columns}
        for s, e in zip(starts, ends):
            pi = int(sorted_pidx[s])
            part = self.parts[pi]
            local = doc_ids[order[s:e]].astype(np.int64) - self.bases[pi]
            local_arr = pa.array(local)
            heavy = [c for c in columns
                     if c == "text" and part not in self._docs_cache]
            for c in columns:
                if c in heavy:
                    continue
                taken = self.doc_column(part, c).take(local_arr)
                pieces[c].extend(taken.chunks if isinstance(
                    taken, pa.ChunkedArray) else [taken])
            if heavy:
                # stored text is ~KB/doc: never cache the whole column for
                # a handful of hits — row-group-pruned read of just the
                # requested local_ids (docs.parquet is local_id-sorted)
                f = os.path.join(part_dir(self.index_dir, part), "docs.parquet")
                tbl = pq.read_table(
                    f, columns=["local_id"] + heavy,
                    filters=pads.field("local_id").isin(local.tolist()))
                pos = pa.array(np.searchsorted(tbl["local_id"].to_numpy(),
                                               local))
                for c in heavy:
                    taken = tbl[c].take(pos)
                    pieces[c].extend(taken.chunks if isinstance(
                        taken, pa.ChunkedArray) else [taken])
        out = {"doc_id": pa.array(doc_ids.astype(np.int64), pa.int64())}
        inv_arr = pa.array(inv)
        for c in columns:
            typ = (_DOC_FIELD_TYPES.get(c)
                   or self.doc_column(self.parts[0], c).type)
            grouped = pa.chunked_array(pieces[c], type=typ)
            out[c] = grouped.take(inv_arr)
        return pa.table(out)

    # --- time & lang domains ---
    #
    # Query paths use the PREDICATE forms below with state.domain.DomainMask
    # (packed per-partition bitmaps, 1 bit/doc, built lazily — VERDICT r3
    # #2). The eager *_domain id-array forms remain for tests/tools and
    # small direct calls; they materialize 8 B per MATCHING doc.

    def time_pred(self, lo_us: int | None, hi_us: int | None):
        """DomainMask predicate: partition idx → bool per local doc with
        lo_us <= warc_ts < hi_us (exact even with locally-disordered
        timestamps — tests the actual column, not just boundaries; the
        reference's range→id translation, LabTimeIndex.java:139-189)."""
        def pred(pi: int) -> np.ndarray:
            ts = (self.doc_column(self.parts[pi], "warc_ts").to_numpy()
                  .astype("datetime64[us]").astype(np.int64))
            m = np.ones(len(ts), dtype=bool)
            if lo_us is not None:
                m &= ts >= lo_us
            if hi_us is not None:
                m &= ts < hi_us
            return m
        return pred

    def lang_pred(self, langs: list[str]):
        keep = sorted(set(langs))

        def pred(pi: int) -> np.ndarray:
            lg = self.doc_column(self.parts[pi], "lang").to_numpy(
                zero_copy_only=False)
            return np.isin(lg, keep)
        return pred

    def ids_pred(self, ids_sorted: np.ndarray):
        """DomainMask predicate from a sorted global-id array (e.g. the
        authz postings union): per partition, a bool mask of its slice."""
        def pred(pi: int) -> np.ndarray:
            base = int(self.bases[pi])
            n = int(self.counts[pi])
            lo = np.searchsorted(ids_sorted, np.uint64(base))
            hi = np.searchsorted(ids_sorted, np.uint64(base + n))
            m = np.zeros(n, dtype=bool)
            m[ids_sorted[lo:hi].astype(np.int64) - base] = True
            return m
        return pred

    def domain_mask(self, time_range=None, langs=None, authz=None):
        """The composed lazy packed-bitmap DomainMask for these domain
        parameters, CACHED across queries (bounded): the per-partition
        bitmaps cost a column scan per build, and serving workloads repeat
        the same few (time_range, langs, authz) combinations — rebuilding
        the lang mask per query dominated the warm p99 tail. The index is
        immutable for this reader's lifetime, so reuse is exact."""
        from miru_ray.state.domain import DomainMask
        key = (tuple(time_range) if time_range is not None else None,
               tuple(sorted(langs)) if langs else None,
               tuple(sorted(authz)) if authz is not None else None)
        if key == (None, None, None):
            return None
        got = self._domain_masks.get(key)
        if got is None:
            preds = []
            if time_range is not None:
                preds.append(self.time_pred(*time_range))
            if langs:
                preds.append(self.lang_pred(langs))
            if authz is not None:
                preds.append(self.ids_pred(self.authz_domain(authz)))
            if len(self._domain_masks) >= 32:      # bound resident bitmaps
                self._domain_masks.pop(next(iter(self._domain_masks)))
            got = self._domain_masks[key] = DomainMask(self, preds)
        return got

    def time_range_domain(self, lo_us: int | None, hi_us: int | None) -> np.ndarray:
        """Sorted docIDs with lo_us <= warc_ts < hi_us (resolved per
        partition; exact even with locally-disordered timestamps because we
        test the actual column, not just the boundaries)."""
        doms = []
        for pi, part in enumerate(self.parts):
            ts = self.doc_column(part, "warc_ts").to_numpy().astype("datetime64[us]").astype(np.int64)
            mask = np.ones(len(ts), dtype=bool)
            if lo_us is not None:
                mask &= ts >= lo_us
            if hi_us is not None:
                mask &= ts < hi_us
            doms.append((np.flatnonzero(mask) + self.bases[pi]).astype(np.uint64))
        return np.concatenate(doms) if doms else np.empty(0, dtype=np.uint64)

    def authz_domain(self, labels: list[str]) -> np.ndarray:
        """Composite OR of authz-label postings — the caller may see a doc
        if ANY of its labels match (MiruAuthzUtils composite OR,
        miru-service/.../index/auth/MiruAuthzUtils.java)."""
        from miru_ray.stages.partition_build import AUTHZ_NS
        got = self.load_postings([AUTHZ_NS + l for l in sorted(set(labels))])
        arrs = [v[0] for v in got.values()]
        if not arrs:
            return np.empty(0, dtype=np.uint64)
        if len(arrs) == 1:
            return arrs[0]
        return np.unique(np.concatenate(arrs))

    def lang_domain(self, langs: list[str]) -> np.ndarray:
        keep = set(langs)
        doms = []
        for pi, part in enumerate(self.parts):
            lg = self.doc_column(part, "lang").to_numpy(zero_copy_only=False)
            mask = np.isin(lg, sorted(keep))
            doms.append((np.flatnonzero(mask) + self.bases[pi]).astype(np.uint64))
        return np.concatenate(doms) if doms else np.empty(0, dtype=np.uint64)
