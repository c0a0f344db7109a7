"""SegView — resolved read access to base segments + the delta overlay.

The delta-append path (pipelines/build.py finalize_index) leaves the big
``segments/`` files untouched and writes ONE small overlay generation
``segments_delta/gen=K/shard=S.parquet`` holding fresh rows for exactly
the partitions that changed since the base was merged (reference dual:
LAB delta chits over immutable atomized containers,
miru-service/.../index/lab/LabInvertedIndex.java:76-449). A reader must
therefore resolve every term against TWO sources:

- the base row: runs for parts NOT in ``replaced_parts`` survive. The
  base was merged under ``delta["base_bases"]``; a surviving run whose
  partition's docID base has since moved (a replaced partition before it
  changed its doc count) is shifted by ``bases[p] - base_bases[p]``;
- the overlay row: all of its runs survive (it was written with the
  CURRENT bases and fully supersedes the replaced partitions).

Query-path cost design (measured: naive per-query overlay reads added
~3.5 ms p50): per shard, the overlay file (small by construction) is
read ONCE and cached in memory, and ONE base pass over the thin
(term, parts, pdfs, pcfs) columns builds a resolution map holding run
directories only for terms that can be affected — terms whose run set
reaches min(replaced ∪ shifted parts). Every other term takes the
byte-identical passthrough the clean path takes: same filtered read, same
columns, no blob re-decode. A resolved term with no replaced run and no
overlay row is only shifted: its tfs keep their positions, so its stored
df and block-max are served as stored and only its ids are re-based. The
v4 per-run cf (``pcfs``) keeps stat resolution decode-free.

Ordering invariant used when weaving: partition docID ranges are
disjoint and ascend with part id, so runs sorted by part concatenate
into globally sorted ids; a term absent from the resolution map keeps
ALL its base runs unshifted, and those runs' parts all precede
min(replaced ∪ shifted) — hence every overlay run — so [base blob,
overlay runs] is already in order. Splitting, dropping and shifting runs
is functions/postings.split_runs, the kernel the splice merge also uses.

When an index has no overlay (``meta`` lacks ``delta``), every method
passes the base rows through untouched — the hot path is unchanged.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from miru_ray.state.layout import delta_gen_dir, segments_dir

__all__ = ["SegView", "scan_shard_files"]


def scan_shard_files(d: str) -> dict[int, str]:
    return {int(os.path.basename(f).split("=")[1].split(".")[0]): f
            for f in glob.glob(os.path.join(d, "shard=*.parquet"))}


class _RunDirectory:
    """term -> (parts, pdfs, pcfs) for the base terms of one shard whose
    runs reach ``reach``. Built with a few vectorized passes over the flat
    list columns (no per-value ``to_pylist`` boxing); a lookup slices one
    row's runs out of the flat values."""

    def __init__(self, t: pa.Table, reach: int):
        cols = [t[c].combine_chunks() for c in ("parts", "pdfs", "pcfs")]
        offs = cols[0].offsets.to_numpy()
        flat = cols[0].values.to_numpy()
        # runs are part-sorted: a row reaches iff its last part does
        ends = offs[1:]
        last = np.where(ends > offs[:-1], flat[np.maximum(ends - 1, 0)], -1)
        rows = np.nonzero(last >= reach)[0]
        # to_numpy().tolist(): ~15x cheaper than to_pylist on strings
        self._row = dict(zip(t["term"].take(rows).to_numpy().tolist(),
                             rows.tolist()))
        self._cols = [(c.offsets.to_numpy().tolist(),
                       c.values.to_numpy().tolist()) for c in cols]

    def get(self, term: str) -> tuple[list, list, list] | None:
        i = self._row.get(term)
        if i is None:
            return None
        return tuple(v[o[i]:o[i + 1]] for o, v in self._cols)


def _empty_stats() -> pa.Table:
    return pa.table({"term": pa.array([], pa.string()),
                     "df": pa.array([], pa.int64()),
                     "cf": pa.array([], pa.int64())})


class SegView:
    """One segment family (primary or a sidecar field family), possibly
    overlaid by the index's delta generation (primary family only)."""

    def __init__(self, seg_dir: str, delta: dict | None = None,
                 index_dir: str | None = None, bases: dict | None = None):
        self.files = scan_shard_files(seg_dir)
        self.gen_files: dict[int, str] = {}
        self.replaced: set[int] = set()
        self.shift: dict[int, int] = {}   # part -> current − base-time base
        self._reach: int | None = None
        # per-shard caches, built on first touch (a SegView lives inside
        # one IndexReader; the index is immutable for its lifetime):
        #   _gen_cache: the full overlay table per shard
        #   _res_cache: term -> (parts, pdfs, pcfs) for terms whose runs
        #               reach min(replaced ∪ shifted) — the only terms that
        #               can need run surgery or part-interleaved weaving
        self._gen_cache: dict[int, pa.Table | None] = {}
        self._res_cache: dict[int, _RunDirectory | dict] = {}
        if delta:
            gdir = delta_gen_dir(index_dir, int(delta["gen"]))
            self.gen_files = scan_shard_files(gdir)
            self.replaced = {int(p) for p in delta["replaced_parts"]}
            if delta.get("base_bases") and bases is None:
                # without the current bases a moved run cannot be shifted:
                # its docIDs would be off by the move
                raise ValueError("a delta with base_bases needs the index's "
                                 "current bases")
            now = {int(p): int(v) for p, v in (bases or {}).items()}
            for p, v in (delta.get("base_bases") or {}).items():
                p = int(p)
                if p in now and p not in self.replaced and now[p] != int(v):
                    self.shift[p] = now[p] - int(v)
            moved = self.replaced | set(self.shift)
            if moved:
                self._reach = min(moved)
            missing = set(self.files) - set(self.gen_files)
            if self.replaced and missing:
                # delta_shard writes a file for EVERY shard (even when the
                # fresh rows are empty), so any base shard without an
                # overlay twin means a partial copy — serving base rows
                # with replaced runs dropped would silently lose docs
                raise FileNotFoundError(
                    f"index meta references delta generation {gdir} but "
                    f"shards {sorted(missing)} have no overlay file there "
                    "(partial copy or tampering); re-run the build or sync "
                    "to restore a consistent view")

    @classmethod
    def primary(cls, index_dir: str, meta: dict) -> "SegView":
        return cls(segments_dir(index_dir), meta.get("delta"), index_dir,
                   meta.get("bases"))

    @property
    def _plain(self) -> bool:
        return not self.gen_files and not self.replaced

    def shards(self) -> list[int]:
        return sorted(set(self.files) | set(self.gen_files))

    # ------------------------------------------------- one-time caches

    def _gen(self, shard: int) -> pa.Table | None:
        if shard not in self._gen_cache:
            g = self.gen_files.get(shard)
            self._gen_cache[shard] = pq.read_table(g) if g is not None \
                else None
        return self._gen_cache[shard]

    def _res(self, shard: int) -> _RunDirectory | dict:
        hit = self._res_cache.get(shard)
        if hit is None:
            f = self.files.get(shard)
            hit = {}
            if f is not None and self._reach is not None:
                hit = _RunDirectory(pq.read_table(
                    f, columns=["term", "parts", "pdfs", "pcfs"]),
                    self._reach)
            self._res_cache[shard] = hit
        return hit

    def _read_base(self, shard: int, columns: list[str],
                   filters) -> pa.Table | None:
        f = self.files.get(shard)
        if f is None:
            return None
        return pq.read_table(f, columns=columns, filters=filters)

    def _gen_rows(self, shard: int, filters) -> pa.Table | None:
        tbl = self._gen(shard)
        if tbl is None:
            return None
        return tbl.filter(filters) if filters is not None else tbl

    # ---------------------------------------------------------- reads

    def stats(self, shard: int, filters) -> pa.Table:
        """(term, df, cf) with overlay resolution, decode-free: surviving
        df/cf are sums over the cached run directory (pdfs/pcfs)."""
        base = self._read_base(shard, ["term", "df", "cf"], filters)
        if self._plain:
            return base if base is not None else _empty_stats()
        res = self._res(shard)
        gen = self._gen_rows(shard, filters)
        gen_left = (dict(zip(gen["term"].to_pylist(), range(gen.num_rows)))
                    if gen is not None else {})
        out_t, out_df, out_cf = [], [], []
        if base is not None:
            for term, df, cf in zip(base["term"].to_pylist(),
                                    base["df"].to_pylist(),
                                    base["cf"].to_pylist()):
                r = res.get(term)
                if r is not None:
                    parts, pdfs, pcfs = r
                    df = cf = 0
                    for p, d, c in zip(parts, pdfs, pcfs):
                        if p not in self.replaced:
                            df += d
                            cf += c
                gi = gen_left.pop(term, None)
                if gi is not None:
                    df += int(gen["df"][gi].as_py())
                    cf += int(gen["cf"][gi].as_py())
                if df:
                    out_t.append(term); out_df.append(df); out_cf.append(cf)
        for term, gi in gen_left.items():         # overlay-only terms
            out_t.append(term)
            out_df.append(int(gen["df"][gi].as_py()))
            out_cf.append(int(gen["cf"][gi].as_py()))
        return pa.table({"term": pa.array(out_t, pa.string()),
                         "df": pa.array(out_df, pa.int64()),
                         "cf": pa.array(out_cf, pa.int64())})

    def terms(self, shard: int, filters) -> list[str]:
        """Terms with >=1 surviving run (dead terms — every run replaced
        and nothing fresh — are excluded)."""
        if self._plain:
            base = self._read_base(shard, ["term"], filters)
            return base["term"].to_pylist() if base is not None else []
        return self.stats(shard, filters)["term"].to_pylist()

    def postings(self, shard: int, filters, want_tfs: bool = True,
                 want_bmax: bool = False) -> list[dict]:
        """Resolved posting rows: [{term, ids, tfs, df, bmax}] with ids
        globally sorted. A term untouched by the overlay costs exactly
        what the plain path costs (same read, no re-encode)."""
        from miru_ray.functions.postings import (block_max_tf, decode_ids,
                                                 decode_tfs, shift_runs,
                                                 split_runs, weave_runs)
        want_tfs = want_tfs or want_bmax   # a recomputed bmax needs the tfs
        cols = ["term", "df", "docids"]
        if want_tfs:
            cols.append("tfs")
        if want_bmax:
            cols.append("bmax")
        base = self._read_base(shard, cols, filters)

        def plain_rows(tbl: pa.Table) -> list[dict]:
            return [
                {"term": t, "df": df,
                 "ids": decode_ids(blob),
                 "tfs": decode_tfs(tblob) if want_tfs else None,
                 "bmax": (np.frombuffer(bblob, dtype="<u2").astype(np.int64)
                          if want_bmax else None)}
                for t, df, blob, tblob, bblob in zip(
                    tbl["term"].to_pylist(), tbl["df"].to_pylist(),
                    tbl["docids"].to_pylist(),
                    tbl["tfs"].to_pylist() if want_tfs
                    else [None] * tbl.num_rows,
                    tbl["bmax"].to_pylist() if want_bmax
                    else [None] * tbl.num_rows)]

        if self._plain:
            return plain_rows(base) if base is not None else []
        res = self._res(shard)
        gen = self._gen_rows(shard, filters)
        gen_left = (dict(zip(gen["term"].to_pylist(), range(gen.num_rows)))
                    if gen is not None else {})
        g = ({"docids": gen["docids"].to_numpy().tolist(),
              "tfs": gen["tfs"].to_numpy().tolist(),
              "parts": gen["parts"].to_pylist(),
              "pdfs": gen["pdfs"].to_pylist()} if gen is not None else {})

        def gen_runs(gi: int):
            return split_runs(
                decode_ids(g["docids"][gi]),
                decode_tfs(g["tfs"][gi]) if want_tfs else None,
                g["parts"][gi], g["pdfs"][gi])

        def emit(term, runs) -> dict | None:
            if not runs:
                return None                       # term died with its parts
            ids, tfs = weave_runs(runs)
            row = {"term": term, "df": len(ids), "ids": ids, "tfs": tfs}
            if want_bmax:
                row["bmax"] = np.frombuffer(
                    block_max_tf(row["tfs"]), dtype="<u2").astype(np.int64)
            return row

        out: list[dict] = []
        for row in (plain_rows(base) if base is not None else []):
            term = row["term"]
            r = res.get(term)
            gi = gen_left.pop(term, None)
            if r is None and gi is None:
                out.append(row)                   # untouched: the plain row
                continue
            if gi is None and self.replaced.isdisjoint(r[0]):
                # every run kept, only moved: tfs sit at the same positions,
                # so the stored df and block-max hold
                row["ids"] = shift_runs(row["ids"], r[0], r[1], self.shift)
                out.append(row)
                continue
            if r is None:
                # all base runs kept unshifted and every one precedes every
                # overlay run (runs never reach the resolution threshold) —
                # keep the blob whole as one leading pseudo-run
                runs = [(-1, row["ids"], row["tfs"])]
            else:
                runs = split_runs(row["ids"], row["tfs"], r[0], r[1],
                                  self.replaced, self.shift)
            if gi is not None:
                runs.extend(gen_runs(gi))
            row = emit(term, runs)
            if row is not None:
                out.append(row)
        for term, gi in gen_left.items():         # overlay-only terms
            row = emit(term, gen_runs(gi))
            if row is not None:
                out.append(row)
        return out
