"""Stumptown log intake + anomaly metric-sampler intake — the reference's
two app-tier intake services re-expressed as vectorized batch transforms,
un-deferring the last two §2.1 source rows.

Semantics ported (not code):

- ``LogMill.mill`` (miru-stumptown-deployable/.../LogMill.java:33-93):
  every single-valued field with a null/empty value becomes ``"unknown"``
  (``level`` defaults to ``"INFO"`` — MiruSolutionLogLevel.INFO); the
  ``message`` and each stack-trace line are lowercased and split on
  ``[^a-zA-Z0-9']+`` into a SET of terms (the multiTerm fields of
  StumptownSchemaConstants.SCHEMA:24-40); ``LogMill.levelCounts`` tallies
  ingress per (ServiceId, level).
- ``SampleTrawl.trawl`` (miru-anomaly-deployable/.../SampleTrawl.java:32-86):
  metric name = ``path`` joined by ``'>'``; the numeric value is
  BIT-SLICED into a ``bits`` multiTerm — a sign token (``'+'``/``'-'``)
  followed by the index of every set bit of ``|value|`` (Long.MIN_VALUE
  clamped to Long.MAX_VALUE); ``tags`` keeps the non-empty path elements.
  The anomaly plugin then reconstructs ``SUM(value)`` from per-bit
  cardinalities as ``sum_i count(bit_i) << i`` (Anomaly.java:16-60; the
  identity is spelled out in SampleTrawl.main:99-131).

Both mills are stateless per-batch transforms (``map_batches`` over Arrow);
the level-count / bit-sum rollups are partial-per-batch combiners followed
by one tiny exchange — group cardinality is bounded by the service/metric
topology, never by the event count.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from miru_ray.functions.hashing import hash_strings
from miru_ray.sources.tables import read_table

__all__ = ["mill_log_batch", "stumptown_level_counts",
           "stumptown_message_terms", "trawl_metrics_batch",
           "anomaly_bits_sum", "stumptown_index", "stumptown_search",
           "LOG_SINGLE_FIELDS"]

# LogMill's single-term fields, in schema order (StumptownSchemaConstants
# fields 0-8 + 10, 12-14; 'message'/'thrownStackTrace' are the multiTerms).
LOG_SINGLE_FIELDS = ("datacenter", "cluster", "host", "service", "instance",
                     "version", "level", "thread", "logger", "method_name",
                     "line_number", "timestamp", "exception_class")

_LOG_TOKEN_SPLIT = "[^a-z0-9']+"   # LogMill.tokenize: split, not extract
_BUCKETS = 64


def _or_default(t: pa.Table, name: str, default: str) -> pa.Array:
    """firstNonNull(emptyToNull(col), default) — null OR empty → default;
    a missing column is all-default (the reference's absent JSON field)."""
    if name not in t.column_names:
        return pa.array([default] * len(t), pa.string())
    col = t[name]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.cast(col, pa.string())
    return pc.coalesce(pc.if_else(pc.equal(col, ""), None, col),
                       pa.scalar(default))


def _dedup_rows(rows: np.ndarray, toks: np.ndarray, n_rows: int) -> pa.ListArray:
    """(row_idx, token) pairs → per-row SORTED SET as list<string>.
    All-C: one lexsort + one duplicated() mask, no Python per row."""
    if len(rows):
        order = np.lexsort((toks, rows))
        rows, toks = rows[order], toks[order]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (toks[1:] != toks[:-1])
        rows, toks = rows[keep], toks[keep]
    counts = np.bincount(rows, minlength=n_rows)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                    pa.array(toks, pa.string()))


def _tokenize_set(texts: pa.Array, n_rows: int) -> pa.ListArray:
    """LogMill.tokenize over a string column: lowercase, split on
    ``[^a-z0-9']+``, per-row sorted set (HashSet semantics made
    deterministic). Nulls tokenize to the empty set."""
    lowered = pc.utf8_lower(pc.coalesce(texts, pa.scalar("")))
    split = pc.split_pattern_regex(lowered, _LOG_TOKEN_SPLIT)
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    flat = split.flatten()
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    offsets = split.offsets.to_numpy(zero_copy_only=False)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offsets))
    toks = flat.to_numpy(zero_copy_only=False)
    return _dedup_rows(rows[keep], toks[keep], n_rows)


def _tokenize_set_lists(lists: pa.Array, n_rows: int) -> pa.ListArray:
    """LogMill.tokenizeStackTrace: tokenize each line of a list<string>
    column, union the token sets per row."""
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    line_rows = np.repeat(np.arange(n_rows, dtype=np.int64),
                          np.diff(lists.offsets.to_numpy(zero_copy_only=False)))
    line_toks = _tokenize_set(lists.flatten(), len(line_rows))
    tok_rows = np.repeat(
        line_rows, np.diff(line_toks.offsets.to_numpy(zero_copy_only=False)))
    toks = line_toks.flatten().to_numpy(zero_copy_only=False)
    return _dedup_rows(tok_rows, toks, n_rows)


def mill_log_batch(t: pa.Table) -> pa.Table:
    """One batch of MiruLogEvent rows → stumptown activity rows."""
    n = len(t)
    cols, names = [], []
    for f in LOG_SINGLE_FIELDS:
        default = "INFO" if f == "level" else "unknown"
        names.append(f)
        cols.append(_or_default(t, f, default))
    names.append("message_terms")
    cols.append(_tokenize_set(
        t["message"].combine_chunks() if "message" in t.column_names
        else pa.array([None] * n, pa.string()), n))
    names.append("stack_terms")
    if "thrown_stack_trace" in t.column_names:
        cols.append(_tokenize_set_lists(t["thrown_stack_trace"], n))
    else:
        cols.append(pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, dtype=np.int32)),
            pa.array([], pa.string())))
    return pa.Table.from_arrays(cols, names=names)


# ---------------------------------------------------------------- stumptown

def _log_events_from_events(t: pa.Table,
                            with_message: bool = True) -> pa.Table:
    """Deterministic MiruLogEvent derivation from the driver's ``events``
    table — the fixture's stand-in for the logappender's HTTP stream.
    Mirrored EXACTLY by the ``logev`` CTE in the SQL oracle; ``cluster``
    is sometimes NULL and ``level`` NULL for purchases so the mill's
    unknown/INFO defaults are exercised, not just passed through.
    ``with_message=False`` prunes the message column (columnar
    projection pushdown for consumers that never touch the multiTerm)."""
    u = t["user_id"].to_numpy()
    e = t["event_id"].to_numpy()
    et = t["event_type"]
    s = lambda a: pa.array(a, pa.string())
    dc = s(np.char.add("dc", (u % 3).astype("U1")))
    cl = pa.array(np.where(u % 11 == 0, None,
                           np.char.add("cl", (u % 5).astype("U1"))).astype(object))
    host = s(np.char.add("host", (u % 40).astype("U2")))
    inst = s((u % 10).astype("U2"))
    ver = s(np.char.add("1.", (e % 4).astype("U1")))
    lvl = pc.if_else(pc.equal(et, "error"), pa.scalar("ERROR"),
                     pc.if_else(pc.equal(et, "purchase"),
                                pa.scalar(None, pa.string()),
                                pa.scalar("INFO")))
    cols = [pa.array(e), dc, cl, host, et.combine_chunks(), inst, ver,
            lvl.combine_chunks()]
    names = ["event_id", "datacenter", "cluster", "host", "service",
             "instance", "version", "level"]
    if with_message:
        msg = pc.binary_join_element_wise(et, t["props"], pa.scalar(" "))
        cols.append(msg.combine_chunks())
        names.append("message")
    return pa.Table.from_arrays(cols, names=names)

# SQL mirror of _log_events_from_events, shared by both stumptown oracles.
LOGEV_SQL = """
logev AS (
  SELECT event_id,
         'dc' || (user_id % 3) AS datacenter,
         CASE WHEN user_id % 11 = 0 THEN NULL
              ELSE 'cl' || (user_id % 5) END AS cluster,
         'host' || (user_id % 40) AS host,
         event_type AS service,
         CAST(user_id % 10 AS VARCHAR) AS instance,
         '1.' || (event_id % 4) AS version,
         CASE WHEN event_type = 'error' THEN 'ERROR'
              WHEN event_type = 'purchase' THEN NULL
              ELSE 'INFO' END AS level,
         event_type || ' ' || props AS message
  FROM events
)"""

_LC_KEYS = ["datacenter", "cluster", "host", "service", "instance",
            "version", "level"]


def stumptown_level_counts(sf_dir: str) -> pa.Table:
    """LogMill.levelCounts as a pipeline: derive log events, mill them,
    count per (ServiceId, level). Partial count per batch, then ONE
    exchange on a key-hash bucket — the exchange moves O(distinct
    ServiceIds), never O(events)."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        milled = mill_log_batch(
            _log_events_from_events(t, with_message=False))
        df = (milled.select(_LC_KEYS).to_pandas()
              .groupby(_LC_KEYS, sort=False).size().rename("n").reset_index())
        key = df[_LC_KEYS].agg("\x00".join, axis=1).to_numpy(dtype=object) \
            if len(df) else np.array([], dtype=object)
        df["_bkt"] = (hash_strings(key) % np.uint64(_BUCKETS)).astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(_LC_KEYS, sort=True)["n"].sum().reset_index()
        out["n"] = out["n"].astype(np.int64)
        return out

    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("_bkt").map_groups(roll, batch_format="pandas"))
    res = pa.Table.from_pandas(out.to_pandas(), preserve_index=False)
    return res.sort_by([(k, "ascending") for k in _LC_KEYS])


def stumptown_message_terms(sf_dir: str, k: int = 20) -> pa.Table:
    """Document frequency of milled message terms, top-k by (df DESC,
    term): the 'message' multiTerm posting-list cardinalities a stumptown
    search would rank by. Set semantics make df == row count per term."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        terms = mill_log_batch(_log_events_from_events(t))["message_terms"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        flat = terms.flatten()  # already per-row sets → df partial = count
        df = (pd.Series(flat.to_numpy(zero_copy_only=False))
              .value_counts().rename_axis("term").rename("df").reset_index())
        df["_bkt"] = (hash_strings(df["term"].to_numpy(dtype=object))
                      % np.uint64(_BUCKETS)).astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("term", sort=False)["df"].sum().reset_index()
        out["df"] = out["df"].astype(np.int64)
        # local top-k per bucket: safe because buckets partition terms
        return out.sort_values(["df", "term"],
                               ascending=[False, True]).head(k)

    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("_bkt").map_groups(roll, batch_format="pandas"))
    res = out.to_pandas().sort_values(["df", "term"],
                                      ascending=[False, True]).head(k)
    return pa.Table.from_pandas(res, preserve_index=False)


# ----------------------------------------------------------- metric sampler

_I64_MIN = np.int64(np.iinfo(np.int64).min)
_I64_MAX = np.int64(np.iinfo(np.int64).max)
_BITSTR = np.array([str(i) for i in range(64)], dtype=object)


def trawl_metrics_batch(t: pa.Table) -> pa.Table:
    """One batch of AnomalyMetric rows → anomaly activity rows
    (SampleTrawl.trawl): singles unknown-defaulted, ``metric`` =
    '>'-joined path, ``bits`` = sign token + set-bit indices of |value|,
    ``tags`` = non-empty path elements."""
    n = len(t)
    path = t["path"]
    if isinstance(path, pa.ChunkedArray):
        path = path.combine_chunks()
    joined = pc.binary_join(path, pa.scalar(">"))
    metric = pc.coalesce(pc.if_else(pc.equal(joined, ""), None, joined),
                         pa.scalar("unknown"))
    # tags = sanitize(path): drop empty elements, keep order
    flat = path.flatten()
    keepm = pc.not_equal(pc.coalesce(flat, pa.scalar("")), "")
    keep_np = keepm.to_numpy(zero_copy_only=False)
    offs = path.offsets.to_numpy(zero_copy_only=False)
    kept_cum = np.concatenate([[0], np.cumsum(keep_np)])
    tags = pa.ListArray.from_arrays(pa.array(kept_cum[offs], pa.int32()),
                                    flat.filter(keepm))
    # bit-slice the value: sign token then every set bit of |value|
    v = t["value"].to_numpy().astype(np.int64)
    neg = v < 0
    mag = np.where(neg, np.where(v == _I64_MIN, _I64_MAX, -v), v) \
            .astype(np.uint64)
    mat = ((mag[:, None] >> np.arange(64, dtype=np.uint64)) &
           np.uint64(1)).astype(bool)                      # n×64
    counts = 1 + mat.sum(axis=1)                           # sign + set bits
    offsets = np.concatenate([[0], np.cumsum(counts)])
    toks = np.empty(offsets[-1], dtype=object)
    toks[offsets[:-1]] = np.where(neg, "-", "+")
    rws, cols_ = np.nonzero(mat)
    # position of the j-th set bit within its row = running rank
    rank = np.arange(len(rws)) - np.concatenate(
        [[0], np.cumsum(mat.sum(axis=1))])[rws]
    toks[offsets[rws] + 1 + rank] = _BITSTR[cols_]
    bits = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                    pa.array(toks, pa.string()))
    cols, names = [], []
    for f in ("datacenter", "cluster", "host", "service", "instance",
              "version", "sampler", "type", "tenant", "timestamp"):
        names.append(f)
        cols.append(_or_default(t, f, "unknown"))
    if isinstance(metric, pa.ChunkedArray):
        metric = metric.combine_chunks()
    return pa.Table.from_arrays(
        cols + [metric, bits, tags],
        names=names + ["metric", "bits", "tags"])


def anomaly_bits_sum(sf_dir: str) -> pa.Table:
    """SUM(value) per metric reconstructed FROM THE BIT-SLICED INDEX —
    Anomaly.java:16-60's sum-of-bit-cardinalities, proving the trawl's
    bits multiTerm is lossless: total = Σ⁺ count(bit_i)·2^i − Σ⁻ ….

    Partial per batch = per-(metric, sign) 64-bit count vector decoded
    from the milled ``bits`` tokens (≤ metrics×2×64 tiny rows); one
    bounded-key combine; exact integer arithmetic end to end."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        # fixture derivation (mirrored by the SQL oracle): the metric path
        # is [event_type, 'v']; value = floor(value·100) − 600 exercises
        # both signs. float64 multiply-then-floor is identical in numpy
        # and DuckDB (same doubles in, same doubles floored).
        v = np.floor(t["value"].to_numpy() * 100.0).astype(np.int64) - 600
        et = np.asarray(t["event_type"].to_numpy(zero_copy_only=False),
                        dtype=object)
        path = pa.ListArray.from_arrays(
            pa.array(np.arange(len(v) + 1, dtype=np.int32) * 2),
            pa.array(np.stack([et, np.full(len(v), "v", dtype=object)],
                              axis=1).ravel(), pa.string()))
        acts = trawl_metrics_batch(pa.Table.from_arrays(
            [path, pa.array(v)], names=["path", "value"]))
        # decode the bits tokens back into per-(metric, sign, bit) counts
        bits = acts["bits"]
        if isinstance(bits, pa.ChunkedArray):
            bits = bits.combine_chunks()
        offs = bits.offsets.to_numpy(zero_copy_only=False)
        toks = bits.flatten().to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(acts), dtype=np.int64), np.diff(offs))
        is_sign = np.zeros(len(toks), dtype=bool)
        is_sign[offs[:-1]] = True
        sign_per_row = toks[offs[:-1]]
        met = np.asarray(acts["metric"].to_numpy(zero_copy_only=False),
                         dtype=object)
        dfp = pd.DataFrame({
            "metric": met[rows[~is_sign]],
            "sign": sign_per_row[rows[~is_sign]],
            "bit": toks[~is_sign].astype(np.int64)})
        out = (dfp.groupby(["metric", "sign", "bit"], sort=False)
               .size().rename("n").reset_index())
        nrow = (pd.DataFrame({"metric": met, "sign": sign_per_row})
                .groupby(["metric", "sign"], sort=False)
                .size().rename("n").reset_index())
        nrow["bit"] = np.int64(-1)   # sentinel row-count rows
        return pa.Table.from_pandas(
            pd.concat([out, nrow[["metric", "sign", "bit", "n"]]]),
            preserve_index=False)

    parts = (ds.map_batches(partial, batch_format="pyarrow")
               .to_pandas())  # bounded: metrics × 2 × 65 × batches
    agg = parts.groupby(["metric", "sign", "bit"])["n"].sum().reset_index()
    piv = agg[agg["bit"] >= 0]
    # python-int shifts: bit 63 (reachable via the MIN_VALUE clamp) would
    # overflow an int64 `1 << bit`; object arithmetic stays exact
    shift = np.array([1 << int(b) for b in piv["bit"]], dtype=object)
    weight = np.where(piv["sign"] == "+", 1, -1) * (
        piv["n"].to_numpy().astype(object) * shift)
    totals = (pd.DataFrame({"metric": piv["metric"], "w": weight})
              .groupby("metric")["w"].sum())
    # metric universe from the sentinel rows: a metric whose every value
    # is ZERO emits no bit rows but must still appear with total 0, like
    # the oracle's GROUP BY
    nrows = agg[agg["bit"] == -1].groupby("metric")["n"].sum()
    totals = totals.reindex(nrows.index, fill_value=0)
    res = pd.DataFrame({"metric": totals.index,
                        "total_cents": totals.to_numpy().astype(np.int64),
                        "n": nrows.to_numpy().astype(np.int64)}) \
        .sort_values("metric")
    return pa.Table.from_pandas(res, preserve_index=False)


# ------------------------------------------------- stumptown search (e2e)

def _log_pages(t: pa.Table) -> pa.Table:
    """events batch → indexable log pages: the stumptown deployment in
    miniature. ``text`` is the log MESSAGE (BM25-scored primary field —
    stumptown's 'message' multiTerm), ``level``/``service`` are exact
    keyword fields (singleTerm fields 6/3 of StumptownSchemaConstants).
    Keyword values are stored lowercased: the query parser analyzes
    field values with the shared tokenizer, so index-side values must be
    normalized by the same rule (one analyzer for index+query+oracle).
    warc_ts := base + event_id·1s keeps internal docIDs monotone in
    event_id, aligning tie-breaks with the SQL oracle (FIXTURES.md)."""
    from miru_ray.sources.tables import DOC_TS_BASE_US
    e = t["event_id"].to_numpy()
    et = t["event_type"]
    url = pc.binary_join_element_wise(
        pa.scalar("log://"), pa.array(e.astype("U20")), pa.scalar(""))
    ts = pa.array(DOC_TS_BASE_US + e * 1_000_000).cast(pa.timestamp("us"))
    text = pc.binary_join_element_wise(et, t["props"], pa.scalar(" "))
    # milled level, lowercased: error→'error'; purchase derives NULL and
    # the mill defaults it to INFO; everything else INFO
    level = pc.if_else(pc.equal(et, "error"), pa.scalar("error"),
                       pa.scalar("info"))
    names = ["url", "warc_ts", "text", "lang", "level", "service"]
    cols = [url, ts, text, pa.array(np.repeat("en", len(t))), level, et]
    return pa.Table.from_arrays(
        [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
         for c in cols], names=names)


def stumptown_index(sf_dir: str) -> str:
    """Build (cached per source stats) the searchable log index over the
    milled events — intake composed with the index engine, like the
    stumptown deployable feeds its miru cluster."""
    import pyarrow.parquet as pq

    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.sources.tables import DOC_TS_BASE_US, read_table as _rt
    from miru_ray.state.layout import cached_source_index
    from miru_ray.state.schema import FieldDef, IndexSchema

    def build(idx: str) -> None:
        meta_pq = pq.ParquetFile(os.path.join(sf_dir, "events.parquet")).metadata
        ci = meta_pq.schema.to_arrow_schema().get_field_index("event_id")
        lo = hi = None
        for rg in range(meta_pq.num_row_groups):
            s = meta_pq.row_group(rg).column(ci).statistics
            if s is not None and s.has_min_max:
                lo = int(s.min) if lo is None else min(lo, int(s.min))
                hi = int(s.max) if hi is None else max(hi, int(s.max))
        bounds = (DOC_TS_BASE_US + lo * 1_000_000,
                  DOC_TS_BASE_US + hi * 1_000_000) if lo is not None else None
        pages = _rt(sf_dir, "events",
                    columns=["event_id", "event_type", "props"]) \
            .map_batches(_log_pages, batch_format="pyarrow")
        build_index(pages, idx,
                    BuildConfig(num_parts=4, num_shards=2,
                                partition_mode="time_range", time_bounds=bounds,
                                schema=IndexSchema((
                                    FieldDef("level", "keyword"),
                                    FieldDef("service", "keyword")))))

    return cached_source_index(sf_dir, "stumptown", 1, build,
                               source_name="events.parquet")


def stumptown_search(sf_dir: str, query: str = "purchase k level:info",
                     k: int = 20) -> pa.Table:
    """Fielded BM25 over the milled log corpus (intake → index → query,
    end to end): text terms are BM25-scored, ``level:`` filters candidates
    while df/N/avgdl stay corpus-global — the engine's domain-mask
    semantics, mirrored by the SQL oracle."""
    from miru_ray.pipelines.search import search
    from miru_ray.state.reader import IndexReader

    hits = search(IndexReader(stumptown_index(sf_dir)), query, k=k)
    urls = hits["url"].to_pylist()
    return pa.table({
        "event_id": pa.array([int(u[6:]) for u in urls], pa.int64()),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6),
                          pa.float64()),
    })
