"""Fulltext operator family over the driver's ``documents`` table.

The flagship path (SURVEY.md §2.6 FullText → BM25): build the inverted
index over documents-as-pages, then answer BM25 top-k / term-stats /
distincts queries. Each public function is a ``queries()`` entry with an
exact ANSI-SQL oracle (see __ray_entry__.py) — rank/value-identical modulo
round(…, 6) on float columns (fp summation order differs between numpy
and SQL SUM; 1e-6 rounding absorbs ulp-level drift).

Index builds are cached under /tmp keyed by source path + file stats, so
the many query entries share one build per scale factor.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from miru_ray.pipelines.build import BuildConfig, build_index
from miru_ray.pipelines.search import search
from miru_ray.sources.tables import documents_as_pages, orig_doc_ids
from miru_ray.state.layout import read_json
from miru_ray.state.reader import IndexReader

__all__ = ["documents_index", "fulltext_topk", "term_stats_prefix",
           "distinct_terms", "needle_search", "fulltext_filtered",
           "fulltext_highlighted", "term_first_last", "authz_search",
           "fulltext_fielded", "fulltext_scattered",
           "fulltext_lang_analyzed", "fulltext_phrase", "PHRASE_DEFAULT",
           "fulltext_near", "NEAR_A", "NEAR_B", "NEAR_SLOP",
           "fulltext_quoted", "QUOTED_PHRASE", "QUOTED_TERM"]

# fulltext_phrase's default query; the SQL oracle interpolates the SAME
# constant (analyzed through the same tokenize kernel) so engine and
# oracle cannot drift (the shared-constant rule, ADVICE r4 #5)
PHRASE_DEFAULT = "key value"

# fulltext_near's defaults, shared with its oracle the same way
NEAR_A, NEAR_B, NEAR_SLOP = "scan", "merge", 3

# fulltext_quoted's defaults: a quoted phrase ANDed with a bare term,
# scored by BM25 over all three terms (Lucene PhraseQuery semantics)
QUOTED_PHRASE, QUOTED_TERM = PHRASE_DEFAULT, "row"

_CACHE_ROOT = "/tmp/miru_ray_idx"


def documents_index(sf_dir: str, analyzer: str = "simple") -> str:
    """Build (cached) the inverted index over documents_as_pages(sf_dir).

    partition_mode="time_range" with num_parts=4: partitions are
    contiguous warc_ts ranges, so partition-major internal docIDs stay
    globally warc_ts-ordered == driver doc_id order (tie-breaks align
    with the SQL oracle — byte-identical segments to a num_parts=1 build,
    pytest-pinned) while the build parallelizes. The hash-partitioned
    path is exercised by the pages-fixture tests and fulltext_scattered.
    ``analyzer="per_lang"`` builds the language-analyzed variant (its own
    cache dir — the two indexes have different postings AND doclens).
    """
    from miru_ray.sources.tables import doc_ts_bounds
    from miru_ray.state.layout import cached_source_index
    from miru_ray.state.schema import FieldDef, IndexSchema

    def build(idx: str) -> None:
        # ts bounds from doc_id row-group statistics (warc_ts = base + id s):
        # saves _ts_bounds' extra pass over the adapter Dataset
        bounds = doc_ts_bounds(sf_dir)
        build_index(documents_as_pages(sf_dir), idx,
                    BuildConfig(num_parts=4, num_shards=2, store_text=True,
                                partition_mode="time_range", time_bounds=bounds,
                                analyzer=analyzer,
                                schema=IndexSchema((
                                    FieldDef("source", "keyword", stored=True),
                                    FieldDef("n_chars", "numeric"),
                                    FieldDef("src_lang", "composite",
                                             source=("source", "lang"))))))

    return cached_source_index(sf_dir, "" if analyzer == "simple" else analyzer,
                               9, build, root=_CACHE_ROOT, analyzer=analyzer)


def fulltext_topk(sf_dir: str, query: str = "sort merge", k: int = 20) -> pa.Table:
    """BM25 top-k (AND semantics). Returns (doc_id, score) with the
    driver's doc_id and round(score, 6)."""
    reader = IndexReader(documents_index(sf_dir))
    hits = search(reader, query, k=k)
    return pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6), pa.float64()),
    })


def needle_search(sf_dir: str, query: str = "vector OR window", k: int = 50) -> pa.Table:
    """OR-query variant exercising union + scoring of partial matches."""
    reader = IndexReader(documents_index(sf_dir))
    hits = search(reader, query, k=k)
    return pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6), pa.float64()),
    })


def term_stats_prefix(sf_dir: str, prefix: str = "s") -> pa.Table:
    """(term, df, cf) for terms with the given prefix — the reference's
    global-cardinality surface (MiruFieldIndex.getGlobalCardinality:41)
    exposed as a scan."""
    import pyarrow.dataset as pads
    from miru_ray.state.layout import meta_path
    from miru_ray.state.segview import SegView
    idx = documents_index(sf_dir)
    hi = prefix + "￿"
    flt = (pads.field("term") >= prefix) & (pads.field("term") < hi)
    # through SegView: a live overlay (possible after a sip/repair on this
    # cache) supersedes base df/cf and may hold overlay-only terms
    view = SegView.primary(idx, read_json(meta_path(idx)) or {})
    return pa.concat_tables([view.stats(s, flt) for s in view.shards()]) \
        .sort_by("term")


def distinct_terms(sf_dir: str, prefix: str = "b", limit: int = 100) -> pa.Table:
    """Distincts operator (miru-reco-plugins/.../distincts/Distincts.java:41-170):
    enumerate distinct terms by prefix range scan, capped."""
    t = term_stats_prefix(sf_dir, prefix)
    return t.select(["term"]).slice(0, limit)


def fulltext_filtered(sf_dir: str, query: str = "table scan",
                      langs: list[str] | None = None,
                      doc_id_range: tuple[int, int] | None = None,
                      k: int = 20) -> pa.Table:
    """BM25 top-k with lang / time-range domain masks. The adapter maps
    warc_ts = base + doc_id s, so a doc_id range IS a time range."""
    from miru_ray.sources.tables import DOC_TS_BASE_US
    reader = IndexReader(documents_index(sf_dir))
    tr = None
    if doc_id_range is not None:
        lo, hi = doc_id_range
        tr = (DOC_TS_BASE_US + lo * 1_000_000, DOC_TS_BASE_US + hi * 1_000_000)
    hits = search(reader, query, k=k, time_range=tr, langs=langs)
    return pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6), pa.float64()),
    })


def incremental_index(sf_dir: str) -> str:
    """Build (cached) the documents index INCREMENTALLY: first the head
    90% of the corpus, then a verify_inputs resume over the full corpus —
    the sip + splice-merge ingest path exercised as a first-class driver
    entry. The cold path HARD-ASSERTS that the resume skipped most
    partitions and merged via the v3 splice (so the entry fails loudly if
    the incremental machinery silently degrades to a rebuild), and the
    query result is oracle-checked against full-corpus BM25 SQL — the
    incremental index must be indistinguishable from a clean one."""
    import pyarrow.compute as pc
    from miru_ray.sources.tables import doc_ts_bounds
    from miru_ray.state.layout import cached_source_index

    def build(idx: str) -> None:
        bounds = doc_ts_bounds(sf_dir)
        if bounds is None:
            raise ValueError("documents.parquet carries no doc_id statistics")
        cut = bounds[0] + (bounds[1] - bounds[0]) * 9 // 10
        pages = documents_as_pages(sf_dir).select_columns(
            ["url", "warc_ts", "text", "lang"])
        head = pages.map_batches(
            lambda t, c=cut: t.filter(pc.less_equal(
                t["warc_ts"], pa.scalar(c, pa.timestamp("us")))),
            batch_format="pyarrow")
        cfg = lambda v: BuildConfig(num_parts=8, num_shards=2,   # noqa: E731
                                    partition_mode="time_range",
                                    time_bounds=bounds, verify_inputs=v)
        build_index(head, idx, cfg(False))
        meta = build_index(pages, idx, cfg(True))
        # the incremental contract, asserted on the cold path
        if len(meta["skipped_parts"]) < meta["num_parts"] // 2:
            raise AssertionError(
                f"incremental resume rebuilt too much: skipped only "
                f"{meta['skipped_parts']} of {meta['num_parts']}")
        if meta["phase_sec"].get("merge_mode") not in ("splice", "delta"):
            raise AssertionError(
                f"append merged via {meta['phase_sec'].get('merge_mode')!r}, "
                "expected the incremental splice or delta overlay")

    return cached_source_index(sf_dir, "incr", 1, build, root=_CACHE_ROOT)


def fulltext_incremental(sf_dir: str, query: str = "window scan",
                         k: int = 20) -> pa.Table:
    """Driver entry: BM25 over the INCREMENTALLY-built index (head 90% +
    sip append of the tail, splice merge) — value-identical to the
    full-corpus BM25 SQL oracle."""
    reader = IndexReader(incremental_index(sf_dir))
    hits = search(reader, query, k=k)
    return pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6), pa.float64()),
    })


def fulltext_highlighted(sf_dir: str, query: str = "window stream",
                         k: int = 10) -> pa.Table:
    """Top-k with snippet highlighting from the stored-text field."""
    from miru_ray.pipelines.search import highlight_hits
    reader = IndexReader(documents_index(sf_dir))
    hits = search(reader, query, k=k)
    hl = highlight_hits(reader, hits, query)
    return pa.table({
        "doc_id": orig_doc_ids(hl["url"]),
        "score": pa.array(np.round(hl["score"].to_numpy(), 6), pa.float64()),
        "snippet": hl["snippet"],
    })


def fulltext_phrase(sf_dir: str, phrase: str = PHRASE_DEFAULT) -> pa.Table:
    """Exact-phrase query: (doc_id, n_occ) for every doc whose analyzed
    token sequence contains ``phrase``'s tokens contiguously, with the
    occurrence count. The index has no positional postings (like the
    reference's bitmap field indexes), so this is the candidate-then-
    verify plan: postings AND over the phrase terms prefilters, the
    stored-text gather + vectorized token-run verify confirms — see
    :func:`miru_ray.pipelines.search.phrase_search` for the scale
    shape. NOT top-k: a phrase match is exact, so every match returns
    (the SQL oracle is a full GROUP BY)."""
    from miru_ray.pipelines.search import phrase_search
    reader = IndexReader(documents_index(sf_dir))
    hits = phrase_search(reader, phrase)
    out = pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "n_occ": hits["n_occ"],
    })
    return out.sort_by("doc_id")


def fulltext_near(sf_dir: str, term_a: str = NEAR_A, term_b: str = NEAR_B,
                  slop: int = NEAR_SLOP) -> pa.Table:
    """Ordered proximity query ("a b"~slop): (doc_id, n_pairs) for docs
    where ``term_b`` follows ``term_a`` within ``slop`` intervening
    tokens, with the exact position-pair count — the positional-query
    sibling of :func:`fulltext_phrase` (slop 0 degenerates to the
    bigram phrase), on the same candidate-then-verify plan."""
    from miru_ray.pipelines.search import near_search
    reader = IndexReader(documents_index(sf_dir))
    hits = near_search(reader, term_a, term_b, slop)
    out = pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "n_pairs": hits["n_pairs"],
    })
    return out.sort_by("doc_id")


def fulltext_quoted(sf_dir: str, k: int = 20) -> pa.Table:
    """BM25 top-k for a query MIXING a quoted phrase with a bare term —
    the full query-language form of phrase matching: ``"key value"
    row`` parses to And(Term(row), Phrase(key, value)); the Phrase node
    verifies contiguity against stored text INSIDE filter evaluation
    (functions/filters.py), so it composes under OR/NOT like any
    filter, and phrase terms score like plain terms (Lucene
    PhraseQuery). Returns (doc_id, score)."""
    reader = IndexReader(documents_index(sf_dir))
    hits = search(reader, f'"{QUOTED_PHRASE}" {QUOTED_TERM}', k=k)
    return pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6), pa.float64()),
    })


def fulltext_fielded(sf_dir: str, query: str = "sort merge source:src3",
                     k: int = 20) -> pa.Table:
    """Multi-field search: BM25 over the primary text field ANDed with
    secondary-field terms (``field:value`` / ``-field:value`` /
    ``field:val*``) resolved through the index's IndexSchema — the
    reference's per-field filter + scored-field split
    (MiruFieldIndex.java:12-43; MiruFullTextNGTest.java:52-60 multi-field
    schemas). Field terms restrict candidates; only text terms score."""
    reader = IndexReader(documents_index(sf_dir))
    hits = search(reader, query, k=k)
    return pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6), pa.float64()),
    })


def fulltext_lang_analyzed(sf_dir: str, query: str = "scan merge group",
                           lang: str = "de", k: int = 20) -> pa.Table:
    """BM25 top-k over the PER-LANGUAGE-analyzed index, restricted to one
    language's docs — the reference's per-locale analyzer chain
    (TermAnalyzers.java:45-138: locale → analyzer with that language's
    stopword set) as a first-class index variant. Index side: every doc's
    tokens pass its OWN language's stopword filter (doclens shrink, which
    feeds BM25 avgdl corpus-wide); query side: search() analyzes the
    query with the domain language's chain — both through the ONE
    STOPWORDS table the SQL oracle also uses."""
    reader = IndexReader(documents_index(sf_dir, analyzer="per_lang"))
    hits = search(reader, query, k=k, langs=[lang])
    return pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6), pa.float64()),
    })


def fulltext_scattered(sf_dir: str, query: str = "sort merge", k: int = 20) -> pa.Table:
    """The SAME BM25 query answered through a multi-partition index via the
    scatter→merge path (search_scattered) — closes the num_parts=1-only
    oracle gap. BM25 stats are corpus-global, so scores are identical to
    the single-partition index; internal docIDs are partition-major, so
    the final presentation re-ranks by (score desc, driver doc_id desc)
    over an over-fetched pool to keep the SQL total order exact."""
    from miru_ray.state.layout import cached_source_index
    idx = cached_source_index(
        sf_dir, "p4", 2, lambda d: build_index(
            documents_as_pages(sf_dir), d, BuildConfig(num_parts=4, num_shards=2)),
        root=_CACHE_ROOT, parts=4)
    from miru_ray.pipelines.search import search_scattered
    # Adaptive over-fetch: internal rank ties break by partition-major
    # docID, the oracle's by original doc_id — so the pool must cover the
    # whole boundary-score tie group. Safe iff either the result is
    # exhausted (pool not filled) or ≥k rows score strictly above the
    # boundary; otherwise the tie group straddles the cut and we regrow.
    pool = k + 50
    while True:
        hits = search_scattered(idx, query, k=pool)
        if hits.num_rows < pool:
            break
        scores = hits["score"].to_numpy()
        if int((scores > scores.min()).sum()) >= k:
            break
        pool *= 2
    doc_ids = orig_doc_ids(hits["url"]).to_numpy()
    scores = hits["score"].to_numpy()
    order = np.lexsort((-doc_ids, -scores))[:k]
    return pa.table({
        "doc_id": pa.array(doc_ids[order], pa.int64()),
        "score": pa.array(np.round(scores[order], 6), pa.float64()),
    })


def term_first_last(sf_dir: str, prefix: str = "s") -> pa.Table:
    """(term, first_doc, last_doc) — the reference's first/latest index
    semantics (MiruIndexFirst setIfEmpty / MiruIndexLatest remove-then-set,
    miru-service/.../stream/MiruIndexFirst.java, MiruIndexLatest.java:77):
    per term, the first and latest docID in prime order. Read straight off
    the docID-sorted postings via the codec's O(n_containers) edge read
    (decode_first_last \u2014 no full posting decode); num_parts=1 makes
    internal ids == driver doc_ids. Scale shape: the per-shard segment
    files partition the term space, so at a large matched-vocab this same
    body distributes as map_batches over the segment rows."""
    import glob
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    from miru_ray.functions.postings import decode_first_last
    from miru_ray.state.layout import meta_path, read_json
    idx = documents_index(sf_dir)
    hi = prefix + "\uffff"
    flt = (pads.field("term") >= prefix) & (pads.field("term") < hi)
    terms, first, last = [], [], []
    meta = read_json(meta_path(idx)) or {}
    if meta.get("delta"):
        # live overlay: the raw base blobs' edges can point at replaced
        # docs \u2014 resolve runs through SegView (full decode for the few
        # prefix-matched terms; the edge read stays the overlay-free path)
        from miru_ray.state.segview import SegView
        view = SegView.primary(idx, meta)
        for s in view.shards():
            for row in view.postings(s, flt, want_tfs=False):
                terms.append(row["term"])
                first.append(int(row["ids"][0]))
                last.append(int(row["ids"][-1]))
    else:
        files = sorted(glob.glob(os.path.join(idx, "segments", "*.parquet")))
        t = pq.read_table(files, columns=["term", "docids"], filters=flt)
        for term, blob in zip(t["term"].to_pylist(), t["docids"].to_pylist()):
            lo, hiid = decode_first_last(blob)
            terms.append(term)
            first.append(lo)
            last.append(hiid)
    out = pa.table({"term": pa.array(terms, pa.string()),
                    "first_doc": pa.array(first, pa.int64()),
                    "last_doc": pa.array(last, pa.int64())})
    return out.sort_by("term")


def authz_search(sf_dir: str, query: str = "table scan",
                 labels: list[str] = ("grp0",), k: int = 20) -> pa.Table:
    """BM25 top-k under the caller's entitlement labels — the
    MiruAuthzIndex composite-OR mask (labels OR-ed into one domain, then
    ANDed with the query). Labels derive deterministically from doc_id
    residue in the pages adapter (sources/tables._to_pages), so a caller
    with 'grp0' sees exactly doc_id % 3 IN (0, 2) — SQL-expressible."""
    reader = IndexReader(documents_index(sf_dir))
    hits = search(reader, query, k=k, authz=list(labels))
    return pa.table({
        "doc_id": orig_doc_ids(hits["url"]),
        "score": pa.array(np.round(hits["score"].to_numpy(), 6), pa.float64()),
    })
