"""BM25 query path — one per-partition query core, two drivers.

Reference flow re-expressed (SURVEY.md §3.3): each partition answers a
question with ``askLocal`` on its own slice — filter tree over posting
bitmaps (MiruAggregateUtil.filter) → FullText score+top-k
(miru-stream-plugins/.../fulltext/FullText.java:99-220) — and an
AnswerMerger combines the answers (MiruService.askAndMerge:101-194).
Here ``_ask`` is that askLocal over a postings-provider view. The inline
driver calls it once in-process with the reader itself as the view; the
scatter driver runs it in one Ray task per partition over a
``_RangeRestricted`` view. ``BatchSearcher`` serves a *dataset of
queries* from an actor pool (model-in-__init__, StrutModelScorer.java).

Determinism: terms scored in sorted order, float64, final order
(score desc, docID desc) — FullText.RawBitScore comparator.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from miru_ray.functions.bm25 import bm25_term_scores, idf, topk_order
from miru_ray.functions.filters import (PHRASE_VERIFY_BATCH, And, Filter, Or,
                                        Term, evaluate, field_names,
                                        parse_query, query_terms)
from miru_ray.functions.postings import (BLOCK_SIZE, diff_sorted,
                                         intersect_sorted, union_sorted)
from miru_ray.functions.tokenize import (STOPWORDS, near_pair_counts,
                                         phrase_occurrences, tokenize)
from miru_ray.state.reader import IndexReader

__all__ = ["search", "BatchSearcher", "score_candidates", "search_scattered",
           "highlight_hits", "topk_pruned", "phrase_search",
           "phrase_occurrences", "near_search", "near_pair_counts",
           "phrase_search_scattered", "near_search_scattered"]


def score_candidates(reader: IndexReader, terms: list[str],
                     candidates: np.ndarray) -> np.ndarray:
    """BM25 scores (float64) for candidate docIDs, accumulating terms in
    sorted order. Docs missing a term simply contribute nothing (OR care)."""
    scores = np.zeros(len(candidates), dtype=np.float64)
    if len(candidates) == 0:
        return scores
    doclen = reader.doclens(candidates)
    postings = reader.load_postings(sorted(set(terms)))
    for term in sorted(postings):
        ids, tfs, df = postings[term]
        idx = np.searchsorted(ids, candidates)
        idx_c = np.minimum(idx, len(ids) - 1)
        present = ids[idx_c] == candidates
        if not present.any():
            continue
        scores[present] += bm25_term_scores(
            tfs[idx_c[present]], doclen[present], df,
            reader.n_docs, reader.avgdl, reader.k1, reader.b)
    return scores


def topk_pruned(reader: IndexReader, terms: list[str], candidates: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-max WAND-style top-k: per-candidate upper bounds from per-block
    max-tf metadata eliminate docs that provably cannot reach the top-k;
    only survivors get exact scores.

    Losslessness: ub(doc) = Σ_t idf_t · bound(bmax_block(doc)) with
    bound(tf) = tf(k1+1)/(tf + k1(1−b)) — BM25's tf-saturation evaluated at
    the block's max tf and the minimal length norm (dl→0), which dominates
    every exact per-term contribution; a doc pruned at ub < θ (θ = k-th
    best exact score of the seed set) can never enter the top-k. Property-
    tested against the exhaustive scorer (tests/test_search.py).

    Replaces the reference's exhaustive newest-first walk + min-max heap
    (FullText.java:129-220) with a two-phase vectorized scan.
    """
    postings = reader.load_postings(sorted(set(terms)))
    if not postings or len(candidates) == 0:
        # no scoring terms (e.g. pure-prefix query): all scores are 0 and
        # top-k is decided by the docID tie-break alone
        scores = np.zeros(len(candidates), dtype=np.float64)
        top = topk_order(scores, candidates, k)
        return candidates[top], scores[top]
    # seed: exact-score candidates of the rarest term (highest idf — likely
    # the score leaders), capped
    rarest = min(postings, key=lambda t: postings[t][2])
    seed_pool = intersect_sorted(candidates, postings[rarest][0])
    if len(seed_pool) == 0 or len(seed_pool) > max(4 * k, 512):
        seed_pool = seed_pool[:max(4 * k, 512)] if len(seed_pool) else candidates[:max(4 * k, 512)]
    seed_scores = score_candidates(reader, terms, seed_pool)
    if len(seed_pool) >= k:
        theta = np.partition(seed_scores, len(seed_scores) - k)[len(seed_scores) - k]
    else:
        theta = -np.inf
    # upper bounds for all candidates from block-max metadata
    ub = np.zeros(len(candidates), dtype=np.float64)
    k1, b = reader.k1, reader.b
    for term in sorted(postings):
        ids, _tfs, df = postings[term]
        bmax = reader.block_max(term)
        idx = np.searchsorted(ids, candidates)
        idx_c = np.minimum(idx, len(ids) - 1)
        present = ids[idx_c] == candidates
        if not present.any():
            continue
        btf = bmax[idx_c[present] // BLOCK_SIZE].astype(np.float64)
        ub[present] += float(idf(reader.n_docs, df)) * btf * (k1 + 1.0) \
            / (btf + k1 * (1.0 - b))
    # >= (not >): a doc whose exact score ties θ can still win on the docID
    # tie-break, so the boundary must survive
    survivors = candidates[ub >= theta]
    # exact scores for survivors ∪ seed (dedup via union of sorted arrays)
    final_pool = union_sorted(survivors, seed_pool)
    final_scores = score_candidates(reader, terms, final_pool)
    top = topk_order(final_scores, final_pool, k)
    return final_pool[top], final_scores[top]


# pruning engages only when exhaustive scoring clearly costs more than the
# two-phase pass. Measured on the 1M-doc fixture: with uniform per-term
# score distributions the dl→0 upper bound prunes little, so the screen is
# pure overhead; it wins when a RARE (high-idf) term seeds a θ that hot
# candidates cannot reach — i.e. OR queries mixing rare and hot terms.
PRUNE_MIN_CANDIDATES = 4096
PRUNE_RARE_RATIO = 8   # rarest df must be ≤ candidates/8 for a useful seed


def _should_prune(postings_dfs: list[int], n_candidates: int, k: int) -> bool:
    if not postings_dfs or n_candidates < PRUNE_MIN_CANDIDATES:
        return False
    if k * 8 > n_candidates:
        return False
    return min(postings_dfs) * PRUNE_RARE_RATIO <= n_candidates


@dataclass(frozen=True)
class _Plan:
    """One query: a filter ``tree`` under a ``domain`` (time_range, langs,
    authz), then EITHER a BM25 top-``k`` over ``terms`` OR, with
    ``verify`` set, every candidate the stored-text kernel counts > 0
    (the count in column ``out_col``)."""
    tree: Filter
    domain: tuple = (None, None, None)
    terms: tuple = ()
    k: int = 0
    prune: bool | None = None
    verify: Callable | None = None
    out_col: str = ""


def _ask(view, reader: IndexReader, plan: _Plan):
    """The query core — one partition's askLocal (the whole index's,
    inline): evaluate through ``view``, ANDNOT tombstones, then the
    local top-k (ids, float64 scores), or the verify plan's match tables
    with stored text gathered in PHRASE_VERIFY_BATCH batches so a hot
    phrase never materializes corpus-scale text. Stats, doclens and
    stored fields come from ``reader`` (corpus-global BM25 N/avgdl/df)."""
    # domains compose as predicates on ONE lazy packed-bitmap mask
    # (1 bit/doc per touched partition) ANDed against candidates during
    # evaluation — never an explicit id array of the matching domain
    cand = evaluate(plan.tree, view, reader.domain_mask(*plan.domain))
    removed = reader.removed_ids()
    if len(removed):   # removal-index ANDNOT mask (MiruRemovalIndex)
        cand = diff_sorted(cand, removed)
    if plan.verify is not None:
        found = []
        for lo in range(0, len(cand), PHRASE_VERIFY_BATCH):
            chunk = cand[lo: lo + PHRASE_VERIFY_BATCH]
            got = reader.gather_docs(chunk, columns=["url", "text"])
            cnt = plan.verify(got["text"])
            keep = cnt > 0
            found.append(pa.table({
                "doc_id": chunk[keep].astype(np.int64),
                plan.out_col: cnt[keep].astype(np.int64),
                "url": got["url"].filter(pa.array(keep))}))
        return found
    terms, k, use_prune = plan.terms, plan.k, plan.prune
    if use_prune is None:
        dfs = [reader.load_postings([t]).get(t, (None, None, 0))[2]
               for t in terms] if len(cand) >= PRUNE_MIN_CANDIDATES else []
        use_prune = _should_prune([d for d in dfs if d], len(cand), k)
    if use_prune:
        return topk_pruned(reader, terms, cand, k)
    scores = score_candidates(reader, terms, cand)
    top = topk_order(scores, cand, k)
    return cand[top], scores[top]


def _merge(reader: IndexReader, plan: _Plan, answers: list) -> pa.Table:
    """AnswerMerger: match tables concatenate in partition (= docID)
    order onto the typed empty; top-k answers re-select with the global
    comparator, then the winners' stored fields are gathered."""
    if plan.verify is not None:
        return pa.concat_tables([pa.table({
            "doc_id": pa.array([], pa.int64()),
            plan.out_col: pa.array([], pa.int64()),
            "url": pa.array([], pa.string())}),
            *(t for tables in answers for t in tables)])
    ids = np.concatenate([np.empty(0, np.uint64), *(a[0] for a in answers)])
    scores = np.concatenate([np.empty(0), *(a[1] for a in answers)])
    if len(answers) > 1:   # P local top-k heaps → one (AnswerMerger.done)
        top = topk_order(scores, ids, plan.k)
        ids, scores = ids[top], scores[top]
    # gather_docs gives (doc_id, url, warc_ts, lang)
    return reader.gather_docs(ids).add_column(
        1, "score", pa.array(scores, pa.float64()))


def _inline(reader: IndexReader, plan: _Plan) -> pa.Table:
    return _merge(reader, plan, [_ask(reader, reader, plan)])


class _RangeRestricted:
    """PostingsProvider view clipped to one partition's docID range
    [lo, hi) — the scatter task's view, so node-level work that scales
    with the candidate count (the Phrase stored-text verify) runs on
    partition-local candidates only. Clipping term/prefix/range/all id
    streams is equivalent to post-filtering the final result because
    every filter-algebra operation (AND/OR/ANDNOT) commutes with the
    range restriction."""

    def __init__(self, r: IndexReader, lo: np.uint64, hi: np.uint64):
        self._r, self._lo, self._hi = r, lo, hi

    def _clip(self, a: np.ndarray) -> np.ndarray:
        return a[(a >= self._lo) & (a < self._hi)]

    def ids(self, term: str) -> np.ndarray:
        return self._clip(self._r.ids(term))

    def prefix_union_ids(self, prefix: str, cap: int) -> np.ndarray:
        return self._clip(self._r.prefix_union_ids(prefix, cap))

    def range_union_ids(self, lo: str, hi: str) -> np.ndarray:
        return self._clip(self._r.range_union_ids(lo, hi))

    def all_ids(self) -> np.ndarray:
        return self._clip(self._r.all_ids())

    def stored_texts(self, doc_ids: np.ndarray):
        return self._r.stored_texts(doc_ids)


@ray.remote
def _ask_partition(index_dir: str, part: int, plan: _Plan,
                   delay: float = 0.0):
    """One partition's askLocal as a Ray task: the core over the
    partition's docID range. ``delay`` is the straggler test seam."""
    if delay:
        time.sleep(delay)
    r = IndexReader(index_dir)
    pi = r.parts.index(part)
    lo = np.uint64(r.bases[pi])
    hi = np.uint64(r.bases[pi] + r.counts[pi])
    return _ask(_RangeRestricted(r, lo, hi), r, plan)


def _scatter(reader: IndexReader, plan: _Plan,
             straggler_timeout_s: float | None = None,
             inject_delay: dict[int, float] | None = None) -> pa.Table:
    """The scatter driver: one core task per partition (on a cluster,
    where the partition lives), merged at the driver.

    Straggler policy (the reference's lowest-latency solver,
    MiruLowestLatencySolver.java:84-105): with ``straggler_timeout_s``
    set, a partition still outstanding that long after the last
    progress gets ONE duplicate task — on a cluster Ray places it on a
    free node, i.e. another replica — and the first finisher wins; the
    loser is cancelled. Retries cover failure, this covers slowness;
    both attempts compute the same deterministic answer.
    ``inject_delay`` maps partition → seconds slept by attempt 0 only."""
    delays = inject_delay or {}
    pending = {_ask_partition.remote(reader.index_dir, p, plan,
                                     delays.get(p, 0.0)): p
               for p in reader.parts}
    answers: dict[int, object] = {}
    backed_up: set[int] = set()
    while pending:
        ready, _ = ray.wait(list(pending), num_returns=1,
                            timeout=straggler_timeout_s)
        for ref in ready:
            p = pending.pop(ref)
            if p not in answers:        # first finisher wins
                answers[p] = ray.get(ref)
        if not ready and straggler_timeout_s is not None:
            # timeout with no progress: race ONE backup per partition
            # still outstanding (the solver's addAnotherSolver step)
            for p in set(pending.values()) - backed_up:
                backed_up.add(p)
                pending[_ask_partition.remote(reader.index_dir, p, plan)] = p
        # retire duplicate attempts whose partition already answered
        for ref in [r for r, p in pending.items() if p in answers]:
            pending.pop(ref)
            with suppress(Exception):   # already finished: nothing to do
                ray.cancel(ref)
    return _merge(reader, plan, [answers[p] for p in reader.parts])


def _query_plan(reader: IndexReader, query: str, k: int, time_range,
                langs, authz, query_lang, prune) -> _Plan:
    """The top-k plan :func:`search` and :func:`search_scattered` share."""
    _refuse_dropped_fields(reader, query)
    if query_lang is None and langs and len(langs) == 1:
        query_lang = langs[0]
    # a per_lang index analyzes the query with the stopword chain its
    # docs were indexed with — one locale per query, like the reference
    stop = STOPWORDS.get(query_lang, frozenset()) \
        if reader.analyzer == "per_lang" and query_lang else frozenset()
    tree = parse_query(query, reader.schema, stop)
    return _Plan(tree, (time_range, langs, authz), tuple(query_terms(tree)),
                 k, prune)


def search(reader: IndexReader, query: str, k: int = 10,
           time_range: tuple[int | None, int | None] | None = None,
           langs: list[str] | None = None,
           authz: list[str] | None = None, *,
           query_lang: str | None = None,
           prune: bool | None = None) -> pa.Table:
    """Top-k BM25 search. Returns (doc_id, score, url, warc_ts, lang).

    ``authz``: the caller's entitlement labels — results restricted to docs
    carrying at least one (authz index ANDed in, MiruAuthzIndex semantics).
    ``prune`` forces the block-max path on/off (None = auto heuristic).
    ``field:value`` query syntax resolves against the index's own schema
    (reader.schema, persisted in meta.json at build time).

    ``query_lang``: on a ``per_lang`` index, the ONE analyzer locale for
    the query string — the reference's Lucene parser takes exactly one
    locale per query (LuceneBackedQueryParser + TermAnalyzers.findAnalyzer),
    so a multi-language query analysis is not a thing here either.
    Defaults to ``langs[0]`` when a single-language domain filter is
    given. With no query language on a per_lang index the query is NOT
    stopword-analyzed: a term that some language's chain stripped at
    index time then matches only docs whose own language KEPT it — plain
    posting semantics. Pass ``query_lang`` to analyze explicitly.
    """
    return _inline(reader, _query_plan(reader, query, k, time_range, langs,
                                       authz, query_lang, prune))


def search_scattered(index_dir: str, query: str, k: int = 10,
                     time_range: tuple[int | None, int | None] | None = None,
                     langs: list[str] | None = None,
                     authz: list[str] | None = None, *,
                     query_lang: str | None = None,
                     prune: bool | None = None,
                     straggler_timeout_s: float | None = None,
                     _inject_delay: dict[int, float] | None = None
                     ) -> pa.Table:
    """Per-partition scatter-gather form of :func:`search` — same options
    and plan, rank- and float64-score-identical (pytest-verified); see
    ``_scatter`` for ``straggler_timeout_s`` and ``_inject_delay``."""
    reader = IndexReader(index_dir)
    plan = _query_plan(reader, query, k, time_range, langs, authz,
                       query_lang, prune)
    return _scatter(reader, plan, straggler_timeout_s, _inject_delay)


def _refuse_dropped_fields(reader: IndexReader, query: str) -> None:
    """A field ``add_field`` attached is dropped by the next commit that
    rebuilds partitions (``meta["dropped_fields"]``); the query would
    otherwise parse ``name:value`` as text and quietly match nothing."""
    dropped = reader.meta.get("dropped_fields")
    named = field_names(query) & set(dropped) if dropped else None
    if named:
        raise ValueError(
            f"field(s) {sorted(named)} of the index at {reader.index_dir!r} "
            f"were dropped when its partitions were rebuilt; re-run "
            f"add_field to restore them")


def _require_stored_text(reader: IndexReader, op: str) -> None:
    """Positional queries verify against the stored-text field; fail
    with an actionable message instead of a schema error mid-gather.
    An EMPTY index passes: every query path returns empty rows there,
    and a zero-partition index has no docs file to prove the flag
    either way."""
    if reader.n_docs and not reader.has_stored_text:
        raise ValueError(
            f"{op} needs an index built with store_text=True "
            f"(this index at {reader.index_dir!r} has no stored text "
            f"column to verify positions against)")


def _positional_plan(reader: IndexReader, terms: list[str], verify,
                     out_col: str) -> _Plan:
    """Match-all plan of the phrase and near queries — candidate-then-
    verify, since the index stores (df, cf, docids, tfs) but no
    positions (like the reference's bitmap indexes,
    MiruFieldIndex.java:12-43). CANDIDATES are a postings AND over the
    distinct analyzed terms (a doc missing one cannot match), built
    DIRECTLY: parse_query would read the analyzed token 'or' as the OR
    operator (and ':' / '*' as field/prefix syntax) — tokens are data
    here, and no terms is the empty union, not match-all. The core then
    VERIFIES only the candidates' stored text with ``verify``, so the
    cost is bounded by the AND candidate count, never the corpus."""
    _require_stored_text(reader, "positional query")
    tree = And(tuple(Term(t) for t in sorted(set(terms)))) if terms \
        else Or(())
    return _Plan(tree, verify=verify, out_col=out_col)


def _phrase_plan(reader: IndexReader, phrase: str) -> _Plan:
    terms = tokenize(phrase)
    return _positional_plan(reader, terms,
                            partial(phrase_occurrences, terms=terms), "n_occ")


def _near_plan(reader: IndexReader, term_a: str, term_b: str,
               slop: int) -> _Plan:
    ta, tb = tokenize(term_a), tokenize(term_b)
    if len(ta) != 1 or len(tb) != 1:
        raise ValueError(
            f"near terms must each analyze to exactly one token; got "
            f"{term_a!r} -> {ta} and {term_b!r} -> {tb} (use "
            f"phrase_search for multi-token sequences)")
    a, b = ta[0], tb[0]
    return _positional_plan(
        reader, [a, b],
        partial(near_pair_counts, term_a=a, term_b=b, slop=slop), "n_pairs")


def phrase_search(reader: IndexReader, phrase: str) -> pa.Table:
    """Exact PHRASE match — docs whose analyzed token sequence contains
    ``phrase``'s analyzed tokens contiguously — WITHOUT positional
    postings (see ``_positional_plan``): occurrences counted by the
    vectorized :func:`phrase_occurrences` on the AND candidates' stored
    text. Returns (doc_id, n_occ, url) ordered by internal docID. A
    single-term phrase degenerates to term-occurrence count (== tf)."""
    return _inline(reader, _phrase_plan(reader, phrase))


def near_search(reader: IndexReader, term_a: str, term_b: str,
                slop: int = 3) -> pa.Table:
    """Ordered PROXIMITY query (Lucene's "a b"~slop, directional): docs
    where ``term_b`` follows ``term_a`` within ``slop`` intervening
    tokens, with the exact pair count (:func:`near_pair_counts` on the
    AND candidates' stored text). Returns (doc_id, n_pairs, url)
    ordered by internal docID. Each term must analyze to exactly ONE
    token (raises ValueError otherwise — a silent empty would be
    indistinguishable from 'no matches')."""
    return _inline(reader, _near_plan(reader, term_a, term_b, slop))


def phrase_search_scattered(index_dir: str, phrase: str) -> pa.Table:
    """Per-partition scatter form of :func:`phrase_search` — identical
    result (pytest-pinned), but candidates AND verify both run inside
    the partition task, so nothing but matches crosses the wire."""
    reader = IndexReader(index_dir)
    return _scatter(reader, _phrase_plan(reader, phrase))


def near_search_scattered(index_dir: str, term_a: str, term_b: str,
                          slop: int = 3) -> pa.Table:
    """Per-partition scatter form of :func:`near_search` — identical
    result (pytest-pinned), partition-local candidates + verify."""
    reader = IndexReader(index_dir)
    return _scatter(reader, _near_plan(reader, term_a, term_b, slop))


def highlight_hits(reader: IndexReader, hits: pa.Table, query: str,
                   window: int = 40) -> pa.Table:
    """Append a ``snippet`` column: ±window chars around the first query-term
    occurrence, terms wrapped in ``**``. Requires an index built with
    ``store_text=True`` (the stored-field feature). Reference:
    LuceneBackedQueryParser.highlight:56-74 (Lucene highlighter over stored
    content → here a deterministic first-match window)."""
    import re as _re
    terms = query_terms(parse_query(query))
    if not terms:
        return hits.append_column("snippet", pa.array([""] * hits.num_rows))
    pat = _re.compile("|".join(_re.escape(t) for t in sorted(terms, key=len,
                                                             reverse=True)),
                      _re.IGNORECASE)
    doc_ids = hits["doc_id"].to_numpy().astype(np.uint64)
    texts = reader.gather_docs(doc_ids, columns=["text"])["text"].to_pylist()
    snippets = []
    for text in texts:
        m = pat.search(text or "")
        if not m:
            snippets.append((text or "")[: 2 * window])
            continue
        lo = max(0, m.start() - window)
        hi = min(len(text), m.end() + window)
        frag = text[lo:hi]
        snippets.append(pat.sub(lambda mm: f"**{mm.group(0)}**", frag))
    return hits.append_column("snippet", pa.array(snippets, pa.string()))


class BatchSearcher:
    """Actor-pool stage: a batch of queries in, top-k rows out.

    Usage::

        queries = ray.data.from_items([{"qid": 0, "query": "w00001 w00002"}, ...])
        hits = queries.map_batches(BatchSearcher, fn_constructor_kwargs={
                   "index_dir": idx, "k": 10},
                   batch_format="pandas", concurrency=4, batch_size=64)

    The IndexReader (segment handles, postings/docs caches) is built once
    per actor; each query reuses the warm caches — the reference's
    partition-handle + model-cache shape.
    """

    def __init__(self, index_dir: str, k: int = 10):
        self.reader = IndexReader(index_dir)
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for qid, q in zip(batch["qid"], batch["query"]):
            hits = search(self.reader, q, self.k).to_pandas()
            hits.insert(0, "qid", qid)
            hits.insert(2, "rank", np.arange(len(hits), dtype=np.int64))
            out.append(hits)
        return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
            {"qid": [], "doc_id": [], "rank": [], "score": [], "url": [],
             "warc_ts": [], "lang": []})
