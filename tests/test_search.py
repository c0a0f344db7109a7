"""Query-path correctness: rank-identical top-k vs brute-force oracle on
the reference query set (FIXTURES.md invariant 3), filter semantics, and
the Ray-native batch scorer."""

from __future__ import annotations

import os

import numpy as np
import pytest

from miru_ray.pipelines.search import BatchSearcher, search
from miru_ray.sources.queryset import reference_queries
from tests.conftest import N_FIXTURE_ROWS


def test_reference_queryset_rank_identical(reader, oracle, index_dir):
    from miru_ray.pipelines.search import search_scattered
    qs = reference_queries(N_FIXTURE_ROWS)
    assert len(qs) == 50
    for q in qs:
        oid, osc = oracle.search(q["query"], k=10, time_range=q["time_range"],
                                 langs=q["langs"])
        hits = search(reader, q["query"], k=10, time_range=q["time_range"],
                      langs=q["langs"])
        assert np.array_equal(hits["doc_id"].to_numpy(), oid), q
        # scores must be exactly equal (same float64 ops, same order)
        assert np.array_equal(hits["score"].to_numpy(), osc), q
        # the per-partition scatter form answers the same plan
        sc = search_scattered(index_dir, q["query"], k=10,
                              time_range=q["time_range"], langs=q["langs"])
        assert np.array_equal(sc["doc_id"].to_numpy(), oid), q
        assert np.array_equal(sc["score"].to_numpy(), osc), q


def test_filter_semantics_vs_oracle(reader, oracle):
    from miru_ray.functions.filters import (And, Or, PButNotQ, Prefix, Term,
                                            evaluate)
    trees = [
        And((Term("w00001"), Term("w00002"))),
        Or((Term("needle7"), Term("needle13"))),
        PButNotQ((Term("w00001"), Term("w00002"), Term("w00003"))),
        And((Prefix("w0001"), Term("w00001"))),
        PButNotQ((Or((Term("w00004"), Term("w00005"))), Prefix("w0000"))),
        And(()),   # match-all
    ]
    for t in trees:
        a = evaluate(t, reader)
        b = evaluate(t, oracle)
        assert np.array_equal(a, b), t


def test_and_shortcircuit_on_missing_term(reader):
    hits = search(reader, "w00001 zzz_not_a_term")
    assert hits.num_rows == 0


def test_prefix_expansion_cap(reader):
    from miru_ray.functions.filters import MAX_WILDCARD_EXPANSION
    terms = reader.expand_prefix("w0", 10**9)
    assert len(terms) > MAX_WILDCARD_EXPANSION  # cap must actually bite below
    capped = reader.expand_prefix("w0", MAX_WILDCARD_EXPANSION)
    assert len(capped) == MAX_WILDCARD_EXPANSION
    assert capped == sorted(terms)[:MAX_WILDCARD_EXPANSION]


def test_empty_query_matches_all(reader, oracle):
    hits = search(reader, "", k=5)
    assert hits.num_rows == 5
    # match-all scored 0 → top-k = highest doc ids (latest first)
    assert hits["doc_id"].to_numpy().tolist() == [
        oracle.n_docs - 1 - i for i in range(5)]


def test_gather_returns_stored_fields(reader, oracle):
    hits = search(reader, "needle7", k=7)
    assert hits.num_rows == 7
    by_id = {d[0]: d for d in oracle.docs}
    for row in hits.to_pylist():
        odoc = by_id[row["doc_id"]]
        assert row["url"] == odoc[1]
        assert "needle7" in odoc[3]


def test_tombstone_removal_mask(pages, tmp_path, oracle):
    """REMOVE semantics (MiruRemovalIndex): tombstoned urls vanish from
    every query without touching segments; un-tombstoned results match the
    original exactly."""
    import shutil
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.state.reader import IndexReader
    from miru_ray.state.tombstones import add_tombstones
    d = str(tmp_path / "idx")
    shutil.rmtree(d, ignore_errors=True)
    build_index(pages, d, BuildConfig(num_parts=4, num_shards=2))
    reader = IndexReader(d)
    before = search(reader, "needle7", k=10)
    assert before.num_rows == 7
    victims = before["url"].to_pylist()[:2]
    add_tombstones(d, victims)
    reader.refresh_tombstones()
    after = search(reader, "needle7", k=10)
    assert after.num_rows == 5
    assert not set(victims) & set(after["url"].to_pylist())
    surviving = [u for u in before["url"].to_pylist() if u not in victims]
    assert after["url"].to_pylist() == surviving


@pytest.mark.parametrize("mode", ["hash", "time_range"])
def test_tombstones_remove_docs_in_both_partition_modes(tmp_path, ray_session, mode):
    """Tombstones resolve by the index's own partitioning: under time_range
    a url is not routed by hash, and a url re-fetched in two time buckets
    has two docs, both of which must go."""
    import pyarrow as pa
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.reader import IndexReader
    from miru_ray.state.tombstones import add_tombstones
    pages = pages_table(400)
    # page 0 fetched again after the last page: the last time bucket
    refetch = pages.slice(0, 1).set_column(
        1, "warc_ts", pa.array([pages["warc_ts"][-1].as_py()], pa.timestamp("us")))
    pages = pa.concat_tables([pages, refetch])
    d = str(tmp_path / "idx")
    build_index(pages, d, BuildConfig(num_parts=4, num_shards=2, partition_mode=mode))
    reader = IndexReader(d)
    top = search(reader, "w00001", k=1)["url"][0].as_py()
    twice = refetch["url"][0].as_py()
    assert search(reader, "t00000000", k=10).num_rows == (2 if mode == "time_range" else 1)
    add_tombstones(d, [top, twice])
    reader.refresh_tombstones()
    urls = [u for p in reader.parts for u in reader.doc_column(p, "url").to_pylist()]
    assert len(reader.removed_ids()) == sum(u in (top, twice) for u in urls)
    assert top not in search(reader, "w00001", k=1000)["url"].to_pylist()
    assert search(reader, "t00000000", k=10).num_rows == 0


def test_highlight_snippets(index_dir):
    """Stored-field gather + highlighter: snippet contains the marked
    query term (needs store_text; build one small index with it)."""
    import shutil
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.search import highlight_hits
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.reader import IndexReader
    d = index_dir + "_stored"
    if not os.path.exists(d):
        build_index(pages_table(300), d,
                    BuildConfig(num_parts=2, num_shards=2, store_text=True))
    reader = IndexReader(d)
    hits = search(reader, "needle5", k=5)
    hl = highlight_hits(reader, hits, "needle5")
    assert hl.num_rows == hits.num_rows > 0
    for s in hl["snippet"].to_pylist():
        assert "**needle5**" in s


def test_blockmax_pruning_lossless(reader, oracle):
    """Property: the block-max WAND path returns EXACTLY the exhaustive
    result (ids and float64 scores) for every reference query — pruning
    must be provably lossless (SURVEY.md §7.5)."""
    qs = reference_queries(N_FIXTURE_ROWS)
    for q in qs:
        a = search(reader, q["query"], k=10, time_range=q["time_range"],
                   langs=q["langs"], prune=False)
        b = search(reader, q["query"], k=10, time_range=q["time_range"],
                   langs=q["langs"], prune=True)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
        assert np.array_equal(a["score"].to_numpy(), b["score"].to_numpy()), q
    # extreme k values through the pruned path
    for k in (1, 3, 100, 10_000):
        a = search(reader, "w00000 OR w00001", k=k, prune=False)
        b = search(reader, "w00000 OR w00001", k=k, prune=True)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert np.array_equal(a["score"].to_numpy(), b["score"].to_numpy())


def test_scatter_gather_matches_single_pass(index_dir, reader):
    """Per-partition scatter + driver merge (the askAndMerge lifecycle)
    must be rank- and score-identical to the single-pass search."""
    from miru_ray.pipelines.search import search_scattered
    for q in ["needle7", "w00001 w00002", "w00003 OR needle13", "w0001*"]:
        a = search(reader, q, k=10)
        b = search_scattered(index_dir, q, k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
        assert np.array_equal(a["score"].to_numpy(), b["score"].to_numpy()), q


def test_scatter_straggler_backup_bounds_latency(index_dir, reader):
    """The lowest-latency solver policy (VERDICT r4 #3): with one
    partition's first attempt artificially slow, a backup attempt races
    it after the timeout and the query wall stays bounded well below the
    injected delay — results identical to the single-pass search."""
    import time

    from miru_ray.pipelines.search import search_scattered
    from miru_ray.state.reader import IndexReader
    slow_part = IndexReader(index_dir).parts[0]
    want = search(reader, "needle7", k=10)
    t0 = time.monotonic()
    got = search_scattered(index_dir, "needle7", k=10,
                           straggler_timeout_s=0.5,
                           _inject_delay={slow_part: 20.0})
    wall = time.monotonic() - t0
    assert wall < 10.0, f"straggler held the query for {wall:.1f}s"
    assert want["doc_id"].to_pylist() == got["doc_id"].to_pylist()
    assert np.array_equal(want["score"].to_numpy(), got["score"].to_numpy())


def test_scatter_straggler_noop_when_all_fast(index_dir, reader):
    """With no slow partition the timeout path launches no backups and
    the result is unchanged."""
    from miru_ray.pipelines.search import search_scattered
    a = search(reader, "w00001 w00002", k=10)
    b = search_scattered(index_dir, "w00001 w00002", k=10,
                         straggler_timeout_s=0.5)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert np.array_equal(a["score"].to_numpy(), b["score"].to_numpy())


def test_scattered_takes_every_search_option(index_dir, reader, tmp_path):
    """search_scattered shares search's plan builder: authz, query_lang on
    a per_lang index, and forced prune on/off answer exactly like the
    inline search (ids and float64 scores)."""
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.search import search_scattered
    from miru_ray.sources.fixtures import generate_pages
    from miru_ray.state.reader import IndexReader
    from tests.test_authz import _authz_pages

    def same(a, b):
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert np.array_equal(a["score"].to_numpy(), b["score"].to_numpy())

    for prune in (True, False):
        for q in ("w00000 OR w00001", "needle7 OR w00003"):
            want = search(reader, q, 10, prune=prune)
            assert want.num_rows == 10
            same(search_scattered(index_dir, q, 10, prune=prune), want)

    d = str(tmp_path / "authz")
    build_index(_authz_pages(), d, BuildConfig(num_parts=2, num_shards=2))
    r = IndexReader(d)
    for labels in (["team-a"], ["team-b", "public"], []):
        want = search(r, "common", 10, authz=labels)
        same(search_scattered(d, "common", 10, authz=labels), want)
    assert search_scattered(d, "common", 10, None, None,
                            ["team-a"]).num_rows == 2

    d = str(tmp_path / "per_lang")
    build_index(generate_pages(0, 400), d,
                BuildConfig(num_parts=2, num_shards=2, analyzer="per_lang"))
    r = IndexReader(d)
    q = "the w00001 of w00002"
    want = search(r, q, 5, query_lang="en")
    assert want.num_rows == 5
    assert want.equals(search(r, "w00001 w00002", 5, query_lang="en"))
    same(search_scattered(d, q, 5, query_lang="en"), want)


def test_aggregate_counts_pagination():
    """Cursor pages partition the full rollup without overlap or gaps."""
    from miru_ray.pipelines.events import (aggregate_counts,
                                           aggregate_counts_paged)
    sf = "/root/testdata/sf0.001"
    full = aggregate_counts(sf).to_pandas()
    pages, cursor = [], None
    while True:
        page, cursor = aggregate_counts_paged(sf, page_size=7, cursor=cursor)
        pages.append(page.to_pandas())
        if cursor is None:
            break
    import pandas as pd
    cat = pd.concat(pages, ignore_index=True)
    assert len(cat) == len(full)
    assert set(cat["user_id"]) == set(full["user_id"])
    # strictly descending (last_ts, then ascending user_id) across pages
    ts = cat["last_ts"].astype("datetime64[us]").astype(np.int64).to_numpy()
    uid = cat["user_id"].to_numpy()
    keys = list(zip((-ts).tolist(), uid.tolist()))
    assert keys == sorted(keys)


def test_batch_searcher_matches_driver_search(index_dir, reader):
    import ray.data as rd
    qs = [{"qid": i, "query": q} for i, q in
          enumerate(["needle7", "w00001 w00002", "w00003 OR needle13"])]
    hits = rd.from_items(qs).map_batches(
        BatchSearcher, fn_constructor_kwargs={"index_dir": index_dir, "k": 5},
        batch_format="pandas", concurrency=1, batch_size=8).to_pandas()
    for i, q in enumerate(qs):
        mine = hits[hits["qid"] == i]
        ref = search(reader, q["query"], k=5)
        assert mine["doc_id"].tolist() == ref["doc_id"].to_pylist()
        assert np.array_equal(mine["score"].to_numpy(), ref["score"].to_numpy())


def test_phrase_occurrences_kernel():
    """Vectorized phrase-verify kernel: contiguity, repeats, doc-boundary
    mask, analyzer normalization, single-term degeneration."""
    import pyarrow as pa
    from miru_ray.pipelines.search import phrase_occurrences
    texts = pa.array([
        "the key value store",       # one occurrence mid-sequence
        "key value key value key",   # two (overlap-free repeats)
        "value key",                 # wrong order: none
        "key",                       # shorter than the phrase: none
        "",                          # empty text: none
        "Key, VALUE!",               # analyzer lowercases + strips punct
    ])
    assert phrase_occurrences(texts, ["key", "value"]).tolist() == \
        [1, 2, 0, 0, 0, 1]
    # the flat-token rolling compare must NOT match across a doc
    # boundary: doc0 ends with 'key', doc1 starts with 'value'
    assert phrase_occurrences(pa.array(["alpha key", "value beta"]),
                              ["key", "value"]).tolist() == [0, 0]
    # single-term phrase degenerates to term frequency
    assert phrase_occurrences(pa.array(["a b a a"]), ["a"]).tolist() == [3]
    # 3-token phrase
    assert phrase_occurrences(pa.array(["x a b c y a b", "a b c"]),
                              ["a", "b", "c"]).tolist() == [1, 1]


def test_phrase_search_matches_bruteforce(index_dir, ray_session):
    """phrase_search (postings-AND candidates + stored-text verify) must
    equal per-doc brute-force token-subsequence counting over the WHOLE
    index, for phrases with and without matches."""
    import shutil
    from miru_ray.functions.tokenize import tokenize
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.search import phrase_search
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.reader import IndexReader
    d = index_dir + "_stored"
    if not os.path.exists(d):
        build_index(pages_table(300), d,
                    BuildConfig(num_parts=2, num_shards=2, store_text=True))
    reader = IndexReader(d)
    all_ids = np.arange(reader.n_docs, dtype=np.uint64)
    texts = reader.gather_docs(all_ids, columns=["text"])["text"].to_pylist()
    # guaranteed-hit phrase: the first two tokens of a real doc
    t0 = tokenize(texts[0])
    phrases = [" ".join(t0[:2]), " ".join(t0[:3]), "needle7",
               "zzz_not_a_term needle7", ""]
    saw_match = False
    for phrase in phrases:
        terms = tokenize(phrase)
        exp = {}
        for did, tx in zip(all_ids, texts):
            tok = tokenize(tx or "")
            n = sum(1 for i in range(len(tok) - len(terms) + 1)
                    if tok[i:i + len(terms)] == terms) if terms else 0
            if n:
                exp[int(did)] = n
        got = phrase_search(reader, phrase)
        gd = dict(zip(got["doc_id"].to_pylist(), got["n_occ"].to_pylist()))
        assert gd == exp, phrase
        saw_match = saw_match or bool(exp)
    assert saw_match  # at least one phrase actually exercised the verify


def test_near_pair_counts_kernel():
    """Proximity verify kernel: window clamp at doc end, ordering,
    slop-0 == bigram phrase, a == b self-pairs."""
    import pyarrow as pa
    from miru_ray.pipelines.search import (near_pair_counts,
                                           phrase_occurrences)
    texts = pa.array([
        "scan x y merge",        # gap 2: pair iff slop >= 2
        "scan merge",            # adjacent
        "merge scan",            # wrong order: none
        "scan x scan merge",     # two a-positions, gaps 2 and 0
        "",                      #
    ])
    assert near_pair_counts(texts, "scan", "merge", 0).tolist() == \
        [0, 1, 0, 1, 0]
    assert near_pair_counts(texts, "scan", "merge", 2).tolist() == \
        [1, 1, 0, 2, 0]
    # doc-boundary clamp: 'scan' at the end of doc0 must not pair with
    # doc1's leading 'merge' whatever the slop
    b = pa.array(["x scan", "merge y"])
    assert near_pair_counts(b, "scan", "merge", 50).tolist() == [0, 0]
    # a == b: ordered self-pairs within the window
    assert near_pair_counts(pa.array(["a a a"]), "a", "a", 0).tolist() == [2]
    assert near_pair_counts(pa.array(["a a a"]), "a", "a", 5).tolist() == [3]
    # slop 0 must agree with the bigram phrase kernel on real-ish text
    t = pa.array(["k v k v", "v k", "k x v", "k v"])
    assert near_pair_counts(t, "k", "v", 0).tolist() == \
        phrase_occurrences(t, ["k", "v"]).tolist()


def test_near_search_matches_bruteforce(index_dir, ray_session):
    """near_search == per-doc brute-force position-pair counting over
    the whole stored-text index."""
    from miru_ray.functions.tokenize import tokenize
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.search import near_search
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.reader import IndexReader
    d = index_dir + "_stored"
    if not os.path.exists(d):
        build_index(pages_table(300), d,
                    BuildConfig(num_parts=2, num_shards=2, store_text=True))
    reader = IndexReader(d)
    all_ids = np.arange(reader.n_docs, dtype=np.uint64)
    texts = reader.gather_docs(all_ids, columns=["text"])["text"].to_pylist()
    t0 = tokenize(texts[0])
    a, b = t0[0], t0[2]   # a real ordered-within-slop pair in doc 0
    for slop in (0, 1, 3):
        exp = {}
        for did, tx in zip(all_ids, texts):
            tok = tokenize(tx or "")
            n = sum(1 for i, x in enumerate(tok) if x == a
                    for j in range(i + 1, min(i + slop + 2, len(tok)))
                    if tok[j] == b)
            if n:
                exp[int(did)] = n
        got = near_search(reader, a, b, slop)
        gd = dict(zip(got["doc_id"].to_pylist(), got["n_pairs"].to_pylist()))
        assert gd == exp, (a, b, slop)
    assert near_search(reader, a, b, 3).num_rows > 0


def test_positional_scattered_matches_driver_forms(index_dir, ray_session):
    """Scattered phrase/near (per-partition candidates + verify) must
    equal the driver-side forms exactly."""
    from miru_ray.functions.tokenize import tokenize
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.search import (near_search,
                                           near_search_scattered,
                                           phrase_search,
                                           phrase_search_scattered)
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.reader import IndexReader
    d = index_dir + "_stored"
    if not os.path.exists(d):
        build_index(pages_table(300), d,
                    BuildConfig(num_parts=2, num_shards=2, store_text=True))
    reader = IndexReader(d)
    t = reader.gather_docs(np.arange(1, dtype=np.uint64),
                           columns=["text"])["text"].to_pylist()[0]
    tok = tokenize(t)
    phrase = " ".join(tok[:2])
    a = phrase_search(reader, phrase).sort_by("doc_id")
    b = phrase_search_scattered(d, phrase).sort_by("doc_id")
    assert a.equals(b) and a.num_rows > 0
    x = near_search(reader, tok[0], tok[2], 3).sort_by("doc_id")
    y = near_search_scattered(d, tok[0], tok[2], 3).sort_by("doc_id")
    assert x.equals(y) and x.num_rows > 0


def test_positional_queries_require_stored_text(reader):
    """The session fixture index has no stored text: positional queries
    must fail with the actionable message, not a schema error."""
    from miru_ray.pipelines.search import near_search, phrase_search
    assert not reader.has_stored_text
    with pytest.raises(ValueError, match="store_text=True"):
        phrase_search(reader, "w00001 w00002")
    with pytest.raises(ValueError, match="store_text=True"):
        near_search(reader, "w00001", "w00002")


def test_phrase_with_grammar_tokens(index_dir, ray_session):
    """Analyzed tokens are data, not query syntax: a phrase containing
    (or consisting of) the token 'or' must AND-prefilter and match
    docs containing the literal token — parse_query would have read it
    as the OR operator (empty AND / union-inflated candidates)."""
    import shutil
    import pyarrow as pa
    import pyarrow.parquet as pq
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.search import phrase_search, near_search
    from miru_ray.state.reader import IndexReader
    d = index_dir + "_grammar"
    if not os.path.exists(os.path.join(d, "meta.json")):
        shutil.rmtree(d, ignore_errors=True)
        src = d + "_pages"
        os.makedirs(src, exist_ok=True)
        base = __import__("datetime").datetime(2024, 1, 1)
        rows = ["to be or not to be", "be or not", "or or or",
                "nothing here", "not or"]
        pq.write_table(pa.table({
            "url": [f"https://g.example/{i}" for i in range(len(rows))],
            "warc_ts": [base.replace(minute=i) for i in range(len(rows))],
            "text": rows,
            "lang": ["en"] * len(rows),
        }), os.path.join(src, "part-0.parquet"))
        build_index(src, d, BuildConfig(num_parts=1, num_shards=1,
                                        store_text=True))
    r = IndexReader(d)
    got = phrase_search(r, "or not")
    assert got.num_rows == 2 and got["n_occ"].to_pylist() == [1, 1]
    got = phrase_search(r, "or")          # single-token 'or' == tf
    assert sorted(got["n_occ"].to_pylist()) == [1, 1, 1, 3]
    got = near_search(r, "or", "or", 1)   # self-pairs, data not syntax
    assert 3 in got["n_pairs"].to_pylist()


def test_near_multi_token_terms_raise(reader):
    from miru_ray.pipelines.search import near_search
    with pytest.raises(ValueError, match="exactly one token"):
        near_search(reader, "don't", "stop")


def test_quoted_phrase_query_rank_identical(index_dir, ray_session):
    """Quoted-phrase query-language support: '"a b" c', negated and
    OR-mixed forms are rank- AND score-identical between the engine and
    the brute-force oracle (both share parse_query/evaluate; the Phrase
    node verifies against each provider's stored text)."""
    from miru_ray.functions.tokenize import tokenize
    from miru_ray.oracle import OracleIndex
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.reader import IndexReader
    d = index_dir + "_stored"
    if not os.path.exists(d):
        build_index(pages_table(300), d,
                    BuildConfig(num_parts=2, num_shards=2, store_text=True))
    r = IndexReader(d)
    o = OracleIndex(pages_table(300), num_parts=2)
    t = r.gather_docs(np.arange(1, dtype=np.uint64),
                      columns=["text"])["text"].to_pylist()[0]
    ph = " ".join(tokenize(t)[1:3])
    saw = 0
    for q in [f'"{ph}"', f'"{ph}" needle7 OR needle5', f'-"{ph}" needle7',
              f'needle7 "{ph}"', '"zzz missing phrase"']:
        oid, osc = o.search(q, k=10)
        hits = search(r, q, k=10)
        assert np.array_equal(hits["doc_id"].to_numpy(), oid), q
        assert np.array_equal(hits["score"].to_numpy(), osc), q
        saw += hits.num_rows
    assert saw > 0


def test_scatter_gather_quoted_query(index_dir, ray_session):
    """A quoted-phrase query through search_scattered: the Phrase node
    evaluates inside each partition task (stored_texts is partition-
    local there), and the merged result equals the single-pass search."""
    from miru_ray.functions.tokenize import tokenize
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.search import search_scattered
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.reader import IndexReader
    d = index_dir + "_stored"
    if not os.path.exists(d):
        build_index(pages_table(300), d,
                    BuildConfig(num_parts=2, num_shards=2, store_text=True))
    r = IndexReader(d)
    t = r.gather_docs(np.arange(1, dtype=np.uint64),
                      columns=["text"])["text"].to_pylist()[0]
    q = f'"{" ".join(tokenize(t)[1:3])}"'
    single = search(r, q, k=10)
    scattered = search_scattered(d, q, k=10)
    assert single.equals(scattered) and single.num_rows > 0


def test_quoted_parser_edge_cases():
    """Parser fixes: phrase-only OR queries, fielded phrases, hyphenated
    prefixes, and negation anchoring."""
    from miru_ray.functions.filters import (And, Phrase, PButNotQ, Term,
                                            parse_query)
    # phrase-only OR query: phrases are MUST (AND-composed), the empty
    # OR group must NOT inject an empty-union base
    t = parse_query('"a b" OR "c d"')
    assert t == And((Phrase(("a", "b")), Phrase(("c", "d"))))
    # fielded phrase routes through the field:value path (tokenized
    # multi-token AND), leaving no dangling 'field:' text term
    from miru_ray.state.schema import FieldDef, IndexSchema, field_ns
    sch = IndexSchema((FieldDef("site", "tokenized"),))
    t = parse_query('site:"example com"', sch)
    ns = field_ns("site")
    assert t == And((And((Term(ns + "example"), Term(ns + "com"))),))
    # a hyphen INSIDE a word must not bind as phrase negation: the
    # unanchored quotes fall back to plain tokenization (no Phrase)
    t = parse_query('well-"known phrase"')
    assert t == And((And((Term("well"), Term("known"))), Term("phrase")))
    # anchored negation still works
    t = parse_query('x -"a b"')
    assert t == PButNotQ((And((Term("x"),)), Phrase(("a", "b"))))
    # a quoted KEYWORD/composite value is one raw term — case, spaces and
    # dots kept ('|' composes), never re-tokenized into 'example.com' —
    # and it combines under -/OR exactly like the unquoted form
    from miru_ray.functions.filters import Or
    sch = IndexSchema((FieldDef("site", "keyword"),
                       FieldDef("sl", "composite", source=("site", "lang"))))
    ns = field_ns("site")
    assert parse_query('site:"Example Com"', sch) == \
        And((Term(ns + "Example Com"),))
    assert parse_query('x -site:"A b"', sch) == \
        PButNotQ((And((Term("x"),)), Term(ns + "A b")))
    assert parse_query('site:"a.com" OR site:"b.com"', sch) == \
        Or((Term(ns + "a.com"), Term(ns + "b.com"))) == \
        parse_query('site:a.com OR site:b.com', sch)
    from miru_ray.state.schema import COMPOSE_SEP
    assert parse_query('sl:"Example Com|en"', sch) == \
        And((Term(field_ns("sl") + "Example Com" + COMPOSE_SEP + "en"),))


def test_keyword_field_quoted_value_search(tmp_path, ray_session):
    """A keyword value containing a space and a capital is reachable by
    the quoted field syntax, inline and scattered, and matches the
    brute-force oracle."""
    import pyarrow as pa
    from miru_ray.oracle import OracleIndex
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.search import search_scattered
    from miru_ray.sources.fixtures import generate_pages
    from miru_ray.state.reader import IndexReader
    from miru_ray.state.schema import FieldDef, IndexSchema
    sch = IndexSchema((FieldDef("site", "keyword"),))
    pages = generate_pages(0, 60)
    site = ["Example Com" if i % 7 == 0 else f"site{i % 3}"
            for i in range(pages.num_rows)]
    pages = pages.append_column("site", pa.array(site, pa.string()))
    d = str(tmp_path / "kw")
    build_index(pages, d, BuildConfig(num_parts=2, num_shards=1, schema=sch))
    r = IndexReader(d)
    o = OracleIndex(pages, num_parts=2, schema=sch)
    want = {u for u, s in zip(pages["url"].to_pylist(), site)
            if s == "Example Com"}
    hits = search(r, 'site:"Example Com"', k=100)
    assert set(hits["url"].to_pylist()) == want and hits.num_rows > 0
    oid, _ = o.search('site:"Example Com"', k=100)
    assert np.array_equal(hits["doc_id"].to_numpy(), oid)
    assert search_scattered(d, 'site:"Example Com"', k=100).equals(hits)
    assert search(r, 'site:"example com"', k=100).num_rows == 0
    union = search(r, 'site:"Example Com" OR site:"site1"', k=100)
    assert set(union["url"].to_pylist()) == want | {
        u for u, s in zip(pages["url"].to_pylist(), site) if s == "site1"}


def test_per_lang_quoted_phrase_survives_stopwords(ray_session, tmp_path):
    """On a per_lang index the quoted span passes through the query
    analyzer WHOLE: interior stopwords stay in the phrase (the verify
    kernel matches the plain-tokenized stored text)."""
    import shutil
    import pyarrow as pa
    import pyarrow.parquet as pq
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.state.reader import IndexReader
    d = str(tmp_path / "perlang_quoted")
    src = d + "_pages"
    os.makedirs(src, exist_ok=True)
    base = __import__("datetime").datetime(2024, 1, 1)
    rows = ["state of the art results", "state art results",
            "the art of state"]
    pq.write_table(pa.table({
        "url": [f"https://q.example/{i}" for i in range(len(rows))],
        "warc_ts": [base.replace(minute=i) for i in range(len(rows))],
        "text": rows,
        "lang": ["en"] * len(rows),
    }), os.path.join(src, "part-0.parquet"))
    build_index(src, d, BuildConfig(num_parts=1, num_shards=1,
                                    store_text=True, analyzer="per_lang"))
    r = IndexReader(d)
    # 'of'/'the' are en stopwords: unindexed on a per_lang index, so the
    # full quoted phrase cannot match (no postings for its stop terms) —
    # but it must NOT silently collapse to '"state art"' and return the
    # WRONG doc. Non-stopword phrases must still work analyzed.
    hits = search(r, '"state art"', k=5, query_lang="en")
    assert hits.num_rows == 1   # only the literal 'state art' doc
    hits2 = search(r, '"art results"', k=5, query_lang="en")
    assert hits2.num_rows == 2
