"""Python-oracle tests for the non-SQL-expressible operators (dedup family,
LSH ANN, lang-id, trending) — brute-force verification at sf0.001."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def test_minhash_finds_what_bruteforce_finds(ray_session):
    """LSH candidates verified by exact Jaccard must equal the brute-force
    all-pairs result for pairs above threshold (recall check at 0.8 —
    16 bands × 4 rows has ~(1-(1-0.8^4)^16) ≈ 0.9996 recall, and our
    fixture pairs are either ~identical or far below threshold)."""
    from miru_ray.pipelines.dedup import jaccard, minhash_near_dups, shingle_set
    got = minhash_near_dups(SF, threshold=0.8).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = docs["doc_id"].to_pylist()
    texts = docs["text"].to_pylist()
    sh = {i: shingle_set(t) for i, t in zip(ids, texts)}
    brute = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if jaccard(sh[ids[i]], sh[ids[j]]) >= 0.8:
                brute.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    mine = set(zip(got["doc_a"], got["doc_b"]))
    assert mine == brute
    # and the verified jaccards are exact
    for _, r in got.iterrows():
        assert r["jaccard"] == pytest.approx(
            round(jaccard(sh[r["doc_a"]], sh[r["doc_b"]]), 6), abs=0)


def test_simhash_deterministic_and_near_for_dups(ray_session):
    from miru_ray.pipelines.dedup import simhash64
    a = simhash64(SF).to_pandas().set_index("doc_id")["simhash"]
    b = simhash64(SF).to_pandas().set_index("doc_id")["simhash"]
    assert (a == b).all()
    assert a.str.len().eq(16).all()
    # identical texts → identical simhash
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    by_text = docs.groupby("text")["doc_id"].agg(list)
    for group in by_text[by_text.str.len() > 1]:
        assert len({a[d] for d in group}) == 1


def test_ann_lsh_subset_of_bruteforce_space(ray_session):
    """LSH top-k sims must be a subset of brute-force candidates with
    identical sims for shared ids (approximation affects recall only)."""
    from miru_ray.pipelines.ann import ann_topk_bruteforce, ann_topk_lsh
    bf = ann_topk_bruteforce(SF, k=100).to_pandas().set_index("vec_id")["sim"]
    ls = ann_topk_lsh(SF, k=100).to_pandas()
    assert len(ls) > 0
    full = ann_topk_bruteforce(SF, k=10**6).to_pandas().set_index("vec_id")["sim"]
    for _, r in ls.iterrows():
        assert r["sim"] == full[r["vec_id"]]
    # recall@10 sanity (loose: hyperplane LSH on random vectors)
    top10 = set(bf.index[:10])
    got10 = set(ls["vec_id"][:10])
    assert len(top10 & got10) >= 3


def test_lang_id_deterministic(ray_session):
    from miru_ray.pipelines.textstats import lang_id
    a = lang_id(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = lang_id(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    assert set(a["lang_pred"]) <= {"en", "de", "fr", "es", "unknown"}


def test_lang_id_vectorized_matches_per_row():
    """Vectorized lang_id_batch kernel == per-row reference semantics (set of
    first-200 tokens ∩ markers, alphabetical-first tie-break) including
    edge cases: empty text, no-token text, marker beyond window."""
    import pyarrow as pa
    from miru_ray.functions.tokenize import tokenize
    from miru_ray.pipelines.textstats import _LANG_MARKERS, lang_id_batch

    def per_row(texts):
        markers = {lg: set(ws) for lg, ws in _LANG_MARKERS.items()}
        preds = []
        for text in texts:
            toks = set(tokenize(text)[:200])
            scores = {lg: len(toks & ws) for lg, ws in markers.items()}
            best = max(sorted(scores), key=lambda lg: scores[lg])
            preds.append(best if scores[best] > 0 else "unknown")
        return preds

    texts = ["", "12345 !!!", "...", "the la der el",
             " ".join(["xx"] * 200) + " the the",   # marker outside window
             "x " * 199 + "the",                     # marker at position 200
             "DER Und the the the", "le la les est une que el"]
    tb = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                   "text": pa.array(texts)})
    assert lang_id_batch(tb)["lang_pred"].to_pylist() == per_row(texts)
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    assert lang_id_batch(empty).num_rows == 0


def test_trending_consistent_with_waveform(ray_session):
    from miru_ray.pipelines.events import analytics_waveform, trending
    wf = analytics_waveform(SF).to_pandas()
    tr = trending(SF).to_pandas()
    assert set(tr["event_type"]) == set(wf["event_type"].unique())
    assert (tr["n_peaks"] >= 0).all()
    assert (tr["peak_sum"] >= 0).all()


def test_join_group_kernels_vs_bruteforce():
    """_asof_bucket_group / _interval_bucket_group == O(n²) brute force
    on a multi-user bucket with ts collisions and empty sides."""
    import numpy as np
    import pandas as pd
    from miru_ray.pipelines.joins import (HOUR_US, _asof_bucket_group,
                                          _interval_bucket_group)

    rng = np.random.RandomState(7)
    n = 120
    ts = np.sort(rng.randint(0, 3 * HOUR_US, n)).astype("datetime64[us]")
    ts[10] = ts[11] = ts[12]          # planted collisions
    side = rng.randint(0, 2, n).astype(np.int8)
    users = rng.choice([3, 5, 9], n).astype(np.int64)
    val = np.round(rng.uniform(0, 50, n), 2)
    g = pd.DataFrame({"event_id": np.arange(n), "ts": ts,
                      "user_id": users, "value": val, "side": side})
    left, right = g[g.side == 0], g[g.side == 1]

    a = _asof_bucket_group(g).sort_values("event_id").reset_index(drop=True)
    assert len(a) == len(left)
    for _, row in a.iterrows():
        cand = right[(right["user_id"] == row["user_id"])
                     & (right["ts"].to_numpy()
                        <= np.datetime64(row["ts"], "us"))]
        if cand.empty:
            assert pd.isna(row["view_ts"]) and pd.isna(row["view_value"])
        else:
            best_ts = cand["ts"].max()
            assert row["view_ts"] == best_ts
            assert row["view_value"] == cand[cand["ts"] == best_ts]["value"].max()

    iv = (_interval_bucket_group(g).sort_values("event_id")
          .reset_index(drop=True))
    assert len(iv) == len(left)
    for _, row in iv.iterrows():
        lrow = left[left.event_id == row["event_id"]].iloc[0]
        t0 = np.datetime64(lrow["ts"], "us")
        m = right[(right["user_id"] == lrow["user_id"])
                  & (right["ts"].to_numpy() >= t0 - np.timedelta64(HOUR_US, "us"))
                  & (right["ts"].to_numpy() < t0)]
        assert row["n_clicks"] == len(m)
        assert row["click_value"] == float(
            np.rint(m["value"].to_numpy() * 100).astype(np.int64).sum()) / 100.0

    # empty right side: all-left bucket still yields NULL matches / zeros
    gl = g[g.side == 0]
    a0 = _asof_bucket_group(gl)
    assert a0["view_ts"].isna().all() and a0["view_value"].isna().all()
    i0 = _interval_bucket_group(gl)
    assert (i0["n_clicks"] == 0).all() and (i0["click_value"] == 0).all()

def test_ann_ivf_subset_of_bruteforce_space(ray_session):
    """IVF top-k sims must carry EXACT brute-force sims for shared ids
    (approximation affects recall only); index is deterministic."""
    from miru_ray.pipelines.ann import ann_topk_bruteforce, ann_topk_ivf
    iv = ann_topk_ivf(SF, k=100).to_pandas()
    assert len(iv) > 0
    full = ann_topk_bruteforce(SF, k=10**6).to_pandas().set_index("vec_id")["sim"]
    for _, r in iv.iterrows():
        assert r["sim"] == full[r["vec_id"]]
    bf10 = set(full.index[:10])
    got10 = set(iv["vec_id"][:10])
    assert len(bf10 & got10) >= 3
    # determinism across invocations (cached index + seeded quantizer)
    iv2 = ann_topk_ivf(SF, k=100).to_pandas()
    assert iv.equals(iv2)


def test_inbox_unread_kernel_edges():
    """_unread_bucket_group (multi-user bucket): no marks -> all unread;
    marks-only user -> no row; cursor clears everything at-or-before it
    (strict > comparison)."""
    import numpy as np
    import pandas as pd
    from miru_ray.pipelines.inbox import _unread_bucket_group

    def mk(rows):   # (user, ts_sec, side)
        u, ts, sides = zip(*rows)
        return pd.DataFrame({
            "ts": np.array(ts, dtype="datetime64[s]").astype("datetime64[us]"),
            "user_id": np.array(u, np.int64),
            "side": np.array(sides, np.int8)})

    r = _unread_bucket_group(mk([
        (9, 10, 0), (9, 20, 0), (9, 30, 0),          # user 9: no marks
        (5, 10, 0), (5, 20, 1), (5, 20, 0), (5, 30, 0),  # user 5: cursor=20
        (7, 10, 1), (7, 20, 1),                       # user 7: marks only
    ])).set_index("user_id")
    assert (r.loc[9, "n_inbox"], r.loc[9, "n_unread"]) == (3, 3)
    assert pd.isna(r.loc[9, "read_ts"])
    assert (r.loc[5, "n_inbox"], r.loc[5, "n_unread"]) == (3, 1)
    assert r.loc[5, "read_ts"] == np.datetime64(20, "s")
    assert 7 not in r.index
    assert len(_unread_bucket_group(mk([(7, 10, 1)]))) == 0


def test_customer_revenue_bucket_kernel():
    """_revenue_bucket_group == brute-force join+rollup on one bucket,
    including orders without lineitems and lineitems without orders."""
    import numpy as np
    import pandas as pd
    from miru_ray.pipelines.joins import _revenue_bucket_group

    g = pd.DataFrame({
        "orderkey": np.array([1, 1, 2, 3, 9], dtype=np.int64),
        "rev_e4":  np.array([100, 250, 70, 40, 55], dtype=np.int64),
        "bucket": np.int64(0),
        "custkey": np.int64(0),
        "side": np.int8(0),
    })
    o = pd.DataFrame({
        "orderkey": np.array([1, 2, 4], dtype=np.int64),   # 3,9 unmatched
        "rev_e4": np.int64(0), "bucket": np.int64(0),
        "custkey": np.array([10, 11, 12], dtype=np.int64),
        "side": np.int8(1),
    })
    out = _revenue_bucket_group(pd.concat([g, o], ignore_index=True))
    got = out.set_index("custkey")["rev_e4"].to_dict()
    assert got == {10: 350, 11: 70}   # cust 12 has no lineitems -> absent


def test_window_halo_equals_single_group(ray_session):
    """Range+halo-partitioned sliding window == the per-type single-group
    form, including with spans forced small (n_ranges=32)."""
    from miru_ray.pipelines.joins import window_sliding, window_sliding_halo
    a = (window_sliding(SF).to_pandas()
         .sort_values("event_id").reset_index(drop=True))
    for n_ranges in (4, 32):
        b = (window_sliding_halo(SF, n_ranges=n_ranges).to_pandas()
             .sort_values("event_id").reset_index(drop=True))
        assert a.equals(b[a.columns])


def test_minhash_short_docs_never_pair():
    """Docs with <3 tokens have no shingles (oracle semantics): they emit
    NO band rows (no quadratic empty-doc collisions) and jaccard of two
    empty shingle sets is 0, not 1."""
    import pyarrow as pa
    from miru_ray.pipelines.dedup import _band_rows, jaccard, shingle_set

    texts = ["", "a b", "one two", "", "x"] * 3
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    out = _band_rows(t, num_pair_parts=4)
    assert out.num_rows == 0
    assert len(shingle_set("one two")) == 0
    assert jaccard(shingle_set(""), shingle_set("")) == 0.0
    # and a real doc still shingles
    assert len(shingle_set("one two three four")) == 2


def test_hll_within_error_bound_of_exact(ray_session):
    """HLL distinct estimate within 5% of the exact count (4096 registers
    ≈ 1.6% std error) and deterministic across runs."""
    from miru_ray.pipelines.events import distinct_count_hll, distinct_count_users
    exact = distinct_count_users(SF)["n_users"][0].as_py()
    est1 = distinct_count_hll(SF)["n_users_est"][0].as_py()
    est2 = distinct_count_hll(SF)["n_users_est"][0].as_py()
    assert est1 == est2
    assert abs(est1 - exact) / exact < 0.05


def test_ngram_jaccard_exact_equals_bruteforce(ray_session):
    """The exact n-gram engine must equal brute-force all-pairs EXACTLY
    (no recall caveat — the prefix filter generates every pair at or
    above the threshold), and at a LOW threshold where LSH banding would
    be allowed to miss pairs, it must still be exhaustive."""
    from miru_ray.pipelines.dedup import (jaccard, ngram_jaccard_pairs,
                                          shingle_set)
    got = ngram_jaccard_pairs(SF, threshold=0.2).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = docs["doc_id"].to_pylist()
    texts = docs["text"].to_pylist()
    sh = {i: shingle_set(t) for i, t in zip(ids, texts)}
    brute = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            jv = jaccard(sh[ids[i]], sh[ids[j]])
            if jv >= 0.2:
                a, b = min(ids[i], ids[j]), max(ids[i], ids[j])
                brute[(a, b)] = round(jv, 6)
    mine = {(a, b): jv for a, b, jv in
            zip(got["doc_a"], got["doc_b"], got["jaccard"])}
    assert mine == brute


def test_pii_scrub_planted_corpus(ray_session, tmp_path):
    """Planted-PII docs: counts and redacted text are exact, and the
    APPLICATION ORDER holds — an email's host digits never re-count as
    an IP/phone because counting happens on the progressively-redacted
    text (the <EMAIL> placeholder has already consumed them)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_
    from miru_ray.pipelines.textstats import pii_scrub
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "mail bob.smith+x@ex-ample.org or call 555-123-4567 now",
            "server at 10.0.255.7 and 192.168.1.1; intl +4915123456789",
            "no pii here, just 12.5 pounds and v1.2.3.4.5 strings",
            "two mails a@b.io c@d.co one ip 8.8.8.8",
        ],
    })
    src = tmp_path / "sf"
    src.mkdir()
    pq_.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                    src / "documents.parquet")
    got = pii_scrub(str(src)).to_pandas().set_index("doc_id")
    assert got.loc[1, "text_clean"] == "mail <EMAIL> or call <PHONE> now"
    assert (got.loc[1, ["n_emails", "n_ips", "n_phones"]].tolist()
            == [1, 0, 1])
    assert got.loc[2, "text_clean"] == \
        "server at <IP> and <IP>; intl <PHONE>"
    assert (got.loc[2, ["n_emails", "n_ips", "n_phones"]].tolist()
            == [0, 2, 1])
    # doc 3: 12.5 is not an IP (needs 4 octets); v1.2.3.4.5 — the
    # word-boundary RE2 semantics are pinned by the oracle parity test,
    # here we only require no email/phone
    assert got.loc[3, ["n_emails", "n_phones"]].tolist() == [0, 0]
    assert (got.loc[4, ["n_emails", "n_ips", "n_phones"]].tolist()
            == [2, 1, 0])


def test_pii_scrub_matches_duckdb_oracle(ray_session):
    """Engine output hash-equals the generated DuckDB oracle at sf0.001
    (same RE2 patterns, same application order, one shared definition)."""
    import duckdb
    import __ray_entry__ as e
    sql = e.oracle_sql()["pii_scrub"]
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(sql).fetchdf()
    got = (e.queries()["pii_scrub"](SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    got = got[want.columns.tolist()]
    pd_testing = __import__("pandas").testing
    pd_testing.assert_frame_equal(got, want, check_dtype=False)


def test_source_cap_combiner_valid_across_batches(ray_session, tmp_path):
    """Per-batch head-per-source combiner + bucketed finalize must equal
    the plain global rank even when one source's docs span many batches
    and arrive in descending doc_id order (the combiner's keep-set must
    still contain every globally-kept id)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_
    from miru_ray.pipelines.textstats import source_cap_ds
    # 3 sources x 60 docs, written DESCENDING so early batches hold the
    # HIGH ids (the ones a naive "first seen" would wrongly keep)
    rows = [(i, f"s{i % 3}") for i in range(180)]
    df = pd.DataFrame(rows, columns=["doc_id", "source"])[::-1]
    df["text"] = "x"
    src = tmp_path / "sf"
    src.mkdir()
    pq_.write_table(pa.Table.from_pandas(df, preserve_index=False),
                    src / "documents.parquet")
    got = (source_cap_ds(str(src), cap=7, combiner_batch_size=16)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    want = (df.sort_values("doc_id").groupby("source").head(7)
            [["doc_id", "source"]].sort_values("doc_id")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_boilerplate_scrub_planted_corpus(ray_session, tmp_path):
    """Planted boilerplate: a 3-word chunk in >=3 docs is cut from all
    of them; a chunk shared by only 2 docs survives; removal is
    CHUNK-ALIGNED (the same words offset by one are a different chunk);
    trailing partials always survive; <3-word docs pass through."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_
    from miru_ray.pipelines.textstats import boilerplate_scrub
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": [
            "the quick fox jumped over logs t1 t2",
            "the quick fox shared by two",
            "the quick fox shared by two xx",
            "hi yo",
            "the quick fox",
            "x the quick fox a b",   # off-by-one: NOT the planted chunk
        ],
    })
    src = tmp_path / "sf"
    src.mkdir()
    pq_.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                    src / "documents.parquet")
    got = boilerplate_scrub(str(src)).to_pandas().set_index("doc_id")
    assert got.loc[1, "text_clean"] == "jumped over logs t1 t2"
    assert got.loc[1, ["n_chunks", "n_removed"]].tolist() == [2, 1]
    assert got.loc[2, "text_clean"] == "shared by two"
    assert got.loc[3, "text_clean"] == "shared by two xx"
    assert got.loc[4, "text_clean"] == "hi yo"
    assert got.loc[4, ["n_chunks", "n_removed"]].tolist() == [0, 0]
    assert got.loc[5, "text_clean"] == ""
    assert got.loc[5, ["n_chunks", "n_removed"]].tolist() == [1, 1]
    assert got.loc[6, "text_clean"] == "x the quick fox a b"
    assert got.loc[6, ["n_chunks", "n_removed"]].tolist() == [2, 0]


def test_lm_perplexity_hand_computed(ray_session, tmp_path):
    """Pin the Laplace-smoothed bigram math on a 2-doc corpus, both
    uncapped and with vocab_k=1 (forcing <unk> mapping): bits must
    equal the hand-computed -log2((c(u,v)+1)/(c(u)+V)) means."""
    import math
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_
    from miru_ray.pipelines.textstats import lm_perplexity
    docs = pd.DataFrame({"doc_id": [1, 2], "text": ["a b a b", "a a"]})
    src = tmp_path / "sf"
    src.mkdir()
    pq_.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                    src / "documents.parquet")
    # uncapped: vocab {a:4, b:2}, V=3; cuv (a,b):2 (b,a):1 (a,a):1
    got = lm_perplexity(str(src)).to_pandas().set_index("doc_id")
    d1 = (2 * -math.log2((2 + 1) / (4 + 3))
          + -math.log2((1 + 1) / (2 + 3))) / 3
    d2 = -math.log2((1 + 1) / (4 + 3))
    assert got.loc[1, "bits"] == round(d1, 6)
    assert got.loc[2, "bits"] == round(d2, 6)
    assert got.loc[1, "n_bigrams"] == 3 and got.loc[2, "n_bigrams"] == 1
    # vocab_k=1: only 'a' survives, 'b' -> <unk>; V=2, c(a)=4 c(unk)=2
    # d1 pairs (a,u)(u,a)(a,u): cuv (a,u)=2,(u,a)=1 -> every pair = 1 bit
    got1 = lm_perplexity(str(src), vocab_k=1).to_pandas().set_index("doc_id")
    assert got1.loc[1, "bits"] == 1.0
    assert got1.loc[2, "bits"] == round(-math.log2((1 + 1) / (4 + 2)), 6)


def test_exact_global_ntile_ties_and_remainder(ray_session):
    """exact_global_ntile must equal SQL ntile semantics (first N%n
    buckets one larger) on a skewed, tie-heavy distribution that spans
    many value bins — including all-equal values collapsing into a
    single bin."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray
    from miru_ray.pipelines.textstats import exact_global_ntile
    rng_vals = np.r_[np.zeros(40), np.ones(3) * 7.5,
                     np.linspace(0.0, 100.0, 57)]          # N=100, ties
    df = pd.DataFrame({"doc_id": np.arange(100, dtype=np.int64)[::-1],
                       "v": rng_vals})
    got = (exact_global_ntile(ray.data.from_pandas(df), "v", 7)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql("""
        SELECT doc_id, v, ntile(7) OVER (ORDER BY v, doc_id)::BIGINT AS tile
        FROM t ORDER BY doc_id""").df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # degenerate: every value identical -> one bin holds everything
    df2 = pd.DataFrame({"doc_id": np.arange(10, dtype=np.int64),
                        "v": np.full(10, 3.25)})
    got2 = (exact_global_ntile(ray.data.from_pandas(df2), "v", 3)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con.register("t2", df2)
    want2 = con.sql("""
        SELECT doc_id, v, ntile(3) OVER (ORDER BY v, doc_id)::BIGINT AS tile
        FROM t2 ORDER BY doc_id""").df()
    pd.testing.assert_frame_equal(got2, want2, check_dtype=False)


def test_exact_substring_scrub_planted(ray_session, tmp_path):
    """ExactSubstr semantics: the lowest-(doc_id, start) occurrence of
    a duplicated window is KEPT, later ones are cut; overlapping
    duplicate windows merge through coverage; a WITHIN-doc repeat also
    counts; short docs pass through untouched."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_
    from miru_ray.pipelines.textstats import exact_substring_scrub
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "p q r s t u1 u2",            # first occurrence -> kept
            "x1 p q r s t y1 y2",         # later occurrence -> cut
            "a b c d e a b c d e",        # within-doc repeat: 2nd cut
            "tiny doc",                   # < span tokens: untouched
        ],
    })
    src = tmp_path / "sf"
    src.mkdir()
    pq_.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                    src / "documents.parquet")
    got = exact_substring_scrub(str(src), span=5).to_pandas() \
        .set_index("doc_id")
    assert got.loc[1, "text_clean"] == "p q r s t u1 u2"
    assert got.loc[1, "n_removed"] == 0
    assert got.loc[2, "text_clean"] == "x1 y1 y2"
    assert got.loc[2, "n_removed"] == 5
    # doc 3: windows (a b c d e) at 0 and 5 duplicate; also the wrap
    # windows (b c d e a) at 1/ (c d e a b) at 2 ... each repeat once?
    # no — they occur once each; only the exact repeat at 5 is cut
    assert got.loc[3, "text_clean"] == "a b c d e"
    assert got.loc[3, "n_removed"] == 5
    assert got.loc[4, "text_clean"] == "tiny doc"
    assert got.loc[4, ["n_tokens", "n_removed"]].tolist() == [2, 0]


def test_bpe_train_and_counts_vs_local_reference(ray_session, tmp_path):
    """Distributed BPE (word-count exchange + broadcast segmentation)
    must equal a local sequential reference on the Sennrich-style toy
    corpus AND on sf0.001: same merge table, same per-doc token counts."""
    import collections
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_
    from miru_ray.pipelines.bpe import (bpe_segment_word, bpe_token_counts,
                                        bpe_train)

    def ref_merges(texts, n):
        wc = collections.Counter(w for t in texts
                                 for w in t.split(" ") if w)
        seqs = {w: list(w) for w in wc}
        out = []
        for _ in range(n):
            pc = collections.Counter()
            for w, c in wc.items():
                s = seqs[w]
                for p in zip(s, s[1:]):
                    pc[p] += c
            if not pc:
                break
            best = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
            if best[1] < 2:
                break
            (a, b), _ = best
            out.append((a, b))
            for w in seqs:
                s, i = seqs[w], 0
                while i < len(s) - 1:
                    if s[i] == a and s[i + 1] == b:
                        s[i: i + 2] = [a + b]
                    else:
                        i += 1
        return out

    texts = (["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3
             + ["low lower newest widest banana"])
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    src = tmp_path / "sf"
    src.mkdir()
    pq_.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                    src / "documents.parquet")
    got = bpe_train(str(src), n_merges=12)
    want = ref_merges(texts, 12)
    assert list(zip(got["left"].to_pylist(),
                    got["right"].to_pylist())) == want
    rank = {p: i for i, p in enumerate(want)}
    counts = bpe_token_counts(str(src), n_merges=12).to_pandas()
    for _, row in counts.iterrows():
        words = [w for w in texts[int(row.doc_id)].split(" ") if w]
        assert row.n_words == len(words)
        assert row.n_bpe_tokens == sum(bpe_segment_word(w, rank)
                                       for w in words)
    # and on the real fixture corpus
    sfd = "/root/testdata/sf0.001"
    import pyarrow.parquet as pq2
    texts2 = pq2.read_table(sfd + "/documents.parquet",
                            columns=["text"])["text"].to_pylist()
    got2 = bpe_train(sfd, n_merges=30)
    assert list(zip(got2["left"].to_pylist(),
                    got2["right"].to_pylist())) == ref_merges(texts2, 30)
