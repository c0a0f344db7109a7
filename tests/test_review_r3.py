"""Regression pins for the round-3 self-review findings."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def test_feature_cache_digest_detects_field_swap():
    # XOR-linear per-row hashing let a rewrite that swaps user_ids
    # between two historical rows (same event_type) cancel out across
    # the fold; the avalanche-mixed hash must flip on it.
    from miru_ray.state.feature_cache import StrutFeatureCache
    t1 = pa.table({"event_id": [10, 20], "user_id": [1, 2],
                   "event_type": ["click", "click"]})
    t2 = pa.table({"event_id": [10, 20], "user_id": [2, 1],
                   "event_type": ["click", "click"]})
    assert StrutFeatureCache._digest_batch(t1) != \
        StrutFeatureCache._digest_batch(t2)


def test_cf_recommend_unknown_custkey_returns_empty(ray_session):
    # every hop's broadcast lookup can be empty (customer with no
    # orders): must yield a typed empty result, never IndexError
    from miru_ray.pipelines.reco import cf_recommend
    r = cf_recommend("/root/testdata/sf0.001", custkey=10**9)
    assert len(r) == 0
    assert r.column_names == ["p_partkey", "score"]


def test_fp_cache_replaces_stale_generation(tmp_path, ray_session):
    # regenerating a fixture must REPLACE its cache entry (keyed by
    # path, validated by stat), not accumulate dead generations
    import os
    import time

    import pyarrow.parquet as pq

    from miru_ray.pipelines import textstats

    d = str(tmp_path)
    src = os.path.join(d, "documents.parquet")
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["alpha", "beta"]})
    pq.write_table(t, src)
    textstats.doc_fingerprint_table(d)
    n0 = len(textstats._FP_CACHE)
    time.sleep(0.01)
    pq.write_table(pa.table({"doc_id": pa.array([3], pa.int64()),
                             "text": ["gamma"]}), src)
    out = textstats.doc_fingerprint_table(d)
    assert len(textstats._FP_CACHE) == n0          # replaced, not added
    assert out["doc_id"].to_pylist() == [3]        # and it is the NEW table


def test_bloom_probe_no_cross_product(ray_session):
    # the probe loop must not materialize users×probes duplicated bloom
    # rows; output parity with a brute-force membership check
    import duckdb

    from miru_ray.pipelines.bloom_pairs import PROBE_KS, paired_bloom_contains
    sf = "/root/testdata/sf0.001"
    got = paired_bloom_contains(sf).to_pandas()
    con = duckdb.connect()
    ks = ", ".join(str(k) for k in PROBE_KS)
    want = con.execute(f"""
        SELECT DISTINCT user_id, json_extract(props, '$.k')::BIGINT AS k
        FROM read_parquet('{sf}/events.parquet')
        WHERE json_extract(props, '$.k')::BIGINT IN ({ks})
        ORDER BY user_id, k
    """).df()
    assert got["user_id"].tolist() == want["user_id"].tolist()
    assert got["k"].tolist() == want["k"].tolist()


def test_ngram_jaccard_single_scan_matches(ray_session):
    # the collected pairs keep the SQL oracle's shape: doc_a < doc_b,
    # threshold survivors only
    import duckdb

    from miru_ray.pipelines.dedup import ngram_jaccard_pairs
    sf = "/root/testdata/sf0.001"
    got = ngram_jaccard_pairs(sf).to_pandas()
    assert (got["doc_a"] < got["doc_b"]).all()
    assert got["jaccard"].between(0.8, 1.0).all()
    assert len(got) > 0   # the fixture carries near-dup pairs


def test_value_quantiles_refinement_levels(ray_session, monkeypatch):
    # force coarse bins + a tiny gather cap so the locate->refine->gather
    # loop actually recurses, and the result must STILL be exact
    import duckdb

    import miru_ray.pipelines.events as ev
    monkeypatch.setattr(ev, "_QBINS", 4)
    monkeypatch.setattr(ev, "_QGATHER_CAP", 16)
    sf = "/root/testdata/sf0.01"
    got = ev.value_quantiles(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute("""
        SELECT event_type, round(quantile_cont(value, 0.5), 6) AS p50,
               round(quantile_cont(value, 0.9), 6) AS p90,
               round(quantile_cont(value, 0.99), 6) AS p99
        FROM events GROUP BY event_type ORDER BY event_type""").df()
    import pandas as pd
    pd.testing.assert_frame_equal(got, want)


def test_value_quantiles_dup_null_and_custom_qs(tmp_path, ray_session,
                                                monkeypatch):
    # second-review pins: a bin dominated by one duplicated value resolves
    # via min==max without gathering (no refinement stall, cap honored);
    # an all-NULL group yields NULL like quantile_cont; a NULL event_type
    # is its own group (NULLS LAST); custom qs name their own columns
    import os

    import duckdb
    import numpy as np
    import pyarrow.parquet as pq

    import miru_ray.pipelines.events as ev
    d = str(tmp_path)
    rng = np.random.RandomState(3)
    t = pa.table({
        "event_type": pa.array(["dup"] * 100000 + ["mix"] * 5000
                               + ["allnull"] * 50 + [None] * 300,
                               pa.string()),
        "value": pa.array([7.25] * 100000
                          + list(rng.uniform(0, 100, 5000))
                          + [None] * 50
                          + list(rng.uniform(-5, 5, 300)), pa.float64()),
    })
    pq.write_table(t, os.path.join(d, "events.parquet"))
    monkeypatch.setattr(ev, "_QGATHER_CAP", 64)
    got = ev.value_quantiles(d).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{d}/events.parquet')")
    want = con.execute("""
        SELECT event_type, round(quantile_cont(value, 0.5), 6) AS p50,
               round(quantile_cont(value, 0.9), 6) AS p90,
               round(quantile_cont(value, 0.99), 6) AS p99
        FROM events GROUP BY event_type
        ORDER BY event_type NULLS LAST""").df()
    pd.testing.assert_frame_equal(got, want)
    got2 = ev.value_quantiles(d, qs=(0.25, 0.5)).to_pandas()
    assert list(got2.columns) == ["event_type", "p25", "p50"]


def test_ngram_pairs_boundary_and_oracle(tmp_path, ray_session):
    # the prefix filter must be lossless INCLUDING a pair at exactly
    # J = t: A = 4 shingles, B = 5 shingles sharing 4 -> J = 4/5 = 0.8;
    # on the real fixture the engine equals the all-pairs SQL oracle
    import os

    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as E
    from miru_ray.pipelines.dedup import ngram_jaccard_pairs

    def oracle(sf: str) -> pd.DataFrame:
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
        return con.sql(E._ngram_jaccard_sql()).df()

    d = str(tmp_path)
    a = "alpha beta gamma delta epsilon zeta"           # 6 toks, 4 shingles
    b = a + " eta"                                      # 7 toks, 5 shingles
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": [a, b, "totally unrelated words here now"],
    }), os.path.join(d, "documents.parquet"))
    got = ngram_jaccard_pairs(d).to_pandas()
    assert got["doc_a"].tolist() == [1] and got["doc_b"].tolist() == [2]
    assert got["jaccard"].tolist() == [0.8]
    pd.testing.assert_frame_equal(got, oracle(d), check_dtype=False)
    sf = "/root/testdata/sf0.001"
    want = oracle(sf)
    assert len(want) > 0
    pd.testing.assert_frame_equal(ngram_jaccard_pairs(sf).to_pandas(), want,
                                  check_dtype=False, check_exact=True)


def test_third_review_edge_cases(tmp_path, ray_session):
    # jsonprops: valid non-object JSON rows take the default, not a crash
    from miru_ray.functions.jsonprops import props_int_column
    arr = pa.array(['{"k": 3}', "null", "5", '"x"', "[1]", None, "{}"])
    assert props_int_column(arr, "k", default=-9).tolist() == \
        [3, -9, -9, -9, -9, -9, -9]

    # sketch quantiles: NULL type group + all-NULL values + NaN dropping
    import os

    import pyarrow.parquet as pq

    import miru_ray.pipelines.events as ev
    d = str(tmp_path)
    pq.write_table(pa.table({
        "event_type": pa.array(["a"] * 4 + [None] * 3 + ["nul"] * 2,
                               pa.string()),
        "value": pa.array([1.0, 2.0, None, 4.0, 5.0, 6.0, 7.0, None, None],
                          pa.float64()),
    }), os.path.join(d, "events.parquet"))
    sk = ev.value_quantiles_sketch(d).to_pandas()
    assert sk["event_type"].tolist() == ["a", "nul", None]
    assert sk.loc[sk["event_type"] == "nul", "p50"].isna().all()
    assert not sk.loc[sk["event_type"] == "a", "p50"].isna().any()

    # anomaly_bits_sum: an all-zero metric still appears with total 0
    from miru_ray.pipelines.intake import anomaly_bits_sum
    d2 = str(tmp_path / "zero")
    os.makedirs(d2)
    pq.write_table(pa.table({
        "event_type": pa.array(["z"] * 5 + ["w"] * 3, pa.string()),
        "value": pa.array([6.0] * 5 + [8.5] * 3, pa.float64()),
    }), os.path.join(d2, "events.parquet"))
    # floor(6.0*100)-600 == 0 for 'z'; 'w' -> 250
    got = anomaly_bits_sum(d2).to_pandas()
    assert got["metric"].tolist() == ["w>v", "z>v"]
    assert got["total_cents"].tolist() == [750, 0]
    assert got["n"].tolist() == [3, 5]

    # bit 63 (MIN_VALUE clamp) reconstructs via python ints, no overflow
    from miru_ray.pipelines.intake import trawl_metrics_batch
    t = pa.table({"path": pa.array([["m"]], pa.list_(pa.string())),
                  "value": pa.array([np.iinfo(np.int64).min], pa.int64())})
    bits = trawl_metrics_batch(t)["bits"].to_pylist()[0]
    total = -sum(1 << int(b) for b in bits[1:])
    assert total == -(2**63 - 1)

    # bloom pairs: props without 'k' never fabricate a (user, 0) pair
    from miru_ray.pipelines.bloom_pairs import paired_bloom_contains
    d3 = str(tmp_path / "nok")
    os.makedirs(d3)
    pq.write_table(pa.table({
        "user_id": pa.array([1, 2, 3], pa.int64()),
        "props": pa.array(['{"k": 7}', "{}", '{"j": 0}'], pa.string()),
    }), os.path.join(d3, "events.parquet"))
    got = paired_bloom_contains(d3).to_pandas()
    assert got["user_id"].tolist() == [1] and got["k"].tolist() == [7]

    # per-lang query analysis via explicit query_lang (multi-lang domain)
    from miru_ray.pipelines.fulltext import documents_index
    from miru_ray.pipelines.search import search
    from miru_ray.state.reader import IndexReader
    reader = IndexReader(documents_index("/root/testdata/sf0.001",
                                         analyzer="per_lang"))
    with_lang = search(reader, "der scan", k=5, langs=["de", "fr"],
                       query_lang="de")
    assert len(with_lang) > 0   # 'der' dropped by the de chain


def test_value_quantiles_random_distributions(tmp_path, ray_session):
    # randomized: mixed-scale values with heavy ties vs np.quantile
    # (method='linear' == quantile_cont) across several seeds
    import os

    import pyarrow.parquet as pq

    import miru_ray.pipelines.events as ev
    for seed in (1, 7, 42):
        rng = np.random.RandomState(seed)
        n = int(rng.randint(200, 3000))
        vals = np.concatenate([
            rng.uniform(-1e6, 1e6, n // 3),
            np.round(rng.uniform(0, 10, n // 3), 1),     # heavy ties
            np.full(n - 2 * (n // 3), rng.uniform(-5, 5)),  # one dup run
        ])
        types = rng.choice(["a", "b", "c"], len(vals))
        d = str(tmp_path / f"s{seed}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(pa.table({
            "event_type": pa.array(types, pa.string()),
            "value": pa.array(vals, pa.float64()),
        }), os.path.join(d, "events.parquet"))
        got = ev.value_quantiles(d).to_pandas().set_index("event_type")
        for ty in sorted(set(types)):
            x = vals[types == ty]
            for q, col in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
                want = round(float(np.quantile(x, q, method="linear")), 6)
                assert got.loc[ty, col] == want, (seed, ty, col)
