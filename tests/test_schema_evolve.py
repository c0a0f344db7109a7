"""Additive schema evolution (pipelines/schema_evolve.py, VERDICT r3 #5).

Done-criteria: add a field to a BUILT index → fielded queries go green,
while the primary segment files stay byte-identical (no partition
rebuild, no primary-segment rewrite) — MiruSchema.checkAdditive:303-314
semantics.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from miru_ray.pipelines.build import BuildConfig, build_index
from miru_ray.pipelines.schema_evolve import add_field
from miru_ray.pipelines.search import search
from miru_ray.state.reader import IndexReader
from miru_ray.state.schema import FieldDef, IndexSchema


def _file_bytes(d: str) -> dict[str, bytes]:
    out = {}
    for f in sorted(glob.glob(os.path.join(d, "segments", "*.parquet"))):
        with open(f, "rb") as fh:
            out[os.path.basename(f)] = fh.read()
    return out


@pytest.fixture(scope="module")
def evolved(ray_session, pages, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("evolve") / "idx")
    build_index(pages, d, BuildConfig(num_parts=4, num_shards=2))
    before = _file_bytes(d)
    # source for the added numeric field: pages + a derived column
    src = pages.append_column(
        "textlen", pc.utf8_length(pages["text"]).cast(pa.int64()))
    add_field(d, pages, FieldDef("lang", "keyword"))
    add_field(d, src, FieldDef("textlen", "numeric"))
    return {"idx": d, "before": before, "pages": pages, "src": src}


def test_primary_segments_byte_identical(evolved):
    assert _file_bytes(evolved["idx"]) == evolved["before"]


def test_added_keyword_field_queries(evolved):
    r = IndexReader(evolved["idx"])
    assert r.schema.field("lang") is not None
    # fielded filter == the lang metadata domain, doc for doc
    ids = r.ids("\x00lang\x00en")
    np.testing.assert_array_equal(ids, r.lang_domain(["en"]))
    # end-to-end fielded search returns only en docs
    got = search(r, "needle7 lang:en")
    assert got.num_rows > 0
    assert set(got["lang"].to_pylist()) == {"en"}
    full = search(r, "needle7")
    want = [d for d, lg in zip(full["doc_id"].to_pylist(),
                               full["lang"].to_pylist()) if lg == "en"]
    assert got["doc_id"].to_pylist() == want


def test_added_numeric_field_range(evolved):
    r = IndexReader(evolved["idx"])
    got = r.range_union_ids("\x00textlen\x00" +
                            __import__("miru_ray.state.schema",
                                       fromlist=["encode_numeric_one"])
                            .encode_numeric_one(500),
                            "\x00textlen\x00" +
                            __import__("miru_ray.state.schema",
                                       fromlist=["encode_numeric_one"])
                            .encode_numeric_one(900))
    # brute force: gather every doc's stored url->text length via the
    # docs tables
    lens = []
    for pi, part in enumerate(r.parts):
        t = r.docs_table(part)
        # docs don't store text here; recompute from the source pages by
        # url (urls unique post-dedup)
        lens.append((t["url"].to_pylist(), r.bases[pi]))
    src = evolved["src"]
    # winner per url = max (ts, text), exactly the build's latest-wins
    # rule (the fixture's ts jitter can order a duplicate url's later row
    # EARLIER in time, so "last row wins" would be wrong)
    by_url: dict[str, tuple] = {}
    ts_col = src["warc_ts"].to_numpy().astype("datetime64[us]").astype("i8")
    for u, t_, txt, ln in zip(src["url"].to_pylist(), ts_col,
                              src["text"].to_pylist(),
                              src["textlen"].to_pylist()):
        cur = by_url.get(u)
        if cur is None or (t_, txt) > cur[:2]:
            by_url[u] = (t_, txt, ln)
    by_url = {u: v[2] for u, v in by_url.items()}
    want = []
    for urls, base in lens:
        for j, u in enumerate(urls):
            if 500 <= by_url[u] <= 900:
                want.append(base + j)
    np.testing.assert_array_equal(np.sort(got.astype(np.int64)),
                                  np.sort(np.array(want, dtype=np.int64)))


def test_rank_identity_with_oracle_schema(evolved, pages):
    from miru_ray.oracle import OracleIndex
    schema = IndexSchema((FieldDef("lang", "keyword"),))
    oracle = OracleIndex(pages, num_parts=4, schema=schema)
    r = IndexReader(evolved["idx"])
    for q in ["needle31 lang:en", "w00004 -lang:de", "lang:fr w00001"]:
        got = search(r, q, k=10)
        want_ids, want_scores = oracle.search(q, k=10)
        np.testing.assert_array_equal(got["doc_id"].to_numpy(), want_ids)
        np.testing.assert_allclose(got["score"].to_numpy(), want_scores,
                                   rtol=0, atol=0)


def test_add_field_guards(evolved):
    with pytest.raises(ValueError, match="already exists"):
        add_field(evolved["idx"], evolved["pages"],
                  FieldDef("lang", "keyword"))
    with pytest.raises(ValueError, match="stored"):
        add_field(evolved["idx"], evolved["pages"],
                  FieldDef("lang2", "keyword", stored=True))


def test_dropped_field_fails_loudly_until_re_added(tmp_path, ray_session):
    """A sip that rebuilds partitions drops an additive field from the
    meta. A query naming it must raise, not parse ``site:…`` as text and
    quietly match nothing, until add_field re-derives the field."""
    from miru_ray.pipelines.search import search_scattered
    from miru_ray.sources.fixtures import pages_table
    pages = pages_table(200)
    d = str(tmp_path / "idx")
    cfg = BuildConfig(num_parts=4, num_shards=2)
    build_index(pages.slice(0, 160), d, cfg)
    site = pa.array([u.split("/")[2] for u in pages["url"].to_pylist()])
    src = pages.select(["url", "warc_ts"]).append_column("site", site)
    add_field(d, src.slice(0, 160), FieldDef("site", "keyword"))
    host = site[0].as_py()
    query = f"site:{host}"
    before = search(IndexReader(d), query, k=20)
    assert before.num_rows > 0
    build_index(pages, d, BuildConfig(num_parts=4, num_shards=2,
                                      verify_inputs=True))   # sip 40 rows
    assert IndexReader(d).meta["dropped_fields"] == ["site"]
    for q in (query, f'needle7 -site:"{host}"'):
        with pytest.raises(ValueError, match="site.*add_field"):
            search(IndexReader(d), q, k=20)
    with pytest.raises(ValueError, match="site.*add_field"):
        search_scattered(d, query, k=20)
    # field syntax inside a quoted phrase body is text, not a field
    search(IndexReader(d), f'"needle7 site:{host}"', k=5)
    add_field(d, src, FieldDef("site", "keyword"))
    r = IndexReader(d)
    assert "dropped_fields" not in r.meta
    assert search(r, query, k=20).num_rows >= before.num_rows
