"""JSON ingress → WAL → build, and index sync replication."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from miru_ray.pipelines.search import search
from miru_ray.state.reader import IndexReader


def test_json_ingest_builds_queryable_index(tmp_path, ray_session):
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.sources.ingest import ingest_json_to_wal
    nd = tmp_path / "pages.jsonl"
    rows = []
    for i in range(50):
        rows.append({"url": f"https://j/{i}", "warc_ts": 1_704_067_200_000_000 + i,
                     "html": f"<html><body><nav>x</nav><p>alpha bravo doc{i}</p></body></html>",
                     "lang": "en"})
    nd.write_text("\n".join(json.dumps(r) for r in rows))
    wal = str(tmp_path / "wal")
    n = ingest_json_to_wal(str(nd), wal)
    assert n == 50
    idx = str(tmp_path / "idx")
    meta = build_index(wal, idx, BuildConfig(num_parts=2, num_shards=2))
    assert meta["n_docs"] == 50
    reader = IndexReader(idx)
    hits = search(reader, "doc7", k=5)
    assert hits.num_rows == 1
    assert hits["url"][0].as_py() == "https://j/7"
    # extraction ran (nav stripped): alpha present in every doc
    assert search(reader, "alpha", k=60).num_rows == 50


def test_sync_index_replicates_and_resumes(index_dir, tmp_path, reader):
    from miru_ray.state.sync import sync_index
    dst = str(tmp_path / "replica")
    p1 = sync_index(index_dir, dst)
    assert p1["synced"] and not p1["skipped"]
    # replica answers identically
    r2 = IndexReader(dst)
    a = search(reader, "needle13", k=20)
    b = search(r2, "needle13", k=20)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert np.array_equal(a["score"].to_numpy(), b["score"].to_numpy())
    # second sync is a no-op (durable progress semantics)
    p2 = sync_index(index_dir, dst)
    assert not p2["synced"]
    assert p2["skipped"] == p1["synced"]


def test_sync_index_carries_added_field(tmp_path, ray_session):
    """An additively-added field's segments travel with the meta that lists
    it: to a fresh replica, and to one synced before the field existed."""
    import pyarrow as pa
    from miru_ray.pipelines.build import BuildConfig, build_index
    from miru_ray.pipelines.schema_evolve import add_field
    from miru_ray.sources.fixtures import pages_table
    from miru_ray.state.schema import FieldDef
    from miru_ray.state.sync import sync_index
    pages = pages_table(200)
    src = str(tmp_path / "src")
    fresh, older = str(tmp_path / "fresh"), str(tmp_path / "older")
    build_index(pages, src, BuildConfig(num_parts=4, num_shards=2))
    sync_index(src, older)
    site = pa.array([u.split("/")[2] for u in pages["url"].to_pylist()])
    add_field(src, pages.select(["url", "warc_ts"]).append_column("site", site),
              FieldDef("site", "keyword"))
    query = f"site:{site[0].as_py()}"
    want = search(IndexReader(src), query, k=20)
    assert want.num_rows == 2
    for dst in (fresh, older):
        for _ in range(2):   # one sync, then a repeated one
            sync_index(src, dst)
            got = search(IndexReader(dst), query, k=20)
            assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
            assert np.array_equal(got["score"].to_numpy(), want["score"].to_numpy())
