"""Build-option paths: lang pushdown filtering produces the same index as
a filtered oracle."""

from __future__ import annotations

import numpy as np
import pyarrow.compute as pc

from miru_ray.pipelines.build import BuildConfig, build_index
from miru_ray.pipelines.search import search
from miru_ray.state.reader import IndexReader


def test_lang_pushdown_filter(pages, tmp_path, ray_session):
    """BuildConfig.langs drops other languages before any heavy work;
    the result equals an index built over pre-filtered input."""
    from miru_ray.oracle import OracleIndex
    d = str(tmp_path / "en")
    meta = build_index(pages, d, BuildConfig(num_parts=4, num_shards=2,
                                             langs=["en"]))
    filtered = pages.filter(pc.equal(pages["lang"], "en"))
    oracle = OracleIndex(filtered, num_parts=4)
    assert meta["n_docs"] == oracle.n_docs < pages.num_rows
    reader = IndexReader(d)
    for q in ["w00001 w00002", "needle13", "w0001*"]:
        oid, osc = oracle.search(q, k=10)
        hits = search(reader, q, k=10)
        assert hits["doc_id"].to_pylist() == oid.tolist(), q
        assert np.array_equal(hits["score"].to_numpy(), osc), q
