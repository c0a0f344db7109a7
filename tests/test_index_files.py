"""Index parquet files: one writer (state/layout.write_parquet_atomic), one
codec. Every file family — partition docs/postings, field sidecars, base
segments, overlay generations and field segments — is zstd without
dictionary pages; each partition manifest records the bytes it wrote;
and an index whose partition files an older build wrote with parquet's
default codec still sips to a clean build's answers."""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from miru_ray.functions.hashing import part_for
from miru_ray.pipelines.build import BuildConfig, build_index
from miru_ray.pipelines.schema_evolve import add_field
from miru_ray.sources.fixtures import generate_pages
from miru_ray.state.schema import FieldDef, IndexSchema
from test_delta_overlay import _assert_reader_equiv
from util import seg_digest

SCHEMA = IndexSchema((FieldDef("site", "keyword", stored=True),))


def _with_site(t: pa.Table) -> pa.Table:
    site = [u.split("//")[1].split(".")[0] for u in t["url"].to_pylist()]
    return t.append_column("site", pa.array(site, pa.string()))


def _partition_bytes(idx: str) -> int:
    return sum(os.path.getsize(f) for name in ("docs", "postings")
               for f in glob.glob(os.path.join(idx, "partitions", "part=*",
                                               f"{name}.parquet")))


@pytest.fixture(scope="module")
def evolved(ray_session, tmp_path_factory):
    """store_text + a stored schema field, a hash sip into partition 1 of
    16 (the overlay, shifting every later base), then add_field."""
    tmp = tmp_path_factory.mktemp("index_files")
    full = _with_site(generate_pages(0, 900))
    parts = part_for(full["url"].to_numpy(zero_copy_only=False), 16)
    sip = (np.arange(full.num_rows) >= 600) & (parts == 1)
    src = tmp / "wal"
    src.mkdir()
    pq.write_table(full.filter(pa.array(~sip)), str(src / "a.parquet"))
    cfg = lambda v: BuildConfig(num_parts=16, num_shards=2,  # noqa: E731
                                store_text=True, schema=SCHEMA,
                                verify_inputs=v)
    idx = str(tmp / "idx")
    build_index(str(src), idx, cfg(False))
    pq.write_table(full.filter(pa.array(sip)), str(src / "b.parquet"))
    sip_meta = build_index(str(src), idx, cfg(True))
    assert sip_meta["phase_sec"]["merge_mode"] == "delta"
    assert sip_meta["delta"]["replaced_parts"] == [1]
    add_field(idx, full, FieldDef("lang", "keyword"))
    return idx, sip_meta


def test_every_index_file_is_zstd_without_dictionary(evolved):
    idx, _ = evolved
    files = sorted(glob.glob(os.path.join(idx, "**", "*.parquet"),
                             recursive=True))
    families = {os.path.relpath(f, idx).split(os.sep)[0] for f in files}
    assert families == {"partitions", "segments", "segments_delta",
                        "segments_field_lang"}
    names = {os.path.basename(f) for f in files
             if f.startswith(os.path.join(idx, "partitions"))}
    assert names == {"docs.parquet", "postings.parquet",
                     "postings_field_lang.parquet"}
    for f in files:
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            for c in range(md.num_columns):
                col = md.row_group(rg).column(c)
                assert col.compression == "ZSTD", (f, col.path_in_schema)
                assert not col.has_dictionary_page, (f, col.path_in_schema)


def test_partition_bytes_match_the_files(evolved):
    idx, sip_meta = evolved
    want = _partition_bytes(idx)
    assert sip_meta["partition_bytes"] == want
    with open(os.path.join(idx, "meta.json")) as fh:   # kept by add_field
        assert json.load(fh)["partition_bytes"] == want
    for m in glob.glob(os.path.join(idx, "partitions", "part=*",
                                    "manifest.json")):
        with open(m) as fh:
            man = json.load(fh)
        pdir = os.path.dirname(m)
        assert man["docs_bytes"] == os.path.getsize(
            os.path.join(pdir, "docs.parquet"))
        assert man["postings_bytes"] == os.path.getsize(
            os.path.join(pdir, "postings.parquet"))


def _rewrite_as_older_build(idx: str) -> None:
    """Rewrite every partition file and segment the way an older build
    did (parquet's default codec with dictionary pages; segments at
    zstd's default level), and drop the byte counts from the manifests."""
    for name in ("docs.parquet", "postings.parquet"):
        for f in glob.glob(os.path.join(idx, "partitions", "part=*", name)):
            pq.write_table(pq.read_table(f), f, row_group_size=4096)
    for f in glob.glob(os.path.join(idx, "segments", "*.parquet")):
        pq.write_table(pq.read_table(f), f, row_group_size=4096,
                       compression="zstd")
    for m in glob.glob(os.path.join(idx, "partitions", "part=*",
                                    "manifest.json")):
        with open(m) as fh:
            man = json.load(fh)
        man.pop("docs_bytes")
        man.pop("postings_bytes")
        with open(m, "w") as fh:
            json.dump(man, fh)


def test_older_index_sips_to_clean_build(tmp_path, ray_session):
    """An index written by an older build takes an overlay sip (base
    segments untouched, reads equal a clean build) and then a sip past
    half of the partitions (the full merge: segments equal a clean
    build's). Its partition byte total stays unset while any manifest
    predates the counts."""
    full = generate_pages(0, 900)
    parts = part_for(full["url"].to_numpy(zero_copy_only=False), 16)
    late = np.arange(full.num_rows) >= 600
    sip1 = late & (parts == 1)
    sip2 = late & np.isin(parts, [0, 2, 3, 4, 5, 6, 7, 8, 9])
    src = tmp_path / "wal"
    src.mkdir()
    pq.write_table(full.filter(pa.array(~(sip1 | sip2))),
                   str(src / "a.parquet"))
    cfg = lambda v: BuildConfig(num_parts=16, num_shards=2,  # noqa: E731
                                verify_inputs=v)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, cfg(False))
    base_digest = seg_digest(idx)
    _rewrite_as_older_build(idx)
    old = pq.ParquetFile(os.path.join(idx, "partitions", "part=00000",
                                      "docs.parquet")).metadata
    assert old.row_group(0).column(1).compression == "SNAPPY"
    assert old.row_group(0).column(1).has_dictionary_page
    assert seg_digest(idx) == base_digest

    pq.write_table(full.filter(pa.array(sip1)), str(src / "b.parquet"))
    m1 = build_index(str(src), idx, cfg(True))
    assert m1["phase_sec"]["merge_mode"] == "delta"
    assert "partition_bytes" not in m1
    assert seg_digest(idx) == base_digest
    clean1 = str(tmp_path / "clean1")
    build_index(str(src), clean1, cfg(False))
    _assert_reader_equiv(idx, clean1)

    pq.write_table(full.filter(pa.array(sip2)), str(src / "c.parquet"))
    m2 = build_index(str(src), idx, cfg(True))
    assert m2["phase_sec"]["merge_mode"] == "full"
    assert "partition_bytes" not in m2
    clean2 = str(tmp_path / "clean2")
    build_index(str(src), clean2, cfg(False))
    assert seg_digest(idx) == seg_digest(clean2)
    _assert_reader_equiv(idx, clean2)
