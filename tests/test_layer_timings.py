"""Build layer timings: each partition manifest splits its ``elapsed_s``
into dedup / invert / write, each merge task reports its own
``elapsed_s``, and meta.json keeps the slowest merge task's time."""

from __future__ import annotations

import glob
import json
import os

import pytest
import ray

from miru_ray.pipelines.build import BuildConfig, build_index
from miru_ray.stages.merge import delta_shard, merge_shard, splice_shard
from miru_ray.state.layout import part_dir, read_json

LAYERS = ("dedup_s", "invert_s", "write_s")


@pytest.fixture(scope="module")
def index_dir(ray_session, pages, tmp_path_factory):
    """A fresh full build of its own: the session index may have been
    re-committed by another test's no-op resume, which runs no merge."""
    d = str(tmp_path_factory.mktemp("timings") / "index")
    build_index(pages, d, BuildConfig(num_parts=4, num_shards=2))
    return d


def test_partition_manifest_layer_times(index_dir):
    manifests = glob.glob(os.path.join(index_dir, "partitions", "part=*",
                                       "manifest.json"))
    assert manifests
    for m in manifests:
        with open(m) as fh:
            man = json.load(fh)
        assert all(man[k] >= 0 for k in LAYERS), man
        assert sum(man[k] for k in LAYERS) <= man["elapsed_s"], man


def test_meta_records_slowest_merge_task(index_dir):
    ps = read_json(os.path.join(index_dir, "meta.json"))["phase_sec"]
    # segment_merge is rounded to 1 ms, the task time to 0.1 ms
    assert 0 <= ps["merge_shard_max_s"] <= ps["segment_merge"] + 1e-3


def test_merge_tasks_report_elapsed(index_dir, tmp_path):
    meta = read_json(os.path.join(index_dir, "meta.json"))
    bases = {int(p): int(v) for p, v in meta["bases"].items()}
    files = {p: os.path.join(part_dir(index_dir, p), "postings.parquet")
             for p in bases}
    old = os.path.join(index_dir, "segments", "shard=00000.parquet")

    def run(fn, *a):   # as the build runs them: Ray tasks
        return ray.get(ray.remote(fn).remote(*a))

    full = run(merge_shard, 0, files, bases, str(tmp_path / "full"))
    assert full.column_names == ["shard", "n_terms", "bytes", "elapsed_s"]
    assert full["elapsed_s"][0].as_py() >= 0
    delta = run(delta_shard, 0, old, {0: files[0]}, bases,
                str(tmp_path / "gen"))
    splice = run(splice_shard, 0, old, {0: files[0]}, bases, bases, set(),
                 str(tmp_path / "splice"))
    for out in (delta, splice):
        assert set(out) == {"n_terms", "bytes", "elapsed_s"}
        assert out["elapsed_s"] >= 0
    # the splice of an unchanged partition rebuilds the same segment file
    assert splice["bytes"] == os.path.getsize(old)
