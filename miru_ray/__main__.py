"""CLI entry points — ``python -m miru_ray <command>``.

Commands mirror the reference's deployables (writer/reader/sync) as batch
invocations:

    build   pages-parquet → index        (miru-writer + rebuild path)
    search  query an index               (miru-reader query path)
    ingest  NDJSON → parquet WAL         (HTTP ingress dual)
    sync    replicate an index           (miru-sync-deployable)
    bench   see bench.py at the repo root

This module owns its Ray session (the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray
    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="miru_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build/resume an inverted index")
    b.add_argument("source", help="pages source file/dir (see --format)")
    b.add_argument("index_dir")
    b.add_argument("--format", default="parquet",
                   choices=("parquet", "wet", "warc"),
                   help="parquet pages table (default), Common Crawl WET "
                        "(extracted text), or WARC (raw html captures)")
    b.add_argument("--num-parts", type=int, default=16)
    b.add_argument("--num-shards", type=int, default=8)
    b.add_argument("--store-text", action="store_true")
    b.add_argument("--verify-inputs", action="store_true",
                   help="sip mode: re-digest input, rebuild changed partitions")
    b.add_argument("--langs", default=None, help="comma-separated lang filter")

    s = sub.add_parser("search", help="BM25 top-k query")
    s.add_argument("index_dir")
    s.add_argument("query")
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--langs", default=None)
    s.add_argument("--scattered", action="store_true",
                   help="per-partition scatter-gather execution")

    i = sub.add_parser("ingest", help="page records → parquet WAL")
    i.add_argument("json_path", metavar="source",
                   help="NDJSON file (default) or WET/WARC file/dir")
    i.add_argument("wal_dir")
    i.add_argument("--format", default="json",
                   choices=("json", "wet", "warc"),
                   help="json: NDJSON records; wet/warc: Common Crawl "
                        "files, converted incrementally (one WAL parquet "
                        "per source file, unchanged sources skipped)")

    y = sub.add_parser("sync", help="replicate an index (durable progress)")
    y.add_argument("src_index")
    y.add_argument("dst_index")

    args = p.parse_args(argv)

    import ray
    if args.cmd == "build":
        _init_ray(args.num_cpus)
        from miru_ray.pipelines.build import BuildConfig, build_index
        cfg = BuildConfig(num_parts=args.num_parts, num_shards=args.num_shards,
                          store_text=args.store_text,
                          verify_inputs=args.verify_inputs,
                          langs=args.langs.split(",") if args.langs else None)
        src = args.source
        if args.format == "wet":
            from miru_ray.sources.wet import read_wet
            src = read_wet(src)
        elif args.format == "warc":
            from miru_ray.sources.wet import read_warc
            src = read_warc(src)
        meta = build_index(src, args.index_dir, cfg)
        print(json.dumps({k: meta[k] for k in
                          ("n_docs", "n_terms", "avgdl", "segment_bytes",
                           "partition_bytes", "skipped_parts", "phase_sec")
                          if k in meta}))
        ray.shutdown()
    elif args.cmd == "search":
        _init_ray(args.num_cpus)
        from miru_ray.pipelines.search import search, search_scattered
        from miru_ray.state.reader import IndexReader
        langs = args.langs.split(",") if args.langs else None
        if args.scattered:
            hits = search_scattered(args.index_dir, args.query, args.k,
                                    langs=langs)
        else:
            hits = search(IndexReader(args.index_dir), args.query, args.k,
                          langs=langs)
        for row in hits.to_pylist():
            row["warc_ts"] = str(row["warc_ts"])
            print(json.dumps(row))
        ray.shutdown()
    elif args.cmd == "ingest":
        _init_ray(args.num_cpus)
        if args.format in ("wet", "warc"):
            from miru_ray.sources.ingest import ingest_wet_to_wal
            out = ingest_wet_to_wal(args.json_path, args.wal_dir,
                                    fmt=args.format)
            print(json.dumps({**out, "wal_dir": args.wal_dir}))
        else:
            from miru_ray.sources.ingest import ingest_json_to_wal
            n = ingest_json_to_wal(args.json_path, args.wal_dir)
            print(json.dumps({"rows": n, "wal_dir": args.wal_dir}))
        ray.shutdown()
    elif args.cmd == "sync":
        from miru_ray.state.sync import sync_index
        print(json.dumps(sync_index(args.src_index, args.dst_index)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
