"""The two workloads: query and ingest.

Each runs in one driver process against a local Ray sized to the host
(``num_cpus`` = usable CPUs), closed loop with one client: the next
operation starts when the previous one returns. A workload sets up
``setup_reps`` times (the first pays Ray worker start-up and imports),
then runs timed phases for shares of ``--seconds``; a phase keeps going
past its share until it reached its minimum operation count (the ingest
sips are a count fixed by ``--seconds``). With
tracing on, every second operation of a phase is traced; per-layer
metrics come from the traced operations, and the ratio of the traced to
the untraced median of the workload's primary operation is reported as
``trace.overhead_pct``.

End-to-end metrics carry one meaning per workload:

====================  ======================  =====================
metric                query                   ingest
====================  ======================  =====================
op_p50_ms             one inline search       one sip (append to
                                              committed)
op_tail_ms (record)   inline p99              warm overlay-reader p99
throughput_per_s      inline queries / s      docs appended / s
read_p50_ms           scattered search        first queries on
                                              the fresh reader
read_tail_ms (record) scattered p90           same, p90
warm_read_p50_ms      never-seen title token  warm overlay-reader
(record)              (postings-cache miss)   stream
index_bytes_per_doc   query index             index after the sips
====================  ======================  =====================

``setup_s`` (median of the set-ups) and ``driver_peak_rss_mb`` apply to
both. The ingest set-up is a cold full build of the base index, so the
full-build path (extract, shuffle, partition build, invert, full merge)
is timed by its ``setup_s``; the sips run the same layers on the delta
path.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from perfbench import checks, inputs, layers, trace

# the metrics BENCHMARK.json bounds; op_tail_ms, read_tail_ms and
# warm_read_p50_ms stay in the full record only: on a shared host their
# run-to-run spread exceeds any bound the benchmark may set
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("index_bytes_per_doc", "B"),
    ("driver_peak_rss_mb", "MB"),
]


@dataclass(frozen=True)
class Sizes:
    query_pages: int = 2000
    query_parts: int = 4
    ingest_base: int = 2000
    ingest_parts: int = 8
    sip_pages: int = 80
    shards: int = 2
    rows_per_file: int = 1000
    setup_reps: int = 3
    warmup_queries: int = 100
    inline_per_scatter: int = 30
    min_rounds: int = 100
    min_sips: int = 6
    sip_budget_s: float = 3.0
    min_overlay: int = 500


# the self-test's size: seconds per run, every path still exercised
TINY = replace(Sizes(), query_pages=1000, ingest_base=1000, sip_pages=40,
               rows_per_file=500, setup_reps=2, warmup_queries=20,
               inline_per_scatter=8, min_rounds=6, min_sips=2,
               min_overlay=20)

# Ray settings pinned for every run, whatever the caller's environment:
# no usage reporting, no progress bars, and no memory monitor killing
# workers because of other tenants of a shared host
RAY_ENV = {"RAY_USAGE_STATS_ENABLED": "0",
           "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
           "RAY_memory_monitor_refresh_ms": "0"}
OBJECT_STORE_BYTES = 512 * 1024 * 1024


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(q / 100 * len(v)) - 1)]


def nproc() -> int:
    """CPUs available to this process, as GNU ``nproc`` counts them: the
    affinity mask, overridden by OMP_NUM_THREADS, capped by
    OMP_THREAD_LIMIT."""
    n = len(os.sched_getaffinity(0))
    for var, pick in (("OMP_NUM_THREADS", lambda v: v), ("OMP_THREAD_LIMIT",
                                                           lambda v: min(n, v))):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = pick(int(v))
    return n


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


class Run:
    """State of one benchmark run: work directory, Ray session, tracer,
    latencies per stream and the attempted/failed counts."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 traced: bool, sizes: Sizes, corrupt: bool = False):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.sizes = sizes
        self.corrupt = corrupt   # self-test: falsify one answer before checking
        self.dir = os.path.join(root, ".bench_run", f"{workload}-{os.getpid()}")
        self.span_dir = os.path.join(self.dir, "spans")
        self.flag = os.path.join(self.dir, "trace_on")
        self.lat: dict[str, list[float]] = {}
        self.primary_split: dict[bool, list[float]] = {False: [], True: []}
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.input_bytes = 0.0
        self.tracer: trace.Tracer | None = None
        self.ray_tmp: str | None = None
        self._req = 0

    # -------------------------------------------------------------- ray

    def start(self) -> None:
        import ray
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.span_dir)
        # Ray workers import the program (and, traced, the hook) from
        # the checkout root
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [self.root] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p and p != self.root])
        os.environ.update(RAY_ENV)
        # this process and every Ray process it starts stay on nproc CPUs:
        # spread over more, their round trips wait on cross-CPU wake-ups,
        # which on a shared host drift run to run
        n = nproc()
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:n])
        kw: dict = dict(address="local", num_cpus=n,
                        object_store_memory=OBJECT_STORE_BYTES,
                        include_dashboard=False, logging_level="ERROR",
                        log_to_driver=False)
        # a session directory of this run's own, never a shared one that
        # another user may own: inside the checkout when Ray's unix socket
        # paths (about 64 bytes past it) stay under 108 bytes
        self.ray_tmp = os.path.join(self.dir, "ray")
        if len(self.ray_tmp) > 40:
            self.ray_tmp = tempfile.mkdtemp(prefix="perfbench-ray-")
        kw["_temp_dir"] = self.ray_tmp
        if self.traced:
            os.environ[trace.SPAN_DIR_ENV] = self.span_dir
            os.environ[trace.TRACE_FLAG_ENV] = self.flag
            kw["runtime_env"] = {
                "worker_process_setup_hook": "perfbench.trace.install_worker"}
            self.tracer = trace.install_driver()
        ray.init(**kw)
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        import ray
        ray.shutdown()
        if self.tracer is not None:
            self.tracer.uninstall()
        if self.ray_tmp is not None:
            shutil.rmtree(self.ray_tmp, ignore_errors=True)
        shutil.rmtree(self.dir, ignore_errors=True)

    # ----------------------------------------------------------- timing

    def setup(self, fn) -> None:
        for i in range(self.sizes.setup_reps):
            t0 = time.perf_counter()
            fn(i)
            self.setup_times.append(time.perf_counter() - t0)

    def _set_tracing(self, on: bool) -> None:
        if self.tracer is None or on == self.tracer.enabled:
            return
        self.tracer.enabled = on
        if on:
            open(self.flag, "w").close()
        elif os.path.exists(self.flag):
            os.remove(self.flag)

    def timed(self, stream: str, fn):
        """Time one call; returns its result. Latencies are kept per
        stream, in ms."""
        t0 = time.perf_counter()
        out = fn()
        self.lat.setdefault(stream, []).append(
            (time.perf_counter() - t0) * 1000)
        return out

    def phase(self, share: float, min_ops: int, op, primary: str | None = None):
        """Closed loop over ``op`` for ``share`` of the run's seconds and
        at least ``min_ops`` operations. Traced runs trace every second
        operation, so both halves see the same conditions."""
        end = time.perf_counter() + self.seconds * share
        done = 0
        while done < min_ops or time.perf_counter() < end:
            on = self.tracer is not None and done % 2 == 1
            self._set_tracing(on)
            self._req += 1
            if self.tracer is not None:
                self.tracer.request = self._req if on else None
            n0 = len(self.lat.get(primary, ())) if primary else 0
            op()
            if primary:
                self.primary_split[on].extend(self.lat[primary][n0:])
            done += 1
        self._set_tracing(False)
        if self.tracer is not None:
            self.tracer.request = None

    def add_input_bytes(self, n: int) -> None:
        """Input bytes of a build, counted where its spans are."""
        if self.tracer is not None and self.tracer.enabled:
            self.input_bytes += n

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    # ---------------------------------------------------------- results

    def end_to_end(self, op: str, tail: str, read: str, warm: str,
                   tail_q: float, read_q: float, throughput: float,
                   index_bytes_per_doc: float) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_times),
            "op_p50_ms": statistics.median(self.lat[op]),
            "op_tail_ms": pct(self.lat[tail], tail_q),
            "throughput_per_s": throughput,
            "read_p50_ms": statistics.median(self.lat[read]),
            "read_tail_ms": pct(self.lat[read], read_q),
            "warm_read_p50_ms": statistics.median(self.lat[warm]),
            "index_bytes_per_doc": index_bytes_per_doc,
            "driver_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        spans = layers.build_tree(self.tracer.pid, self.tracer.spans,
                                  trace.load_worker_spans(self.span_dir))
        split = self.primary_split
        overhead = ((statistics.median(split[True])
                     / statistics.median(split[False]) - 1) * 100
                    if split[True] and split[False] else 0.0)
        self.spans = spans
        return layers.layer_metrics(spans, self.input_bytes, overhead)


# ------------------------------------------------------------ workloads


def _build_cfg(**kw):
    from miru_ray.pipelines.build import BuildConfig
    return BuildConfig(**kw)


def run_query(run: Run) -> dict[str, float]:
    """Inline and scattered search over one hash-mode index."""
    from miru_ray.oracle import OracleIndex
    from miru_ray.pipelines.build import build_index
    from miru_ray.pipelines.search import search, search_scattered
    from miru_ray.state.reader import IndexReader
    sz = run.sizes
    table = inputs.pages(run.seed, 0, sz.query_pages)
    src = os.path.join(run.dir, "pages")
    inputs.write_files(table, src, sz.rows_per_file)
    cfg = _build_cfg(num_parts=sz.query_parts, num_shards=sz.shards,
                     store_text=True)
    titles = inputs.title_pool(sz.query_pages, run.seed)
    n_warm_titles = sz.warmup_queries
    phrases = inputs.phrase_pool(table, run.seed)
    state: dict = {}

    def setup(i: int) -> None:
        d = os.path.join(run.dir, f"idx{i}")
        build_index(src, d, cfg)
        reader = IndexReader(d)
        warm = inputs.QueryStream(table, run.seed, inputs.WARMUP,
                                  titles[:n_warm_titles], phrases)
        for q in warm.vocabulary() + [warm.next()
                                      for _ in range(sz.warmup_queries)]:
            search(reader, q["q"], checks.K, q["time_range"], q["langs"])
        if "dir" in state:
            shutil.rmtree(state["dir"])
        state.update(dir=d, reader=reader)

    run.setup(setup)
    d, reader = state["dir"], state["reader"]
    pool = titles[n_warm_titles:]
    inline = inputs.QueryStream(table, run.seed, inputs.TIMED, pool, phrases)
    scatter = inputs.QueryStream(table, run.seed, inputs.SCATTER, pool,
                                 phrases, drop=("time", "lang"))
    done: list[tuple[dict, object]] = []
    scattered: list[tuple[dict, object]] = []

    def one_round() -> None:
        # one scattered query, then inline ones: both streams sample the
        # whole run, over which scatter-task latency drifts by tens of
        # percent within one Ray session
        q = scatter.next()
        hits = run.timed("scatter",
                         lambda: search_scattered(d, q["q"], checks.K))
        scattered.append((q, checks.topk_pairs(hits)))
        for _ in range(sz.inline_per_scatter):
            q = inline.next()
            hits = run.timed("inline", lambda: search(
                reader, q["q"], checks.K, q["time_range"], q["langs"]))
            if q["kind"] == "title":
                run.lat.setdefault("title", []).append(run.lat["inline"][-1])
            done.append((q, checks.topk_pairs(hits)))

    run.phase(1.0, sz.min_rounds, one_round, primary="inline")
    inline_s = sum(run.lat["inline"]) / 1000

    if run.corrupt:   # one ulp off the first non-empty top score
        i = next(i for i, (_, got) in enumerate(done) if len(got[1]))
        ids, scores, urls = done[i][1]
        scores = scores.copy()
        scores[0] = np.nextafter(scores[0], np.inf)
        done[i] = (done[i][0], (ids, scores, urls))
    oracle = OracleIndex(table, num_parts=sz.query_parts)
    cache: dict = {}

    def want(q: dict):
        key = (q["q"], q["time_range"], tuple(q["langs"] or ()))
        if key not in cache:
            cache[key] = checks.oracle_search(oracle, q)
        return cache[key]

    for q, got in done:
        run.check(checks.same_topk(got, want(q)))
    for q, got in scattered:
        inl = checks.topk_pairs(search(reader, q["q"], checks.K))
        run.check(checks.same_topk(got, inl)
                  and checks.same_topk(got, want(q)))
    return run.end_to_end("inline", "inline", "scatter", "title", 99, 90,
                          len(run.lat["inline"]) / inline_s,
                          dir_bytes(d) / reader.n_docs)


def run_ingest(run: Run) -> dict[str, float]:
    """Sips of later-ts pages into a time_range index, each followed by
    queries through a fresh reader; a warm overlay-reader stream closes."""
    from miru_ray.oracle import OracleIndex
    from miru_ray.pipelines.build import build_index
    from miru_ray.pipelines.search import search
    from miru_ray.sources.fixtures import NEEDLES
    from miru_ray.state.reader import IndexReader
    import pyarrow as pa
    import pyarrow.compute as pc
    sz = run.sizes
    base = inputs.pages(run.seed, 0, sz.ingest_base, unique_urls=True)
    ts = base["warc_ts"].cast(pa.int64())
    lo, hi = pc.min(ts).as_py(), pc.max(ts).as_py()
    # pinned bounds with headroom: the base fills the first half of the
    # time partitions, sips land in the second half
    cfg = _build_cfg(num_parts=sz.ingest_parts, num_shards=sz.shards,
                     partition_mode="time_range",
                     time_bounds=(lo, lo + 2 * (hi - lo)),
                     store_text=True, verify_inputs=True)
    state: dict = {}

    def setup(i: int) -> None:
        src = os.path.join(run.dir, f"pages{i}")
        d = os.path.join(run.dir, f"idx{i}")
        inputs.write_files(base, src, sz.rows_per_file)
        n_docs = build_index(src, d, cfg)["n_docs"]
        for k in ("src", "dir"):
            if k in state:
                shutil.rmtree(state[k])
        state.update(src=src, dir=d, n_docs=n_docs)

    run.setup(setup)
    src, d = state["src"], state["dir"]
    # the cold base build: its document count and planted needle dfs exact
    oracle = OracleIndex(base, num_parts=sz.ingest_parts)
    needles = sorted(NEEDLES.values())
    stats = IndexReader(d).term_stats(needles)
    run.check(state["n_docs"] == oracle.n_docs)
    run.check(all(stats.get(w, (0, 0))[0] == oracle.df(w) for w in needles))
    batches: list = []
    fresh: list[tuple[int, dict, object]] = []
    metas: list[int] = []

    def one_sip() -> None:
        s = len(batches)
        lo_row = sz.ingest_base + s * sz.sip_pages
        batch = inputs.pages(run.seed, lo_row, lo_row + sz.sip_pages,
                             unique_urls=True)
        batches.append(batch)

        def append_and_commit():
            run.add_input_bytes(inputs.write_files(
                batch, src, sz.sip_pages, prefix=f"sip{s:05d}"))
            return build_index(src, d, cfg)

        meta = run.timed("sip", append_and_commit)
        metas.append(meta["n_docs"])
        bts = batch["warc_ts"].cast(pa.int64())
        queries = [f"t{lo_row:08d}", "w00001", "w00250", "w00002 w00300",
                   "w00003", f"t{lo_row + 1:08d}", "w00004 w00150",
                   "w00120 -w00001", "w00010", "w00130 OR w00140",
                   "w00005"] + inputs.phrase_pool(batch, run.seed + s, 1)
        ranges = [None] * 4 + [(pc.min(bts).as_py(), pc.max(bts).as_py() + 1)
                               ] + [None] * 5 + [(lo, hi + 1), None]
        holder: list = []
        for qs, tr in zip(queries, ranges):
            def q(qs=qs, tr=tr):
                if not holder:
                    holder.append(IndexReader(d))
                return search(holder[0], qs, checks.K, tr)
            hits = run.timed("fresh", q)
            fresh.append((s, {"q": qs, "time_range": tr, "langs": None},
                          (hits["url"].to_pylist(), hits["score"].to_numpy())))
        state["reader"] = holder[0]

    # a fixed number of sips for the run length: each sip adds a delta
    # the next one merges over, so a count that followed the host's speed
    # would move the sip latency with it
    n_sips = max(sz.min_sips, round(run.seconds * 0.8 / sz.sip_budget_s))
    run.phase(0.0, n_sips, one_sip, primary="sip")
    cumulative = pa.concat_tables([base] + batches)
    stream = inputs.QueryStream(
        cumulative, run.seed, inputs.OVERLAY,
        inputs.title_pool(sz.ingest_base, run.seed), inputs.phrase_pool(
            cumulative, run.seed), drop=("prefix", "title", "phrase"))
    for q in stream.vocabulary():   # untimed: fill the overlay reader's caches
        search(state["reader"], q["q"], checks.K, q["time_range"], q["langs"])
    overlay: list = []

    def one_overlay() -> None:
        q = stream.next()
        hits = run.timed("overlay", lambda: search(
            state["reader"], q["q"], checks.K, q["time_range"], q["langs"]))
        overlay.append((q, (hits["url"].to_pylist(), hits["score"].to_numpy())))

    run.phase(0.2, sz.min_overlay, one_overlay)

    def check_against(oracle, answers) -> None:
        for q, (urls, scores) in answers:
            ids, ws = checks.oracle_search(oracle, q, checks.K + 50)
            run.check(checks.same_url_scores(urls, scores, oracle, ids, ws))

    # an oracle over the cumulative input after each sip
    for s, n_docs in enumerate(metas):
        oracle = OracleIndex(pa.concat_tables([base] + batches[:s + 1]),
                             num_parts=sz.ingest_parts)
        run.check(n_docs == oracle.n_docs)
        check_against(oracle, [(q, got) for s2, q, got in fresh if s2 == s])
    check_against(oracle, overlay)
    return run.end_to_end("sip", "overlay", "fresh", "overlay", 99, 90,
                          sum(b.num_rows for b in batches)
                          / (sum(run.lat["sip"]) / 1000),
                          dir_bytes(d) / state["reader"].n_docs)


WORKLOADS = {"query": run_query, "ingest": run_ingest}


def environment(root: str) -> dict:
    import numpy
    import pyarrow
    import ray
    try:
        sha = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=20,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": nproc(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
            "python": sys.version.split()[0], "git_sha": sha}


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 traced: bool, sizes: Sizes = Sizes(),
                 corrupt: bool = False) -> dict:
    """Run one workload; returns the full result record, with the Run
    itself under "run"."""
    run = Run(root, workload, seed, seconds, traced, sizes, corrupt)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), **environment(root)}
    try:
        run.start()
        from miru_ray.functions.runtime import mem_bw_gbps
        # the bus covariate, sampled before any timed window
        record["bus_gbps"] = mem_bw_gbps()
        e2e = WORKLOADS[workload](run)
        if traced:
            metrics = run.per_layer()
            units = dict(layers.PER_LAYER)
            record["spans"] = len(run.spans)
        else:
            metrics = {k: e2e[k] for k, _ in END_TO_END}
            units = dict(END_TO_END)
        record.update(
            correct=run.failed == 0, attempted=run.attempted,
            failed=run.failed,
            metrics={k: {"value": float(v), "unit": units[k]}
                     for k, v in metrics.items()},
            end_to_end=e2e, counts={k: len(v) for k, v in run.lat.items()},
            error_rate=run.failed / max(run.attempted, 1),
            setup_runs_s=run.setup_times)
        record["run"] = run
        return record
    finally:
        run.stop()


def result_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in
                       ("correct", "attempted", "failed", "metrics")})
