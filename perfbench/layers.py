"""Per-layer metrics from the spans of a traced run.

Every busy time is SELF time: a span's duration minus the part of it
covered by its child spans, where the children of a driver span include
the worker-process root spans (task bodies) that started inside it.

Values are normalised per operation of the layer's own kind, so runs of
different length compare: build-side layers per ``build_index`` call,
query-side layers per query (inline plus scattered), ``scatter.*`` per
scattered query (task wait and busy per task). Ratios, maxima and
percentiles are not normalised; ``stages.merge.mode_*`` are totals.
A layer idle on a workload reports 0.
"""

from __future__ import annotations

import bisect
import statistics

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("stages.extract.calls", "count"),
    ("stages.extract.rows", "count"),
    ("stages.extract.busy_s", "s"),
    ("stages.partition_build.calls", "count"),
    ("stages.partition_build.rows_in", "count"),
    ("stages.partition_build.docs_out", "count"),
    ("stages.partition_build.busy_s", "s"),
    ("stages.partition_build.part_p50_s", "s"),
    ("stages.partition_build.part_max_s", "s"),
    ("stages.invert.calls", "count"),
    ("stages.invert.postings_rows", "count"),
    ("stages.invert.busy_s", "s"),
    ("stages.merge.calls", "count"),
    ("stages.merge.busy_s", "s"),
    ("stages.merge.shard_max_s", "s"),
    ("stages.merge.bytes_written", "B"),
    ("stages.merge.mode_full", "count"),
    ("stages.merge.mode_delta", "count"),
    ("stages.merge.mode_splice", "count"),
    ("pipelines.build.wall_s", "s"),
    ("pipelines.build.digest_s", "s"),
    ("pipelines.build.finalize_driver_s", "s"),
    ("pipelines.build.ray_residual_s", "s"),
    ("pipelines.build.parts_rebuilt", "count"),
    ("pipelines.build.parts_total", "count"),
    ("pipelines.build.write_bytes_per_input_byte", "ratio"),
    ("functions.filters.parse_busy_s", "s"),
    ("functions.filters.evaluate_busy_s", "s"),
    ("functions.filters.candidates", "count"),
    ("functions.filters.candidates_per_hit", "ratio"),
    ("state.reader.open_s", "s"),
    ("state.reader.load_postings_busy_s", "s"),
    ("state.reader.terms_requested", "count"),
    ("state.reader.postings_hit_ratio", "ratio"),
    ("state.reader.doclens_busy_s", "s"),
    ("state.reader.gather_busy_s", "s"),
    ("state.reader.gather_rows", "count"),
    ("state.reader.domain_mask_busy_s", "s"),
    ("state.segview.reads", "count"),
    ("state.segview.rows_decoded", "count"),
    ("state.segview.busy_s", "s"),
    ("state.segview.overlay_reads", "count"),
    ("state.domain.calls", "count"),
    ("state.domain.busy_s", "s"),
    ("pipelines.search.search_self_s", "s"),
    ("pipelines.search.score_busy_s", "s"),
    ("pipelines.search.scored_docs", "count"),
    ("pipelines.search.prune_calls", "count"),
    ("pipelines.search.topk_busy_s", "s"),
    ("pipelines.search.scatter.tasks", "count"),
    ("pipelines.search.scatter.task_wait_s", "s"),
    ("pipelines.search.scatter.task_busy_s", "s"),
    ("pipelines.search.scatter.merge_s", "s"),
    ("trace.overhead_pct", "%"),
]

BUILD = "pipelines.build:build_index"
SEARCH = "pipelines.search:search"
SCATTER = "pipelines.search:search_scattered"
READER_INIT = "state.reader:__init__"


class Span:
    __slots__ = ("key", "parent", "name", "t0", "t1", "req", "counts",
                 "kids", "self_s")

    def __init__(self, pid: int, row: list):
        sid, parent, self.name, self.t0, self.t1, self.req, counts = row
        self.key = (pid, sid)
        self.parent = (pid, parent) if parent is not None else None
        self.counts = counts or {}
        self.kids: list[Span] = []
        self.self_s = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _covered(lo: float, hi: float, ivs: list[tuple[float, float]]) -> float:
    total, cur = 0.0, lo
    for a, b in sorted(ivs):
        a, b = max(a, cur), min(b, hi)
        if b > a:
            total += b - a
            cur = b
    return total


def build_tree(driver_pid: int, driver_rows: list[list],
               worker_rows: dict[int, list[list]]) -> list[Span]:
    """Link spans into trees, attach worker roots to the driver span they
    started in, drop spans outside any timed request, set self times."""
    spans = [Span(driver_pid, r) for r in driver_rows]
    for pid, rows in worker_rows.items():
        spans.extend(Span(pid, r) for r in rows)
    by_key = {s.key: s for s in spans}
    driver = sorted((s for s in spans if s.key[0] == driver_pid
                     and s.req is not None), key=lambda s: s.t0)
    starts = [s.t0 for s in driver]
    for s in spans:
        if s.parent is not None:
            p = by_key.get(s.parent)
            if p is not None:
                p.kids.append(s)
        elif s.key[0] != driver_pid:
            # innermost containing driver span: the latest-starting one
            # among those that contain s.t0 (driver spans nest properly)
            i = bisect.bisect_right(starts, s.t0) - 1
            while i >= 0 and driver[i].t1 < s.t0:
                i -= 1
            if i >= 0:
                s.parent = driver[i].key
                driver[i].kids.append(s)
    kept: list[Span] = []

    def visit(s: Span, req) -> None:
        s.req = req
        s.self_s = s.dur - _covered(s.t0, s.t1, [(k.t0, k.t1) for k in s.kids])
        kept.append(s)
        for k in s.kids:
            visit(k, req)

    for s in driver:
        if s.parent is None:
            visit(s, s.req)
    return kept


def _scatter_tasks(scatter: Span) -> tuple[list[float], list[float], float]:
    """Rebuild the partition tasks of one scattered query from the worker
    root spans under it: a task starts at the reader open that begins
    every task body and ends with the last root span before that
    process's next task. Returns (waits, busies, merge)."""
    submit = max((k.t1 for k in scatter.kids
                  if k.key[0] == scatter.key[0] and k.name == READER_INIT),
                 default=scatter.t0)
    by_pid: dict[int, list[Span]] = {}
    for k in scatter.kids:
        if k.key[0] != scatter.key[0]:
            by_pid.setdefault(k.key[0], []).append(k)
    waits, busies, last_end = [], [], submit
    for roots in by_pid.values():
        roots.sort(key=lambda s: s.t0)
        task: list[Span] = []
        for r in roots + [None]:
            if task and (r is None or r.name == READER_INIT):
                waits.append(task[0].t0 - submit)
                busies.append(task[-1].t1 - task[0].t0)
                last_end = max(last_end, task[-1].t1)
                task = []
            if r is not None and (task or r.name == READER_INIT):
                task.append(r)
    return waits, busies, scatter.t1 - last_end


def layer_metrics(spans: list[Span], input_bytes: float,
                  overhead_pct: float) -> dict[str, float]:
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def get(name: str) -> list[Span]:
        return by_name.get(name, [])

    def n(*names: str) -> int:
        return sum(len(get(x)) for x in names)

    def self_sum(*names: str) -> float:
        return sum(s.self_s for x in names for s in get(x))

    def cnt(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in get(name))

    def per(v: float, d: float) -> float:
        return v / d if d else 0.0

    B = n(BUILD)
    Q = n(SEARCH, SCATTER)
    S = n(SCATTER)
    ext = "stages.extract:extract_batch"
    part = "stages.partition_build:build_partition"
    inv = "stages.invert:invert_docs"
    merges = ("stages.merge:merge_shard", "stages.merge:delta_shard",
              "stages.merge:splice_shard")
    part_durs = [s.dur for s in get(part)]
    merge_durs = [s.dur for x in merges for s in get(x)]
    modes = [s.counts.get("mode") for s in get(BUILD)]
    written = cnt(part, "bytes") + sum(cnt(x, "bytes") for x in merges)

    # postings cache: a requested term that the reader had to decode shows
    # up as a SegView.postings row under its load_postings span
    by_key = {s.key: s for s in spans}
    misses = 0
    for s in get("state.segview:postings"):
        p = by_key.get(s.parent) if s.parent else None
        while p is not None and p.name != "state.reader:load_postings":
            p = by_key.get(p.parent) if p.parent else None
        if p is not None:
            misses += s.counts.get("rows", 0)
    requested = cnt("state.reader:load_postings", "terms")
    seg = ("state.segview:postings", "state.segview:stats",
           "state.segview:terms")
    hits = cnt(SEARCH, "rows") + cnt(SCATTER, "rows")
    waits, busies, merge_s = [], [], 0.0
    for sc in get(SCATTER):
        w, b, m = _scatter_tasks(sc)
        waits += w
        busies += b
        merge_s += m

    return {
        "stages.extract.calls": per(n(ext), B),
        "stages.extract.rows": per(cnt(ext, "rows"), B),
        "stages.extract.busy_s": per(self_sum(ext), B),
        "stages.partition_build.calls": per(n(part), B),
        "stages.partition_build.rows_in": per(cnt(part, "rows_in"), B),
        "stages.partition_build.docs_out": per(cnt(part, "docs_out"), B),
        "stages.partition_build.busy_s": per(self_sum(part), B),
        "stages.partition_build.part_p50_s":
            statistics.median(part_durs) if part_durs else 0.0,
        "stages.partition_build.part_max_s": max(part_durs, default=0.0),
        "stages.invert.calls": per(n(inv), B),
        "stages.invert.postings_rows": per(cnt(inv, "rows"), B),
        "stages.invert.busy_s": per(self_sum(inv), B),
        "stages.merge.calls": per(n(*merges), B),
        "stages.merge.busy_s": per(self_sum(*merges), B),
        "stages.merge.shard_max_s": max(merge_durs, default=0.0),
        "stages.merge.bytes_written":
            per(sum(cnt(x, "bytes") for x in merges), B),
        "stages.merge.mode_full": modes.count("full"),
        "stages.merge.mode_delta": modes.count("delta"),
        "stages.merge.mode_splice": modes.count("splice"),
        "pipelines.build.wall_s": per(sum(s.dur for s in get(BUILD)), B),
        "pipelines.build.digest_s":
            per(self_sum("pipelines.build:current_input_digests"), B),
        "pipelines.build.finalize_driver_s":
            per(self_sum("pipelines.build:finalize_index"), B),
        "pipelines.build.ray_residual_s": per(self_sum(BUILD), B),
        "pipelines.build.parts_rebuilt": per(cnt(BUILD, "parts_rebuilt"), B),
        "pipelines.build.parts_total":
            max((s.counts.get("parts_total", 0) for s in get(BUILD)), default=0),
        "pipelines.build.write_bytes_per_input_byte":
            per(written, input_bytes) if B else 0.0,
        "functions.filters.parse_busy_s":
            per(self_sum("functions.filters:parse_query"), Q),
        "functions.filters.evaluate_busy_s":
            per(self_sum("functions.filters:evaluate"), Q),
        "functions.filters.candidates":
            per(cnt("functions.filters:evaluate", "rows"), Q),
        "functions.filters.candidates_per_hit":
            per(cnt("functions.filters:evaluate", "rows"), hits),
        "state.reader.open_s": per(sum(s.dur for s in get(READER_INIT)), Q),
        "state.reader.load_postings_busy_s":
            per(self_sum("state.reader:load_postings"), Q),
        "state.reader.terms_requested": per(requested, Q),
        "state.reader.postings_hit_ratio":
            1.0 - per(misses, requested) if requested else 0.0,
        "state.reader.doclens_busy_s": per(self_sum("state.reader:doclens"), Q),
        "state.reader.gather_busy_s":
            per(self_sum("state.reader:gather_docs"), Q),
        "state.reader.gather_rows":
            per(cnt("state.reader:gather_docs", "rows"), Q),
        "state.reader.domain_mask_busy_s":
            per(self_sum("state.reader:domain_mask"), Q),
        "state.segview.reads": per(n(*seg), Q),
        "state.segview.rows_decoded":
            per(cnt("state.segview:postings", "rows"), Q),
        "state.segview.busy_s": per(self_sum(*seg), Q),
        "state.segview.overlay_reads":
            per(sum(cnt(x, "overlay") for x in seg), Q),
        "state.domain.calls": per(n("state.domain:filter_ids"), Q),
        "state.domain.busy_s": per(self_sum("state.domain:filter_ids"), Q),
        "pipelines.search.search_self_s": per(self_sum(SEARCH), n(SEARCH)),
        "pipelines.search.score_busy_s":
            per(self_sum("pipelines.search:score_candidates"), Q),
        "pipelines.search.scored_docs":
            per(cnt("pipelines.search:score_candidates", "rows"), Q),
        "pipelines.search.prune_calls":
            per(n("pipelines.search:topk_pruned"), Q),
        "pipelines.search.topk_busy_s":
            per(self_sum("pipelines.search:topk_order",
                         "pipelines.search:topk_pruned"), Q),
        "pipelines.search.scatter.tasks": per(len(busies), S),
        "pipelines.search.scatter.task_wait_s": per(sum(waits), len(waits)),
        "pipelines.search.scatter.task_busy_s": per(sum(busies), len(busies)),
        "pipelines.search.scatter.merge_s": per(merge_s, S),
        "trace.overhead_pct": overhead_pct,
    }


def request_self_sum(root: Span) -> float:
    """Sum of self times over one request tree (equals the root's
    duration when no two spans of the tree overlap in time)."""
    total, todo = 0.0, [root]
    while todo:
        s = todo.pop()
        total += s.self_s
        todo.extend(s.kids)
    return total
