"""Spans recorded around calls into miru_ray, from outside the package.

``install(tracer)`` replaces each public function or method named in
``LAYERS`` by a wrapper that records a span: name, start, end, parent
span, request id and a few counts read from the call's arguments and
result. The original object is rebound under every name a ``miru_ray``
module holds it by, so calls through ``from x import f`` bindings are
seen too (the brute-force oracle keeps the originals: it is the
reference, not a layer).

The same wrappers run inside Ray worker processes through the
``worker_process_setup_hook`` (``install_worker``). A wrapper keeps
``functools.wraps`` metadata, and the defining module's attribute IS the
wrapper, so cloudpickle ships a wrapped function by reference and the
worker resolves it to its own wrapper.

Spans live in memory. The driver keeps its own until the run ends; a
worker appends its buffer to ``spans-<pid>.jsonl`` when a root span
(a task body) closes, because Ray may kill an idle worker without
running exit handlers. Worker spans carry no request id: analysis
attaches each worker root span to the innermost driver span that
contains its start (``time.perf_counter`` is CLOCK_MONOTONIC, shared by
every process of the host).
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import sys
import threading
import time

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
TRACE_FLAG_ENV = "PERFBENCH_TRACE_FLAG"


def _rows(out) -> int:
    return int(getattr(out, "num_rows", 0) or 0)


def _count_merge_bytes(a, kw, out) -> dict:
    # merge_shard returns one row per shard with the written file size
    return {"bytes": int(sum(out["bytes"].to_pylist()))}


def _count_delta_bytes(a, kw, out) -> dict:
    # delta_shard reports base + overlay size; only the overlay is new
    old_file = kw.get("old_file", a[1] if len(a) > 1 else None)
    return {"bytes": int(out["bytes"]) - os.path.getsize(old_file)}


def _count_splice_bytes(a, kw, out) -> dict:
    return {"bytes": int(out["bytes"])}


def _count_partition(a, kw, out) -> dict:
    from miru_ray.state.layout import part_dir
    part = int(out["part"].iloc[0])
    pdir = part_dir(kw["index_dir"], part)
    written = sum(e.stat().st_size for e in os.scandir(pdir) if e.is_file())
    return {"rows_in": len(a[0]), "docs_out": int(out["n_docs"].iloc[0]),
            "bytes": int(written)}


def _count_build(a, kw, out) -> dict:
    ps = out.get("phase_sec") or {}
    return {"mode": ps.get("merge_mode", "none"),
            "parts_total": int(out.get("num_parts", 0)),
            "parts_rebuilt": int(out.get("num_parts", 0))
            - len(out.get("skipped_parts") or [])}


def _arg(a, kw, i, name):
    return kw[name] if name in kw else a[i]


# (layer, module, attribute, counter). The counter maps (args, kwargs,
# result) to a dict of counts stored on the span.
LAYERS = [
    ("stages.extract", "miru_ray.stages.extract", "extract_batch",
     lambda a, kw, out: {"rows": _rows(out)}),
    ("stages.partition_build", "miru_ray.stages.partition_build",
     "build_partition", _count_partition),
    ("stages.invert", "miru_ray.stages.invert", "invert_docs",
     lambda a, kw, out: {"rows": _rows(out[0])}),
    ("stages.merge", "miru_ray.stages.merge", "merge_shard",
     _count_merge_bytes),
    ("stages.merge", "miru_ray.stages.merge", "delta_shard",
     _count_delta_bytes),
    ("stages.merge", "miru_ray.stages.merge", "splice_shard",
     _count_splice_bytes),
    ("pipelines.build", "miru_ray.pipelines.build", "build_index",
     _count_build),
    ("pipelines.build", "miru_ray.pipelines.build", "current_input_digests",
     None),
    ("pipelines.build", "miru_ray.pipelines.build", "finalize_index", None),
    ("functions.filters", "miru_ray.functions.filters", "parse_query", None),
    ("functions.filters", "miru_ray.functions.filters", "evaluate",
     lambda a, kw, out: {"rows": len(out)}),
    ("state.reader", "miru_ray.state.reader", "IndexReader.__init__", None),
    ("state.reader", "miru_ray.state.reader", "IndexReader.load_postings",
     lambda a, kw, out: {"terms": len(_arg(a, kw, 1, "terms"))}),
    ("state.reader", "miru_ray.state.reader", "IndexReader.doclens", None),
    ("state.reader", "miru_ray.state.reader", "IndexReader.gather_docs",
     lambda a, kw, out: {"rows": len(_arg(a, kw, 1, "doc_ids"))}),
    ("state.reader", "miru_ray.state.reader", "IndexReader.domain_mask", None),
    ("state.segview", "miru_ray.state.segview", "SegView.postings",
     lambda a, kw, out: {"rows": len(out), "overlay": int(bool(a[0].gen_files))}),
    ("state.segview", "miru_ray.state.segview", "SegView.stats",
     lambda a, kw, out: {"overlay": int(bool(a[0].gen_files))}),
    ("state.segview", "miru_ray.state.segview", "SegView.terms",
     lambda a, kw, out: {"overlay": int(bool(a[0].gen_files))}),
    ("state.domain", "miru_ray.state.domain", "DomainMask.filter_ids", None),
    ("pipelines.search", "miru_ray.pipelines.search", "search",
     lambda a, kw, out: {"rows": _rows(out)}),
    ("pipelines.search", "miru_ray.pipelines.search", "score_candidates",
     lambda a, kw, out: {"rows": len(_arg(a, kw, 2, "candidates"))}),
    ("pipelines.search", "miru_ray.pipelines.search", "topk_pruned", None),
    ("pipelines.search", "miru_ray.pipelines.search", "search_scattered",
     lambda a, kw, out: {"rows": _rows(out)}),
    ("pipelines.search", "miru_ray.functions.bm25", "topk_order", None),
]

# modules whose bindings stay untouched: the oracle is the reference the
# checker compares against, never a measured layer
_KEEP_ORIGINAL = {"miru_ray.oracle"}


class Tracer:
    """Span store of one process. In the driver, ``enabled`` and
    ``request`` are set by the workload around each timed operation. In
    a worker, a root span records only while the flag file exists (the
    driver creates it for the traced half of each phase)."""

    def __init__(self, span_dir: str | None = None,
                 flag_path: str | None = None):
        self.pid = os.getpid()
        self.spans: list[list] = []   # [sid, parent, name, t0, t1, req, counts]
        self.enabled = span_dir is None
        self.request: int | None = None
        self._span_dir = span_dir
        self._flag = flag_path
        self._local = threading.local()
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **kw):
            st = tracer._stack()
            if not st and tracer._flag is not None:
                tracer.enabled = os.path.exists(tracer._flag)
            if not tracer.enabled:
                return fn(*a, **kw)
            sid = tracer._next
            tracer._next += 1
            span = [sid, st[-1][0] if st else None, name, 0.0, 0.0,
                    tracer.request, None]
            st.append(span)
            span[3] = time.perf_counter()
            try:
                out = fn(*a, **kw)
            finally:
                span[4] = time.perf_counter()
                st.pop()
                tracer.spans.append(span)
            if count is not None:
                span[6] = count(a, kw, out)
            if not st and tracer._span_dir is not None:
                tracer.flush()
            return out

        return traced

    def flush(self) -> None:
        """Append this process's buffered spans to its span file."""
        if not self.spans:
            return
        path = os.path.join(self._span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
        self.spans = []

    def install(self) -> None:
        for layer, mod_name, attr, count in LAYERS:
            mod = importlib.import_module(mod_name)
            name = f"{layer}:{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._undo.append((owner, meth, orig))
                setattr(owner, meth, self.wrap(name, orig, count))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, count)
            for m_name, m in list(sys.modules.items()):
                if (m is None or not m_name.startswith("miru_ray")
                        or m_name in _KEEP_ORIGINAL):
                    continue
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._undo.append((m, k, orig))
                        setattr(m, k, wrapped)

    def uninstall(self) -> None:
        for owner, k, orig in reversed(self._undo):
            setattr(owner, k, orig)
        self._undo = []


def _import_program() -> None:
    # every module that binds a wrapped name must be loaded before
    # install() rebinds, or a later import would capture the original
    for m in ("miru_ray.pipelines.build", "miru_ray.pipelines.search",
              "miru_ray.oracle"):
        importlib.import_module(m)


def install_driver() -> Tracer:
    _import_program()
    t = Tracer()
    t.enabled = False
    t.install()
    return t


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: wrap the layers in this worker."""
    _import_program()
    Tracer(os.environ[SPAN_DIR_ENV], os.environ[TRACE_FLAG_ENV]).install()


def load_worker_spans(span_dir: str) -> dict[int, list[list]]:
    out: dict[int, list[list]] = {}
    for path in glob.glob(os.path.join(span_dir, "spans-*.jsonl")):
        pid = int(os.path.basename(path)[6:-6])
        with open(path) as f:
            out.setdefault(pid, []).extend(json.loads(line) for line in f)
    return out
