"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at the TINY sizes, untraced and traced, against a
one-CPU Ray (tasks then run one at a time, so no two spans of a request
overlap), and checks that

- every metric BENCHMARK.json names is emitted, with its unit, as a
  finite number (end-to-end metrics also non-zero);
- the checker rejects a top-k the benchmark falsified on purpose (one
  ulp off a score in the query workload; a wrong url and a wrong score
  for the (url, score) check), and accepts the unaltered answers;
- per-layer self times plus ``pipelines.build.ray_residual_s`` sum to
  the traced build wall, and every traced request's self times sum to
  its duration.

Exits 0 when all hold; prints each failed check otherwise.
"""

from __future__ import annotations

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILD_LAYERS = ["stages.extract.busy_s", "stages.partition_build.busy_s",
                "stages.invert.busy_s", "stages.merge.busy_s",
                "pipelines.build.digest_s", "pipelines.build.finalize_driver_s",
                "pipelines.build.ray_residual_s"]


def main() -> int:
    sys.path[0] = ROOT
    os.environ["OMP_NUM_THREADS"] = "1"   # nproc() -> one Ray CPU
    import numpy as np

    from perfbench import checks, compare, inputs, layers
    from perfbench.workloads import TINY, run_workload
    sp = compare.spec()
    errors: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            errors.append(what)
            print("FAIL", what, flush=True)

    for w in ("query", "ingest"):
        for traced in (False, True):
            corrupt = w == "query" and not traced
            rec = run_workload(ROOT, w, 7, 1.0, traced, TINY, corrupt=corrupt)
            want = sp["per_layer"] if traced else sp["end_to_end"]
            for m in want:
                got = rec["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and math.isfinite(got["value"])
                       and (traced or got["value"] != 0),
                       f"{w} trace={int(traced)}: {m['name']} -> {got}")
            expect(set(rec["metrics"]) == {m["name"] for m in want},
                   f"{w}: extra metrics {set(rec['metrics']) - {m['name'] for m in want}}")
            if corrupt:
                expect(rec["failed"] == 1 and not rec["correct"],
                       f"query: falsified top-k not rejected "
                       f"(failed={rec['failed']})")
            else:
                expect(rec["correct"] and rec["failed"] == 0,
                       f"{w} trace={int(traced)}: {rec['failed']} checks failed")
            if traced:
                m = {k: v["value"] for k, v in rec["metrics"].items()}
                if m["pipelines.build.wall_s"]:
                    parts = sum(m[k] for k in BUILD_LAYERS)
                    expect(abs(parts - m["pipelines.build.wall_s"])
                           <= 1e-6 + 1e-3 * m["pipelines.build.wall_s"],
                           f"{w}: layers {parts} != build wall "
                           f"{m['pipelines.build.wall_s']}")
                for s in rec["run"].spans:
                    if s.parent is None:
                        total = layers.request_self_sum(s)
                        expect(abs(total - s.dur) <= 1e-6 + 1e-3 * s.dur,
                               f"{w}: request {s.req} {s.name} self sum "
                               f"{total} != {s.dur}")

    # the (url, score) check used where docIDs differ from the oracle's
    from miru_ray.oracle import OracleIndex
    table = inputs.pages(7, 0, 1000)
    oracle = OracleIndex(table, num_parts=4)
    ids, scores = oracle.search("w00001", checks.K + 50)
    urls = [oracle.docs[int(d)][1] for d in ids[:checks.K]]
    ok = checks.same_url_scores(urls, scores[:checks.K], oracle, ids, scores)
    expect(ok, "url/score check rejects the oracle's own answer")
    bad_scores = scores[:checks.K].copy()
    bad_scores[3] = np.nextafter(bad_scores[3], -np.inf)
    expect(not checks.same_url_scores(urls, bad_scores, oracle, ids, scores),
           "url/score check accepts a falsified score")
    expect(not checks.same_url_scores(urls[:2] + ["https://x.example/"]
                                      + urls[3:], scores[:checks.K], oracle,
                                      ids, scores),
           "url/score check accepts a falsified url")
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
