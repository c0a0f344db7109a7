"""Curation entries finish on a Ray cluster with ONE logical CPU, and no
finished entry keeps that CPU from the next one.

A stage that holds a CPU while its upstream still streams (a fixed or
autoscaling actor pool whose first actor takes the only CPU) starves the
read and sort tasks feeding it, and the query never returns. An idle pool
actor also keeps its CPU until the driver's cyclic GC collects the
finished dataset, so the NEXT entry waits for it. Stateless stages
therefore run as plain ``map_batches`` tasks; the one pool left,
``BatchSearcher``, holds a warm ``IndexReader``. This test runs
``tools/check_oracle.py`` in a subprocess with ``RAY_GRAFT_CPUS=1`` (it
starts its own local cluster beside the session's) on every entry that
runs a verify task or a former pool stage, checks each answer against
its DuckDB oracle, and bounds ``cf_recommend``'s time right after each
former pool entry.
"""

from __future__ import annotations

import ast
import glob
import os
import re
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.01"
TIME_LIMIT_S = 300
# cf_recommend alone takes ~2 s under 1 CPU; behind a former pool entry
# whose idle actor still held the CPU it took 8.7-18.9 s
FOLLOWER_LIMIT_S = 6.0

ENTRIES = [
    # stateless verify / lang-id tasks
    "lang_id", "ngram_jaccard_pairs", "ngram_jaccard_prefix",
    "dedup_clusters", "dedup_keep_one", "embedding_near_dups_lsh",
    "minhash_near_dups",
    # the former actor-pool stages, now tasks; cf_recommend right after
    # four of them times how soon the only CPU is free again
    "embedding_near_dups", "cf_recommend", "embedding_dedup_clusters",
    "image_features", "cf_recommend", "video_frame_sample",
    "audio_features", "cf_recommend", "container_metadata", "cf_recommend",
]

# direction 2 of ROADMAP.md replaces BatchSearcher with partition-owner
# actors; this entry goes with it
POOL_CLASSES_ALLOWED = {"BatchSearcher"}


def test_curation_entries_finish_under_one_cpu():
    env = dict(os.environ, RAY_GRAFT_CPUS="1")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "tools", "check_oracle.py"),
         SF, *ENTRIES],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        done = [ln for ln in out.splitlines()
                if ln.startswith(("PASS", "rows-only", "FAIL", "ERROR"))]
        pytest.fail(f"no answer within {TIME_LIMIT_S} s under 1 CPU; "
                    f"finished before the hang: {done}")
    assert "Ray CPUs: 1.0" in out, out[-4000:]   # the tool honoured the env
    assert proc.returncode == 0, out[-4000:]
    assert "FAILS: []" in out, out[-4000:]
    follower_s = [float(s) for s in re.findall(
        r"^(?:PASS|rows-only) cf_recommend: .*\((\d+\.\d+)s\)$", out, re.M)]
    assert len(follower_s) == ENTRIES.count("cf_recommend"), out[-4000:]
    assert max(follower_s) <= FOLLOWER_LIMIT_S, follower_s


def test_no_stateless_actor_pools():
    """Only the allowed classes are run as ``map_batches`` actor pools;
    every other stage passes a function."""
    trees = {}
    for path in glob.glob(os.path.join(ROOT, "miru_ray", "**", "*.py"),
                          recursive=True):
        with open(path) as f:
            trees[os.path.relpath(path, ROOT)] = ast.parse(f.read(), path)
    classes = {n.name for t in trees.values() for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    pools = []
    for path, tree in trees.items():
        for n in ast.walk(tree):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "map_batches" and n.args):
                fn = n.args[0]   # a bare or module-qualified name
                name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                if name in classes:
                    pools.append((path, n.lineno, name))
    assert {p[2] for p in pools} <= POOL_CLASSES_ALLOWED, pools
