"""Curation entries finish on a Ray cluster with ONE logical CPU.

A stage that holds a CPU while its upstream still streams (a fixed or
autoscaling actor pool whose first actor takes the only CPU) starves the
read and sort tasks feeding it, and the query never returns. Stateless
stages therefore run as tasks; the pools left (``ChunkPairSims``,
``BatchSearcher`` and the media stages) are fed from memory. This test
runs ``tools/check_oracle.py`` in a subprocess with ``RAY_GRAFT_CPUS=1``
(it starts its own local cluster beside the session's) on every entry
that runs a verify task or an actor pool, and checks each answer against
its DuckDB oracle.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.01"
TIME_LIMIT_S = 300

ENTRIES = [
    # stateless verify / lang-id tasks
    "lang_id", "ngram_jaccard_pairs", "ngram_jaccard_prefix",
    "dedup_clusters", "dedup_keep_one", "embedding_near_dups_lsh",
    "minhash_near_dups",
    # the actor pools that stay, each fed from memory
    "embedding_near_dups", "embedding_dedup_clusters", "image_features",
    "video_frame_sample", "audio_features", "container_metadata",
]


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
