"""Correctness checks against the brute-force ``OracleIndex``.

Every function returns the number of mismatches it found; the workload
adds them to the run's failed-operation count.
"""

from __future__ import annotations

import numpy as np

K = 10


def topk_pairs(hits) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(doc_ids, scores, urls) of a search result table."""
    return (hits["doc_id"].to_numpy(), hits["score"].to_numpy(),
            hits["url"].to_pylist())


def same_topk(got, want) -> bool:
    """Rank- and score-identical: the same docIDs in the same order with
    bit-equal float64 scores."""
    return (len(got[0]) == len(want[0])
            and np.array_equal(np.asarray(got[0], np.int64),
                               np.asarray(want[0], np.int64))
            and np.array_equal(got[1], want[1]))


def same_url_scores(got_urls: list[str], got_scores: np.ndarray,
                    oracle, ids: np.ndarray, scores: np.ndarray) -> bool:
    """(url, score) identity for indexes whose docIDs differ from the
    oracle's hash-partitioned ones. ``ids``/``scores`` are the oracle's
    top results with room past k: scores must agree rank by rank, each
    score group above the k-th score must hold the same urls, and the
    boundary group (ties broken by docID, which differs) must be a subset
    of the oracle's docs with that score."""
    k = len(got_scores)
    if k != min(K, len(scores)) or not np.array_equal(got_scores, scores[:k]):
        return False
    if k == 0:
        return True
    want: dict[float, set[str]] = {}
    for d, s in zip(ids, scores):
        want.setdefault(float(s), set()).add(oracle.docs[int(d)][1])
    got: dict[float, set[str]] = {}
    for u, s in zip(got_urls, got_scores):
        got.setdefault(float(s), set()).add(u)
    last = float(got_scores[-1])
    return all(g == want.get(s) if s != last else g <= want.get(s, set())
               for s, g in got.items())


def oracle_search(oracle, q: dict, k: int = K):
    return oracle.search(q["q"], k, q["time_range"], q["langs"])
