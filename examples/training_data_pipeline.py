#!/usr/bin/env python
"""Composed training-data curation pipeline over the ``documents`` table:

    read (pruned) → exact-dup + NEAR-DUP loser mask (cluster
    resolution over the exact PPJoin pair graph) → repetition filter
    (Gopher duplicate-bigram rule) → quality filter → language filter
    → deterministic hash downsample → per-doc stats → partitioned
    parquet out

    python examples/training_data_pipeline.py [SF_DIR] [OUT_DIR]

Every stage is a streaming ``map_batches`` over Arrow batches — the
pipeline never materializes the corpus; the only driver-side object is
the LOSER set: every exact duplicate but the minimum doc_id of its
fingerprint (found by a bucketed distributed groupby) plus every
near-dup cluster member but the canonical one. It is O(dup docs), not
O(corpus); at a crawl-scale dup rate swap the broadcast for the
bucketed anti-join ``dedup.dedup_keep_one_ds`` — same labels, one keyed
exchange instead of a driver set. Output is one parquet directory
partitioned by Ray block — a failed run reruns cheaply because every
upstream stage is deterministic.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    import ray
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from miru_ray.functions.tokenize import tokenize_column
    from miru_ray.sources.tables import read_table

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "/tmp/curated_docs"

    # --- stage 0: exact-dup losers — every doc but the first doc_id per
    # md5(text). Fingerprints bucket on their hash, so each bucket's
    # groupby sees whole fingerprint groups; only losers leave it.
    from miru_ray.functions.hashing import hash_strings
    from miru_ray.pipelines.dedup import dedup_clusters
    from miru_ray.pipelines.textstats import md5_fingerprint_batch
    nbkt = 64

    def fp_bucket(batch: pa.Table) -> pa.Table:
        fp = md5_fingerprint_batch(batch)
        h = hash_strings(fp["fingerprint"].to_numpy(zero_copy_only=False))
        return fp.append_column(
            "_bkt", pa.array((h % np.uint64(nbkt)).astype(np.int64)))

    def exact_losers(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("fingerprint")["doc_id"].transform("min")
        return pd.DataFrame({"doc_id": g["doc_id"][g["doc_id"] != first]
                             .to_numpy(dtype=np.int64)})

    exact = (read_table(sf_dir, "documents", columns=["doc_id", "text"])
             .map_batches(fp_bucket, batch_format="pyarrow")
             .groupby("_bkt").map_groups(exact_losers, batch_format="pandas")
             .to_pandas())
    exact_ids = (exact["doc_id"].to_numpy(dtype=np.int64) if len(exact)
                 else np.empty(0, dtype=np.int64))

    # --- stage 0b: NEAR-dup keep-one — cluster resolution over the
    # exact prefix-filtered Jaccard pair graph; every cluster member
    # except the minimum-id canonical joins the loser set.
    cl = dedup_clusters(sf_dir)
    near = cl.filter(pa.compute.not_equal(cl["doc_id"], cl["cluster_id"]))
    l_ref = ray.put(np.union1d(exact_ids, near["doc_id"].to_numpy()))

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "text", "lang", "source"])

    def curate(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        keep = np.ones(len(ids), dtype=bool)
        # exact- and near-dup losers out (sorted-membership test)
        l = ray.get(l_ref)
        if len(l):
            lpos = np.searchsorted(l, ids)
            keep &= ~((lpos < len(l))
                      & (l[np.minimum(lpos, len(l) - 1)] == ids))
        # language filter (cheap vectorized masks FIRST)
        keep &= np.isin(batch["lang"].to_numpy(zero_copy_only=False),
                        ("en", "de"))
        batch = batch.filter(pa.array(keep, pa.bool_()))
        # deterministic ~50% hash downsample — content-keyed, so hashing
        # only the mask survivors changes nothing but the cost
        texts = batch["text"].to_pylist()
        samp = np.array([hashlib.md5(t.encode()).hexdigest()[:2] < "80"
                         for t in texts], dtype=bool)
        batch = batch.filter(pa.array(samp, pa.bool_()))
        # quality stats + filters: ≥20 tokens AND the Gopher repetition
        # rule (duplicate-bigram fraction; loose bound for the synthetic
        # token-soup fixture — real crawls use ~0.2–0.3)
        from miru_ray.functions.hashing import hash_strings
        toks = tokenize_column(batch["text"].combine_chunks())
        n = np.diff(toks.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        th = hash_strings(flat) if len(flat) else np.empty(0, np.uint64)
        doc_of = np.repeat(np.arange(len(n)), n)
        ndist = np.zeros(len(n), dtype=np.int64)
        if len(th) >= 2:
            same = doc_of[:-1] == doc_of[1:]
            bh = (th[:-1] * np.uint64(1099511628211)) + th[1:]
            bd, bh = doc_of[:-1][same], bh[same]
            if len(bh):
                order = np.lexsort((bh, bd))
                bd_s, bh_s = bd[order], bh[order]
                first = np.concatenate(
                    [[True], (bd_s[1:] != bd_s[:-1]) | (bh_s[1:] != bh_s[:-1])])
                np.add.at(ndist, bd_s[first], 1)
        nbg = np.maximum(n - 1, 0)
        dup_frac = (nbg - ndist) / np.maximum(nbg, 1)
        batch = batch.append_column("n_tokens", pa.array(n, pa.int64()))
        ok = pa.array((n >= 20) & (dup_frac <= 0.95), pa.bool_())
        return batch.filter(ok)

    curated = ds.map_batches(curate, batch_format="pyarrow")

    # --- stage N: PII redaction on the survivors (same RE2 kernels as
    # pipelines.textstats.pii_scrub — one shared pattern definition) ---
    import pyarrow.compute as pc
    from miru_ray.pipelines.textstats import PII_PATTERNS

    def redact(batch: pa.Table) -> pa.Table:
        text = batch["text"].combine_chunks() \
            if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        for pat, repl, _name in PII_PATTERNS:
            text = pc.replace_substring_regex(text, pattern=pat,
                                              replacement=repl)
        return batch.set_column(batch.schema.get_field_index("text"),
                                "text", text)

    curated = curated.map_batches(redact, batch_format="pyarrow")

    # --- stage N+1: perplexity filter — train the capped bigram LM once
    # (model is O(K^2) regardless of corpus size, broadcast via ray.put),
    # drop the worst-perplexity TAIL bucket of the survivors. Same
    # kernel as pipelines.textstats.lm_perplexity.
    from miru_ray.pipelines.textstats import (LM_TAIL_BITS, _lm_model,
                                              lm_score_texts)
    lm_ref = ray.put(_lm_model(sf_dir, vocab_k=4096))

    def ppl_filter(batch: pa.Table) -> pa.Table:
        _n, bits = lm_score_texts(batch["text"].to_pylist(),
                                  ray.get(lm_ref))
        return batch.filter(pa.array(bits < LM_TAIL_BITS, pa.bool_()))

    curated = curated.map_batches(ppl_filter, batch_format="pyarrow")

    # --- stage N+2: content-keyed train/val/test assignment, written
    # as split-partitioned parquet (one directory per split — the
    # resumable-output layout; same md5-prefix cuts as corpus_split) ---
    from miru_ray.pipelines.textstats import SPLIT_TEST_CUT, SPLIT_VAL_CUT

    def assign_split(batch: pa.Table) -> pa.Table:
        pre = np.asarray([hashlib.md5(t.encode()).hexdigest()[:2]
                          for t in batch["text"].to_pylist()], dtype=object)
        split = np.where(pre < SPLIT_VAL_CUT, "val",
                         np.where(pre < SPLIT_TEST_CUT, "test", "train"))
        return batch.append_column(
            "split", pa.array(split.astype(object), pa.string()))

    curated = curated.map_batches(assign_split, batch_format="pyarrow")
    import shutil
    shutil.rmtree(out_dir, ignore_errors=True)
    curated.write_parquet(out_dir, partition_cols=["split"])

    import pyarrow.parquet as pq
    out = pq.read_table(out_dir)
    total = read_table(sf_dir, "documents", columns=["doc_id"]).count()
    print(f"curated {out.num_rows}/{total} docs -> {out_dir}")
    print("columns:", out.column_names)
    print("token total:", pa.compute.sum(out["n_tokens"]).as_py())
    assert out.num_rows > 0
    ray.shutdown()


if __name__ == "__main__":
    main()
