"""Primary-field inversion kernel — vectorized term→postings build.

Reference semantics: per batch, scan docs and build ``term → {ids[],
counts[]}`` with counts = per-doc term frequency (multiset), then append
each term's posting (miru-service/.../stream/MiruIndexPrimaryFields.java:37-136).

Here the whole inversion for a set of docs is one numpy pass:
tokenize (Arrow kernels) → factorize terms → (term_code, doc) unique with
counts → per-term slices encoded with the bulk roaring-style codec
(functions/postings ``encode_many_*``). No Python loop over tokens, rows
or terms.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from miru_ray.functions.postings import encode_many_ids, encode_many_tfs
from miru_ray.functions.tokenize import tokenize_column, tokenize_column_lang

__all__ = ["invert_docs"]


def invert_docs(texts: pa.Array | pa.ChunkedArray,
                doc_ids: np.ndarray,
                langs: np.ndarray | None = None) -> tuple[pa.Table, np.ndarray]:
    """Invert documents into postings.

    Args:
        texts: string column of document bodies (already extracted).
        doc_ids: int64 array, one id per text (sorted ascending).
        langs: optional per-doc language codes — enables the ``per_lang``
            analyzer chain (stopword filter per language; doclens shrink
            accordingly, which feeds BM25 length normalization).

    Returns:
        (postings table with columns term/df/cf/docids/tfs sorted by term,
         doclen int64 array aligned with input docs).
    """
    tok_lists = (tokenize_column_lang(texts, langs) if langs is not None
                 else tokenize_column(texts))
    offsets = tok_lists.offsets.to_numpy(zero_copy_only=False)
    doclens = np.diff(offsets).astype(np.int64)
    flat = tok_lists.flatten()
    n_tokens = len(flat)
    if n_tokens == 0:
        empty = pa.table({
            "term": pa.array([], pa.string()),
            "df": pa.array([], pa.int64()),
            "cf": pa.array([], pa.int64()),
            "docids": pa.array([], pa.binary()),
            "tfs": pa.array([], pa.binary()),
        })
        return empty, doclens

    # token → doc id (repeat per list length)
    tok_doc = np.repeat(doc_ids.astype(np.int64), doclens)

    # factorize terms via Arrow dictionary encoding (the reference's interner,
    # miru-plugin/.../MiruInterner.java — dictionary encoding is its Arrow dual)
    dict_arr = flat.dictionary_encode()
    if isinstance(dict_arr, pa.ChunkedArray):
        dict_arr = dict_arr.combine_chunks()
    codes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = dict_arr.dictionary.to_numpy(zero_copy_only=False)  # object array

    # sort vocab so output term order is deterministic (independent of
    # dictionary-build order), then remap codes
    vocab_order = np.argsort(vocab, kind="stable")
    rank_of = np.empty(len(vocab), dtype=np.int64)
    rank_of[vocab_order] = np.arange(len(vocab))
    codes = rank_of[codes]
    vocab = vocab[vocab_order]

    # (term, doc) → tf: combine into one key; doc ids fit far below 2**40
    max_doc = int(doc_ids.max()) + 1
    key = codes * max_doc + tok_doc
    ukey, tf = np.unique(key, return_counts=True)
    u_code = ukey // max_doc
    u_doc = ukey % max_doc   # sorted by (term_rank, doc) — docIDs ascending per term

    # per-term boundaries
    change = np.flatnonzero(np.diff(u_code)) + 1
    starts = np.concatenate([[0], change])
    term_codes = u_code[starts]
    df = np.diff(np.append(starts, len(ukey)))
    cf = np.add.reduceat(tf, starts).astype(np.int64)

    postings = pa.table({
        "term": pa.array(vocab[term_codes], pa.string()),
        "df": pa.array(df, pa.int64()),
        "cf": pa.array(cf, pa.int64()),
        "docids": encode_many_ids(u_doc, df),
        "tfs": encode_many_tfs(tf, df),
    })
    return postings, doclens
