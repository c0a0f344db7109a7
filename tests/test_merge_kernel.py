"""The bulk segment-merge kernel against a per-term reference.

``stages.merge.merge_rows`` merges partial postings in one bulk pass
(functions/postings ``decode_many_*`` / ``encode_many_*`` /
``block_max_many``). ``_merge_rows_reference`` below is the plain per-term
loop it replaced: decode each run, rebase, concatenate, re-encode. The
generated tables reach what fixture postings (one array container below
65,536 each) never do: ids pushed across 65,536 by their base (several
containers per term), more than 4,096 ids under one key (bitmap
containers), tf >= 256 (the u4 tf tag), postings longer than one
4,096-entry block-max block, ``\\x00field\\x00`` terms, empty input, and
chunked or sliced input columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from miru_ray.functions.postings import (block_max_many, block_max_tf,
                                         decode_ids, decode_many_ids,
                                         decode_many_tfs, decode_tfs,
                                         encode_ids, encode_many_ids,
                                         encode_many_tfs, encode_tfs)
from miru_ray.stages.merge import _SEGMENT_TYPES, merge_rows


def _merge_rows_reference(rows: pa.Table, bases: dict[int, int]) -> pa.Table:
    """One output row per term, built term by term."""
    out = {k: [] for k in _SEGMENT_TYPES}
    if rows.num_rows:
        rows = rows.sort_by([("term", "ascending"), ("part", "ascending")])
        cols = {k: rows[k].to_pylist() for k in
                ("term", "part", "df", "cf", "docids", "tfs", "shard")}
        terms = cols["term"]
        s = 0
        while s < len(terms):
            e = s
            while e < len(terms) and terms[e] == terms[s]:
                e += 1
            ids = np.concatenate([decode_ids(cols["docids"][i])
                                  + np.uint64(bases[cols["part"][i]])
                                  for i in range(s, e)])
            tfs = np.concatenate([decode_tfs(cols["tfs"][i])
                                  for i in range(s, e)])
            out["term"].append(terms[s])
            out["shard"].append(cols["shard"][s])
            out["df"].append(sum(cols["df"][s:e]))
            out["cf"].append(sum(cols["cf"][s:e]))
            out["docids"].append(encode_ids(ids))
            out["tfs"].append(encode_tfs(tfs))
            out["bmax"].append(block_max_tf(tfs))
            out["parts"].append(cols["part"][s:e])
            out["pdfs"].append(cols["df"][s:e])
            out["pcfs"].append(cols["cf"][s:e])
            s = e
    return pa.table({k: pa.array(out[k], t) for k, t in _SEGMENT_TYPES.items()})


# one posting's local ids: (first id, stride, count). 4,097 ids at stride 1
# fill a bitmap container unless they straddle a key; 5,000 at stride 40
# span several containers and two block-max blocks
_RUN = st.tuples(st.sampled_from([0, 1, 3, 60_000, 65_535]),
                 st.sampled_from([1, 2, 40]),
                 st.sampled_from([1, 2, 7, 300, 4_097, 5_000]))
# where partition 0's ids start: 65,530 and 2**32 - 10 push runs across keys
_BASE0 = st.sampled_from([0, 65_530, 2**32 - 10])
_TERMS = ["a", "ab", "b", "zz", "\x00field\x00x", "\x00field\x00y"]


@st.composite
def _partial_postings(draw):
    """(rows, bases): a partial-postings table and its docID bases."""
    n_terms = draw(st.integers(0, 4))
    terms = draw(st.permutations(_TERMS))[:n_terms]
    seed = draw(st.integers(0, 2**32 - 1))
    tf_max = draw(st.sampled_from([3, 255, 256, 70_000]))
    rng = np.random.default_rng(seed)
    postings = []   # (term, part, local ids, tfs, shard)
    size = {p: 1 for p in range(4)}
    for t in terms:
        parts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4,
                              unique=True))
        shard = draw(st.integers(0, 7))
        for p in parts:
            first, stride, count = draw(_RUN)
            ids = first + stride * np.arange(count, dtype=np.int64)
            tfs = rng.integers(1, tf_max + 1, count)
            size[p] = max(size[p], int(ids[-1]) + 1)
            postings.append((t, p, ids, tfs, shard))
    base, bases = draw(_BASE0), {}
    for p in range(4):
        bases[p] = base
        base += size[p]
    rng.shuffle(postings)
    rows = pa.table({
        "term": pa.array([x[0] for x in postings], pa.string()),
        "df": pa.array([len(x[2]) for x in postings], pa.int64()),
        "cf": pa.array([int(x[3].sum()) for x in postings], pa.int64()),
        "docids": pa.array([encode_ids(x[2]) for x in postings], pa.binary()),
        "tfs": pa.array([encode_tfs(x[3]) for x in postings], pa.binary()),
        "part": pa.array([x[1] for x in postings], pa.int64()),
        "shard": pa.array([x[4] for x in postings], pa.int64()),
    })
    layout = draw(st.sampled_from(["flat", "chunked", "sliced"]))
    if layout == "chunked" and rows.num_rows > 1:
        cut = draw(st.integers(1, rows.num_rows - 1))
        rows = pa.concat_tables([rows.slice(0, cut), rows.slice(cut)])
    elif layout == "sliced":
        pad = rows.slice(0, min(1, rows.num_rows))
        rows = pa.concat_tables([pad, rows, pad]).combine_chunks().slice(
            pad.num_rows, rows.num_rows)
    return rows, bases


@settings(max_examples=150, deadline=None)
@given(_partial_postings())
def test_merge_rows_equals_per_term_reference(case):
    rows, bases = case
    got = merge_rows(rows, bases)
    assert got.schema == pa.schema(list(_SEGMENT_TYPES.items()))
    assert got.equals(_merge_rows_reference(rows, bases))


def test_merge_rows_empty_input():
    got = merge_rows(pa.table({"term": pa.array([], pa.string())}), {})
    assert got.num_rows == 0
    assert got.schema == pa.schema(list(_SEGMENT_TYPES.items()))


def test_merge_rows_reaches_every_container_kind():
    """One hand-built case pinning the branches the property test is
    there for: a bitmap container, a term split across keys by its base,
    a u4 tf blob and a posting two block-max blocks long."""
    dense = np.arange(5_000, dtype=np.int64)             # bitmap container
    tfs = np.ones(5_000, dtype=np.int64)
    tfs[4_500] = 300                                     # u4 tag, block 2
    rows = pa.table({
        "term": ["t", "t"], "df": [5_000, 5_000],
        "cf": [int(tfs.sum())] * 2,
        "docids": pa.array([encode_ids(dense)] * 2, pa.binary()),
        "tfs": pa.array([encode_tfs(tfs)] * 2, pa.binary()),
        "part": [0, 1], "shard": [0, 0],
    })
    bases = {0: 0, 1: 65_530}
    got = merge_rows(rows, bases)
    assert got.equals(_merge_rows_reference(rows, bases))
    ids = decode_ids(got["docids"][0].as_py())
    assert len(ids) == 10_000 and len(np.unique(ids >> np.uint64(16))) == 2
    assert got["tfs"][0].as_py()[0] == 4
    assert len(got["bmax"][0].as_py()) == 2 * 3


_SLICE = st.tuples(st.sampled_from([0, 1, 3, 4_096, 4_097, 9_000]),
                   st.sampled_from([1, 3, 40, 70_000]),
                   st.sampled_from([0, 65_500, 2**33]),
                   st.sampled_from([1, 255, 256, 2**31]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_SLICE, max_size=6), st.integers(0, 2**32 - 1))
def test_bulk_codec_matches_per_slice_codec(slices, seed):
    """encode_many_* / block_max_many equal the one-posting codec applied
    to each slice, and decode_many_* invert them, also on a sliced or
    large_binary column."""
    rng = np.random.default_rng(seed)
    ids_l = [np.uint64(start) + np.uint64(stride) * np.arange(n, dtype=np.uint64)
             for n, stride, start, _ in slices]
    tfs_l = [rng.integers(1, hi + 1, n) for n, _, _, hi in slices]
    counts = np.array([len(x) for x in ids_l], np.int64)
    ids = np.concatenate(ids_l) if ids_l else np.empty(0, np.uint64)
    tfs = np.concatenate(tfs_l) if tfs_l else np.empty(0, np.int64)
    id_col = encode_many_ids(ids, counts)
    tf_col = encode_many_tfs(tfs, counts)
    for col in (id_col, tf_col, block_max_many(tfs, counts)):
        assert col.type == pa.binary()
    assert id_col.to_pylist() == [encode_ids(x) for x in ids_l]
    assert tf_col.to_pylist() == [encode_tfs(x) for x in tfs_l]
    assert block_max_many(tfs, counts).to_pylist() == \
        [block_max_tf(x) for x in tfs_l]
    got_ids, got_n = decode_many_ids(id_col)
    got_tfs, got_m = decode_many_tfs(tf_col.cast(pa.large_binary()))
    assert np.array_equal(got_ids, ids) and np.array_equal(got_n, counts)
    assert np.array_equal(got_tfs, tfs) and np.array_equal(got_m, counts)
    if len(slices) > 1:
        got_ids, got_n = decode_many_ids(
            pa.chunked_array([id_col.slice(0, 1), id_col.slice(1)]).slice(1))
        assert np.array_equal(got_n, counts[1:])
        assert np.array_equal(got_ids, ids[counts[0]:])
