"""Posting-list codec: docID-sorted, roaring-style compressed, 48-bit capable.

Replaces the reference's per-(field,term) Roaring bitmaps
(miru-plugin/.../index/MiruInvertedIndex.java:9-42, container "atomize"
into <=64Ki-row keyed chunks at
miru-service/.../index/lab/LabInvertedIndex.java:268-291).

Format (little-endian, deterministic — identical bytes for identical id
sets regardless of build parallelism):

    [u32 n_containers]
    n_containers * [u64 key | u8 kind | u32 count]     (directory, key-sorted)
    payloads in directory order:
        kind 0 (ARRAY):  count * u16 sorted low-16 values   (count <= 4096)
        kind 1 (BITMAP): 8192-byte bitset of low-16 values  (count  > 4096)

``key = doc_id >> 16`` (u64 key ⇒ ids beyond 2^32; 10^12 docs ≈ 2^40 fits).
Term frequencies ride in a separate parallel blob (u32 array, same order
as the sorted doc ids) — the reference stores tf as "cardinality" payloads
alongside postings (miru-plugin/.../index/MiruFieldIndex.java:37-41).

All encode/decode paths are numpy-vectorized; no per-id Python loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "encode_ids", "decode_ids", "decode_first_last", "encode_tfs",
    "decode_tfs", "intersect_sorted", "union_sorted",
    "diff_sorted", "block_max_tf", "BLOCK_SIZE", "shift_runs", "split_runs",
    "weave_runs",
]

# posting entries per block-max block (WAND pruning granularity; the
# reference's FullText batches tf lookups at 1000 ids, FullText.java:137 —
# ours aligns with the codec's 4096-entry array containers)
BLOCK_SIZE = 4096


def block_max_tf(tfs: np.ndarray) -> bytes:
    """Per-block max tf (u2, capped 65535) over BLOCK_SIZE-entry blocks of a
    posting — the block-max skip metadata for WAND-style pruning."""
    n = len(tfs)
    if n == 0:
        return b""
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    pad = nblocks * BLOCK_SIZE - n
    padded = np.concatenate([tfs, np.zeros(pad, dtype=tfs.dtype)]) if pad else tfs
    mx = padded.reshape(nblocks, BLOCK_SIZE).max(axis=1)
    return np.minimum(mx, 65535).astype("<u2").tobytes()

_ARRAY, _BITMAP = 0, 1
_ARRAY_MAX = 4096
_DIR_DTYPE = np.dtype([("key", "<u8"), ("kind", "u1"), ("count", "<u4")])
_BITMAP_BYTES = 8192


def encode_ids(ids: np.ndarray) -> bytes:
    """Encode a sorted, unique int64/uint64 docID array → roaring-style bytes."""
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    n = len(ids)
    if n == 0:
        return np.uint32(0).tobytes()
    keys = ids >> np.uint64(16)
    lows = (ids & np.uint64(0xFFFF)).astype(np.uint16)
    # container boundaries: positions where key changes
    change = np.flatnonzero(np.diff(keys)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [n]])
    counts = (ends - starts).astype(np.uint32)
    ckeys = keys[starts]
    kinds = np.where(counts > _ARRAY_MAX, _BITMAP, _ARRAY).astype(np.uint8)

    directory = np.empty(len(starts), dtype=_DIR_DTYPE)
    directory["key"] = ckeys
    directory["kind"] = kinds
    directory["count"] = counts

    payloads: list[bytes] = []
    for i in range(len(starts)):
        seg = lows[starts[i]:ends[i]]
        if kinds[i] == _ARRAY:
            payloads.append(seg.astype("<u2").tobytes())
        else:
            bits = np.zeros(_BITMAP_BYTES, dtype=np.uint8)
            np.bitwise_or.at(bits, seg >> 3, np.uint8(1) << (seg & 7).astype(np.uint8))
            payloads.append(bits.tobytes())
    return b"".join([np.uint32(len(starts)).tobytes(), directory.tobytes(), *payloads])


def encode_many_ids(ids: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray) -> list[bytes]:
    """Encode many postings given as slices [starts[i], ends[i]) of one
    sorted id array — bulk fast path for the single-container case (all of
    a posting's ids share one high-48 key and count <= 4096), which covers
    virtually every term in a partition-local build. Falls back to
    encode_ids per slice otherwise. Byte-identical to encode_ids."""
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    keys = ids >> np.uint64(16)
    lows = (ids & np.uint64(0xFFFF)).astype("<u2")
    counts = ends - starts
    single = (keys[starts] == keys[np.maximum(ends - 1, starts)]) & (counts <= _ARRAY_MAX)
    out: list[bytes] = [b""] * len(starts)
    one = np.uint32(1).tobytes()
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        if single[i]:
            # header: n=1 | directory{key,u8 kind,u32 count} | u2 payload
            d = np.empty(1, dtype=_DIR_DTYPE)
            d["key"] = keys[s]
            d["kind"] = _ARRAY
            d["count"] = e - s
            out[i] = b"".join([one, d.tobytes(), lows[s:e].tobytes()])
        else:
            out[i] = encode_ids(ids[s:e])
    return out


def encode_many_tfs(tfs: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray) -> list[bytes]:
    """Bulk encode_tfs over slices (byte-identical to encode_tfs)."""
    maxes = np.maximum.reduceat(tfs, starts)
    u1 = tfs.astype("u1")
    u4 = tfs.astype("<u4")
    return [(b"\x01" + u1[s:e].tobytes()) if maxes[i] < 256
            else (b"\x04" + u4[s:e].tobytes())
            for i, (s, e) in enumerate(zip(starts, ends))]


def decode_ids(blob: bytes | memoryview) -> np.ndarray:
    """Decode → sorted uint64 docID array."""
    buf = memoryview(blob)
    n_containers = int(np.frombuffer(buf[:4], dtype="<u4")[0])
    if n_containers == 0:
        return np.empty(0, dtype=np.uint64)
    dir_end = 4 + n_containers * _DIR_DTYPE.itemsize
    directory = np.frombuffer(buf[4:dir_end], dtype=_DIR_DTYPE)
    total = int(directory["count"].sum())
    out = np.empty(total, dtype=np.uint64)
    pos = dir_end
    at = 0
    for key, kind, count in zip(directory["key"], directory["kind"], directory["count"]):
        count = int(count)
        if kind == _ARRAY:
            lows = np.frombuffer(buf[pos:pos + 2 * count], dtype="<u2").astype(np.uint64)
            pos += 2 * count
        else:
            bits = np.frombuffer(buf[pos:pos + _BITMAP_BYTES], dtype=np.uint8)
            pos += _BITMAP_BYTES
            lows = np.flatnonzero(np.unpackbits(bits, bitorder="little")).astype(np.uint64)
        out[at:at + count] = (np.uint64(key) << np.uint64(16)) | lows
        at += count
    return out


def decode_first_last(blob: bytes | memoryview) -> tuple[int, int]:
    """(first docID, last docID) of a posting WITHOUT decoding it: read the
    container directory, then only the edge values of the first and last
    payloads — O(n_containers) instead of O(cf). The first/latest index
    semantics (MiruIndexFirst.java setIfEmpty / MiruIndexLatest.java:77
    remove-then-set) only ever need these edges."""
    buf = memoryview(blob)
    n = int(np.frombuffer(buf[:4], dtype="<u4")[0])
    if n == 0:
        raise ValueError("empty posting has no first/last id")
    dir_end = 4 + n * _DIR_DTYPE.itemsize
    directory = np.frombuffer(buf[4:dir_end], dtype=_DIR_DTYPE)
    sizes = np.where(directory["kind"] == _ARRAY,
                     2 * directory["count"].astype(np.int64), _BITMAP_BYTES)

    def edge(idx: int, off: int, want_last: bool) -> int:
        if directory["kind"][idx] == _ARRAY:
            pos = off + (2 * (int(directory["count"][idx]) - 1)
                         if want_last else 0)
            low = int(np.frombuffer(buf[pos:pos + 2], dtype="<u2")[0])
        else:
            bits = np.frombuffer(buf[off:off + _BITMAP_BYTES], dtype=np.uint8)
            nz = np.flatnonzero(np.unpackbits(bits, bitorder="little"))
            low = int(nz[-1] if want_last else nz[0])
        return (int(directory["key"][idx]) << 16) | low

    return (edge(0, dir_end, False),
            edge(n - 1, dir_end + int(sizes[:-1].sum()), True))


def encode_tfs(tfs: np.ndarray) -> bytes:
    """tf array (aligned with the sorted docID order) → bytes.

    u8 when max tf < 256 (the common web-page case), else u32; 1-byte tag.
    """
    tfs = np.ascontiguousarray(tfs)
    if len(tfs) and tfs.max() < 256:
        return b"\x01" + tfs.astype("u1").tobytes()
    return b"\x04" + tfs.astype("<u4").tobytes()


def decode_tfs(blob: bytes | memoryview) -> np.ndarray:
    buf = memoryview(blob)
    tag = buf[0]
    if tag == 1:
        return np.frombuffer(buf[1:], dtype="u1").astype(np.int64)
    return np.frombuffer(buf[1:], dtype="<u4").astype(np.int64)


# --- run surgery over a merged posting's run directory (the segment's
#     ``parts``/``pdfs`` columns: one run per contributing partition, in
#     part order == docID order) ---

def shift_runs(ids: np.ndarray, parts, pdfs, shift: dict) -> np.ndarray:
    """Add ``shift[p]`` (a docID base move, ``new_base - old_base``) to the
    ids of each partition-``p`` run of one decoded posting, runs given by
    its run directory (``parts``/``pdfs``). Positions are unchanged, so a
    posting's tfs and block-max stay valid. Returns ``ids`` itself when no
    run moves."""
    d = [shift.get(int(p), 0) for p in parts]
    if not any(d):
        return ids
    return (ids.astype(np.int64) + np.repeat(np.asarray(d, np.int64), pdfs)
            ).astype(np.uint64)


def split_runs(ids: np.ndarray, tfs: np.ndarray | None, parts, pdfs,
               gone=frozenset(), shift: dict | None = None) -> list[tuple]:
    """Split one decoded posting into ``(part, ids, tfs)`` runs by its run
    directory, dropping the runs of ``gone`` partitions and shifting each
    kept run by ``shift`` (see shift_runs). ``tfs`` may be None (ids-only
    reads)."""
    if shift:
        ids = shift_runs(ids, parts, pdfs, shift)
    runs, lo = [], 0
    for p, n in zip(parts, pdfs):   # a handful of runs: plain ints beat numpy
        hi = lo + n
        if p not in gone:
            runs.append((p, ids[lo:hi], None if tfs is None else tfs[lo:hi]))
        lo = hi
    return runs


def weave_runs(runs: list[tuple]) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort ``(part, ids, tfs)`` runs by part (in place) and concatenate:
    partition docID ranges are disjoint and ascend with part, so the
    result is globally sorted. ``runs`` must be non-empty."""
    runs.sort(key=lambda x: x[0])
    ids = np.concatenate([r[1] for r in runs])
    tfs = (None if runs[0][2] is None
           else np.concatenate([r[2] for r in runs]))
    return ids, tfs


# --- set algebra over decoded postings (MiruBitmaps and/or/andNot parity,
#     miru-bitmaps-roaring6/.../MiruBitmapsRoaring.java:162-423) ---

def _membership(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask over b: b[i] ∈ a. Both sorted unique; O(|b|·log|a|)
    via searchsorted — no re-sort (np.intersect1d sorts a⊕b every call,
    which dominates long AND chains over hot postings)."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros(len(b), dtype=bool)
    idx = np.searchsorted(a, b)
    idx[idx == len(a)] = len(a) - 1
    return a[idx] == b


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) > len(b):
        a, b = b, a
    return a[_membership(b, a)]


def union_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == 0:
        return b
    if len(b) == 0:
        return a
    return np.unique(np.concatenate([a, b]))


def diff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a AND NOT b (the reference's ``pButNotQ`` building block)."""
    if len(a) == 0 or len(b) == 0:
        return a
    return a[~_membership(b, a)]
