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
Besides the one-posting codec there is a BULK codec over a whole column:
``decode_many_ids``/``decode_many_tfs`` read a binary column through its
Arrow offsets and data buffers into one flat array plus per-row counts,
and ``encode_many_ids``/``encode_many_tfs``/``block_max_many`` build a
binary column back from a flat array and per-row counts by offset
arithmetic — row by row byte-identical to ``encode_ids``/``encode_tfs``/
``block_max_tf``. Array containers, any number per posting, are laid out
in one pass; bitmap containers (more than 4096 ids under one key) are
filled one container at a time. The inversion and the segment merge use
only the bulk forms.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = [
    "encode_ids", "decode_ids", "decode_first_last", "encode_tfs",
    "decode_tfs", "encode_many_ids", "encode_many_tfs", "block_max_many",
    "decode_many_ids", "decode_many_tfs", "intersect_sorted", "union_sorted",
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


# --- bulk codec over many postings at once: one flat value array plus
#     per-posting counts on the numpy side, one binary column on the Arrow
#     side. Byte-identical to the one-posting codec above, posting by
#     posting; the only per-item Python loop is over BITMAP containers
#     (> 4096 ids under one key), which the merge almost never meets ---

def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each of ``counts``' slices starts."""
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _within(counts: np.ndarray) -> np.ndarray:
    """0..count-1 for each slice, concatenated."""
    n = int(counts.sum())
    return np.arange(n, dtype=np.int64) - np.repeat(_starts(counts), counts)


def _binary_buffers(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(per-row byte offsets into ``data``, data bytes) of a binary or
    large_binary column, chunked or sliced, without copying the data."""
    if isinstance(col, pa.ChunkedArray):
        col = (col.combine_chunks() if col.num_chunks != 1 else col.chunk(0))
    if col.null_count:
        raise ValueError("postings column holds nulls")
    _, obuf, dbuf = col.buffers()
    odt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offs = np.frombuffer(obuf, dtype=odt)[col.offset:col.offset + len(col) + 1]
    data = (np.frombuffer(dbuf, dtype=np.uint8) if dbuf is not None
            else np.empty(0, np.uint8))
    return offs.astype(np.int64), data


def _gather_le(data: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """Little-endian unsigned ints of ``width`` bytes at byte ``pos``."""
    out = data[pos].astype(np.uint64)
    for b in range(1, width):
        out |= data[pos + b].astype(np.uint64) << np.uint64(8 * b)
    return out


def decode_many_ids(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a whole column of id blobs → (flat sorted-per-row uint64 ids,
    per-row int64 counts), read straight through the column's offsets and
    data buffers."""
    offs, data = _binary_buffers(col)
    ncont = _gather_le(data, offs[:-1], 4).astype(np.int64)
    crow = np.repeat(np.arange(len(ncont)), ncont)       # container → row
    first = _starts(ncont)                                # row → 1st container
    dpos = (offs[:-1][crow] + 4
            + _DIR_DTYPE.itemsize * (np.arange(len(crow)) - first[crow]))
    directory = np.ascontiguousarray(
        data[dpos[:, None] + np.arange(_DIR_DTYPE.itemsize)]
    ).view(_DIR_DTYPE).ravel()
    count = directory["count"].astype(np.int64)
    bitmap = directory["kind"] != _ARRAY
    size = np.where(bitmap, _BITMAP_BYTES, 2 * count)
    excl = _starts(size)
    pstart = (offs[:-1][crow] + 4 + _DIR_DTYPE.itemsize * ncont[crow]
              + excl - excl[first[crow]])
    cont = np.repeat(np.arange(len(count)), count)        # id → container
    lows = np.empty(len(cont), dtype=np.uint64)
    arr = ~bitmap[cont]
    lows[arr] = _gather_le(data, pstart[cont[arr]] + 2 * _within(count)[arr], 2)
    ostart = _starts(count)
    for c in np.flatnonzero(bitmap):
        bits = data[pstart[c]:pstart[c] + _BITMAP_BYTES]
        lows[ostart[c]:ostart[c] + count[c]] = np.flatnonzero(
            np.unpackbits(bits, bitorder="little"))
    ids = (directory["key"][cont] << np.uint64(16)) | lows
    cc = np.concatenate([[0], np.cumsum(count)])
    return ids, cc[first + ncont] - cc[first]


def decode_many_tfs(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a whole column of tf blobs → (flat int64 tfs, per-row
    counts)."""
    offs, data = _binary_buffers(col)
    width = np.where(data[offs[:-1]] == 1, 1, 4)
    counts = (np.diff(offs) - 1) // width
    w = np.repeat(width, counts)
    pos = np.repeat(offs[:-1] + 1, counts) + w * _within(counts)
    tfs = data[pos].astype(np.int64)
    wide = w == 4
    tfs[wide] = _gather_le(data, pos[wide], 4).astype(np.int64)
    return tfs, counts


def _binary_array(lengths: np.ndarray, data: np.ndarray) -> pa.BinaryArray:
    """A ``binary`` (int32-offset) Arrow column over ``data`` cut into
    rows of ``lengths`` bytes."""
    offs = np.concatenate([[0], np.cumsum(lengths)])
    if offs[-1] > np.iinfo(np.int32).max:
        raise OverflowError("postings column exceeds 2 GiB")
    return pa.BinaryArray.from_buffers(
        pa.binary(), len(lengths),
        [None, pa.py_buffer(offs.astype(np.int32)), pa.py_buffer(data)])


def encode_many_ids(ids: np.ndarray, counts: np.ndarray) -> pa.BinaryArray:
    """Encode consecutive slices of ``ids`` (slice i holds ``counts[i]``
    sorted unique ids) → one binary column, row i == encode_ids(slice i).
    The output bytes are laid out by offset arithmetic; only bitmap
    containers are filled one container at a time."""
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    n = len(ids)
    rows = np.repeat(np.arange(len(counts)), counts)
    keys = ids >> np.uint64(16)
    # a container starts at each posting start and at each key change
    new = np.ones(n, dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (rows[1:] != rows[:-1])
    cstart = np.flatnonzero(new)
    ccount = np.diff(np.append(cstart, n))
    crow = rows[cstart]
    bitmap = ccount > _ARRAY_MAX
    ncont = np.bincount(crow, minlength=len(counts)).astype(np.int64)
    first = _starts(ncont)
    size = np.where(bitmap, _BITMAP_BYTES, 2 * ccount)
    excl = _starts(size)
    psum = np.concatenate([[0], np.cumsum(size)])
    lengths = 4 + _DIR_DTYPE.itemsize * ncont + psum[first + ncont] - psum[first]
    rstart = _starts(lengths)
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    # header: u32 container count
    out[rstart[:, None] + np.arange(4)] = (
        ncont.astype("<u4").view(np.uint8).reshape(-1, 4))
    # directory: one 13-byte entry per container
    directory = np.empty(len(cstart), dtype=_DIR_DTYPE)
    directory["key"] = keys[cstart]
    directory["kind"] = np.where(bitmap, _BITMAP, _ARRAY)
    directory["count"] = ccount
    dpos = (rstart[crow] + 4
            + _DIR_DTYPE.itemsize * (np.arange(len(cstart)) - first[crow]))
    out[dpos[:, None] + np.arange(_DIR_DTYPE.itemsize)] = (
        directory.view(np.uint8).reshape(-1, _DIR_DTYPE.itemsize))
    # payloads: u16 lows of array containers, bitsets of bitmap containers
    pstart = (rstart[crow] + 4 + _DIR_DTYPE.itemsize * ncont[crow]
              + excl - excl[first[crow]])
    cont = np.repeat(np.arange(len(cstart)), ccount)
    arr = ~bitmap[cont]
    pos = pstart[cont[arr]] + 2 * _within(ccount)[arr]
    lows = (ids[arr] & np.uint64(0xFFFF)).astype(np.uint16)
    out[pos] = (lows & 0xFF).astype(np.uint8)
    out[pos + 1] = (lows >> 8).astype(np.uint8)
    for c in np.flatnonzero(bitmap):
        bits = np.zeros(1 << 16, dtype=bool)
        bits[(ids[cstart[c]:cstart[c] + ccount[c]] & np.uint64(0xFFFF))
             .astype(np.int64)] = True
        out[pstart[c]:pstart[c] + _BITMAP_BYTES] = np.packbits(
            bits, bitorder="little")
    return _binary_array(lengths, out)


def encode_many_tfs(tfs: np.ndarray, counts: np.ndarray) -> pa.BinaryArray:
    """Encode consecutive slices of ``tfs`` → one binary column, row i ==
    encode_tfs(slice i): u1 entries when the slice's max < 256, else u4
    (an empty slice takes the u4 tag, as encode_tfs gives it)."""
    tfs = np.asarray(tfs, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    wide = np.ones(len(counts), dtype=bool)
    full = counts > 0
    wide[full] = np.maximum.reduceat(tfs, _starts(counts)[full]) >= 256
    width = np.where(wide, 4, 1)
    lengths = 1 + width * counts
    rstart = _starts(lengths)
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    out[rstart] = width
    w = np.repeat(width, counts)
    pos = np.repeat(rstart + 1, counts) + w * _within(counts)
    out[pos] = (tfs & 0xFF).astype(np.uint8)
    big = w == 4
    for b in range(1, 4):
        out[pos[big] + b] = ((tfs[big] >> (8 * b)) & 0xFF).astype(np.uint8)
    return _binary_array(lengths, out)


def block_max_many(tfs: np.ndarray, counts: np.ndarray) -> pa.BinaryArray:
    """block_max_tf over consecutive slices of ``tfs`` → one binary column,
    from a single ``np.maximum.reduceat`` over every slice's blocks."""
    tfs = np.asarray(tfs)
    counts = np.asarray(counts, dtype=np.int64)
    nblocks = (counts + BLOCK_SIZE - 1) // BLOCK_SIZE
    bstart = (np.repeat(_starts(counts), nblocks)
              + BLOCK_SIZE * _within(nblocks))
    mx = np.maximum.reduceat(tfs, bstart)
    return _binary_array(2 * nblocks, np.minimum(mx, 65535).astype("<u2")
                         .view(np.uint8))


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
