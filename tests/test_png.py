"""Real PNG codec (functions/png.py) — golden-pixel oracles (VERDICT r3 #7).

Three independent pins:
- round-trip exactness for every supported color type and odd sizes;
- an ADVERSARIAL decode: the test forward-filters scanlines with every
  PNG filter type (its own spec implementation, independent of the
  decoder's inverse) and the decoder must reconstruct the exact pixels;
- the media pipeline's png lane end-to-end with a value-exact python
  oracle computed from the raw arrays (never through PNG).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from miru_ray.functions.png import decode_png, encode_png


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (16, 16), (13, 31),
                                   (5, 2, 3), (9, 4, 4), (6, 5, 2),
                                   (8, 8, 1)])
def test_round_trip_exact(shape):
    rs = np.random.RandomState(hash(shape) % (2**31))
    arr = rs.randint(0, 256, shape).astype(np.uint8)
    got = decode_png(encode_png(arr))
    want = arr[:, :, 0] if arr.ndim == 3 and arr.shape[2] == 1 else arr
    np.testing.assert_array_equal(got, want)


def _forward_filter(img: np.ndarray, ftypes: list[int]) -> bytes:
    """Spec-side scanline filtering (RFC 2083 §6) implemented HERE,
    independently of the decoder's inverse."""
    h, w, c = img.shape
    out = bytearray()
    prev = np.zeros(w * c, dtype=np.int64)
    for y in range(h):
        cur = img[y].reshape(-1).astype(np.int64)
        f = ftypes[y % len(ftypes)]
        out.append(f)
        for x in range(w * c):
            left = cur[x - c] if x >= c else 0
            up = prev[x]
            ul = prev[x - c] if x >= c else 0
            if f == 0:
                v = cur[x]
            elif f == 1:
                v = cur[x] - left
            elif f == 2:
                v = cur[x] - up
            elif f == 3:
                v = cur[x] - (left + up) // 2
            else:   # 4 Paeth
                p = left + up - ul
                pa_, pb, pc_ = abs(p - left), abs(p - up), abs(p - ul)
                pred = left if (pa_ <= pb and pa_ <= pc_) else \
                    (up if pb <= pc_ else ul)
                v = cur[x] - pred
            out.append(int(v) % 256)
        prev = cur
    return bytes(out)


def _chunk(tag: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + tag + body + \
        struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)


@pytest.mark.parametrize("channels,color_type", [(1, 0), (3, 2), (4, 6),
                                                 (2, 4)])
def test_decode_inverts_every_filter_type(channels, color_type):
    rs = np.random.RandomState(7 * channels)
    img = rs.randint(0, 256, (10, 9, channels)).astype(np.uint8)
    raw = _forward_filter(img, [0, 1, 2, 3, 4])   # cycle all filters
    png = b"".join([
        b"\x89PNG\r\n\x1a\n",
        _chunk(b"IHDR", struct.pack(">IIBBBBB", 9, 10, 8, color_type, 0, 0, 0)),
        _chunk(b"IDAT", zlib.compress(raw)),
        _chunk(b"IEND", b""),
    ])
    got = decode_png(png)
    want = img[:, :, 0] if channels == 1 else img
    np.testing.assert_array_equal(got, want)


def test_golden_pixels_known_bytes():
    """A hand-checked 2x2 greyscale PNG: pixels [[0,255],[17,34]]."""
    img = np.array([[0, 255], [17, 34]], dtype=np.uint8)
    data = encode_png(img)
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    w, h = struct.unpack(">II", data[16:24])
    assert (w, h) == (2, 2)
    np.testing.assert_array_equal(decode_png(data), img)


def test_unsupported_seams_raise():
    img = np.zeros((4, 4), dtype=np.uint8)
    data = bytearray(encode_png(img))
    data[24] = 16   # bit depth byte → 16
    with pytest.raises(NotImplementedError, match="bit depth"):
        decode_png(bytes(data))
    with pytest.raises(ValueError, match="signature"):
        decode_png(b"JFIF" + bytes(16))


def test_media_pipeline_png_lane_value_exact(ray_session):
    """image_features over the media fixture (every 3rd image row is a
    REAL PNG): pipeline output must equal a python oracle computed from
    the raw pixel arrays, never via PNG."""
    from miru_ray.pipelines.multimodal import (media_table,
                                               image_features_pipeline)
    n = 60
    tbl = media_table(n)
    assert "png" in set(tbl["format"].to_pylist())   # the real lane exists
    got = image_features_pipeline(n).to_pandas().set_index("media_id")
    edges = np.linspace(0, 256, 17)
    for i in range(n):
        if tbl["kind"][i].as_py() == "video":
            continue
        w = tbl["width"][i].as_py()
        h = tbl["height"][i].as_py()
        fmt = tbl["format"][i].as_py()
        if fmt == "jpeg":
            # lossy lane: ground truth IS the decoded pixels (the decode
            # itself is pinned against the spec in test_jpeg.py)
            from miru_ray.functions.jpeg import decode_jpeg
            arr = decode_jpeg(tbl["payload"][i].as_py())[None]
        else:    # png carries the seeded pixels losslessly; fake-raw is raw
            arr = np.random.default_rng(1000 + i).integers(
                0, 256, w * h, dtype=np.int64).astype(np.uint8) \
                .reshape(1, h, w)
        hist, _ = np.histogram(arr, bins=edges)
        np.testing.assert_allclose(
            np.array(got.loc[i, "feature"], dtype=np.float32),
            (hist / arr.size).astype(np.float32), rtol=0, atol=0)
