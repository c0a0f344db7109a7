"""Multimodal plumbing: decode stub, map_batches task stages, schema
stability, determinism, the explicit NotImplementedError seam for real
codecs, and ValueError for malformed fixture blobs."""

from __future__ import annotations

import numpy as np
import pytest

from miru_ray.pipelines.multimodal import (_decode_blob, _sample_frames,
                                           frame_sample_pipeline,
                                           image_features_pipeline, media_table)


def test_media_table_deterministic():
    a = media_table(50)
    b = media_table(50)
    assert a.equals(b)
    kinds = a["kind"].to_pylist()
    assert kinds.count("video") == 10  # every 5th row


def test_decode_roundtrip_and_stub_seam():
    t = media_table(6)
    fmts = t["format"].to_pylist()
    for i in range(len(fmts)):   # decode BOTH real lanes
        arr = _decode_blob(fmts[i], t["payload"][i].as_py())
        assert arr.shape == (t["n_frames"][i].as_py(),
                             t["height"][i].as_py(), t["width"][i].as_py())
    assert "png" in fmts and "jpeg" in fmts   # the REAL image-codec lanes
    # mp4/webp stay explicit NotImplementedError seams
    with pytest.raises(NotImplementedError):
        _decode_blob("mp4", b"\x00\x00\x00\x18ftyp")
    # malformed fake-raw blobs raise ValueError (not an assert `-O` strips)
    raw = t["payload"][fmts.index("fake-raw")].as_py()
    with pytest.raises(ValueError, match="magic"):
        _decode_blob("fake-raw", b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="shorter"):
        _decode_blob("fake-raw", raw[:10])


def test_jpeg_image_lane_near_seeded_content():
    """Real-JPEG image rows decode close to the seeded pixel content
    (lossy by design: quality-90 quantization bounds the error) and
    deterministically."""
    t = media_table(30)
    fmts = t["format"].to_pylist()
    jpeg_rows = [i for i, f in enumerate(fmts) if f == "jpeg"]
    assert jpeg_rows
    for i in jpeg_rows:
        mid = t["media_id"][i].as_py()
        arr = _decode_blob("jpeg", t["payload"][i].as_py())
        w, h = t["width"][i].as_py(), t["height"][i].as_py()
        assert arr.shape == (1, h, w)
        exp = np.random.default_rng(1000 + mid).integers(
            0, 256, w * h, dtype=np.int64).astype(np.uint8).reshape(h, w)
        assert np.abs(arr[0].astype(int) - exp.astype(int)).max() <= 16
        again = _decode_blob("jpeg", t["payload"][i].as_py())
        assert np.array_equal(arr, again)


def test_gif_video_lane_matches_fake_raw_content():
    """Real-GIF video rows decode to the SAME seeded pixel content the
    fake-raw recipe would produce (one content recipe, two containers),
    including an interlaced row (i % 20 == 19)."""
    t = media_table(40)
    fmts = t["format"].to_pylist()
    gif_rows = [i for i, f in enumerate(fmts) if f == "gif"]
    assert gif_rows and any(t["media_id"][i].as_py() % 20 == 19
                            for i in gif_rows)
    for i in gif_rows:
        mid = t["media_id"][i].as_py()
        arr = _decode_blob("gif", t["payload"][i].as_py())
        w, h, n = (t["width"][i].as_py(), t["height"][i].as_py(),
                   t["n_frames"][i].as_py())
        exp = np.random.default_rng(1000 + mid).integers(
            0, 256, w * h * n, dtype=np.int64).astype(np.uint8) \
            .reshape(n, h, w)
        assert np.array_equal(arr, exp)


def test_image_features_pipeline_distributed(ray_session):
    feats = image_features_pipeline(60)
    assert feats.num_rows == 60
    v = feats["feature"][0].as_py()
    assert len(v) == 16
    assert abs(sum(v) - 1.0) < 1e-5  # normalized histogram
    again = image_features_pipeline(60)
    assert feats.equals(again)  # deterministic across runs


def test_frame_sampling(ray_session):
    frames = frame_sample_pipeline(60, every_k=4)
    t = media_table(60)
    vids = {m: f for m, k, f in zip(t["media_id"].to_pylist(),
                                    t["kind"].to_pylist(),
                                    t["n_frames"].to_pylist()) if k == "video"}
    counts = {}
    for mid in frames["media_id"].to_pylist():
        counts[mid] = counts.get(mid, 0) + 1
    assert set(counts) == set(vids)
    for mid, n_frames in vids.items():
        assert counts[mid] == (n_frames + 3) // 4  # ceil(n/k)
    # sampled means match direct decode
    direct = _sample_frames(
        t.filter([k == "video" for k in t["kind"].to_pylist()]), every_k=4)
    got = frames.sort_by([("media_id", "ascending"), ("frame_idx", "ascending")])
    assert got.equals(direct.sort_by([("media_id", "ascending"),
                                      ("frame_idx", "ascending")]))


def test_audio_features_deterministic_and_exact(ray_session):
    """Pipeline output == direct per-row recompute; codec seam raises for
    real formats; determinism across runs."""
    import numpy as np
    import pytest
    from miru_ray.pipelines.multimodal import (_audio_features, _decode_audio,
                                               audio_features_pipeline,
                                               audio_table)
    a = audio_features_pipeline(60).to_pandas()
    b = audio_features_pipeline(60).to_pandas()
    assert a.equals(b)
    assert list(a.columns) == ["media_id", "duration_s", "rms", "zcr", "peak"]
    # direct recompute for a few rows
    t = audio_table(60)
    direct = _audio_features(t.slice(0, 5)).to_pandas()
    assert a.head(5).reset_index(drop=True).equals(direct)
    # ranges sane
    assert (a["peak"] <= 1.0).all() and (a["rms"] > 0).all()
    assert ((a["zcr"] >= 0) & (a["zcr"] <= 1)).all()
    # the real-WAV lane exists and decodes to the same seeded samples as
    # the fake-pcm recipe (one content recipe, two containers)
    fmts = t["format"].to_pylist()
    assert "wav" in fmts
    i = fmts.index("wav")
    sr, x = _decode_audio("wav", t["payload"][i].as_py())
    assert sr == t["sample_rate"][i].as_py()
    mid, ns = t["media_id"][i].as_py(), t["n_samples"][i].as_py()
    exp = np.random.default_rng(2000 + mid).integers(
        -32768, 32768, ns, dtype=np.int64).astype(np.int16)
    assert np.array_equal(x, exp)
    with pytest.raises(NotImplementedError):
        _decode_audio("mp3", b"xxxx")
    pcm = t["payload"][fmts.index("fake-pcm")].as_py()
    with pytest.raises(ValueError, match="magic"):
        _decode_audio("fake-pcm", b"XXXX" + pcm[4:])
    with pytest.raises(ValueError, match="shorter"):
        _decode_audio("fake-pcm", pcm[:8])


def test_fixture_seed_varies_payload_content():
    """media_table/audio_table seed must vary payload CONTENT, not just
    dims; the default seed keeps the historical fixtures byte-identical."""
    from miru_ray.pipelines.multimodal import audio_table, media_table
    a, b = media_table(12, seed=7), media_table(12, seed=8)
    assert a["payload"].to_pylist() != b["payload"].to_pylist()
    assert media_table(12, seed=7)["payload"].to_pylist() == \
        a["payload"].to_pylist()                 # still deterministic
    ax, bx = audio_table(9, seed=7), audio_table(9, seed=8)
    assert ax["payload"].to_pylist() != bx["payload"].to_pylist()
