"""Multimodal columns — image/audio/video as opaque binary + typed metadata.

The training-data-pipeline family: media rides through the engine as
``binary`` payload columns with typed metadata columns, and every
decode / feature-extract / resize / frame-sample step is a plain
``map_batches`` function run as a task. No step holds model or codec
state worth keeping warm, so none runs as an actor pool (an idle pool
actor keeps its CPU until the finished dataset is collected).

Every media lane has a REAL codec exercised end-to-end on genuine
compressed/container bytes:

- images: ``png`` — functions/png.py, stdlib-zlib PNG (8-bit
  gray/RGB/RGBA, all five scanline filters), golden-pixel pytests; and
  ``jpeg`` — functions/jpeg.py, baseline JFIF (DCT + Huffman, 4:4:4 and
  4:2:0, restart markers), spec-formula DCT pytest oracle;
- video: ``gif`` — functions/gif.py, animated GIF89a with full
  GIF-variant LZW (growing code widths, table resets, interlace),
  hand-packed-bitstream pytest oracle;
- audio: ``wav`` — functions/wav.py, RIFF/WAVE PCM (8/16-bit,
  mono/stereo), cross-checked against the independent stdlib ``wave``
  module in both directions.

Formats with no codec in this container (mp4/mp3/webp/...) keep a
deterministic fake: blobs carry a self-describing MMF1/MMA1 header +
seeded payload, and ``_decode_blob``/``_decode_audio`` raise
``NotImplementedError`` for them so the remaining seam is explicit and
swappable for PIL/ffmpeg. Everything around decode — schema, batch
sizing for MB-scale rows, stage signatures, zero-copy binary handling,
output layout — is real and tested.

Batch sizes stay SMALL (media rows are MBs): ``MEDIA_BATCH_SIZE`` bounds
the rows one task decodes below worker heap (SURVEY.md §7.5 "Wide docs").
"""

from __future__ import annotations

import functools
import struct

import numpy as np
import pyarrow as pa

import ray.data as rd

__all__ = ["media_table", "image_features_pipeline", "frame_sample_pipeline",
           "audio_table", "audio_features_pipeline",
           "MEDIA_BATCH_SIZE", "MEDIA_SCHEMA"]

MEDIA_BATCH_SIZE = 64
_MAGIC = b"MMF1"
_HIST_EDGES = np.linspace(0, 256, 16 + 1)   # 16-bin intensity histogram

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),          # image | video
    ("format", pa.string()),        # png/jpeg/gif (real codecs) | fake-raw | mp4 (stub)
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("n_frames", pa.int32()),       # 1 for images
    ("payload", pa.binary()),
])


def _make_blob(content_seed: int, width: int, height: int,
               n_frames: int) -> bytes:
    """Deterministic fake media blob: MMF1 header + seeded frame bytes."""
    rng = np.random.default_rng(content_seed)
    body = rng.integers(0, 256, width * height * n_frames, dtype=np.int64) \
              .astype(np.uint8).tobytes()
    return _MAGIC + struct.pack("<iii", width, height, n_frames) + body


def media_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic synthetic media table. Real-codec lanes: image rows
    alternate REAL PNG bytes (i%3==0, functions/png.py) and REAL baseline
    JPEG bytes (i%3==1, functions/jpeg.py — lossy, so decoded stats are
    stats of the decoded pixels); every 2nd video row is a REAL animated
    GIF89a (functions/gif.py, every 4th of those interlaced); the rest
    stay fake-raw so every lane is exercised."""
    from miru_ray.functions.gif import encode_gif
    from miru_ray.functions.jpeg import encode_jpeg
    from miru_ray.functions.png import encode_png
    rows = {k: [] for k in ("media_id", "kind", "format", "width", "height",
                            "n_frames", "payload")}
    for i in range(n):
        rng = np.random.default_rng((seed << 20) ^ i)
        is_video = (i % 5 == 4)
        w, h = int(rng.integers(8, 33)), int(rng.integers(8, 33))
        frames = int(rng.integers(4, 17)) if is_video else 1
        is_png = (not is_video) and (i % 3 == 0)
        is_jpeg = (not is_video) and (i % 3 == 1)
        is_gif = is_video and (i % 10 == 9)
        rows["media_id"].append(i)
        rows["kind"].append("video" if is_video else "image")
        rows["format"].append("png" if is_png
                              else ("jpeg" if is_jpeg
                                    else ("gif" if is_gif else "fake-raw")))
        rows["width"].append(w)
        rows["height"].append(h)
        rows["n_frames"].append(frames)
        # payload CONTENT derives from the table seed too (default 42
        # reproduces the historical 1000+i fixtures) — varying the seed
        # must vary the pixels, not just the dims
        content_seed = (1000 + i) if seed == 42 else ((seed << 22) ^ (1000 + i))
        pix = np.random.default_rng(content_seed).integers(
            0, 256, w * h * frames, dtype=np.int64).astype(np.uint8)
        if is_png:
            rows["payload"].append(encode_png(pix.reshape(h, w)))
        elif is_jpeg:
            rows["payload"].append(encode_jpeg(pix.reshape(h, w), quality=90))
        elif is_gif:
            rows["payload"].append(encode_gif(pix.reshape(frames, h, w),
                                              interlace=(i % 20 == 19)))
        else:
            rows["payload"].append(_make_blob(content_seed, w, h, frames))
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "kind": pa.array(rows["kind"], pa.string()),
        "format": pa.array(rows["format"], pa.string()),
        "width": pa.array(rows["width"], pa.int32()),
        "height": pa.array(rows["height"], pa.int32()),
        "n_frames": pa.array(rows["n_frames"], pa.int32()),
        "payload": pa.array(rows["payload"], pa.binary()),
    })


def _decode_blob(fmt: str, payload: bytes) -> np.ndarray:
    """payload → (frames, height, width) uint8 array.

    ``png``, ``jpeg`` and ``gif`` are REAL codecs (functions/png.py
    stdlib-zlib PNG; functions/jpeg.py baseline JFIF; functions/gif.py
    animated GIF89a LZW — the video-container lane); color frames collapse
    to integer BT.601 luma. ``fake-raw`` is the deterministic fixture
    format. Remaining formats (mp4/webp/...) have no codec in this
    container — the seam raises so the stub is explicit and swappable."""
    if fmt == "gif":
        from miru_ray.functions.gif import decode_gif_gray
        return decode_gif_gray(payload)
    if fmt == "jpeg":
        from miru_ray.functions.color import bt601_luma
        from miru_ray.functions.jpeg import decode_jpeg
        img = decode_jpeg(payload)
        if img.ndim == 3:               # RGB → integer BT.601 luma
            img = bt601_luma(img)
        return img[None, :, :]
    if fmt == "png":
        from miru_ray.functions.color import bt601_luma
        from miru_ray.functions.png import decode_png
        img = decode_png(payload)
        if img.ndim == 3:
            if img.shape[2] >= 3:   # RGB/RGBA → integer BT.601 luma
                img = bt601_luma(img[:, :, :3])
            else:                   # grey+alpha → the grey channel
                img = img[:, :, 0]
        return img[None, :, :]
    if fmt != "fake-raw":
        raise NotImplementedError(
            f"codec for format {fmt!r} not available in this environment; "
            "swap _decode_blob for a PIL/ffmpeg-backed implementation")
    if payload[:4] != _MAGIC:
        raise ValueError("bad media magic")
    if len(payload) < 16:
        raise ValueError("media header shorter than 16 bytes")
    w, h, frames = struct.unpack("<iii", payload[4:16])
    arr = np.frombuffer(payload, dtype=np.uint8, offset=16)
    return arr.reshape(frames, h, w)


def _image_features(batch: pa.Table) -> pa.Table:
    """Feature extraction: decoded image → 16-bin intensity histogram
    feature vector (list<float>) + resize-to-8x8 thumbnail mean.
    Deterministic stand-in for a CNN embedding stage."""
    feats, thumb_means = [], []
    for fmt, payload in zip(batch["format"].to_pylist(),
                            batch["payload"].to_pylist()):
        arr = _decode_blob(fmt, payload)
        hist, _ = np.histogram(arr, bins=_HIST_EDGES)
        feats.append((hist / max(1, arr.size)).astype(np.float32))
        # "resize": average-pool first frame to 8x8 via reshape-free strides
        f0 = arr[0].astype(np.float64)
        ys = np.linspace(0, f0.shape[0], 9).astype(int)
        xs = np.linspace(0, f0.shape[1], 9).astype(int)
        pooled = [[f0[ys[i]:max(ys[i + 1], ys[i] + 1),
                      xs[j]:max(xs[j + 1], xs[j] + 1)].mean()
                   for j in range(8)] for i in range(8)]
        thumb_means.append(round(float(np.mean(pooled)), 6))
    return pa.table({
        "media_id": batch["media_id"],
        "feature": pa.array([f.tolist() for f in feats],
                            pa.list_(pa.float32())),
        "thumb_mean": pa.array(thumb_means, pa.float64()),
    })


def _sample_frames(batch: pa.Table, *, every_k: int) -> pa.Table:
    """Frame sampling for video rows: every k-th frame's mean intensity
    (the frame-sample primitive; deterministic)."""
    ids, frame_idx, means = [], [], []
    for mid, fmt, payload in zip(batch["media_id"].to_pylist(),
                                 batch["format"].to_pylist(),
                                 batch["payload"].to_pylist()):
        arr = _decode_blob(fmt, payload)
        for fi in range(0, arr.shape[0], every_k):
            ids.append(mid)
            frame_idx.append(fi)
            means.append(round(float(arr[fi].mean()), 6))
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "frame_idx": pa.array(frame_idx, pa.int64()),
        "frame_mean": pa.array(means, pa.float64()),
    })


def image_features_pipeline(n_media: int = 200) -> pa.Table:
    """media → decode → features, as a map_batches task stage."""
    ds = rd.from_arrow(media_table(n_media))
    feats = ds.map_batches(_image_features, batch_format="pyarrow",
                           batch_size=MEDIA_BATCH_SIZE)
    out = feats.to_pandas().sort_values("media_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def frame_sample_pipeline(n_media: int = 200, every_k: int = 4) -> pa.Table:
    """media → filter videos → frame-sample (map_batches tasks)."""
    import pyarrow.compute as pc
    ds = rd.from_arrow(media_table(n_media))
    ds = ds.map_batches(lambda t: t.filter(pc.equal(t["kind"], "video")),
                        batch_format="pyarrow")
    frames = ds.map_batches(functools.partial(_sample_frames, every_k=every_k),
                            batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE)
    out = frames.to_pandas().sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# --- audio (same binary-column + task pattern; PCM stand-in) -------------

_AUDIO_MAGIC = b"MMA1"


def _make_audio_blob(content_seed: int, sample_rate: int,
                     n_samples: int) -> bytes:
    """Deterministic fake audio blob: MMA1 header + seeded int16 PCM."""
    rng = np.random.default_rng(content_seed)
    body = rng.integers(-32768, 32768, n_samples, dtype=np.int64) \
              .astype(np.int16).tobytes()
    return _AUDIO_MAGIC + struct.pack("<ii", sample_rate, n_samples) + body


def audio_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic synthetic audio table (short PCM clips). Every 3rd
    clip is a REAL RIFF/WAVE container (functions/wav.py) with the same
    seeded samples; the rest stay fake-pcm so both lanes are exercised."""
    from miru_ray.functions.wav import encode_wav
    rows = {k: [] for k in ("media_id", "format", "sample_rate", "n_samples",
                            "payload")}
    for i in range(n):
        rng = np.random.default_rng((seed << 21) ^ i)
        sr = int(rng.choice([8000, 16000]))
        ns = int(rng.integers(2048, 16384))
        is_wav = (i % 3 == 0)
        rows["media_id"].append(i)
        rows["format"].append("wav" if is_wav else "fake-pcm")
        rows["sample_rate"].append(sr)
        rows["n_samples"].append(ns)
        content_seed = (2000 + i) if seed == 42 else ((seed << 22) ^ (2000 + i))
        if is_wav:
            pcm = np.random.default_rng(content_seed).integers(
                -32768, 32768, ns, dtype=np.int64).astype(np.int16)
            rows["payload"].append(encode_wav(pcm, sr))
        else:
            rows["payload"].append(_make_audio_blob(content_seed, sr, ns))
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "format": pa.array(rows["format"], pa.string()),
        "sample_rate": pa.array(rows["sample_rate"], pa.int32()),
        "n_samples": pa.array(rows["n_samples"], pa.int32()),
        "payload": pa.array(rows["payload"], pa.binary()),
    })


def _decode_audio(fmt: str, payload: bytes) -> tuple[int, np.ndarray]:
    """payload → (sample_rate, int16 samples).

    ``wav`` is a REAL codec (functions/wav.py, RIFF/WAVE PCM pinned
    against the independent stdlib ``wave`` module); stereo collapses to
    the mean channel. ``fake-pcm`` is the deterministic fixture format.
    mp3/ogg/flac are NOT available in this container — the seam raises so
    the stub is explicit and swappable for a soundfile/ffmpeg decoder."""
    if fmt == "wav":
        from miru_ray.functions.wav import decode_wav
        sr, x = decode_wav(payload)
        if x.ndim == 2:     # stereo → mean channel, conventional downmix
            x = x.astype(np.int64).mean(axis=1).astype(np.int16)
        return sr, x
    if fmt != "fake-pcm":
        raise NotImplementedError(
            f"codec for format {fmt!r} not available in this environment; "
            "swap _decode_audio for a soundfile/ffmpeg-backed implementation")
    if payload[:4] != _AUDIO_MAGIC:
        raise ValueError("bad audio magic")
    if len(payload) < 12:
        raise ValueError("audio header shorter than 12 bytes")
    sr, n = struct.unpack("<ii", payload[4:12])
    return sr, np.frombuffer(payload, dtype=np.int16, offset=12, count=n)


def _audio_features(batch: pa.Table) -> pa.Table:
    """Audio feature extraction: PCM → duration, RMS energy, zero-crossing
    rate, peak amplitude. Deterministic stand-in for a wav2vec-style
    embedding stage."""
    dur, rms, zcr, peak = [], [], [], []
    for fmt, payload in zip(batch["format"].to_pylist(),
                            batch["payload"].to_pylist()):
        sr, x = _decode_audio(fmt, payload)
        xf = x.astype(np.float64) / 32768.0
        dur.append(round(len(x) / sr, 6))
        rms.append(round(float(np.sqrt(np.mean(xf * xf))), 6))
        zcr.append(round(float(np.mean(np.signbit(xf[1:])
                                       != np.signbit(xf[:-1]))), 6))
        peak.append(round(float(np.abs(xf).max()), 6))
    return pa.table({
        "media_id": batch["media_id"],
        "duration_s": pa.array(dur, pa.float64()),
        "rms": pa.array(rms, pa.float64()),
        "zcr": pa.array(zcr, pa.float64()),
        "peak": pa.array(peak, pa.float64()),
    })


def audio_features_pipeline(n_media: int = 200) -> pa.Table:
    """audio → decode → features, as a map_batches task stage."""
    ds = rd.from_arrow(audio_table(n_media))
    feats = ds.map_batches(_audio_features, batch_format="pyarrow",
                           batch_size=MEDIA_BATCH_SIZE)
    out = feats.to_pandas().sort_values("media_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# --- mp4/mp3 CONTAINER lanes (round 5): real box/frame parsing; codec
#     payload decode remains the explicit NotImplementedError seam
#     (functions/mp4.decode_sample_payload, functions/mp3.decode_frame_payload)

def container_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic synthetic container-media table: alternating MP4
    (muxed by functions/mp4.encode_mp4 with known per-sample bytes) and
    MP3 (functions/mp3.encode_mp3, VBR frame mix) payloads."""
    from miru_ray.functions.mp3 import encode_mp3
    from miru_ray.functions.mp4 import encode_mp4
    rows = {k: [] for k in ("media_id", "container", "payload")}
    for i in range(n):
        rng = np.random.default_rng((seed << 23) ^ i)
        rows["media_id"].append(i)
        if i % 2 == 0:
            n_samples = int(rng.integers(4, 24))
            samples = [rng.integers(0, 256, int(rng.integers(64, 512)),
                                    dtype=np.int64).astype(np.uint8).tobytes()
                       for _ in range(n_samples)]
            rows["container"].append("mp4")
            rows["payload"].append(encode_mp4(
                samples, sample_delta=int(rng.choice([33, 40])),
                width=int(rng.choice([64, 128])), height=48))
        else:
            kbps = [int(k) for k in rng.choice([96, 128, 192],
                                               int(rng.integers(8, 40)))]
            rows["container"].append("mp3")
            rows["payload"].append(encode_mp3(
                kbps, sample_rate=int(rng.choice([44100, 48000]))))
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "container": pa.array(rows["container"], pa.string()),
        "payload": pa.array(rows["payload"], pa.binary()),
    })


def _container_metadata(batch: pa.Table) -> pa.Table:
    """Container-metadata stage: per payload, parse the box tree (mp4) or
    frame-header walk (mp3) and emit the stats a curation pipeline
    shards/filters by — duration, unit (sample/frame) count, codec,
    bytes — WITHOUT any codec decode."""
    from miru_ray.functions.mp3 import parse_mp3
    from miru_ray.functions.mp4 import extract_samples, parse_mp4
    out = {k: [] for k in ("media_id", "container", "codec",
                           "duration_s", "n_units", "payload_bytes")}
    for mid, kind, payload in zip(batch["media_id"].to_pylist(),
                                  batch["container"].to_pylist(),
                                  batch["payload"].to_pylist()):
        if kind == "mp4":
            info = parse_mp4(payload)
            track = info.tracks[0]
            samples = extract_samples(payload, track, info)
            codec = track.codec
            dur = info.duration_s
            n_units = len(samples)
            nbytes = sum(len(s) for s in samples)
        else:
            info = parse_mp3(payload)
            codec = "mp3"
            dur = info.duration_s
            n_units = info.n_frames
            nbytes = len(payload)
        out["media_id"].append(mid)
        out["container"].append(kind)
        out["codec"].append(codec)
        out["duration_s"].append(round(dur, 6))
        out["n_units"].append(n_units)
        out["payload_bytes"].append(nbytes)
    return pa.table({
        "media_id": pa.array(out["media_id"], pa.int64()),
        "container": pa.array(out["container"], pa.string()),
        "codec": pa.array(out["codec"], pa.string()),
        "duration_s": pa.array(out["duration_s"], pa.float64()),
        "n_units": pa.array(out["n_units"], pa.int64()),
        "payload_bytes": pa.array(out["payload_bytes"], pa.int64()),
    })


def container_metadata_pipeline(n_media: int = 200) -> pa.Table:
    """container media → parse metadata (map_batches tasks), media_id-sorted."""
    ds = rd.from_arrow(container_table(n_media))
    meta = ds.map_batches(_container_metadata, batch_format="pyarrow",
                          batch_size=MEDIA_BATCH_SIZE)
    out = meta.to_pandas().sort_values("media_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)
