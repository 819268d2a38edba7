"""Multimodal columns: image/audio/video as opaque ``binary`` + typed metadata.

The real decode libraries (PIL/ffmpeg/torchaudio) are NOT in this container
(environment constraint), so the codec boundary is stubbed two ways:

- :class:`FakeImageCodec` — a deterministic container format (``CRIM`` magic
  + big-endian width/height/channels + raw payload) so the Ray-side plumbing
  (schema, bytes-capped batches, stage signature, output layout) is REAL and
  tested end-to-end.
- :class:`ImageDecoder` with ``backend="pil"`` raises ``NotImplementedError``
  at __init__ — the clearly-marked seam where a real decoder plugs in.

Scale notes: binary payloads make rows wide — these stages must be fed with
``batch_size`` sized by BYTES (helper :func:`rows_for_byte_budget`), and the
binary column is dropped as soon as features are extracted (projection before
any shuffle — SURVEY.md §7.4 "wide binary rows").
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

MAGIC = b"CRIM"  # cattle-ray image
_HDR = struct.Struct(">4sHHB")

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xFF51AFD7ED558CCD)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit finalizer mix (splitmix-style)."""
    with np.errstate(over="ignore"):
        x = x * _MIX1
        x ^= x >> np.uint64(33)
        x = x * _MIX2
        x ^= x >> np.uint64(29)
    return x


def _fake_payloads(seeds: np.ndarray, n_bytes: int) -> np.ndarray:
    """(n, n_bytes) deterministic pseudo-random uint8 payloads — one
    vectorized mix per batch, per-row deterministic regardless of batching
    (replaces one RandomState init PER ROW)."""
    idx = np.arange((n_bytes + 7) // 8, dtype=np.uint64)
    with np.errstate(over="ignore"):
        words = _mix64(seeds.astype(np.uint64)[:, None] ^ _mix64(idx[None, :]))
    return words.view(np.uint8)[:, :n_bytes]


def encode_fake_image(width: int, height: int, channels: int = 3, seed: int = 0) -> bytes:
    """Deterministic fake image: header + seeded byte payload."""
    payload_len = min(width * height * channels, 4096)
    s = np.array([(seed ^ (width << 16) ^ height) & 0x7FFFFFFF], dtype=np.uint64)
    payload = _fake_payloads(s, payload_len)[0].tobytes()
    return _HDR.pack(MAGIC, width, height, channels) + payload


def decode_fake_image(buf: bytes) -> dict:
    magic, w, h, c = _HDR.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ValueError("not a CRIM payload")
    payload = buf[_HDR.size:]
    return {
        "width": int(w),
        "height": int(h),
        "channels": int(c),
        "payload_crc": zlib.crc32(payload) & 0xFFFFFFFF,
        "n_bytes": len(buf),
    }


def encode_bmp(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB (top-down) → 24-bit uncompressed BMP bytes
    (BITMAPINFOHEADER, bottom-up rows, 4-byte row padding — the classic
    on-disk layout). Test/fixture helper for :func:`decode_bmp`."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    stride = (w * 3 + 3) & ~3
    rows = np.zeros((h, stride), np.uint8)
    rows[:, : w * 3] = pixels[::-1, :, ::-1].reshape(h, w * 3)  # flip + BGR
    data = rows.tobytes()
    hdr = struct.pack("<2sIHHI", b"BM", 54 + len(data), 0, 0, 54)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data),
                      2835, 2835, 0, 0)
    return hdr + dib + data


def decode_bmp(buf: bytes) -> dict:
    """REAL image decode, pure stdlib+numpy: 24-bit uncompressed BMP →
    canonical top-down RGB pixels. Strips the 4-byte row padding, flips
    the bottom-up row order, swaps BGR→RGB — ``payload_crc`` is the crc
    of the DECODED pixel buffer, so a header-only parse cannot pass the
    roundtrip test. Same contract as :func:`decode_fake_image` (what a
    PIL backend returns through the :class:`ImageDecoder` seam)."""
    if buf[:2] != b"BM":
        raise ValueError("not a BMP payload")
    (pix_off,) = struct.unpack_from("<I", buf, 10)
    w, h = struct.unpack_from("<ii", buf, 18)
    (bpp,) = struct.unpack_from("<H", buf, 28)
    (comp,) = struct.unpack_from("<I", buf, 30)
    if bpp != 24 or comp != 0:
        raise ValueError(f"only 24-bit uncompressed BMP supported "
                         f"(got bpp={bpp}, compression={comp})")
    bottom_up = h > 0
    h = abs(h)
    stride = (w * 3 + 3) & ~3
    rows = np.frombuffer(buf, np.uint8, stride * h, pix_off).reshape(h, stride)
    px = rows[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR → RGB
    if bottom_up:
        px = px[::-1]
    return {
        "width": w,
        "height": h,
        "channels": 3,
        "payload_crc": zlib.crc32(np.ascontiguousarray(px)) & 0xFFFFFFFF,
        "n_bytes": len(buf),
    }


def encode_ppm(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB → binary PPM (P6). Fixture for :func:`decode_ppm`."""
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def decode_ppm(buf: bytes) -> dict:
    """REAL image decode, pure stdlib+numpy: binary PPM (P6) with full
    header grammar (arbitrary whitespace, ``#`` comments). Same contract
    as :func:`decode_bmp`."""
    if buf[:2] != b"P6":
        raise ValueError("not a P6 PPM payload")
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if buf[pos : pos + 1] == b"#":
            pos = buf.index(b"\n", pos) + 1
            continue
        end = pos
        while end < len(buf) and not buf[end : end + 1].isspace():
            end += 1
        fields.append(int(buf[pos:end]))
        pos = end
    pos += 1  # single whitespace after maxval, then raw samples
    w, h, maxval = fields
    if maxval > 255:
        raise ValueError("16-bit PPM not supported")
    px = np.frombuffer(buf, np.uint8, w * h * 3, pos).reshape(h, w, 3)
    return {
        "width": w,
        "height": h,
        "channels": 3,
        "payload_crc": zlib.crc32(np.ascontiguousarray(px)) & 0xFFFFFFFF,
        "n_bytes": len(buf),
    }


def decode_image_stdlib(buf: bytes) -> dict:
    """Magic-sniffing stdlib image backend: BMP or PPM, real pixel decode."""
    if buf[:2] == b"BM":
        return decode_bmp(buf)
    if buf[:2] == b"P6":
        return decode_ppm(buf)
    raise ValueError("unrecognized image magic (stdlib backend: BMP/PPM)")


class ImageDecoder:
    """Decode stage: ``image:binary`` → typed metadata columns (+ optional
    feature vector). Build one instance in the driver and map it as tasks.
    A real backend whose model / codec context is too large to ship per
    task, or too costly to rebuild per task, maps the class as an actor
    pool instead, with a recorded A/B."""

    def __init__(self, backend="fake", feature_dim: int = 8):
        # the seam contract: any Callable[[bytes], dict] returning
        # width/height/channels/payload_crc/n_bytes plugs in unchanged —
        # a PIL-backed decoder is exactly such a callable
        if callable(backend):
            self._decode = backend
        elif backend == "fake":
            self._decode = decode_fake_image
        elif backend == "stdlib":
            # REAL decode without PIL: BMP/PPM bytes → pixels (see
            # decode_bmp/decode_ppm) — the image twin of the audio
            # seam's stdlib ``wave`` proof
            self._decode = decode_image_stdlib
        elif backend == "pil":
            raise NotImplementedError(
                "PIL/libjpeg not available in this environment; pass a "
                "callable backend implementing the same contract "
                "(backend='stdlib' decodes BMP/PPM without it)"
            )
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.feature_dim = feature_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        bufs = batch["image"].to_pylist()
        metas = [self._decode(b) if b else None for b in bufs]
        # deterministic fake "feature extraction", VECTORIZED over the batch:
        # crc-seeded 64-bit mix per (row, dim) → uniform [0,1) floats
        # (replaces one RandomState init per row)
        crcs = np.array([m["payload_crc"] if m else 0 for m in metas],
                        dtype=np.uint64)
        dims = np.arange(1, self.feature_dim + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = _mix64(crcs[:, None] ^ _mix64(dims[None, :]))
        feats = (mixed >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        feats[[m is None for m in metas], :] = 0.0
        cols = {n: batch[n] for n in batch.column_names if n != "image"}  # drop binary
        for field in ("width", "height", "channels", "n_bytes"):
            cols[field] = pa.array(
                [m[field] if m else None for m in metas], pa.int32()
            )
        cols["payload_crc"] = pa.array(
            [m["payload_crc"] if m else None for m in metas], pa.uint32()
        )
        cols["features"] = pa.array(
            feats.astype(np.float32).tolist(),
            pa.list_(pa.float32(), self.feature_dim),
        )
        return pa.table(cols)


MAGIC_AUDIO = b"CRAU"
_AUDIO_HDR = struct.Struct(">4sIH")  # magic, n_samples, sample_rate/100


def encode_fake_audio(n_samples: int, sample_rate: int = 16000, seed: int = 0) -> bytes:
    rng = np.random.RandomState(seed & 0x7FFFFFFF)
    payload = rng.randint(-128, 128, size=min(n_samples, 2048), dtype=np.int8).tobytes()
    return _AUDIO_HDR.pack(MAGIC_AUDIO, n_samples, sample_rate // 100) + payload


def decode_fake_audio(buf: bytes) -> dict:
    magic, n_samples, sr = _AUDIO_HDR.unpack_from(buf, 0)
    if magic != MAGIC_AUDIO:
        raise ValueError("not a CRAU payload")
    return {
        "n_samples": int(n_samples),
        "sample_rate": int(sr) * 100,
        "duration_s": n_samples / (sr * 100.0),
        "n_bytes": len(buf),
    }


def decode_wav(buf: bytes) -> dict:
    """REAL audio decode through the stdlib ``wave`` module (RIFF/WAV, the
    one codec every Python ships): proves the backend seam with a
    non-double decoder — same contract as ``torchaudio.info``
    (n_samples / sample_rate / duration_s / n_bytes)."""
    import io
    import wave

    with wave.open(io.BytesIO(buf), "rb") as w:
        n = w.getnframes()
        sr = w.getframerate()
    return {
        "n_samples": int(n),
        "sample_rate": int(sr),
        "duration_s": n / float(sr),
        "n_bytes": len(buf),
    }


class AudioFeaturizer:
    """Actor-pool audio stage: ``audio:binary`` → duration/rate metadata +
    deterministic fake feature frames (one row per 1-second window — the
    flat-map shape a real fbank/MFCC extractor has).

    Backends: ``"wav"`` decodes REAL RIFF/WAV bytes via the stdlib
    ``wave`` module (a genuine end-to-end decode, no double);
    ``"fake"`` decodes the deterministic CRAU test payloads; any callable
    with the same contract (what ``torchaudio.info`` returns) plugs a real
    codec in — ``backend="torchaudio"`` stays the marked seam for
    environments that ship it."""

    def __init__(self, backend="fake", frame_dim: int = 4):
        # seam contract: Callable[[bytes], dict] with
        # n_samples/sample_rate/duration_s/n_bytes (what torchaudio.info gives)
        if callable(backend):
            self._decode = backend
        elif backend == "fake":
            self._decode = decode_fake_audio
        elif backend == "wav":
            self._decode = decode_wav
        else:
            raise NotImplementedError(
                "audio codecs not available in this environment; pass a "
                "callable backend implementing the same contract"
            )
        self.frame_dim = frame_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["clip_id"].to_pylist()
        bufs = batch["audio"].to_pylist()
        out_id, out_frame, out_feat = [], [], []
        for cid, buf in zip(ids, bufs):
            if not buf:
                continue
            meta = self._decode(buf)
            n_frames = max(1, int(meta["duration_s"]))
            rng = np.random.RandomState((zlib.crc32(buf) ^ n_frames) & 0x7FFFFFFF)
            feats = rng.rand(n_frames, self.frame_dim)
            for f in range(n_frames):
                out_id.append(cid)
                out_frame.append(f)
                out_feat.append(feats[f].tolist())
        return pa.table(
            {
                "clip_id": pa.array(out_id),
                "frame_idx": pa.array(out_frame, pa.int32()),
                "features": pa.array(out_feat, pa.list_(pa.float32(), self.frame_dim)),
            }
        )


class FrameSampler:
    """Video frame-sampling plumbing (deterministic stub): emits every k-th
    'frame index' row per clip — the flat-map/actor shape a real ffmpeg
    sampler uses."""

    def __init__(self, every_k: int = 10):
        self.k = every_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["clip_id"].to_pylist()
        n_frames = batch["n_frames"].to_pylist()
        out_id, out_f = [], []
        for cid, n in zip(ids, n_frames):
            for f in range(0, int(n or 0), self.k):
                out_id.append(cid)
                out_f.append(f)
        return pa.table({"clip_id": pa.array(out_id), "frame_idx": pa.array(out_f, pa.int32())})


def rows_for_byte_budget(avg_row_bytes: int, budget_bytes: int = 64 << 20) -> int:
    """batch_size helper: cap batches by BYTES for wide binary rows."""
    return max(1, budget_bytes // max(1, avg_row_bytes))


def add_fake_images(batch: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """Test/bench helper: deterministic image column derived from an id.
    Payloads for the whole batch come from ONE vectorized mix (byte-identical
    to per-row :func:`encode_fake_image`)."""
    ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
    w = 64 + ids % 64
    h = 48 + ids % 48
    seeds = ((ids ^ (w << 16) ^ h) & 0x7FFFFFFF).astype(np.uint64)
    payloads = _fake_payloads(seeds, 4096)  # w*h*3 ≥ 9216 → capped at 4096
    imgs = [
        _HDR.pack(MAGIC, int(w[i]), int(h[i]), 3) + payloads[i].tobytes()
        for i in range(len(ids))
    ]
    return batch.append_column("image", pa.array(imgs, pa.binary()))
