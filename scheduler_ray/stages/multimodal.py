"""Multimodal (image/audio/video) column operators.

Media payloads are opaque ``binary`` columns with typed metadata — the
same shape as the pages table's ``html`` column.  The Ray-side plumbing
(schema, batch sizing, actor-pool signature, output layout) is real and
tested; the codec kernels themselves are STUBBED because no image/audio
libraries exist in this container:

* :class:`MediaDecoder` raises ``NotImplementedError`` in ``strict`` mode,
  or produces a deterministic fake decode (hash-derived width/height/
  duration) in ``fake`` mode so pipelines remain runnable end-to-end.

At 100 TB: decode/resize is exactly the stage that wants a small
``batch_size`` (payloads are wide) and a real actor pool
(``concurrency=(m, n)``, codecs initialised once per actor).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ray.data import Dataset

MEDIA_META_SCHEMA = pa.schema(
    [
        ("media_id", pa.large_string()),
        ("n_bytes", pa.int64()),
        ("sha256", pa.large_string()),
        ("media_type", pa.large_string()),
    ]
)


def sniff_media(payload: bytes) -> dict:
    """REAL container-header parsing for formats whose headers need no
    codec: PNG (IHDR), GIF (logical screen), BMP (BITMAPINFOHEADER) and
    WAV (fmt chunk) — pure ``struct``.  Returns
    ``{media_type, width, height, sample_rate, n_channels}`` (None where
    not applicable); unknown payloads → ``application/octet-stream``.
    """
    import struct

    out = {
        "media_type": "application/octet-stream",
        "width": None,
        "height": None,
        "sample_rate": None,
        "n_channels": None,
    }
    if payload[:8] == b"\x89PNG\r\n\x1a\n" and len(payload) >= 24 and payload[12:16] == b"IHDR":
        out["media_type"] = "image/png"
        out["width"], out["height"] = struct.unpack(">II", payload[16:24])
    elif payload[:6] in (b"GIF87a", b"GIF89a") and len(payload) >= 10:
        out["media_type"] = "image/gif"
        out["width"], out["height"] = struct.unpack("<HH", payload[6:10])
    elif payload[:2] == b"BM" and len(payload) >= 26:
        out["media_type"] = "image/bmp"
        out["width"], out["height"] = struct.unpack("<ii", payload[18:26])
        out["height"] = abs(out["height"])  # top-down BMPs store negative
    elif payload[:4] == b"RIFF" and payload[8:12] == b"WAVE" and len(payload) >= 36:
        out["media_type"] = "audio/wav"
        if payload[12:16] == b"fmt ":
            out["n_channels"], out["sample_rate"] = struct.unpack("<HI", payload[22:28])
    return out


def media_metadata_batch(batch: pa.Table, id_col: str = "url", payload_col: str = "html") -> pa.Table:
    """Typed metadata extraction over an opaque binary column (vectorized
    length; per-row sha256 is unavoidable but C-speed).  The media_type
    comes from REAL magic-byte sniffing (:func:`sniff_media`)."""
    payload = batch[payload_col]
    import pyarrow.compute as pc

    n_bytes = pc.binary_length(pc.cast(payload, pa.large_binary()))
    shas = []
    types = []
    for v in payload:
        b = v.as_py()
        shas.append(hashlib.sha256(b).hexdigest())
        types.append(sniff_media(b)["media_type"])
    return pa.Table.from_arrays(
        [
            pc.cast(batch[id_col], pa.large_string()),
            pc.cast(n_bytes, pa.int64()),
            pa.array(shas, pa.large_string()),
            pa.array(types, pa.large_string()),
        ],
        schema=MEDIA_META_SCHEMA,
    )


def media_metadata_stage(ds: Dataset, *, id_col: str = "url", payload_col: str = "html", batch_size: int = 1024) -> Dataset:
    return ds.map_batches(
        lambda b: media_metadata_batch(b, id_col, payload_col),
        batch_format="pyarrow",
        batch_size=batch_size,  # media rows are wide — keep batches small
        zero_copy_batch=True,
    )


def decode_bmp24(payload: bytes) -> "np.ndarray | None":
    """REAL pixel decode for uncompressed 24-bit BMP — the one image
    container whose pixel layout needs no codec library (raw padded BGR
    rows, bottom-up).  Returns an (h, w, 3) uint8 RGB array, or None if
    the payload is not a 24-bit uncompressed BMP."""
    import struct

    if payload[:2] != b"BM" or len(payload) < 54:
        return None
    data_off = struct.unpack_from("<I", payload, 10)[0]
    w, h = struct.unpack_from("<ii", payload, 18)
    planes, bpp = struct.unpack_from("<HH", payload, 26)
    compression = struct.unpack_from("<I", payload, 30)[0]
    if bpp != 24 or compression != 0 or w <= 0 or h == 0:
        return None
    top_down = h < 0
    h = abs(h)
    stride = ((w * 3 + 3) // 4) * 4
    need = data_off + stride * h
    if len(payload) < need:
        return None
    rows = np.frombuffer(payload, np.uint8, stride * h, data_off).reshape(h, stride)
    img = rows[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR → RGB
    return img if top_down else img[::-1]


def decode_wav_pcm16(payload: bytes) -> "np.ndarray | None":
    """REAL sample decode for 16-bit PCM WAV (format tag 1): the data
    chunk is raw little-endian int16 frames.  Returns an
    (n_frames, n_channels) int16 array, or None for non-PCM payloads."""
    import struct

    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        return None
    pos = 12
    fmt = None
    while pos + 8 <= len(payload):
        cid = payload[pos : pos + 4]
        size = struct.unpack_from("<I", payload, pos + 4)[0]
        body = payload[pos + 8 : pos + 8 + size]
        if cid == b"fmt " and len(body) >= 16:
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data" and fmt is not None:
            audio_format, n_ch, _rate, _bps, _align, bits = fmt
            if audio_format != 1 or bits != 16 or n_ch < 1:
                return None
            n = len(body) // (2 * n_ch)
            return np.frombuffer(body, "<i2", n * n_ch).reshape(n, n_ch)
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return None


def resize_nearest(img: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize (pure-numpy gather) to (width, height)."""
    tw, th = size
    h, w = img.shape[:2]
    yi = (np.arange(th) * h // th).astype(np.int64)
    xi = (np.arange(tw) * w // tw).astype(np.int64)
    return img[yi][:, xi]


class MediaDecoder:
    """Actor-pool decode/feature-extract stage (codec loaded once per actor).

    * ``mode='auto'`` (default): REAL pixel/sample decode where the
      container needs no codec library — uncompressed 24-bit BMP
      (:func:`decode_bmp24` + nearest-neighbor resize to ``target_size``
      + mean-pooled 4×4 grayscale grid features) and 16-bit PCM WAV
      (:func:`decode_wav_pcm16` + 16-bucket mean-|amplitude| features);
      everything else falls back to the deterministic fake.
    * ``mode='fake'``: deterministic hash-derived features only (the
      plumbing harness).
    * ``mode='strict'``: raises NotImplementedError for payloads that
      would need codecs absent from this container.
    """

    def __init__(self, mode: str = "auto", target_size: tuple[int, int] = (224, 224)):
        if mode not in ("auto", "fake", "strict"):
            raise ValueError(mode)
        self.mode = mode
        self.target_size = target_size
        # real implementation would do: self.codec = load_codec_library()

    def _decode_one(self, payload: bytes) -> "tuple[int, int, np.ndarray] | None":
        img = decode_bmp24(payload)
        if img is not None:
            h, w = img.shape[:2]
            small = resize_nearest(img, self.target_size)
            gray = small.mean(axis=2, dtype=np.float64)
            gh = resize_nearest(gray[..., None], (4, 4))[:, :, 0]
            return w, h, (gh.reshape(-1) / 255.0).astype(np.float32)
        wav = decode_wav_pcm16(payload)
        if wav is not None:
            n, ch = wav.shape
            amp = np.abs(wav.astype(np.float64)).mean(axis=1)
            # 16 equal time buckets of mean |amplitude|
            edges = np.linspace(0, n, 17).astype(np.int64)
            feats = np.array(
                [amp[a:b].mean() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])]
            )
            return n, ch, (feats / 32768.0).astype(np.float32)
        return None

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, widths, heights, feats = [], [], [], []
        for url, payload in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            ids.append(url)
            if self.mode != "fake":
                real = self._decode_one(payload)
                if real is not None:
                    w, h, f = real
                    widths.append(int(w))
                    heights.append(int(h))
                    feats.append(f)
                    continue
                if self.mode == "strict":
                    raise NotImplementedError(
                        "media PIXEL decode for this payload requires codecs not "
                        "present in this environment (only uncompressed BMP-24 and "
                        "PCM-16 WAV decode natively); run with mode='auto'/'fake' — "
                        "container headers are still parsed for real via sniff_media"
                    )
            digest = hashlib.sha256(payload).digest()
            info = sniff_media(payload)
            if info["width"] is not None:
                # real dimensions from the container header
                widths.append(int(info["width"]))
                heights.append(int(info["height"]))
            else:
                widths.append(int.from_bytes(digest[0:2], "big") % 4096)
                heights.append(int.from_bytes(digest[2:4], "big") % 4096)
            # deterministic fake embedding: first 16 digest bytes → float32s
            feats.append((np.frombuffer(digest[:16], np.uint8) / 255.0).astype(np.float32))
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.large_string()),
                pa.array(widths, pa.int32()),
                pa.array(heights, pa.int32()),
                pa.array([f.tolist() for f in feats], pa.list_(pa.float32())),
            ],
            names=["media_id", "width", "height", "features"],
        )
