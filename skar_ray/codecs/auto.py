"""Per-column codec auto-selection.

Replaces the reference's hardwired ``Encoding::Plain`` + page codec
(/root/reference/skar/src/write_parquet.rs:49-53,232-244) with a
sampling selector: stride-sample at most 1024 rows of the column, cap
a string sample at a 64 KiB row prefix, encode the sample with every
admissible codec (including the zstd page pass the container applies),
and pick the minimum estimated bytes.  The choice and the per-candidate
estimates are recorded in the container header, or, when a hashed
encode chose the codec once for the corpus, in ``_manifest/_job.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import base
from . import plain, dictionary, rle, for_bitpack, fsst, delta, bytesplit, list_child, struct_child, map_child  # noqa: F401  (register codecs)

ZSTD_LEVEL = 9  # mirror of skar's Zstd(9) pages (write_parquet.rs:239)
_SAMPLE_ROWS = 1024


def candidates_for(t: pa.DataType) -> list[str]:
    if base.is_string_like(t):
        return ["rle", "dict", "fsst", "plain"]
    if base.is_int_like(t):
        return ["for_bitpack", "delta", "rle", "dict", "bytesplit", "plain"]
    if pa.types.is_boolean(t):
        return ["for_bitpack", "rle", "dict", "plain"]
    if pa.types.is_floating(t):
        return ["bytesplit", "rle", "dict", "plain"]
    if base.is_numeric_list(t):
        return ["list_child", "plain"]  # child values get their own codec
    if pa.types.is_struct(t):
        return ["struct_child"]  # one auto-selected stream per field
    if pa.types.is_map(t):
        return ["map_child"]
    return ["plain"]


def _zstd() -> pa.Codec:
    return pa.Codec("zstd", compression_level=ZSTD_LEVEL)


def page_compress(payload: bytes) -> tuple[bytes, str]:
    """zstd the payload at ``ZSTD_LEVEL`` (both profiles), keep
    whichever is smaller; returns ``(blob, "zstd" | "raw")``."""
    if len(payload) == 0:
        return payload, "raw"
    z = _zstd().compress(payload).to_pybytes()
    if len(z) < len(payload):
        return z, "zstd"
    return payload, "raw"


def page_decompress(blob: bytes, page: str, raw_len: int) -> bytes:
    if page == "raw":
        return blob
    return _zstd().decompress(blob, raw_len).to_pybytes()


def raw_size_of(arr: pa.Array) -> int:
    return sum(b.size for b in arr.buffers() if b is not None)


@dataclass
class Encoded:
    codec: str
    meta: dict
    blob: bytes
    page: str          # "raw" | "zstd"
    payload_len: int   # pre-page-compression payload bytes
    raw_bytes: int     # arrow buffer bytes of the source column
    estimates: dict = field(default_factory=dict)

    @property
    def enc_bytes(self) -> int:
        return len(self.blob)


# the FSST trainer's own budget; picks every codec a 256 KiB cap picked
# on the benchmark corpora at half the selector time (BENCH.md addendum)
_SAMPLE_BYTE_CAP = 64 << 10


def sample_of(arr: pa.Array, sample_rows: int = _SAMPLE_ROWS) -> pa.Array:
    """Stride-sample ``sample_rows`` rows; for string columns keep only
    the row prefix that first reaches ``_SAMPLE_BYTE_CAP`` bytes, so an
    estimate reads at most 64 KiB plus one row of values."""
    n = len(arr)
    if n > sample_rows:
        idx = np.linspace(0, n - 1, sample_rows).astype(np.int64)
        sample = arr.take(pa.array(idx))
    else:
        sample = arr
    if base.is_string_like(arr.type) and len(sample):
        # fill_null: binary_length is null for null rows, and casting a
        # masked float array to int64 produces garbage sentinels that
        # break the cumsum/searchsorted cap
        lens = np.asarray(pc.fill_null(pc.binary_length(sample), 0)).astype(np.int64)
        cum = np.cumsum(lens)
        if cum[-1] > _SAMPLE_BYTE_CAP:
            keep = int(np.searchsorted(cum, _SAMPLE_BYTE_CAP)) + 1
            sample = sample.slice(0, keep)
    return sample


def select_codec(arr: pa.Array, fsst_table=None) -> tuple[str, dict]:
    """Return (winner, per-candidate estimated bytes on the sample).

    ``fsst_table``: a pre-trained partition symbol table — reused for the
    fsst estimate instead of training a second table on the sample.
    """
    if len(arr) == 0:
        # "plain" cannot encode nested types (map/struct): route an
        # empty column to the type's own codec family, not a hardcoded
        # fallback — an empty map child otherwise wrote an object-dtype
        # payload that failed to decode
        from .plain import PlainCodec

        if PlainCodec().can_encode(arr.type):
            return "plain", {}
        return candidates_for(arr.type)[0], {}
    sample = sample_of(arr)
    names = candidates_for(arr.type)
    if base.is_string_like(arr.type) and len(sample) > 16:
        # dict/rle cannot win on near-unique values; fsst cannot beat a
        # dictionary on near-constant ones — skip the losing estimates
        # (each costs a dictionary build / symbol-table training)
        distinct_ratio = pc.count_distinct(sample).as_py() / len(sample)
        if distinct_ratio > 0.6:
            names = [n for n in names if n not in ("dict", "rle")]
        elif distinct_ratio < 0.05:
            names = [n for n in names if n != "fsst"]
    estimates: dict[str, int] = {}
    for name in names:
        try:
            if name == "fsst" and fsst_table is not None:
                payload, _ = base.get_codec("fsst").encode(sample, table=fsst_table)
            else:
                payload, _ = base.encode_array(sample, name)
            z, _page = page_compress(payload)
            estimates[name] = len(z)
        except Exception:
            continue
    if not estimates:
        return "plain", estimates
    winner = min(estimates.items(), key=lambda kv: (kv[1], kv[0]))[0]
    return winner, estimates


def encode_column(arr: pa.Array, codec_name: str | None = None, fsst_table=None) -> Encoded:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    estimates: dict = {}
    if codec_name is None:
        codec_name, estimates = select_codec(arr)
    if codec_name == "fsst" and fsst_table is not None:
        codec = base.get_codec("fsst")
        payload, meta = codec.encode(arr, table=fsst_table)
        meta["codec"] = "fsst"
        meta["type"] = base.type_name(arr.type)
        meta["n"] = len(arr)
    else:
        payload, meta = base.encode_array(arr, codec_name)
    blob, page = page_compress(payload)
    return Encoded(
        codec=codec_name,
        meta=meta,
        blob=blob,
        page=page,
        payload_len=len(payload),
        raw_bytes=raw_size_of(arr),
        estimates=estimates,
    )


def decode_column(enc_blob: bytes, meta: dict, page: str, payload_len: int) -> pa.Array:
    payload = page_decompress(enc_blob, page, payload_len)
    return base.decode_array(payload, meta)
